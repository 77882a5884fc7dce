"""A tour of the hyperbolic isometry kernel.

Matrices are unit-determinant 2x2 reals modulo sign, written as row-major
4-tuples (a, b, c, d) and multiplied with `mmul`; words use the opposite
composition order (first letter acts first), and the commutator [A, B] is
B^-1 A^-1 B A, whose trace needs no sign choice.  Lifts to the universal
cover turn the surface relator into a power of the deck generator: the
Milnor Euler class.  A lift carries one angle, a branch of arg(c i + d),
on which the deck generator is the shift -pi.
"""

import math

from srk import genus2, pants, psl2r
from srk.psl2r import (commutator, euler_class_closed, handle_sign, lift,
                       make_rotation, make_translation, minv, mmul, mtrace)

# translations and rotations
T2 = make_translation(2.0)
R = make_rotation(math.pi / 2)
print("tr T_2 =", mtrace(T2), "= 2 cosh(1) =", 2 * math.cosh(1.0))
print("tr R_(pi/2) =", mtrace(R), "= 2 cos(pi/4) =", 2 * math.cos(math.pi / 4))

# the reversed composition convention: the word "ab" maps to M(b) M(a)
print("\nword 'ab' under a -> T_2, b -> R_(pi/2):", mmul(R, T2))

# commutator of a translation with the half-turn S doubles the shift
gap = max(abs(x - y) for x, y in zip(commutator(T2, psl2r.S),
                                     make_translation(4.0)))
print("\n[T_2, S] = T_4 up to", gap)

# handle orientation: crossing axes give +1, disjoint axes -1
P = make_translation(2.0)                                    # axis (0, inf)
Q = mmul(psl2r.R_LEFT, make_translation(2.0), psl2r.R_RIGHT)  # axis (-1, 1)
C = tuple(v / math.sqrt(2.0) for v in (7.0, 5.0, 1.0, 1.0))  # 0, inf -> 5, 7
F = mmul(C, make_translation(1.5), minv(C))                  # axis (5, 7)
print("\nhandle_sign, crossing axes:", handle_sign(P, Q),
      " Tr[P,Q] =", round(mtrace(commutator(P, Q)), 4))
print("handle_sign, disjoint axes:", handle_sign(P, F),
      " Tr[P,F] =", round(mtrace(commutator(P, F)), 4))

# the lift to the universal cover: (g, atan2(c, d)), a branch of
# arg(c i + d); rotation by theta lifts to -theta/2
for theta in (math.pi / 2, 3.0):
    print(f"\nlift(R_{theta:.4g}) angle:", lift(make_rotation(theta))[1],
          "= -theta/2 =", -theta / 2)

# the Milnor algorithm on a Fuchsian gluing: in the angle model the
# lifted relator [A2, B2][A1, B1] is (I, 2 pi), the deck generator to the
# power -2
rep = genus2.build_glued(pants.EU_MINUS1, pants.EU_MINUS1,
                         (0.8, 1.0, 1.2), (0.3, 0.0, -0.2))
a1, b1, a2, b2 = genus2.generator_images(rep)
print("\n(-1, -1) gluing: handle signs", handle_sign(a1, b1),
      handle_sign(a2, b2), "and Euler class",
      euler_class_closed(a1, b1, a2, b2))
