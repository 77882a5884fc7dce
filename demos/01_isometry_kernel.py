"""A tour of the hyperbolic isometry kernel.

Matrices are unit-determinant 2x2 reals modulo sign, written as row-major
4-tuples (a, b, c, d) and multiplied with `mmul`; words use the opposite
composition order (first letter acts first), and the commutator [A, B] is
B^-1 A^-1 B A, whose trace needs no sign choice.
"""

import math

import numpy as np

from srk import psl2r
from srk.psl2r import (classify, commutator, commutator_geometry,
                       elliptic_power, evaluate_word, handle_sign,
                       make_rotation, make_translation, mmul, mtrace)

# translations and rotations
T2 = make_translation(2.0)
R = make_rotation(math.pi / 2)
print("tr T_2 =", mtrace(T2), "= 2 cosh(1) =", 2 * math.cosh(1.0))
print("classify(T_2):", classify(T2))
print("classify(R_(pi/2)):", classify(R))

# the reversed composition convention: "ab" maps to M(b) M(a)
word = evaluate_word({"a": T2, "b": R}, "ab")
print("\nword 'ab' equals R T2:", np.allclose(word, mmul(R, T2)))

# commutator of a translation with the half-turn S doubles the shift
S = make_rotation(math.pi)
print("\n[T_2, S] = T_4?",
      np.allclose(commutator(T2, S), make_translation(4.0), atol=1e-12))

# perpendicular crossing axes: elliptic / parabolic / hyperbolic commutator
# according to sinh(l_A/2) sinh(l_B/2) against 1
for la in (0.8, 2 * math.asinh(1.0), 2.4):
    geo = commutator_geometry(la, la)
    print(f"lambda = {la:.3f}: {type(geo).__name__} (crossing {geo.crossing:.3f})")

# handle orientation: crossing axes give +1, disjoint axes -1
P = make_translation(2.0)
Q = mmul(psl2r.R_LEFT, make_translation(2.0), psl2r.R_RIGHT)
print("\nhandle_sign, crossing axes:", handle_sign(P, Q),
      " Tr[P,Q] =", round(mtrace(commutator(P, Q)), 4))

# an elliptic power makes B A^n elliptic and not of order two
A = make_rotation(1.0)
B = make_translation(3.0)
n = elliptic_power(A, B)
print("\nsmallest n with B A^n elliptic:", n)
