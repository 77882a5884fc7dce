"""Hyperbolic polygons and the pants cocycles built from them.

Each boundary triple (a1, a2, a3) supports four pants representations up to
conjugation: the two hexagon families of Euler class +1 and -1, and the two
orientations of the Euler class 0 construction (triangle or self-crossing
hexagon, by the sign of the delta invariant).
"""

import numpy as np

from srk import hyptrig, pants
from srk.psl2r import mmul, mtrace

a = (1.0, 1.1, 1.3)
print("delta invariant:", hyptrig.delta_invariant(*a))

hexagon = hyptrig.solve_hexagon(*a)
print("hexagon seams b_i:", np.round(hexagon.b, 6), " Heron D' =",
      round(hexagon.heron, 6))

triangle = hyptrig.solve_triangle(*a)
print("triangle angles:", np.round(triangle.theta, 6), " Heron D =",
      round(triangle.heron, 6))

# a long side flips the geometry to the self-intersecting hexagon
b = (0.5, 0.6, 1.6)
self_hex = hyptrig.solve_self_hexagon(*b)
print("self-hexagon sides d_i:", np.round(self_hex.d, 6))

# every construction satisfies the same pair of cocycle equations
for case in (pants.EU_PLUS1, pants.EU_MINUS1, pants.EU0_PLUS_TRIANGLE):
    rep = pants.build_pants(a, case)
    res = rep.cocycle_residuals()
    print(f"{str(case):>18}: cocycle residuals {res[0]:.2e}, {res[1]:.2e}")

# the sign of tr(AB) carries the Euler parity (trace-sign classification)
for case in (pants.EU_PLUS1, pants.EU0_PLUS_TRIANGLE):
    rep = pants.build_pants(a, case)
    la, lb = pants.free_generators(rep)
    print(f"{str(case):>18}: tr(AB) = {mtrace(mmul(la, lb)):+.4f} "
          f"-> class {pants.pants_trace_sign(rep)}")
