"""Genus-2 coordinates: gluing, trace formulas, Euler class, sign invariant.

A representation is a pair of pants tags, three half-lengths and three
twists.  Nine named curves have holonomy words in the cocycle data; where a
closed trace formula exists it matches the matrix product to 1e-9.
"""

import numpy as np

from srk import genus2, pants

rep = genus2.build_glued(pants.EU_PLUS1, pants.EU_MINUS1,
                         a=(1.0, 1.1, 1.2), t=(0.4, -0.3, 0.7))
print("coordinates:", rep.to_json())
print("Euler class (Milnor algorithm, angle model):", genus2.euler_class(rep))
print("sign invariant:", genus2.sign_invariant(rep))

print("\ncurve traces (closed form vs matrix):")
for tag in genus2.CURVE_TAGS:
    matrix = genus2.trace_curve_matrix(rep, tag)
    value, covered = genus2.trace_curve_closed_form(rep, tag)
    mark = f"formula agrees to {abs(value - matrix):.1e}" if covered \
        else "matrix route only"
    print(f"  {tag:>7}: {matrix:+10.6f}   {mark}")

# twisting along gamma_3 shifts t_3 by 2 a_3 and moves the delta_3 trace
# along its closed form; gamma traces never move
print("\ntwist orbit of tr delta_3:")
cur = rep
for step in range(4):
    print(f"  t3 = {cur.t[2]:+7.3f}: tr delta3 = "
          f"{genus2.trace_curve_matrix(cur, 'delta3'):9.4f}")
    cur = genus2.dehn_twist_gamma(cur, 3, 1)

# the sign invariant is constant along arbitrary twist orbits
rng = np.random.default_rng(0)
cur = rep
for _ in range(30):
    cur = genus2.dehn_twist_gamma(cur, int(rng.integers(1, 4)),
                                  int(rng.integers(-2, 3)))
print("\nsign after 30 random twists:", genus2.sign_invariant(cur))

# the Fuchsian gluings realise the extremal Euler classes
fuchsian = genus2.build_glued(pants.EU_MINUS1, pants.EU_MINUS1,
                              (0.8, 1.0, 1.2), (0.3, 0.0, -0.2))
print("(-1, -1) gluing has Euler class", genus2.euler_class(fuchsian))
