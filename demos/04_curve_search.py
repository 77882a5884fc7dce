"""The descent search for a simple closed curve with |trace| <= 2.

Any representation with half-lengths under the Bers bound and class Euler
+-1 or Euler 0 of Minus sign admits such a curve; the search produces one
together with a certificate that records the coordinates of each
representation it passes through, and whose replay rebuilds them.
"""

import numpy as np

from srk import genus2, pants, search
from srk.pants import PantsCase

# an easy case: the separating curve delta_3 hands the problem to the
# one-holed torus reduction straight away
rep = genus2.build_glued(pants.EU_PLUS1, pants.EU_MINUS1,
                         (1.0, 1.1, 1.2), (0.4, -0.3, 0.7))
out = search.search_nonhyperbolic(rep)
print("found curve:", out.word, " trace:", round(out.trace, 6))
print("replay:", search.replay_certificate(out.certificate))

# near the Bers corner the polygon strategies engage and the search
# re-coordinatises on the dual curve triple before concluding
hard = genus2.build_glued(pants.EU_PLUS1, pants.EU_MINUS1,
                          (2.093250468557487, 2.1264520637935904,
                           2.020753959571758),
                          (-1.6226775954328718, -1.495973116882266,
                           -1.8424879178000826))
out = search.search_nonhyperbolic(hard)
print("\nhard case: rounds of re-coordinatisation:", out.rounds)
# the certificate holds each link's new coordinates, the search's history
# the fit's residual, which the replay recomputes as the link error
links = [mv["snapshot"] for mv in out.certificate.moves
         if mv["kind"] == "recoordinatize"]
fits = [h["residual"] for h in out.history if h["move"] == "recoordinatize"]
for snap, residual in zip(links, fits):
    print("  new coordinates:", snap["eps"], np.round(snap["a"], 4).tolist(),
          " link residual:", f"{residual:.1e}")
print("found curve:", out.word, " trace:", round(out.trace, 6))
print("replay ok:", search.replay_certificate(out.certificate)["ok"])

# a Markov reduction on the one-holed torus, by hand
from srk import torus
res = torus.reduce_triple(3, 4, 10)
print("\ntrace triple (3, 4, 10) reduces via", res.moves, "to", res.triple,
      "- witness word:", res.curve_word)

# Euler class 0 with sign Plus is outside the search's guarantee
plus = genus2.build_glued(PantsCase("tri", 1), PantsCase("tri", 1),
                          (1.0, 1.1, 1.2), (0.4, 0.2, 0.6))
try:
    search.search_nonhyperbolic(plus)
except search.OutOfScopeError as exc:
    print("\nsign Plus input rejected:", exc)
