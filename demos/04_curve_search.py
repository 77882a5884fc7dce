"""The search for a simple closed curve with |trace| <= 2.

Any representation with half-lengths under the Bers bound and class Euler
+-1 or Euler 0 of Minus sign admits such a curve; the search produces one
together with a certificate that records the input's coordinates, the
twist moves along the gammas and the curve word, whose replay rebuilds the
representation and re-evaluates the word.
"""

from srk import genus2, pants, search
from srk.pants import PantsCase

# an easy case: the separating curve delta_3 hands the problem to the
# one-holed torus reduction straight away
rep = genus2.build_glued(pants.EU_PLUS1, pants.EU_MINUS1,
                         (1.0, 1.1, 1.2), (0.4, -0.3, 0.7))
out = search.search_nonhyperbolic(rep)
print("found curve:", out.word, " trace:", round(out.trace, 6))
print("replay:", search.replay_certificate(out.certificate))

# near the Bers corner: no torus window opens, and no twist of the lattice
# step brings a beta curve to |trace| <= 2, so the search twists once along
# beta_3 and reduces on a handle of the twisted delta_3.  The twist is a
# mapping-class move on the generators A1, B1, A2, B2: the curve is a word
# in them, and the certificate records no move for it.
hard = genus2.build_glued(PantsCase("tri", 1), pants.EU_MINUS1,
                          (2.177271425843055, 2.0216335715832017,
                           2.2096542923498688),
                          (1.1546330313413034, 0.7929074417928108,
                           1.2030657845188415))
out = search.search_nonhyperbolic(hard)
print("\nhard case: rounds:", out.rounds)
step = next(h for h in out.history if h["move"] == "beta_twist")
print(f"  twist along beta_{step['beta']} by {step['k']:+d}")
# a torus reduction ran, or the twisted delta_3 is itself non-hyperbolic
# and the word is its handle's commutator
route = [h for h in out.history if h["move"] == "torus"]
print("  torus route:", route[0]["moves"] if route else "none, the word "
      "is the twisted delta_3")
print("found curve:", out.word, " trace:", round(out.trace, 6))
print("certificate moves:", out.certificate.moves)
print("replay ok:", search.replay_certificate(out.certificate)["ok"])

# a Markov reduction on the one-holed torus, by hand
from srk import torus
res = torus.reduce_triple(3, 4, 10)
# the witness is a word in the starting pair's letters ("a", +-1), ("b", +-1)
word = " ".join(name if exp > 0 else f"{name}^-1"
                for name, exp in res.curve_word)
print("\ntrace triple (3, 4, 10) reduces via", res.moves, "to", res.triple,
      "- witness word:", word)

# Euler class 0 with sign Plus is outside the search's guarantee
plus = genus2.build_glued(PantsCase("tri", 1), PantsCase("tri", 1),
                          (1.0, 1.1, 1.2), (0.4, 0.2, 0.6))
try:
    search.search_nonhyperbolic(plus)
except search.OutOfScopeError as exc:
    print("\nsign Plus input rejected:", exc)
