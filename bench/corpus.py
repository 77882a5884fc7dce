"""Seeded input corpora for the benchmark workloads.

Every input is generated here with numpy alone: srk is never imported, so
the program under test only ever sees the coordinate records, never a value
it computed itself.  The samplers mirror those of the acceptance suite
(criterion 3 for `classify`, criterion 9 for `search`), re-implemented so the
benchmark does not depend on test code.

A coordinate record is the JSON text `{"eps": [tag, tag], "a": [..], "t": [..]}`
that `srk classify` and `srk search` read.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

import numpy as np

B2_HALF = 2.2254           # the search's admissible half-length bound

EULER = {"EuPlus1": 1, "EuMinus1": -1}
HEX = ("EuPlus1", "EuMinus1")
TRI = ("Eu0PlusTriangle", "Eu0MinusTriangle")
SELFHEX = ("Eu0PlusSelfHex", "Eu0MinusSelfHex")
UPPER = ("Eu0UpperFlat(+1)", "Eu0UpperFlat(-1)")
LOWER = ("Eu0LowerFlat(+1)", "Eu0LowerFlat(-1)")
DIAG = "Eu0DiagonalFlat"

# criterion 9: one sampler per class the search guarantees
SEARCH_PAIRS = [
    ("EuPlus1", "EuMinus1"),
    ("Eu0PlusTriangle", "Eu0MinusTriangle"),
    ("Eu0PlusSelfHex", "Eu0PlusSelfHex"),
    ("Eu0UpperFlat(+1)", "Eu0LowerFlat(+1)"),
    ("Eu0PlusTriangle", "EuMinus1"),
    ("Eu0MinusSelfHex", "EuMinus1"),
    ("Eu0MinusTriangle", "EuPlus1"),
    ("Eu0UpperFlat(-1)", "EuPlus1"),
]

# the four pairs whose searches re-coordinatise near the Bers corner
CORNER_PAIRS = [
    ("EuPlus1", "EuMinus1"),
    ("Eu0PlusTriangle", "Eu0MinusTriangle"),
    ("Eu0PlusTriangle", "EuMinus1"),
    ("Eu0MinusTriangle", "EuPlus1"),
]
CORNER_A = (1.9, B2_HALF)

# a search that re-coordinatises once before it concludes; the warm-up runs
# it so that the lazy `scipy.optimize` import is paid during set-up
RECOORD_RECORD = json.dumps({
    "eps": ["EuPlus1", "EuMinus1"],
    "a": [2.198357685272788, 2.0959027896033517, 2.0510531380398436],
    "t": [1.6175391777729755, 1.3997193333038709, 1.527668421916658]})

CLASSIFY_A_MAX = 1.8
CLASSIFY_T_MAX = 1.5
WIDE_T = (10.0, 40.0)      # twist range that long twist orbits reach
WIDE_EVERY = 8             # one classify op in eight carries a wide twist


def euler_nominal(eps: Tuple[str, str]) -> int:
    return EULER.get(eps[0], 0) + EULER.get(eps[1], 0)


def kind(tag: str) -> str:
    if tag in HEX:
        return "hex"
    if tag in TRI:
        return "tri"
    if tag in SELFHEX:
        return "selfhex"
    return "flat"


def valid_pairs() -> List[Tuple[str, str]]:
    """The 56 ordered case pairs that glue (acceptance criterion 3)."""
    pairs = []
    for e1 in HEX + TRI:
        for e2 in HEX + TRI:
            pairs.append((e1, e2))
    for e1 in SELFHEX:
        for e2 in HEX + SELFHEX:
            pairs.append((e1, e2))
            if e2 in HEX:
                pairs.append((e2, e1))
    for u in UPPER:
        for lo in LOWER:
            pairs += [(u, lo), (lo, u)]
    for f in UPPER + LOWER + (DIAG,):
        for h in HEX:
            pairs += [(f, h), (h, f)]
    return list(dict.fromkeys(pairs))


def _delta(a: np.ndarray) -> float:
    ch = np.cosh(a)
    return float(2.0 * ch.prod() - (ch ** 2).sum() + 1.0)


def sample_a(tag: str, rng: np.random.Generator, amax: float) -> List[float]:
    """A half-length triple on the delta stratum the tag needs."""
    k = kind(tag)
    if k == "hex":
        return rng.uniform(0.2, amax, 3).tolist()
    if k == "tri":
        while True:
            a = rng.uniform(0.2, amax, 3)
            if _delta(a) > 0.02:
                return a.tolist()
    small = np.sort(rng.uniform(0.15, min(0.9, amax / 2.4), 2))
    if k == "flat":
        a3 = small.sum()
    else:
        top = min(0.7, amax - small.sum() - 0.02)
        a3 = small.sum() + 0.08 + rng.uniform() * max(top - 0.08, 0.01)
    full = [small[0], small[1], a3]
    s = int(rng.integers(0, 3))      # any cyclic position for the long side
    return [float(full[(i - s) % 3]) for i in range(3)]


def _record(eps, a, t) -> str:
    return json.dumps({"eps": list(eps), "a": [float(x) for x in a],
                       "t": [float(x) for x in t]})


def classify_corpus(seed: int, n: int) -> List[Dict]:
    """Cycle over all valid pairs; one record in eight gets a wide twist."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    pairs = valid_pairs()
    out = []
    for r in range(n):
        if r % WIDE_EVERY == 0:
            wide_at = r + int(rng.integers(0, WIDE_EVERY))
        eps = pairs[r % len(pairs)]
        anchor = eps[0] if kind(eps[0]) != "hex" else eps[1]
        a = sample_a(anchor, rng, CLASSIFY_A_MAX)
        t = rng.uniform(-CLASSIFY_T_MAX, CLASSIFY_T_MAX, 3)
        wide = r == wide_at
        if wide:
            t[int(rng.integers(0, 3))] = (rng.choice([-1.0, 1.0])
                                          * rng.uniform(*WIDE_T))
        out.append({"text": _record(eps, a, t), "euler": euler_nominal(eps),
                    "wide": wide})
    return out


def search_corpus(seed: int, n: int) -> List[Dict]:
    """Criterion 9's class samplers, cycled: a <= B2_HALF, |t| <= 3."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    out = []
    for r in range(n):
        eps = SEARCH_PAIRS[r % len(SEARCH_PAIRS)]
        a = sample_a(eps[0], rng, B2_HALF)
        out.append({"text": _record(eps, a, rng.uniform(-3.0, 3.0, 3))})
    return out


def corner_corpus(seed: int, n: int) -> List[Dict]:
    """The four corner pairs with every half-length in [1.9, B2_HALF]."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    out = []
    for r in range(n):
        eps = CORNER_PAIRS[r % len(CORNER_PAIRS)]
        while True:
            a = rng.uniform(*CORNER_A, 3)
            if "tri" not in (kind(eps[0]), kind(eps[1])) or _delta(a) > 0.02:
                break
        out.append({"text": _record(eps, a, rng.uniform(-3.0, 3.0, 3))})
    return out


def orbit_corpus(seed: int, n: int) -> List[Dict]:
    """One `orbit-stats --seed` value per op."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    return [{"seed": int(s)} for s in rng.integers(0, 2 ** 31 - 1, n)]
