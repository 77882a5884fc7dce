"""Glued genus-2 representations in pants-and-twist coordinates.

A closed genus-2 surface is two pairs of pants glued along three curves
gamma_1, gamma_2, gamma_3.  A representation with hyperbolic holonomy on the
gluing curves is encoded by the boundary half-lengths (a1, a2, a3), a pants
construction tag on each side, and three twist parameters (t1, t2, t3).

Named curves and their holonomy words (matrices multiply left to right):

    gamma_i  ->  T_{2 a_i}
    beta_i   ->  X_i^-1 T_{-t_k} Y_i T_{t_j}          (i, j, k) cyclic
    delta_k  ->  [beta_i, gamma_j]                    (i, j, k) cyclic

where X (first pants) and Y (second pants) are the pants edge matrices.
The second pants realises its tag through the mirrored construction
(`pants_cases`); with that convention the published closed trace formulas
hold verbatim and the relative Euler classes of the two sides add up to
the Euler class of the closed representation.

A `GluedRep` is the one thing that gets evaluated: `curve_matrix` reads
every letter of a word off a rep, a named curve or one of the generators
A1, B1, A2, B2 in which the search writes every word that is not a named
curve, and keeps each matrix in the rep's memo; `generator_images` builds
the four generator images.  The search and the certificate replay move
between reps with `dehn_twist_gamma`, and `place_twists` is the one home
of twist normalisation: one pass finds each count and placed twist, and
later calls read both from its cache on the rep.

`twist_coeffs` is the one home of how a beta or delta trace depends on the
twists, and `twist_trace` evaluates it.  With T_{-t_k} = e^{-t_k/2} E11 +
e^{t_k/2} E22, X_i^-1 T_{-t_k} Y_i = e^{-t_k/2} P + e^{t_k/2} Q for
P = X_i^-1 E11 Y_i and Q = X_i^-1 E22 Y_i, so that

    tr beta_i  = P11 e^{(t_j - t_k)/2} + Q11 e^{(t_j + t_k)/2}
                 + P22 e^{-(t_j + t_k)/2} + Q22 e^{(t_k - t_j)/2}
    tr delta_k = 2 - s (c_- e^{-t_k} + c_0 + c_+ e^{t_k})

with s = 4 sinh(a_j)^2, c_- = P12 P21, c_0 = P12 Q21 + Q12 P21 and c_+ =
Q12 Q21, as gamma_j commutes with the T_{t_j} that ends beta_i.  The
search scores its lattice and flat-twist probes, and orbit-stats its rows,
with `twist_trace`; `trace_curve_matrix` evaluates certificates, the
classify table, the sign invariant and the torus windows.

Value objects are named tuples, except `GluedRep`, which holds caches.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Optional, Tuple

from . import psl2r
from .hyptrig import long_index
from .pants import PantsCase, PantsRep, build_pants, case_from_string
from .psl2r import (PSL2Error, Quad, commutator, make_translation, minv, mmul,
                    mtrace, side_of_two)
from .tolerances import TWIST_EDGE

GAMMA_TAGS = ("gamma1", "gamma2", "gamma3")
BETA_TAGS = ("beta1", "beta2", "beta3")
DELTA_TAGS = ("delta1", "delta2", "delta3")
CURVE_TAGS = GAMMA_TAGS + BETA_TAGS + DELTA_TAGS

# delta_k is the commutator of (beta_i, gamma_j) in cyclic order (i, j, k)
_DELTA_PAIRS = {"delta1": ("beta2", "gamma3"),
                "delta2": ("beta3", "gamma1"),
                "delta3": ("beta1", "gamma2")}

# the letters of the generators, in the order `generator_images` returns
GENERATORS = ("A1", "B1", "A2", "B2")


class Genus2Error(PSL2Error):
    pass


class GluedRep:
    """Glued genus-2 coordinate datum: the two pants and the twists.

    Two reps are equal when `p1`, `p2` and `t` are; the memo `quads` and
    the cached twist placement take no part, nor in the hash or the repr.
    """

    __slots__ = ("p1", "p2", "t", "quads", "_normal")

    def __init__(self, p1: PantsRep, p2: PantsRep,
                 t: Tuple[float, float, float]) -> None:
        self.p1, self.p2, self.t = p1, p2, t
        # the matrices of the word letters evaluated so far, curve tags and
        # generators: `curve_matrix` reads and fills it
        self.quads: Dict[str, Quad] = {}
        # (counts, normalised rep or None when no count moves) once
        # `place_twists` has run, which alone reads it
        self._normal = None

    def _key(self) -> tuple:
        return self.p1, self.p2, self.t

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"GluedRep(p1={self.p1!r}, p2={self.p2!r}, t={self.t!r})"

    @property
    def a(self) -> Tuple[float, float, float]:
        return self.p1.a

    @property
    def eps1(self) -> PantsCase:
        return self.p1.case

    @property
    def eps2(self) -> PantsCase:
        """The second tag, which its pants realises mirrored (see
        `pants_cases`)."""
        return self.p2.case.euler_flipped()

    @property
    def euler_nominal(self) -> int:
        return self.eps1.euler + self.eps2.euler

    def to_dict(self) -> Dict:
        """The coordinate record that `to_json` writes and `parse_record`
        reads; a certificate's snapshots are these records."""
        return {"eps": [str(self.eps1), str(self.eps2)],
                "a": list(self.a), "t": list(self.t)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "GluedRep":
        """The rep of a coordinate record (see `parse_record`)."""
        try:
            data = json.loads(text)
        except RecursionError:          # malformed, as any bad record
            raise Genus2Error("record nested too deeply to decode") from None
        (eps1, eps2), a, t = parse_record(data)
        return build_glued(eps1, eps2, a, t)


def is_finite_number(x) -> bool:
    """Whether the JSON value `x` is an int or float that converts to a
    finite float: not a bool, inf, NaN or an int too large for a float."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:
        return False


def parse_record(data) -> Tuple[Tuple[PantsCase, PantsCase], list, list]:
    """The two cases and the a and t lists of a decoded coordinate record
    {"eps": [2 case names], "a": [3 numbers], "t": [3 numbers]}, the one
    check of input records and certificate snapshots.  Any other shape, or
    a value that `is_finite_number` refuses, raises Genus2Error, an unknown
    case name PantsError; other keys are not read."""
    get = data.get if isinstance(data, dict) else {}.get
    eps, a, t = get("eps"), get("a"), get("t")
    if not (type(eps) is list and len(eps) == 2
            and type(eps[0]) is type(eps[1]) is str):
        raise Genus2Error(f"coordinate record needs 2 case names in 'eps', "
                          f"got {eps!r}")
    if not (type(a) is type(t) is list and len(a) == len(t) == 3
            and all(map(is_finite_number, a + t))):
        raise Genus2Error(f"coordinate record needs 3 finite numbers in each "
                          f"of 'a' and 't', got {a!r} and {t!r}")
    return (case_from_string(eps[0]), case_from_string(eps[1])), a, t


def pants_cases(eps1: PantsCase,
                eps2: PantsCase) -> Tuple[PantsCase, PantsCase]:
    """The construction tags of the two pants glued for the case pair:
    the second pants realises its tag mirrored, which swaps the +-1
    hexagons.  Raises when the tags live on different delta strata."""
    s1, s2 = eps1.stratum, eps2.stratum
    if s1 is not None and s2 is not None and s1 != s2:
        raise Genus2Error(f"cases {eps1}, {eps2} live on different strata")
    return eps1, eps2.euler_flipped()


def build_glued(eps1: PantsCase, eps2: PantsCase,
                a: Tuple[float, float, float],
                t: Tuple[float, float, float]) -> GluedRep:
    """Construct the glued representation for an ordered case pair.

    Raises when the two tags live on different delta strata, or when a tag
    is incompatible with the sign of the delta invariant of `a`.
    """
    case1, case2 = pants_cases(eps1, eps2)
    t = tuple(float(x) for x in t)
    return GluedRep(build_pants(a, case1), build_pants(a, case2), t)


# ---------------------------------------------------------------------------
# curve words and traces
# ---------------------------------------------------------------------------

def curve_matrix(rep: GluedRep, tag: str) -> Quad:
    """Holonomy matrix of a word letter: a named curve (SL2 lift fixed by
    the word) or a generator A1, B1, A2, B2 (`generator_images`).

    Memoised in `rep.quads`, so a delta word reuses its beta and gamma and
    a search word its generators; the pants matrices are read only on a
    miss, and the first generator letter asked for stores all four.
    """
    memo = rep.quads
    if tag in memo:
        return memo[tag]
    if tag in GAMMA_TAGS:
        q = make_translation(2.0 * rep.a[GAMMA_TAGS.index(tag)])
    elif tag in BETA_TAGS:
        i = BETA_TAGS.index(tag)
        j, k = (i + 1) % 3, (i + 2) % 3
        t = rep.t
        q = mmul(minv(rep.p1.q[i]), make_translation(-t[k]), rep.p2.q[i],
                 make_translation(t[j]))
    elif tag in DELTA_TAGS:
        bt, gt = _DELTA_PAIRS[tag]
        q = commutator(curve_matrix(rep, bt), curve_matrix(rep, gt))
    elif tag in GENERATORS:
        memo.update(zip(GENERATORS, generator_images(rep)))
        return memo[tag]
    else:
        raise Genus2Error(f"unknown curve tag {tag!r}")
    memo[tag] = q
    return q


def trace_curve_matrix(rep: GluedRep, tag: str) -> float:
    """Trace of the curve word's matrix product.

    For the delta curves the value is canonical (trace of a commutator);
    for the others it is the trace of the SL2 lift fixed by the word.
    Raises Genus2Error when the product overflows (huge twists).
    """
    try:
        tr = mtrace(curve_matrix(rep, tag))
    except ArithmeticError:    # a translation's exp overflows or hits 0
        tr = math.inf
    if not math.isfinite(tr):
        raise Genus2Error(f"trace of {tag} overflows at twists {rep.t}")
    return tr


def twist_coeffs(rep: GluedRep, tag: str) -> Tuple[float, ...]:
    """The twist coefficients of the beta or delta `tag` (module docstring):
    (P11, Q11, P22, Q22) for beta_i and (s, c_-, c_0, c_+) for delta_k, from
    the P and Q of beta_i.  Not cached: no caller reads one curve's twice."""
    is_delta = tag in DELTA_TAGS
    i = BETA_TAGS.index(_DELTA_PAIRS[tag][0] if is_delta else tag)
    xi, yi = minv(rep.p1.q[i]), rep.p2.q[i]
    p = mmul(xi, (1.0, 0.0, 0.0, 0.0), yi)
    q = mmul(xi, (0.0, 0.0, 0.0, 1.0), yi)
    if is_delta:
        return (4.0 * math.sinh(rep.a[i - 2]) ** 2, p[1] * p[2],
                p[1] * q[2] + q[1] * p[2], q[1] * q[2])
    return p[0], q[0], p[3], q[3]


def twist_trace(tag: str, c: Tuple[float, ...], t) -> float:
    """tr `tag` at the twists `t` from its `twist_coeffs` c (module doc)."""
    if tag in DELTA_TAGS:
        tk = t[DELTA_TAGS.index(tag)]
        return 2.0 - c[0] * (c[1] * math.exp(-tk) + c[2] + c[3] * math.exp(tk))
    i = BETA_TAGS.index(tag)
    ej, ek = math.exp(t[i - 2] / 2), math.exp(t[i - 1] / 2)
    return c[0] * ej / ek + c[1] * ej * ek + c[2] / (ej * ek) + c[3] * ek / ej


def trace_curve_closed_form(rep: GluedRep, tag: str) -> Tuple[float, bool]:
    """Closed-form trace where one exists.

    Returns (value, True) when the (case pair, curve) combination is covered
    by one of the published formulas or a cyclic companion of one, and
    (trace_curve_matrix(rep, tag), False) otherwise.  Raises Genus2Error
    when the formula overflows (huge twists).
    """
    try:
        val = _closed_form(rep.eps1, rep.eps2, rep.a, rep.t, tag, rep.p1,
                           rep.p2)
    except OverflowError:      # cosh, sinh or a square overflows
        val = math.inf
    if val is None:
        return trace_curve_matrix(rep, tag), False
    if not math.isfinite(val):
        raise Genus2Error(f"closed form of {tag} overflows at twists {rep.t}")
    return val, True


def _closed_form(eps1: PantsCase, eps2: PantsCase, a, t, tag: str,
                 p1: PantsRep, p2: PantsRep) -> Optional[float]:
    """The formula for `tag`; p1 and p2 are the pants realising eps1 and
    the mirrored eps2, whose solutions the formulas read.  i is the tag's
    index and (i, j, k) is cyclic; the self-hexagon and flat formulas name
    the long side L by its index (`long_index`)."""
    ch, sh = math.cosh, math.sinh
    if tag in GAMMA_TAGS:
        return 2.0 * ch(a[GAMMA_TAGS.index(tag)])
    is_beta = tag in BETA_TAGS
    i = (BETA_TAGS if is_beta else DELTA_TAGS).index(tag)
    j, k = (i + 1) % 3, (i + 2) % 3
    k1, s1 = eps1.kind, eps1.eps
    k2, s2 = eps2.kind, eps2.eps

    hexkinds = ("plus1", "minus1")
    if k1 in hexkinds and k2 in hexkinds:
        if k1 == k2:
            return None            # Euler class +-2: outside the table
        b = p1.solution.b
        if is_beta:
            return (2.0 * ch(t[j] / 2) * ch(t[k] / 2)
                    + 2.0 * ch(b[i]) * sh(t[j] / 2) * sh(t[k] / 2))
        return 2.0 + 4.0 * (sh(a[k]) * sh(b[j]) * sh(t[i] / 2)) ** 2

    if k1 == "tri" and k2 == "tri":
        theta = p1.solution.theta
        if s1 == s2:
            if is_beta:
                return (2.0 * ch(t[j] / 2) * ch(t[k] / 2)
                        + 2.0 * math.cos(theta[i]) * sh(t[j] / 2) * sh(t[k] / 2))
            return 2.0 - 4.0 * (math.sin(theta[j]) * sh(a[k])
                                * sh(t[i] / 2)) ** 2
        if is_beta:
            return (2.0 * sh(t[j] / 2) * sh(t[k] / 2)
                    + 2.0 * math.cos(theta[i]) * ch(t[j] / 2) * ch(t[k] / 2))
        return 2.0 + 4.0 * (math.sin(theta[j]) * sh(a[k]) * ch(t[i] / 2)) ** 2

    if k1 == "selfhex" and k2 == "selfhex":
        d = p1.solution.d
        if s1 == s2:
            if is_beta:
                return None
            return 2.0 + 4.0 * (sh(t[i] / 2) * sh(d[j]) * sh(a[k])) ** 2
        if is_beta:
            sign = -1.0 if i == long_index(a) else 1.0
            return (sign * 2.0 * sh(t[j] / 2) * sh(t[k] / 2)
                    + 2.0 * ch(d[i]) * ch(t[j] / 2) * ch(t[k] / 2))
        return 2.0 - 4.0 * (ch(t[i] / 2) * sh(d[j]) * sh(a[k])) ** 2

    if {k1, k2} == {"flat_upper", "flat_lower"}:
        if is_beta or i != long_index(a):
            return None
        u = s1 if k1 == "flat_upper" else s2
        v = s2 if k1 == "flat_upper" else s1
        return (2.0 + 4.0 * u * v * sh(a[j]) ** 2 * sh(a[k]) ** 2
                * math.exp(-t[i] if k1 == "flat_upper" else t[i]))

    zero_kinds = ("tri", "selfhex", "flat_upper", "flat_lower", "flat_diag")
    if k1 in zero_kinds and k2 in hexkinds:
        return _mixed_closed_form(eps1, eps2, a, t, tag, i, j, k, p1, p2)
    if k2 in zero_kinds and k1 in hexkinds:
        # exchanging the pants maps the configuration (h, Z; t) onto
        # (Z, flip(h); -t) with identical traces
        return _closed_form(eps2, eps1.euler_flipped(), a,
                            tuple(-x for x in t), tag, p2, p1)
    return None


def _mixed_closed_form(eps1: PantsCase, eps2: PantsCase, a, t, tag: str,
                       i: int, j: int, k: int, p1: PantsRep,
                       p2: PantsRep) -> Optional[float]:
    """Closed forms for (Euler class 0 construction, hexagon) pairs.

    Stated against the -1 hexagon; against the +1 hexagon the same delta
    formulas hold with the orientation parameter of the first side negated
    (the mirror image configuration), while the beta words change lift sign
    and are left to the matrix route.
    """
    ch, sh = math.cosh, math.sinh
    is_beta = tag in BETA_TAGS
    s_eff = eps1.eps if eps2.kind == "minus1" else -eps1.eps
    if is_beta and eps2.kind != "minus1":
        return None
    b = p2.solution.b
    if eps1.kind == "tri":
        theta = [s_eff * x for x in p1.solution.theta]
        if is_beta:
            return (-2.0 * math.cos(theta[i] / 2) * ch(b[i] / 2)
                    * ch((t[j] + t[k]) / 2)
                    - 2.0 * math.sin(theta[i] / 2) * sh(b[i] / 2)
                    * sh((t[j] - t[k]) / 2))
        return (2.0 * (sh(a[j]) ** 2 - sh(a[k]) ** 2) / sh(a[i]) ** 2
                + 2.0 * math.sin(theta[j]) * sh(b[j]) * sh(a[k]) ** 2
                * sh(t[i]))
    # the self-hexagon and flat formulas of delta_L, L the long side
    if is_beta or i != long_index(a):
        return None
    if eps1.kind == "selfhex":
        d = [s_eff * x for x in p1.solution.d]
        return (2.0 * ch(a[k]) ** 2
                - 2.0 * ch(b[j]) * ch(d[j]) * sh(a[k]) ** 2
                - 2.0 * ch(t[i]) * sh(a[k]) ** 2 * sh(b[j]) * sh(d[j]))
    if eps1.kind in ("flat_upper", "flat_lower"):
        return (2.0 - 4.0 * sh(b[j] / 2) ** 2 * sh(a[k]) ** 2
                + 2.0 * s_eff * sh(a[j]) * sh(a[k]) ** 2 * sh(b[j])
                * math.exp(-t[i] if eps1.kind == "flat_upper" else t[i]))
    return 2.0 * ch(a[k]) ** 2 - 2.0 * ch(b[j]) * sh(a[k]) ** 2  # flat_diag


# ---------------------------------------------------------------------------
# twists and the sign invariant
# ---------------------------------------------------------------------------

def dehn_twist_gamma(rep: GluedRep, i: int, k: int = 1) -> GluedRep:
    """Twist along gamma_i: t_i -> t_i + k (2 a_i) (positive twist adds)."""
    if i not in (1, 2, 3):
        raise Genus2Error("curve index must be 1, 2 or 3")
    return GluedRep(rep.p1, rep.p2, tuple(gamma_twists(rep.t, rep.a, i, k)))


def gamma_twists(t, a, i: int, k: int) -> list:
    """The twists of `dehn_twist_gamma`, with no rep: t_i + k (2 a_i)."""
    t = list(t)
    t[i - 1] += k * (2.0 * a[i - 1])
    return t


def place_twists(rep: GluedRep) -> Tuple[Tuple[int, int, int], GluedRep]:
    """(counts k_i, normalised rep) with each t_i twisted into [-a_i, a_i]:
    the placed twist is t_i + k_i (2 a_i), a boundary tie moved to +a_i,
    and a count of 0 keeps the bits of t_i (-0.0 stays -0.0).  The rep is
    `rep` itself when no count moves.  One pass finds both, cached on
    `rep`, so its callers share one normalised rep and the curves and
    generators evaluated on it; the search logs the counts as twist moves.
    Raises Genus2Error for a twist so huge that it has lost its place in
    its orbit: the rounded placed twist lies more than TWIST_EDGE outside
    [-a_i, a_i] (before a tie moves it) or off the exact remainder of t_i
    modulo 2 a_i."""
    if rep._normal is not None:
        counts, normal = rep._normal
        return counts, normal or rep
    counts, placed = [], []
    for ti, ai in zip(rep.t, rep.a):
        width = 2.0 * ai
        try:
            k = -math.floor((ti + ai) / width)
        except OverflowError:       # t_i / 2 a_i overflows: refused below
            k = 0
        tn = ti + k * width
        inside = abs(tn) <= ai + TWIST_EDGE
        if abs(tn + ai) < TWIST_EDGE:               # on the lower edge
            k += 1
            tn = ti + k * width
        gap = abs(tn - math.remainder(ti, width))
        if not inside or (gap > TWIST_EDGE and abs(width - gap) > TWIST_EDGE):
            raise Genus2Error(f"twist {ti} lands off its orbit when "
                              f"normalised modulo {width}")
        counts.append(k)
        placed.append(tn if k else ti)
    normal = GluedRep(rep.p1, rep.p2, tuple(placed)) if any(counts) else None
    rep._normal = tuple(counts), normal
    return rep._normal[0], normal or rep


def sign_invariant(rep: GluedRep) -> str:
    """Sign invariant of an Euler class 0 representation: "Plus", "Minus"
    or "Degenerate".

    Degenerate when any of tr delta_1..3 lies within the tolerance band of
    2 (a separating curve too close to the identity to classify), so that
    no cyclic relabelling changes the answer; otherwise Plus when tr
    delta_3 < 2 and Minus when > 2.  The twists are normalised first: the
    invariant is constant along twist orbits, and reading it at the
    normalised point keeps the classification stable at extreme twists
    where tr delta_3 approaches 2 asymptotically.
    """
    if rep.euler_nominal != 0:
        raise Genus2Error("sign invariant needs total Euler class 0")
    rep = place_twists(rep)[1]
    sides = [side_of_two(trace_curve_matrix(rep, tag)) for tag in DELTA_TAGS]
    if 0 in sides:
        return "Degenerate"
    return "Plus" if sides[2] < 0 else "Minus"


def delta_side_consistency(rep: GluedRep) -> bool:
    """Whether tr delta_1, delta_2, delta_3 sit strictly on one side of 2."""
    if rep.euler_nominal != 0:
        raise Genus2Error("side consistency applies to Euler class 0")
    traces = [trace_curve_matrix(rep, tag) for tag in DELTA_TAGS]
    sides = {side_of_two(x) for x in traces}
    if 0 in sides:
        raise Genus2Error(f"degenerate sample: delta traces {traces}")
    return len(sides) == 1


# ---------------------------------------------------------------------------
# Euler class of the glued representation
# ---------------------------------------------------------------------------

def generator_images(rep: GluedRep) -> Tuple[Quad, Quad, Quad, Quad]:
    """Images (A1, B1, A2, B2) of a standard generating quadruple, built
    afresh on each call: the one home of the loop images.  A word reads
    them through `curve_matrix`, which keeps them in the rep's memo.

    Built from co-based loops g_i (gamma_i) and b_i (beta_i) at a common
    base point, which a spanning tree of the gluing complex gives: p3 and
    p5 transport the base vertex v0 to the vertices v3 and v5 of the first
    pants.  The first handle is carried by (b1, g2), the second by (b2, g1)
    conjugated through the connector w = g2^-1 b3.  The matrix product
    [A2, B2][A1, B1] is +-identity, and its lifted deck power is the Euler
    class.
    """
    x, y, a, t = rep.p1.q, rep.p2.q, rep.a, rep.t
    tr_, inv = make_translation, minv
    p3 = mmul(x[1], tr_(a[2]), x[0])                 # transport v0 -> v3
    p5 = mmul(x[2], tr_(a[0]), p3)                   # transport v0 -> v5
    g1 = mmul(inv(p3), tr_(2 * a[0]), p3)
    g2 = mmul(inv(p5), tr_(2 * a[1]), p5)
    b1 = mmul(inv(x[0]), tr_(-t[2] - a[2]), inv(y[1]), tr_(-a[0]),
              inv(y[2]), tr_(t[1]), p5)
    b2 = mmul(inv(x[0]), tr_(-t[2] - a[2]), inv(y[1]), tr_(t[0]), p3)
    b3 = mmul(inv(p5), tr_(-t[1]), y[2], tr_(a[0] + t[0]), p3)
    w = mmul(inv(g2), b3)
    return b1, g2, mmul(w, b2, inv(w)), mmul(w, g1, inv(w))


def euler_class(rep: GluedRep) -> int:
    """Euler class of the glued representation by the Milnor algorithm.

    Read at the normalised twists, as the sign invariant is: the class is
    constant along twist orbits, while the generator images' entries grow
    like e^{|t|/2} and, past |t| ~ 15, the relator and its boundary shift
    drown in rounding error.
    """
    return psl2r.euler_class_closed(*generator_images(place_twists(rep)[1]))
