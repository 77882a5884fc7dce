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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Dict, Optional, Tuple

from . import hyptrig, psl2r
from .hyptrig import long_shift, rotation
from .pants import PantsCase, PantsRep, build_pants, case_from_string
from .psl2r import (PSL2Error, Quad, commutator, make_translation, minv, mmul,
                    mtrace)
from .tolerances import TRACE_BAND, TWIST_EDGE

GAMMA_TAGS = ("gamma1", "gamma2", "gamma3")
BETA_TAGS = ("beta1", "beta2", "beta3")
DELTA_TAGS = ("delta1", "delta2", "delta3")
CURVE_TAGS = GAMMA_TAGS + BETA_TAGS + DELTA_TAGS

# delta_k is the commutator of (beta_i, gamma_j) in cyclic order (i, j, k)
_DELTA_PAIRS = {"delta1": ("beta2", "gamma3"),
                "delta2": ("beta3", "gamma1"),
                "delta3": ("beta1", "gamma2")}


# the co-based loops (gamma_1..3, beta_1..3) of `loop_quads`
Loops = Tuple[Tuple[Quad, Quad, Quad], Tuple[Quad, Quad, Quad]]


class Genus2Error(PSL2Error):
    pass


@dataclass(frozen=True)
class GluedRep:
    """Glued genus-2 coordinate datum: the two pants and the twists."""

    p1: PantsRep
    p2: PantsRep
    t: Tuple[float, float, float]

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

    @cached_property
    def quads(self) -> Dict[str, Quad]:
        """The curve matrices evaluated so far, by tag: `curve_matrix` and
        the search's found-curve step read and fill it, and `rotate`
        carries it over."""
        return {}

    @cached_property
    def loops(self) -> Loops:
        """`loop_quads` at the coordinates of the rep."""
        return loop_quads(*self.coords)

    @cached_property
    def _counts(self) -> Tuple[int, int, int]:
        """`twist_counts`, computed once: `search.classify_scope`, `_normal`
        and the search's move log read it."""
        return _count_twists(self)

    @cached_property
    def _normal(self) -> Optional["GluedRep"]:
        """The rep with its twists normalised, or None when no count moves
        (see `normalize_twists`)."""
        counts = twist_counts(self)
        if not any(counts):
            return None
        # only nonzero counts are applied, as the search's twist moves do,
        # so that a twist of -0.0 keeps its bits
        t = tuple(ti + 2.0 * k * ai if k else ti
                  for ti, k, ai in zip(self.t, counts, self.a))
        return GluedRep(p1=self.p1, p2=self.p2, t=t)

    @property
    def coords(self):
        """(x, y, a, t), as `curve_quad` and `loop_quads` take them."""
        return self.p1.q, self.p2.q, self.a, self.t

    @property
    def euler_nominal(self) -> int:
        return self.eps1.euler + self.eps2.euler

    def to_json(self) -> str:
        return json.dumps({"eps": [str(self.eps1), str(self.eps2)],
                           "a": list(self.a), "t": list(self.t)})

    @classmethod
    def from_json(cls, text: str) -> "GluedRep":
        """Parse {"eps": [2 case names], "a": [3 numbers], "t": [3 numbers]};
        a record of any other shape or with a non-finite number raises
        Genus2Error."""
        data = json.loads(text)
        eps = _field(data, "eps", 2, lambda s: isinstance(s, str))
        a, t = (_field(data, key, 3, lambda x: type(x) in (int, float)
                       and math.isfinite(x)) for key in ("a", "t"))
        eps1, eps2 = (case_from_string(s) for s in eps)
        return build_glued(eps1, eps2, a, t)


def _field(data, key: str, n: int, valid) -> list:
    v = data.get(key) if isinstance(data, dict) else None
    if not (isinstance(v, list) and len(v) == n and all(map(valid, v))):
        raise Genus2Error(f"coordinate record needs {n} valid {key!r} "
                          f"entries, got {v!r}")
    return v


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
    return GluedRep(p1=build_pants(a, case1), p2=build_pants(a, case2), t=t)


def rotate(rep: GluedRep, shift: int) -> GluedRep:
    """`rep` relabelled cyclically by `shift` (see `hyptrig.rotation`).

    The relabelling is an exact symmetry of the cocycle equations, so the
    built pants are permuted, not rebuilt: their matrices, half-lengths,
    twists and solutions equal those `build_glued` gives on the relabelled
    (a, t), bit for bit.  So do the curve words: the evaluated gamma, beta
    and delta matrices carry over, re-keyed.  The co-based loops do not,
    as the relabelling moves their base point.
    """
    perm = rotation(shift)
    pick = itemgetter(*perm)

    def permuted(p: PantsRep) -> PantsRep:
        sol = p.solution and hyptrig.relabel(p.solution, perm)
        return PantsRep(a=pick(p.a), case=p.case, q=pick(p.q), solution=sol)

    out = GluedRep(p1=permuted(rep.p1), p2=permuted(rep.p2), t=pick(rep.t))
    memo = rep.quads
    out.quads.update((tags[i], memo[tags[p]])
                     for tags in (GAMMA_TAGS, BETA_TAGS, DELTA_TAGS)
                     for i, p in enumerate(perm) if tags[p] in memo)
    return out


# ---------------------------------------------------------------------------
# curve words and traces
# ---------------------------------------------------------------------------

def curve_quad(x, y, a, t, tag: str, memo: Optional[Dict] = None) -> Quad:
    """Holonomy matrix of a named curve (SL2 lift fixed by the word).

    x and y are the two pants' edge matrices, a and t the half-lengths and
    twists: a certificate replay needs nothing else.
    `memo`, if given, holds the matrices already evaluated at these
    coordinates by tag, and receives the new ones, so a delta word reuses
    its beta and gamma.
    """
    if memo is not None and tag in memo:
        return memo[tag]
    if tag in GAMMA_TAGS:
        q = make_translation(2.0 * a[GAMMA_TAGS.index(tag)])
    elif tag in BETA_TAGS:
        i = BETA_TAGS.index(tag)
        j, k = (i + 1) % 3, (i + 2) % 3
        q = mmul(minv(x[i]), make_translation(-t[k]), y[i],
                 make_translation(t[j]))
    elif tag in DELTA_TAGS:
        bt, gt = _DELTA_PAIRS[tag]
        q = commutator(curve_quad(x, y, a, t, bt, memo),
                       curve_quad(x, y, a, t, gt, memo))
    else:
        raise Genus2Error(f"unknown curve tag {tag!r}")
    if memo is not None:
        memo[tag] = q
    return q


def loop_quads(x, y, a, t) -> Loops:
    """Co-based loops (gamma_1..3, beta_1..3) at a common base point.

    The loops come from a spanning tree of the gluing complex: p3 and p5
    transport the base vertex v0 to the vertices v3 and v5 of the first
    pants.  Same arguments as `curve_quad`.
    """
    tr_, inv = make_translation, minv
    p3 = mmul(x[1], tr_(a[2]), x[0])                 # transport v0 -> v3
    p5 = mmul(x[2], tr_(a[0]), p3)                   # transport v0 -> v5
    g = (mmul(inv(p3), tr_(2 * a[0]), p3),
         mmul(inv(p5), tr_(2 * a[1]), p5),
         mmul(inv(x[0]), tr_(2 * a[2]), x[0]))
    b = (mmul(inv(x[0]), tr_(-t[2] - a[2]), inv(y[1]), tr_(-a[0]),
              inv(y[2]), tr_(t[1]), p5),
         mmul(inv(x[0]), tr_(-t[2] - a[2]), inv(y[1]), tr_(t[0]), p3),
         mmul(inv(p5), tr_(-t[1]), y[2], tr_(a[0] + t[0]), p3))
    return g, b


def curve_matrix(rep: GluedRep, tag: str) -> Quad:
    """`curve_quad` at the coordinates of `rep`, memoised in `rep.quads`."""
    return curve_quad(*rep.coords, tag, rep.quads)


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


def delta_twist_coeffs(x, y, a, k: int) -> Tuple[float, float, float, float]:
    """(s, c_minus, c_mid, c_plus) with tr delta_{k+1} = 2 - s (c_minus
    e^{-t_k} + c_mid + c_plus e^{t_k}), k in 0..2 (0-based).

    delta_{k+1} = [beta_i, gamma_j], (i, j, k) cyclic.  gamma_j =
    diag(e^{a_j}, e^{-a_j}) commutes with the T(t_j) that ends beta_i, so
    the trace is 2 - s b12 b21 with s = 4 sinh(a_j)^2 and b = X_i^-1 T(-t_k)
    Y_i = e^{-t_k/2} P + e^{t_k/2} Q for P = X_i^-1 E11 Y_i and Q = X_i^-1
    E22 Y_i; it depends on t_k alone.  Same arguments as `curve_quad`.
    """
    i, j = (k + 1) % 3, (k + 2) % 3
    xi = minv(x[i])
    p = mmul(xi, (1.0, 0.0, 0.0, 0.0), y[i])
    q = mmul(xi, (0.0, 0.0, 0.0, 1.0), y[i])
    return (4.0 * math.sinh(a[j]) ** 2, p[1] * p[2],
            p[1] * q[2] + q[1] * p[2], q[1] * q[2])


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
    the mirrored eps2, whose solutions the formulas read.  The
    self-hexagon and flat formulas are stated for the long side third
    (`long_shift(a) == 0`)."""
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
        if long_shift(a):
            return None
        d = p1.solution.d
        if s1 == s2:
            if is_beta:
                return None
            return 2.0 + 4.0 * (sh(t[i] / 2) * sh(d[j]) * sh(a[k])) ** 2
        if is_beta:
            sign = -1.0 if i == 2 else 1.0
            return (sign * 2.0 * sh(t[j] / 2) * sh(t[k] / 2)
                    + 2.0 * ch(d[i]) * ch(t[j] / 2) * ch(t[k] / 2))
        return 2.0 - 4.0 * (ch(t[i] / 2) * sh(d[j]) * sh(a[k])) ** 2

    if {k1, k2} == {"flat_upper", "flat_lower"}:
        if is_beta or i != 2 or long_shift(a):
            return None
        u = s1 if k1 == "flat_upper" else s2
        v = s2 if k1 == "flat_upper" else s1
        return (2.0 + 4.0 * u * v * sh(a[0]) ** 2 * sh(a[1]) ** 2
                * math.exp(-t[2] if k1 == "flat_upper" else t[2]))

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
    # the self-hexagon and flat delta_3 formulas, long side third
    if is_beta or i != 2 or long_shift(a):
        return None
    if eps1.kind == "selfhex":
        d = [s_eff * x for x in p1.solution.d]
        return (2.0 * ch(a[k]) ** 2
                - 2.0 * ch(b[j]) * ch(d[j]) * sh(a[k]) ** 2
                - 2.0 * ch(t[i]) * sh(a[k]) ** 2 * sh(b[j]) * sh(d[j]))
    if eps1.kind in ("flat_upper", "flat_lower"):
        return (2.0 - 4.0 * sh(b[0] / 2) ** 2 * sh(a[1]) ** 2
                + 2.0 * s_eff * sh(a[0]) * sh(a[1]) ** 2 * sh(b[0])
                * math.exp(-t[2] if eps1.kind == "flat_upper" else t[2]))
    return 2.0 * ch(a[1]) ** 2 - 2.0 * ch(b[0]) * sh(a[1]) ** 2  # flat_diag


# ---------------------------------------------------------------------------
# twists and the sign invariant
# ---------------------------------------------------------------------------

def dehn_twist_gamma(rep: GluedRep, i: int, k: int = 1) -> GluedRep:
    """Twist along gamma_i: t_i -> t_i + 2 k a_i (positive twist adds)."""
    if i not in (1, 2, 3):
        raise Genus2Error("curve index must be 1, 2 or 3")
    t = list(rep.t)
    t[i - 1] += 2.0 * k * rep.a[i - 1]
    return GluedRep(p1=rep.p1, p2=rep.p2, t=tuple(t))


def twist_counts(rep: GluedRep) -> Tuple[int, int, int]:
    """Twist multiples k_i with t_i + 2 k_i a_i in [-a_i, a_i].

    Boundary ties resolve to +a_i.  `normalize_twists` applies the counts;
    the search logs them as twist moves.  Raises Genus2Error for a twist so
    huge that it has lost its place in its orbit: the rounded t_i + 2 k_i
    a_i lies more than TWIST_EDGE outside [-a_i, a_i] (before a tie moves
    it) or off the exact remainder of t_i modulo 2 a_i.  Cached on `rep`.
    """
    return rep._counts


def _count_twists(rep: GluedRep) -> Tuple[int, int, int]:
    counts = []
    for ti, ai in zip(rep.t, rep.a):
        width = 2.0 * ai
        try:
            k = -math.floor((ti + ai) / width)
        except OverflowError:       # t_i / 2 a_i overflows: refused below
            k = 0
        tn = ti + k * width
        placed = abs(tn) <= ai + TWIST_EDGE
        if abs(tn + ai) < TWIST_EDGE:               # on the lower edge
            k += 1
            tn = ti + k * width
        gap = abs(tn - math.remainder(ti, width))
        if not placed or (gap > TWIST_EDGE and abs(width - gap) > TWIST_EDGE):
            raise Genus2Error(f"twist {ti} lands off its orbit when "
                              f"normalised modulo {width}")
        counts.append(k)
    return tuple(counts)


def normalize_twists(rep: GluedRep) -> GluedRep:
    """Twist each t_i into [-a_i, a_i]; boundary ties resolve to +a_i.

    Cached on `rep`, so that its callers share one normalised rep and its
    evaluated curves; `rep` itself when no count moves.
    """
    return rep._normal or rep


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
    rep = normalize_twists(rep)
    *others, tr = (trace_curve_matrix(rep, tag) for tag in DELTA_TAGS)
    if any(abs(x - 2.0) <= TRACE_BAND for x in others):
        return "Degenerate"
    if tr < 2.0 - TRACE_BAND:
        return "Plus"
    if tr > 2.0 + TRACE_BAND:
        return "Minus"
    return "Degenerate"


def delta_side_consistency(rep: GluedRep) -> bool:
    """Whether tr delta_1, delta_2, delta_3 sit strictly on one side of 2."""
    if rep.euler_nominal != 0:
        raise Genus2Error("side consistency applies to Euler class 0")
    traces = [trace_curve_matrix(rep, tag) for tag in DELTA_TAGS]
    if any(abs(x - 2.0) <= TRACE_BAND for x in traces):
        raise Genus2Error(f"degenerate sample: delta traces {traces}")
    return len({x > 2.0 for x in traces}) == 1


# ---------------------------------------------------------------------------
# Euler class of the glued representation
# ---------------------------------------------------------------------------

def generator_images(rep: GluedRep) -> Tuple[Quad, Quad, Quad, Quad]:
    """Images (A1, B1, A2, B2) of a standard generating quadruple.

    Built from the co-based loops of `loop_quads`: the first handle is
    carried by (beta_1, gamma_2), the second by (beta_2, gamma_1)
    conjugated through the connector gamma_2^-1 beta_3.  The matrix product
    [A2, B2][A1, B1] is +-identity, and its lifted deck power is the Euler
    class.
    """
    g, b = rep.loops
    w = mmul(minv(g[1]), b[2])
    return b[0], g[1], mmul(w, b[1], minv(w)), mmul(w, g[0], minv(w))


def euler_class(rep: GluedRep) -> int:
    """Euler class of the glued representation by the Milnor algorithm.

    Read at the normalised twists, as the sign invariant is: the class is
    constant along twist orbits, while the generator images' entries grow
    like e^{|t|/2} and, past |t| ~ 15, the relator and the lifted deck
    shift drown in rounding error.
    """
    return psl2r.euler_class_closed(*generator_images(normalize_twists(rep)))
