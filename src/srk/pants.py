"""Pair-of-pants cocycles: the explicit edge matrices X_1, X_2, X_3 for all
Euler classes, the cocycle relations, boundary holonomies, and the trace
sign classification.

The two cocycle relations (one per hexagon of the pants) are

    T_{a2} X_3 T_{a1} X_2 T_{a3} X_1 = +-I,
    T_{-a2} X_3 T_{-a1} X_2 T_{-a3} X_1 = +-I.

Constructions come in nine flavours: the right-angled hexagon families of
Euler class +-1, the triangle and self-intersecting hexagon families of
Euler class 0 (with both orientations), and the flat families (diagonal,
upper and lower triangular) on the stratum where the delta invariant
vanishes.  Conventions follow a fixed reading of the gluing figure and are
validated against the cocycle relations and the trace formulas downstream.

Each edge-matrix formula has one home, the scalar builder of its family,
which works with the psl2r kernel: the edge matrices and the boundary
loops are psl2r matrices, row-major 4-tuples.  The self-hexagon and flat
builders place each matrix by its index relative to the long side.

Value objects are named tuples; the one hand-written class is
`genus2.GluedRep`, which holds caches.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional, Tuple

from . import hyptrig
from .hyptrig import long_index
from .psl2r import (IDENTITY, R_LEFT, R_RIGHT, S, PSL2Error, Quad,
                    deviation_from_projective_identity, make_rotation,
                    make_translation, minv, mmul, mtrace)
from .tolerances import FLAT_BAND, RELATOR_TOL


class PantsError(PSL2Error):
    pass


class CocycleResidualError(PantsError):
    """The edge matrices miss the cocycle relations by more than rounding
    allows, or a polygon side they translate by overflows: the half-lengths
    are outside the float build's range (too long or too short), though the
    record is valid."""


class PantsCase(NamedTuple):
    """Construction tag: kind plus orientation datum.

    kind in {"plus1", "minus1", "tri", "selfhex", "flat_diag", "flat_upper",
    "flat_lower"}; eps is the orientation sign (the 0+/0- distinction for
    triangle and self-hexagon, the parabolic entry sign for flat cases).
    """

    kind: str
    eps: int = 1

    def __str__(self) -> str:
        return _NAME_OF[self]

    @property
    def euler(self) -> int:
        if self.kind == "plus1":
            return 1
        if self.kind == "minus1":
            return -1
        return 0

    @property
    def is_flat(self) -> bool:
        return self.kind.startswith("flat")

    @property
    def stratum(self) -> Optional[int]:
        """The sign of the delta invariant the construction needs (0: the
        flat stratum, |delta| <= FLAT_BAND); None for the hexagon families,
        which exist on every stratum."""
        return _STRATUM.get(self.kind)

    def euler_flipped(self) -> "PantsCase":
        """Swap the +-1 hexagon tags only; Euler class 0 tags are fixed."""
        if self.kind == "plus1":
            return EU_MINUS1
        if self.kind == "minus1":
            return EU_PLUS1
        return self


_STRATUM = {"tri": 1, "selfhex": -1, "flat_diag": 0, "flat_upper": 0,
            "flat_lower": 0}


EU_PLUS1 = PantsCase("plus1")
EU_MINUS1 = PantsCase("minus1")
EU0_PLUS_TRIANGLE = PantsCase("tri", 1)
EU0_MINUS_TRIANGLE = PantsCase("tri", -1)
EU0_PLUS_SELFHEX = PantsCase("selfhex", 1)
EU0_MINUS_SELFHEX = PantsCase("selfhex", -1)
EU0_DIAGONAL_FLAT = PantsCase("flat_diag")


# the one case-name table: `case_from_string` reads it, `str` inverts it
_CASES = {
    "EuPlus1": EU_PLUS1, "EuMinus1": EU_MINUS1,
    "Eu0PlusTriangle": EU0_PLUS_TRIANGLE,
    "Eu0MinusTriangle": EU0_MINUS_TRIANGLE,
    "Eu0PlusSelfHex": EU0_PLUS_SELFHEX,
    "Eu0MinusSelfHex": EU0_MINUS_SELFHEX,
    "Eu0DiagonalFlat": EU0_DIAGONAL_FLAT,
    "Eu0UpperFlat(+1)": PantsCase("flat_upper", 1),
    "Eu0UpperFlat(-1)": PantsCase("flat_upper", -1),
    "Eu0LowerFlat(+1)": PantsCase("flat_lower", 1),
    "Eu0LowerFlat(-1)": PantsCase("flat_lower", -1),
}
_NAME_OF = {case: name for name, case in _CASES.items()}


def case_from_string(name: str) -> PantsCase:
    if name not in _CASES:
        raise PantsError(f"unknown pants case {name!r}")
    return _CASES[name]


class PantsRep(NamedTuple):
    """Half-lengths, construction tag, and the edge matrices `q`.

    `solution` is the hyptrig solution `build_pants` solved for the edge
    matrices (None for flat pants); the closed trace formulas and the
    search read it.  `build_pants` hands a built pants out again.
    """

    a: Tuple[float, float, float]
    case: PantsCase
    q: Tuple[Quad, Quad, Quad]
    solution: Optional[hyptrig.Solution]

    def cocycle_residuals(self) -> Tuple[float, float]:
        """Deviations of the two cocycle products from +-identity."""
        a1, a2, a3 = self.a
        x1, x2, x3 = self.q
        tr = make_translation
        first = mmul(tr(a2), x3, tr(a1), x2, tr(a3), x1)
        second = mmul(tr(-a2), x3, tr(-a1), x2, tr(-a3), x1)
        return (deviation_from_projective_identity(first),
                deviation_from_projective_identity(second))


def _upper(x: float) -> Quad:
    return (1.0, x, 0.0, 1.0)


def _lower(x: float) -> Quad:
    return (1.0, 0.0, x, 1.0)


def _hexagon_matrices(b, left: bool) -> Tuple[Quad, ...]:
    rc = R_LEFT if left else R_RIGHT
    return tuple(mmul(rc, make_translation(bi), rc) for bi in b)


def _triangle_matrices(theta, eps: int) -> Tuple[Quad, ...]:
    return tuple(mmul(S, make_rotation(eps * th)) for th in theta)


def _placed(long: int, x) -> Tuple:
    """The triple x = (at L, at L+1, at L+2) indexed by side, L the long
    side and indices mod 3."""
    return tuple(x[(i - long) % 3] for i in range(3))


def _selfhex_matrices(d, eps: int, long: int) -> Tuple[Quad, ...]:
    t = [make_translation(eps * di) for di in d]
    j, k = (long + 1) % 3, (long + 2) % 3
    return _placed(long, (mmul(R_LEFT, t[long], R_RIGHT),
                          mmul(R_LEFT, t[j], R_LEFT),
                          mmul(R_RIGHT, t[k], R_RIGHT)))


def _flat_matrices(a, eps: int, lower: bool, long: int) -> Tuple[Quad, ...]:
    # a_L = a_j + a_k; parabolic entries solve both cocycle equations
    # exactly (the one-parameter family through the diagonal solution)
    par = _lower if lower else _upper
    sh = [math.sinh(x) for x in a]
    j, k = (long + 1) % 3, (long + 2) % 3
    return _placed(long, (par(eps * sh[long]), mmul(S, par(-eps * sh[j])),
                          mmul(par(-eps * sh[k]), S)))


def build_pants(a: Tuple[float, float, float], case: PantsCase) -> PantsRep:
    """Pants cocycle for the given half-length triple and construction tag.

    The tag's `stratum` must be the sign of the delta invariant (zero
    within FLAT_BAND): triangles need it positive, self-hexagons negative,
    flat cases zero.  Hexagon families exist for every triple.  The 64
    triples and tags asked for last return the pants built then (keyed on
    the exact floats), so the replay of a search's certificate rebuilds
    neither of its two pants; a refusal is raised afresh each time.
    """
    return _build(tuple(float(x) for x in a), case)


@functools.lru_cache(maxsize=64)        # caches no exception
def _build(a: Tuple[float, float, float], case: PantsCase) -> PantsRep:
    if any(x <= 0 or not math.isfinite(x) for x in a):
        raise PantsError(f"half-lengths must be positive, got {a}")
    delta = hyptrig.delta_invariant(*a)
    side = (delta > FLAT_BAND) - (delta < -FLAT_BAND)
    if case.stratum not in (None, side):
        raise PantsError(f"case {case} needs a delta invariant of sign "
                         f"{case.stratum}, got {delta}")

    sol = None
    try:
        if case.kind in ("plus1", "minus1"):
            sol = hyptrig.solve_hexagon(*a)
            x = _hexagon_matrices(sol.b, left=(case.kind == "minus1"))
        elif case.kind == "tri":
            sol = hyptrig.solve_triangle(*a)
            x = _triangle_matrices(sol.theta, case.eps)
        elif case.kind == "selfhex":
            sol = hyptrig.solve_self_hexagon(*a)
            x = _selfhex_matrices(sol.d, case.eps, long_index(a))
        elif case.kind == "flat_diag":
            x = _placed(long_index(a), (IDENTITY, S, S))
        elif case.kind in ("flat_upper", "flat_lower"):
            x = _flat_matrices(a, case.eps, case.kind == "flat_lower",
                               long_index(a))
        else:
            raise PantsError(f"unknown case kind {case.kind!r}")
    except PantsError:
        raise
    except (PSL2Error, ZeroDivisionError) as exc:
        # a subnormal half-length: sinh a_j sinh a_k leaves the float
        # range, and a polygon side (b_i or d_i) solves to inf, which no
        # edge matrix translates by, or the product rounds to 0
        raise CocycleResidualError(f"a polygon side overflows a float: "
                                   f"{exc}") from exc

    rep = PantsRep(a, case, x, sol)
    res = rep.cocycle_residuals()
    # scaled like the Euler class relator check, by psl2r._relation_scale
    # of the largest translation T(max a), e^{max a}.  The edge matrices'
    # entries grow only as a -> 0, where the Euler class lift loses
    # precision, so they do not widen the bound.
    tol = RELATOR_TOL * math.exp(max(a))
    if max(res) > tol:
        raise CocycleResidualError(f"cocycle residuals {res} exceed "
                                   f"tolerance {tol}")
    return rep


# ---------------------------------------------------------------------------
# boundary holonomies and classification
# ---------------------------------------------------------------------------

def boundary_holonomies(rep: PantsRep) -> Tuple[Quad, Quad, Quad]:
    """Based loops around the three boundary curves.

    With A, B, C the loops around boundaries 1, 2, 3 based at the corner of
    the first seam, the product A B C is +-identity.
    """
    a1, a2, a3 = rep.a
    x1, x2, _ = rep.q
    tr = make_translation
    x1_inv = minv(x1)
    loop1 = mmul(x1_inv, tr(-a3), minv(x2), tr(2 * a1), x2, tr(a3), x1)
    loop2 = tr(2 * a2)
    loop3 = mmul(x1_inv, tr(2 * a3), x1)
    return loop1, loop2, loop3


def free_generators(rep: PantsRep) -> Tuple[Quad, Quad]:
    """Images (A, B) of free generators with A, B, (AB) the boundaries.

    Lift signs are normalised so that tr A and tr B are positive; tr(AB)
    then carries the Euler parity of the construction.
    """
    la, lb, _ = boundary_holonomies(rep)
    return tuple(tuple(-v for v in q) if mtrace(q) < 0 else q
                 for q in (la, lb))


def pants_trace_sign(rep: PantsRep) -> int:
    """Euler class from the sign of tr(AB); requires delta != 0.

    With tr A, tr B > 0, the sign of tr(AB) equals (-1)^eu, which
    distinguishes the hexagon constructions (eu = +-1) from the Euler
    class 0 ones; the sign within {+1, -1} is the construction tag's.
    """
    if abs(hyptrig.delta_invariant(*rep.a)) <= FLAT_BAND:
        raise PantsError("trace-sign classification excludes the flat stratum")
    tr = mtrace(mmul(*free_generators(rep)))
    if abs(tr) <= 2.0:
        raise PantsError("boundary 3 holonomy is not hyperbolic")
    eu = rep.case.euler
    if (tr > 0) != (eu % 2 == 0):
        raise PantsError("trace sign disagrees with the construction tag")
    return eu
