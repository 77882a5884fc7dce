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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import hyptrig, psl2r
from .psl2r import (R_LEFT, R_RIGHT, S, PSL2Error, Quad, _mat, _qmul,
                    _qrotation, _qtranslation, _quad,
                    deviation_from_projective_identity, make_translation,
                    minv, mmul, mtrace)
from .tolerances import FLAT_BAND, RELATOR_TOL


class PantsError(PSL2Error):
    pass


class CocycleResidualError(PantsError):
    """The edge matrices miss the cocycle relations by more than rounding
    allows: the half-lengths are too long for a float build, though the
    record is valid."""


@dataclass(frozen=True)
class PantsCase:
    """Construction tag: kind plus orientation datum.

    kind in {"plus1", "minus1", "tri", "selfhex", "flat_diag", "flat_upper",
    "flat_lower"}; eps is the orientation sign (the 0+/0- distinction for
    triangle and self-hexagon, the parabolic entry sign for flat cases).
    """

    kind: str
    eps: int = 1

    def __str__(self) -> str:
        names = {
            ("plus1", 1): "EuPlus1",
            ("minus1", 1): "EuMinus1",
            ("tri", 1): "Eu0PlusTriangle",
            ("tri", -1): "Eu0MinusTriangle",
            ("selfhex", 1): "Eu0PlusSelfHex",
            ("selfhex", -1): "Eu0MinusSelfHex",
            ("flat_diag", 1): "Eu0DiagonalFlat",
        }
        if (self.kind, self.eps) in names:
            return names[(self.kind, self.eps)]
        sgn = "+1" if self.eps > 0 else "-1"
        return {"flat_upper": f"Eu0UpperFlat({sgn})",
                "flat_lower": f"Eu0LowerFlat({sgn})"}[self.kind]

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

    def euler_flipped(self) -> "PantsCase":
        """Swap the +-1 hexagon tags only; Euler class 0 tags are fixed."""
        if self.kind == "plus1":
            return PantsCase("minus1")
        if self.kind == "minus1":
            return PantsCase("plus1")
        return self


EU_PLUS1 = PantsCase("plus1")
EU_MINUS1 = PantsCase("minus1")
EU0_PLUS_TRIANGLE = PantsCase("tri", 1)
EU0_MINUS_TRIANGLE = PantsCase("tri", -1)
EU0_PLUS_SELFHEX = PantsCase("selfhex", 1)
EU0_MINUS_SELFHEX = PantsCase("selfhex", -1)
EU0_DIAGONAL_FLAT = PantsCase("flat_diag")


def case_from_string(name: str) -> PantsCase:
    table = {
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
    if name not in table:
        raise PantsError(f"unknown pants case {name!r}")
    return table[name]


@dataclass(frozen=True)
class PantsRep:
    """Half-lengths, construction tag, and the edge matrices as row-major
    4-tuples `q` (see psl2r); `x` returns the edge matrices as ndarrays.

    `solution` is the hyptrig solution `build_pants` solved for the edge
    matrices (None for flat pants and for pants read back from JSON); the
    closed trace formulas and the search read it through `solved`.
    """

    a: Tuple[float, float, float]
    case: PantsCase
    q: Tuple[Quad, Quad, Quad]
    solution: Optional[hyptrig.Solution] = field(default=None, compare=False,
                                                 repr=False)

    @property
    def x(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(_mat(m) for m in self.q)

    def cocycle_residuals(self) -> Tuple[float, float]:
        return _cocycle_residuals(self.a, self.q)

    def solved(self) -> Optional[hyptrig.Solution]:
        """The hyptrig solution of the sides (None for flat pants); solved
        afresh only where the pants carries none."""
        if self.solution is not None or self.case.is_flat:
            return self.solution
        if self.case.kind == "tri":
            return hyptrig.solve_triangle(*self.a)
        if self.case.kind == "selfhex":
            return hyptrig.solve_self_hexagon(*self.a)
        return hyptrig.solve_hexagon(*self.a)

    def to_json(self) -> str:
        return json.dumps({
            "a": list(self.a),
            "case": str(self.case),
            "X": [list(m) for m in self.q],
        })

    @classmethod
    def from_json(cls, text: str) -> "PantsRep":
        data = json.loads(text)
        q = tuple(_quad(tuple(float(v) for v in m)) for m in data["X"])
        return cls(a=tuple(data["a"]), case=case_from_string(data["case"]), q=q)


# The scalar builders below compute each edge matrix as a row-major 4-tuple
# (see psl2r); build_pants checks the cocycle on the 4-tuples and keeps them.

_S = _quad(S)
_R_LEFT = _quad(R_LEFT)
_R_RIGHT = _quad(R_RIGHT)
_IDENTITY = (1.0, 0.0, 0.0, 1.0)


def _cocycle_residuals(a, x) -> Tuple[float, float]:
    """Deviations of the two cocycle products from +-identity."""
    a1, a2, a3 = a
    x1, x2, x3 = x
    tr = _qtranslation
    first = _qmul(tr(a2), x3, tr(a1), x2, tr(a3), x1)
    second = _qmul(tr(-a2), x3, tr(-a1), x2, tr(-a3), x1)
    return (deviation_from_projective_identity(first),
            deviation_from_projective_identity(second))


def _upper(x: float) -> Quad:
    return (1.0, x, 0.0, 1.0)


def _lower(x: float) -> Quad:
    return (1.0, 0.0, x, 1.0)


def _rotate_to_long_at_3(a: Tuple[float, float, float]) -> Tuple[int, List[int]]:
    """Cyclic shift placing the largest side at index 2 (0-based)."""
    long_index = max(range(3), key=lambda i: a[i])
    shift = (2 - long_index) % 3
    perm = [(i + shift) % 3 for i in range(3)]      # original i -> new slot
    return shift, perm


def _hexagon_matrices(b, left: bool) -> Tuple[Quad, ...]:
    rc = _R_LEFT if left else _R_RIGHT
    return tuple(_qmul(rc, _qtranslation(bi), rc) for bi in b)


def _triangle_matrices(theta, eps: int) -> Tuple[Quad, ...]:
    return tuple(_qmul(_S, _qrotation(eps * th)) for th in theta)


def _selfhex_matrices_canonical(d, eps: int) -> Tuple[Quad, ...]:
    # canonical arrangement: long side at index 2
    d = [eps * di for di in d]
    return (_qmul(_R_LEFT, _qtranslation(d[0]), _R_LEFT),
            _qmul(_R_RIGHT, _qtranslation(d[1]), _R_RIGHT),
            _qmul(_R_LEFT, _qtranslation(d[2]), _R_RIGHT))


def _flat_matrices_canonical(a, eps: int, lower: bool) -> Tuple[Quad, ...]:
    # canonical arrangement: a3 = a1 + a2; parabolic entries solve both
    # cocycle equations exactly (the one-parameter family through the
    # diagonal solution)
    par = _lower if lower else _upper
    sh = [math.sinh(x) for x in a]
    return (_qmul(_S, par(-eps * sh[0])),
            _qmul(par(-eps * sh[1]), _S),
            par(eps * sh[2]))


def _permuted(builder, v, shift: int, *args) -> Tuple[Quad, ...]:
    """Build from the per-side triple `v` in the cyclically shifted frame
    and map matrices back."""
    if shift == 0:
        return builder(v, *args)
    perm = [(i + shift) % 3 for i in range(3)]
    v_canon = tuple(v[perm.index(slot)] for slot in range(3))
    mats = builder(v_canon, *args)
    return tuple(mats[perm[i]] for i in range(3))


def build_pants(a: Tuple[float, float, float], case: PantsCase) -> PantsRep:
    """Pants cocycle for the given half-length triple and construction tag.

    The tag must be compatible with the sign of the delta invariant:
    triangles need it positive, self-hexagons negative, flat cases zero
    within FLAT_BAND.  Hexagon families exist for every triple.
    """
    a = tuple(float(x) for x in a)
    if any(x <= 0 or not math.isfinite(x) for x in a):
        raise PantsError(f"half-lengths must be positive, got {a}")
    delta = hyptrig.delta_invariant(*a)

    sol = None
    if case.kind in ("plus1", "minus1"):
        sol = hyptrig.solve_hexagon(*a)
        x = _hexagon_matrices(sol.b, left=(case.kind == "minus1"))
    elif case.kind == "tri":
        if delta <= FLAT_BAND:
            raise PantsError(f"triangle case needs delta > 0, got {delta}")
        sol = hyptrig.solve_triangle(*a)
        x = _triangle_matrices(sol.theta, case.eps)
    elif case.kind == "selfhex":
        if delta >= -FLAT_BAND:
            raise PantsError(f"self-hexagon case needs delta < 0, got {delta}")
        sol = hyptrig.solve_self_hexagon(*a)
        shift, _ = _rotate_to_long_at_3(a)
        x = _permuted(_selfhex_matrices_canonical, sol.d, shift, case.eps)
    elif case.kind in ("flat_upper", "flat_lower", "flat_diag"):
        if abs(delta) > FLAT_BAND:
            raise PantsError(f"flat case needs delta = 0, got {delta}")
        shift, _ = _rotate_to_long_at_3(a)
        if case.kind == "flat_diag":
            x = _permuted(lambda _a: (_S, _S, _IDENTITY), a, shift)
        else:
            x = _permuted(_flat_matrices_canonical, a, shift, case.eps,
                          case.kind == "flat_lower")
    else:
        raise PantsError(f"unknown case kind {case.kind!r}")

    res = _cocycle_residuals(a, x)
    # scaled like the Euler class relator check, by psl2r._relation_scale
    # of the largest translation T(max a), e^{max a}.  The edge matrices'
    # entries grow only as a -> 0, where the Euler class lift loses
    # precision, so they do not widen the bound.
    tol = RELATOR_TOL * math.exp(max(a))
    if max(res) > tol:
        raise CocycleResidualError(f"cocycle residuals {res} exceed "
                                   f"tolerance {tol}")
    return PantsRep(a=a, case=case, q=x, solution=sol)


# ---------------------------------------------------------------------------
# boundary holonomies and classification
# ---------------------------------------------------------------------------

def boundary_holonomies(rep: PantsRep) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Based loops around the three boundary curves.

    With A, B, C the loops around boundaries 1, 2, 3 based at the corner of
    the first seam, the product A B C is +-identity.
    """
    a1, a2, a3 = rep.a
    x1, x2, x3 = rep.x
    loop1 = mmul(minv(x1), make_translation(-a3), minv(x2),
                 make_translation(2 * a1), x2, make_translation(a3), x1)
    loop2 = make_translation(2 * a2)
    loop3 = mmul(minv(x1), make_translation(2 * a3), x1)
    return loop1, loop2, loop3


def free_generators(rep: PantsRep) -> Tuple[np.ndarray, np.ndarray]:
    """Images (A, B) of free generators with A, B, (AB) the boundaries.

    Lift signs are normalised so that tr A and tr B are positive; tr(AB)
    then carries the Euler parity of the construction.
    """
    la, lb, _ = boundary_holonomies(rep)
    if mtrace(la) < 0:
        la = -la
    if mtrace(lb) < 0:
        lb = -lb
    return la, lb


def euler_class_relative(rep: PantsRep) -> int:
    """Relative Euler class via canonical lifts of the boundary loops."""
    la, lb, lc = boundary_holonomies(rep)
    return psl2r.euler_class_relative([], [lc, lb, la])


def pants_trace_sign(rep: PantsRep) -> int:
    """Euler class from the sign of tr(AB); requires delta != 0.

    With tr A, tr B > 0, the sign of tr(AB) equals (-1)^eu, which
    distinguishes the hexagon constructions (eu = +-1) from the Euler
    class 0 ones; the sign within {+1, -1} is the construction tag's.
    """
    if abs(hyptrig.delta_invariant(*rep.a)) <= FLAT_BAND:
        raise PantsError("trace-sign classification excludes the flat stratum")
    la, lb = free_generators(rep)
    tr = mtrace(la @ lb)
    if abs(tr) <= 2.0:
        raise PantsError("boundary 3 holonomy is not hyperbolic")
    eu = rep.case.euler
    if (tr > 0) != (eu % 2 == 0):
        raise PantsError("trace sign disagrees with the construction tag")
    return eu


# ---------------------------------------------------------------------------
# vectorised construction (same formulas, broadcast over a sample batch)
# ---------------------------------------------------------------------------

def _bmul(*ms: np.ndarray) -> np.ndarray:
    out = ms[0]
    for m in ms[1:]:
        out = out @ m
    return out


def _b_translation(l: np.ndarray) -> np.ndarray:
    n = l.shape[0]
    out = np.zeros((n, 2, 2))
    out[:, 0, 0] = np.exp(l / 2.0)
    out[:, 1, 1] = np.exp(-l / 2.0)
    return out


def _b_rotation(theta: np.ndarray) -> np.ndarray:
    n = theta.shape[0]
    out = np.empty((n, 2, 2))
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    out[:, 0, 0] = c
    out[:, 0, 1] = s
    out[:, 1, 0] = -s
    out[:, 1, 1] = c
    return out


def _b_parabolic(x: np.ndarray, lower: bool) -> np.ndarray:
    n = x.shape[0]
    out = np.tile(np.eye(2), (n, 1, 1))
    if lower:
        out[:, 1, 0] = x
    else:
        out[:, 0, 1] = x
    return out


def _batch_matrices_canonical(case: PantsCase, a: np.ndarray) -> np.ndarray:
    """(n, 3, 2, 2) edge matrices; self-hex/flat inputs must be aligned."""
    n = a.shape[0]
    ch, sh = np.cosh(a), np.sinh(a)
    x = np.empty((n, 3, 2, 2))
    if case.kind in ("plus1", "minus1"):
        rc = R_LEFT if case.kind == "minus1" else R_RIGHT
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            b = np.arccosh((ch[:, i] + ch[:, j] * ch[:, k])
                           / (sh[:, j] * sh[:, k]))
            x[:, i] = _bmul(rc[None], _b_translation(b), rc[None])
    elif case.kind == "tri":
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            th = np.arccos(np.clip((ch[:, j] * ch[:, k] - ch[:, i])
                                   / (sh[:, j] * sh[:, k]), -1.0, 1.0))
            x[:, i] = S[None] @ _b_rotation(case.eps * th)
    elif case.kind == "selfhex":
        d = np.empty((n, 3))
        d[:, 2] = np.arccosh((ch[:, 2] - ch[:, 0] * ch[:, 1])
                             / (sh[:, 0] * sh[:, 1]))
        d[:, 0] = np.arccosh((ch[:, 1] * ch[:, 2] - ch[:, 0])
                             / (sh[:, 1] * sh[:, 2]))
        d[:, 1] = np.arccosh((ch[:, 0] * ch[:, 2] - ch[:, 1])
                             / (sh[:, 0] * sh[:, 2]))
        d *= case.eps
        x[:, 0] = _bmul(R_LEFT[None], _b_translation(d[:, 0]), R_LEFT[None])
        x[:, 1] = _bmul(R_RIGHT[None], _b_translation(d[:, 1]), R_RIGHT[None])
        x[:, 2] = _bmul(R_LEFT[None], _b_translation(d[:, 2]), R_RIGHT[None])
    elif case.kind == "flat_diag":
        x[:, 0] = S
        x[:, 1] = S
        x[:, 2] = np.eye(2)
    elif case.kind in ("flat_upper", "flat_lower"):
        lower = case.kind == "flat_lower"
        x[:, 0] = S[None] @ _b_parabolic(-case.eps * sh[:, 0], lower)
        x[:, 1] = _b_parabolic(-case.eps * sh[:, 1], lower) @ S[None]
        x[:, 2] = _b_parabolic(case.eps * sh[:, 2], lower)
    else:
        raise PantsError(f"unknown case kind {case.kind!r}")
    return x


def batch_matrices(case: PantsCase, a: np.ndarray) -> np.ndarray:
    """Vectorised edge matrices for a batch of half-length triples.

    Equivalent to stacking build_pants(a_i, case).x; self-intersecting and
    flat inputs may carry the long side anywhere (handled per sample by the
    cyclic alignment).
    """
    a = np.asarray(a, dtype=float)
    if case.kind in ("plus1", "minus1", "tri"):
        return _batch_matrices_canonical(case, a)
    out = np.empty((a.shape[0], 3, 2, 2))
    long_index = np.argmax(a, axis=1)
    for li in range(3):
        sel = long_index == li
        if not np.any(sel):
            continue
        shift = (2 - li) % 3
        perm = [(i + shift) % 3 for i in range(3)]   # original -> canonical
        a_canon = a[sel][:, [perm.index(s) for s in range(3)]]
        mats = _batch_matrices_canonical(case, a_canon)
        out[sel] = mats[:, perm]
    return out


def batch_cocycle_residuals(case: PantsCase, a: np.ndarray) -> np.ndarray:
    """(n, 2) deviations of the two cocycle products from +-identity."""
    a = np.asarray(a, dtype=float)
    x = batch_matrices(case, a)
    out = np.empty((a.shape[0], 2))
    for col, sign in ((0, 1.0), (1, -1.0)):
        prod = _bmul(_b_translation(sign * a[:, 1]), x[:, 2],
                     _b_translation(sign * a[:, 0]), x[:, 1],
                     _b_translation(sign * a[:, 2]), x[:, 0])
        eye = np.eye(2)
        dev = np.minimum(np.abs(prod - eye).max(axis=(1, 2)),
                         np.abs(prod + eye).max(axis=(1, 2)))
        out[:, col] = dev
    return out
