"""Grid re-verification of the computer-checked inequalities.

Each claim reduces to the positivity of an explicit analytic expression on
a compact box.  The checker evaluates the expression on a dense lattice and
subtracts a first-derivative Lipschitz pad (estimated from the grid slopes
times half the mesh), so a reported positive margin certifies positivity at
the granularity of the pad.  This reproduces the assurance level of the
original computer checks; formal interval arithmetic is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .search import (B2_HALF, COSH_B2_HALF, REGION_A3_MAX, _iso_lambda,
                     line_l1, line_l2)

ACOSH3 = math.acosh(3.0)


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    margin: float               # padded minimum; must be positive
    raw_min: float
    lipschitz_pad: float
    grid_points: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.margin > 0.0


def _pad_and_min(values: np.ndarray, axes: List[np.ndarray]) -> Tuple[float, float]:
    """Raw minimum and a Lipschitz pad from per-axis grid slopes."""
    raw = float(np.nanmin(values))
    pad = 0.0
    for axis, grid in enumerate(axes):
        if values.shape[axis] < 2:
            continue
        h = float(grid[1] - grid[0])
        dv = np.abs(np.diff(values, axis=axis))
        slope = float(np.nanmax(dv)) / h if dv.size else 0.0
        pad += slope * h / 2.0
    return raw, pad


def _report(claim_id: str, values: np.ndarray, axes: List[np.ndarray],
            detail: str = "") -> ClaimReport:
    raw, pad = _pad_and_min(values, axes)
    return ClaimReport(claim_id=claim_id, margin=raw - pad, raw_min=raw,
                       lipschitz_pad=pad, grid_points=int(values.size),
                       detail=detail)


def _lambda_floor(ch3: np.ndarray) -> np.ndarray:
    """Lower bound for the equilateral twist length at given cosh(a3)."""
    return 2.0 * np.arccosh((17.0 * ch3 + 1.0) / (ch3 + 17.0)) - np.arccosh(ch3)


def _lambda_of(b: np.ndarray, a3: np.ndarray) -> np.ndarray:
    """Twist length from cosh(b/2)^2 cosh((a3+lam)/2) = cosh a3 + sinh(b/2)^2."""
    arg = (np.cosh(a3) + np.sinh(b / 2.0) ** 2) / np.cosh(b / 2.0) ** 2
    return 2.0 * np.arccosh(np.maximum(arg, 1.0)) - a3


# ---------------------------------------------------------------------------
# individual claims
# ---------------------------------------------------------------------------

def _claim_equ0_cond0(n: int) -> ClaimReport:
    # the cubic sufficient condition for the equilateral strategy's
    # condition (0): 17 x^2 - x^3 - 8x - 8 > 0 on x = cosh(a3/2)
    x = np.linspace(math.sqrt(2.0), math.sqrt(5.68 / 2.0), n)
    vals = 17.0 * x ** 2 - x ** 3 - 8.0 * x - 8.0
    return _report("equ0_cond0_cubic", vals, [x],
                   "x^3 + 8x + 8 < 17 x^2 on [sqrt 2, sqrt(5.68/2)]")


def _claim_equ0_cond1(n: int) -> ClaimReport:
    a3 = np.linspace(ACOSH3, B2_HALF, n)
    lam = _lambda_floor(np.cosh(a3))
    vals = 2.0 - (np.cosh(a3) + 1.0) / 8.0 * np.sinh((3 * a3 - lam) / 4.0) ** 2
    return _report("equ0_cond1", vals, [a3],
                   "(cosh b3 - 1) sinh^2((3a3 - lam)/4) <= 2 at extremal b3")


def _claim_equ0_cond2(n: int) -> ClaimReport:
    a3 = np.linspace(ACOSH3, B2_HALF, n)
    lam = _lambda_floor(np.cosh(a3))
    chb1 = (3.0 + np.cosh(a3) ** 2) / np.sinh(a3) ** 2
    vals = (1.0 + chb1 * np.sinh(lam / 2.0) * np.sinh(a3 / 2.0)
            - np.cosh(lam / 2.0) * np.cosh(a3 / 2.0))
    return _report("equ0_cond2", vals, [a3],
                   "cosh(lam/2)cosh(a3/2) - cosh(b1) sinh(lam/2) sinh(a3/2) <= 1")


def _claim_equ0_lambda_floor(n: int) -> ClaimReport:
    # lam is decreasing in b3 and equals the closed floor exactly at the
    # largest admissible b3; the claim checks the strict gap on an interior
    # band and the boundary identity separately
    m = max(int(math.sqrt(n)), 64)
    a3 = np.linspace(ACOSH3, B2_HALF, m)
    vals = np.empty((m, m))
    axes_b = None
    boundary_resid = 0.0
    for idx, a in enumerate(a3):
        b3max = math.acosh((math.cosh(a) + 9.0) / 8.0)
        floor = _lambda_floor(np.array([math.cosh(a)]))[0]
        boundary_resid = max(boundary_resid,
                             abs(_lambda_of(np.array([b3max]),
                                            np.array([a]))[0] - floor))
        b3 = np.linspace(0.2, b3max - 0.05, m)
        vals[idx] = _lambda_of(b3, np.full_like(b3, a)) - floor
        axes_b = b3
    rep = _report("equ0_lambda_floor", vals, [a3, axes_b],
                  f"lam(b3, a3) above the closed floor on the interior band; "
                  f"boundary identity residual {boundary_resid:.2e}")
    if boundary_resid > 1e-9:
        return ClaimReport(claim_id=rep.claim_id, margin=-1.0,
                           raw_min=rep.raw_min,
                           lipschitz_pad=rep.lipschitz_pad,
                           grid_points=rep.grid_points,
                           detail=f"boundary identity residual "
                                  f"{boundary_resid:.2e} too large")
    return rep


def _claim_iso0_conditions(n: int) -> ClaimReport:
    # isosceles strategy in the (+1, -1) case on the region
    # cosh(a2) >= cosh(a1) + 2, a2 <= a3 <= B2/2
    m = max(int(round(n ** (1.0 / 3.0))), 24)
    a1 = np.linspace(0.02, math.acosh(COSH_B2_HALF - 2.0), m)
    a2 = np.linspace(ACOSH3, B2_HALF, m)
    a3 = np.linspace(ACOSH3, B2_HALF, m)
    A1, A2, A3 = np.meshgrid(a1, a2, a3, indexing="ij")
    mask = (np.cosh(A2) >= np.cosh(A1) + 2.0) & (A2 <= A3)
    ch1, ch2, ch3 = np.cosh(A1), np.cosh(A2), np.cosh(A3)
    sh2, sh3 = np.sinh(A2), np.sinh(A3)
    b1 = np.arccosh((ch1 + ch2 * ch3) / (sh2 * sh3))
    b3 = np.arccosh((ch3 + ch1 * ch2) / (np.sinh(A1) * sh2))
    lam = _lambda_of(b1, A3)
    lam = np.maximum(lam, 0.0)
    c1 = 1.0 - (np.cosh(lam / 2) * np.cosh(A3 / 2)
                - np.cosh(b1) * np.sinh(lam / 2) * np.sinh(A3 / 2))
    c2 = 1.0 - (np.sinh(b1 / 2) ** 2 * np.cosh((3 * A3 - lam) / 2)
                - np.cosh(b1 / 2) ** 2)
    c3 = ch3 - (np.cosh(A1 / 2) * np.cosh(A3 / 2)
                + np.cosh(b3) * np.sinh(A1 / 2) * np.sinh(A3 / 2))
    vals = np.minimum(np.minimum(c1, c2), c3)
    vals = np.where(mask, vals, np.nan)
    return _report("iso0_conditions", vals, [a1, a2, a3],
                   "isosceles conditions (1)-(3) on cosh(a2) > cosh(a1) + 2")


def _claim_interval_u3(n: int) -> ClaimReport:
    m = max(int(math.sqrt(n)), 64)
    a2 = np.linspace(0.05, B2_HALF, m)
    a3 = np.linspace(0.05, B2_HALF, m)
    A2, A3 = np.meshgrid(a2, a3, indexing="ij")
    mask = A2 <= A3
    u3max = (np.cosh(A2 / 2) / np.cosh(A3 / 2)
             * np.sqrt(np.cosh(A2 + A3 / 2) * np.cosh(A2 - A3 / 2)))
    vals = np.where(mask, np.cosh(A2) + 1.0 - u3max, np.nan)
    return _report("interval_u3_bound", vals, [a2, a3],
                   "max u3 <= cosh(a2) + 1 for a2 <= a3")


def _claim_phi_below_9(n: int) -> ClaimReport:
    # the true threshold sits within 2e-3 of 9 at a3 = 1.459, so the
    # certified band stops one crossing-tolerance short of it; the claim
    # below brackets the crossing itself
    m = max(int(math.sqrt(n)), 64)
    a3 = np.linspace(0.05, 1.449, m)
    vals = np.empty((m,))
    for idx, v in enumerate(a3):
        vals[idx] = 9.0 - phi_max_over_a1(v, m)
    return _report("phi_below_9", vals, [a3],
                   "max_a1 Phi(a1, a3) <= 9 for a3 <= 1.459 - 0.01")


def phi_max_over_a1(a3: float, n: int = 512) -> float:
    a1 = np.linspace(1e-3, a3, n)
    s1, s3 = np.sinh(a1), math.sinh(a3)
    phi = ((s3 ** 2 - s1 ** 2) / s3 ** 2
           + np.sqrt(math.sinh(2 * a3) ** 2 - s1 ** 2) * s1 / s3)
    return float(phi.max())


def _claim_phi_crossing(n: int) -> ClaimReport:
    # the maximum of Phi crosses 9 inside a3 in [1.449, 1.469]
    below = 9.0 - phi_max_over_a1(1.449, n=max(n, 512))
    above = phi_max_over_a1(1.469, n=max(n, 512)) - 9.0
    vals = np.array([below, above])
    return ClaimReport(claim_id="phi_crossing_near_1459",
                       margin=float(vals.min()), raw_min=float(vals.min()),
                       lipschitz_pad=0.0, grid_points=2 * max(n, 512),
                       detail="max Phi < 9 at a3 = 1.449 and > 9 at 1.469")


def _claim_equi1_on_x2(n: int) -> ClaimReport:
    # the binding corner (a1 = l2(2.23), a3 = 2.23) leaves a margin of only
    # 5e-3, so the mesh must be fine enough for the pad to fit under it
    m = max(int(math.sqrt(n)) * 3, 384)
    a3 = np.linspace(1.42, REGION_A3_MAX, m)
    worst = np.full((m, m), np.nan)
    a1_axis = None
    for idx, v in enumerate(a3):
        lo = max(line_l1(v), line_l2(v))
        if lo > v:
            continue
        a1 = np.linspace(lo, v, m)
        a1_axis = a1
        ch3, sh3 = math.cosh(v), math.sinh(v)
        th1 = np.tanh(a1)
        cond0 = ch3 * th1 ** 2 - 1.0
        lam = np.arccosh(np.maximum(ch3 * th1 ** 2, 1.0))
        s2a1 = np.sinh(2 * a1)
        guard = s2a1 - sh3                      # alpha_M well defined
        with np.errstate(invalid="ignore"):
            alpha_M = np.arcsin(np.minimum(sh3 / s2a1, 1.0))
            alpha_m = np.arcsin(np.sinh(a1) / math.sinh(2 * v))
            c1 = (2.0 * np.sinh(a1) ** 2 * ch3
                  - (np.sinh(2 * a1) + sh3 ** 2))
            c2 = th1 - (-np.cos(alpha_M)
                        + np.sin(alpha_M) * np.sinh((3 * v - lam) / 2.0))
            c3 = th1 - (np.cos(alpha_m) * np.cosh((v - lam) / 2.0)
                        - np.sin(alpha_m) * np.sinh((v + lam) / 2.0))
        worst[idx] = np.minimum.reduce([cond0, guard, c1, c2, c3])
    return _report("equi1_on_X2", worst, [a3, a1_axis],
                   "equilateral conditions (0)-(3) across region X2")


def _claim_iso1_on_x4(n: int) -> ClaimReport:
    m = max(int(round(n ** (1.0 / 3.0))), 24)
    a3 = np.linspace(1.696, REGION_A3_MAX, m)
    worst = np.full((m, m, m), np.nan)
    a1_axis = a2_axis = None
    for i3, v3 in enumerate(a3):
        lo1, hi1 = line_l1(v3), line_l2(v3)
        if lo1 > hi1:
            continue
        sh3 = math.sinh(v3)
        if sh3 < 2.0:
            continue
        lam = _iso_lambda(sh3)
        a1 = np.linspace(lo1, hi1, m)
        a2 = np.linspace(lo1, v3, m)
        a1_axis, a2_axis = a1, a2
        A1, A2 = np.meshgrid(a1, a2, indexing="ij")
        mask = (A2 >= A1) & (np.cosh(A2) ** 2 >= np.sinh(A2) * sh3)
        sq = math.sqrt(math.cosh(lam) * math.cosh(v3))
        cos2aM = ((math.cosh(2 * lam) * math.cosh(2 * v3) - np.cosh(2 * A1))
                  / (math.sinh(2 * lam) * math.sinh(2 * v3)))
        with np.errstate(invalid="ignore"):
            alpha_M = np.arccos(np.clip(cos2aM, -1.0, 1.0)) / 2.0
            alpha_m = np.arcsin(np.sinh(A1) / math.sinh(2 * v3))
            pre = sh3 - (np.sinh(A1) + 1.0 / np.sinh(A1))
            # a2 >= lam is the defining inequality of X4 itself (equality
            # on the region boundary), so it is folded into the mask
            c2 = sq - (1.0 + np.sin(alpha_M) * sh3)
            c3 = sq - (-np.cos(alpha_M)
                       + np.sin(alpha_M) * math.sinh((3 * v3 - lam) / 2.0))
            c4 = sq - (np.cos(alpha_m) * math.cosh((v3 - lam) / 2.0)
                       - np.sin(alpha_m) * math.sinh((v3 + lam) / 2.0))
            c5 = (math.cosh(v3) * sh3 * np.sinh(A1)
                  - np.cosh(A1) ** 2 * math.cosh(2 * v3 - lam))
            vals = np.minimum.reduce([pre, c2, c3, c4, c5])
        mask = mask & (A2 >= lam - 1e-9)
        worst[i3] = np.where(mask, vals, np.nan)
    return _report("iso1_on_X4", worst, [a3, a1_axis, a2_axis],
                   "isosceles conditions and preconditions across region X4")


def _claim_flat_identity(n: int) -> ClaimReport:
    m = max(int(math.sqrt(n)), 128)
    a1 = np.linspace(0.05, B2_HALF / 2.0, m)
    a2 = np.linspace(0.05, B2_HALF / 2.0, m)
    A1, A2 = np.meshgrid(a1, a2, indexing="ij")
    A3 = A1 + A2
    chb1 = (np.cosh(A1) + np.cosh(A2) * np.cosh(A3)) / (np.sinh(A2) * np.sinh(A3))
    lhs = (chb1 - 1.0) * np.sinh(A2) ** 2
    rhs = 2.0 * np.cosh(A1) * np.sinh(A2) / np.sinh(A3)
    resid = np.abs(lhs - rhs).max()
    vals = 2.0 - lhs
    rep = _report("flat_delta3_identity", vals, [a1, a2],
                  f"(cosh b1 - 1) sinh^2 a2 = 2 cosh a1 sinh a2 / sinh a3 < 2"
                  f"; identity residual {resid:.2e}")
    if resid > 1e-9:
        return ClaimReport(claim_id=rep.claim_id, margin=-1.0,
                           raw_min=rep.raw_min, lipschitz_pad=rep.lipschitz_pad,
                           grid_points=rep.grid_points,
                           detail=f"identity residual {resid:.2e} too large")
    return rep


def _claim_selfhex_cap(n: int) -> ClaimReport:
    a3 = np.linspace(0.05, B2_HALF, n)
    vals = 6.8 - (2.0 + 4.0 * np.sinh(a3 / 2.0) ** 4 / np.cosh(a3 / 2.0) ** 2)
    return _report("selfhex_delta3_cap_6.8", vals, [a3],
                   "2 + 4 sinh^4(a3/2)/cosh^2(a3/2) <= 6.8 up to the Bers bound")


def _claim_comdelta_cap(n: int) -> ClaimReport:
    val = 11.35 - (2.0 + 2.0 * COSH_B2_HALF)
    return ClaimReport(claim_id="mixed_delta3_cap_11.35", margin=val,
                       raw_min=val, lipschitz_pad=0.0, grid_points=1,
                       detail="2 + 2 cosh(B2/2) <= 11.35 at the reported "
                              "Bers value")


_CLAIMS: List[Tuple[str, Callable[[int], ClaimReport], int]] = [
    ("equ0_cond0_cubic", _claim_equ0_cond0, 200_000),
    ("equ0_cond1", _claim_equ0_cond1, 200_000),
    ("equ0_cond2", _claim_equ0_cond2, 200_000),
    ("equ0_lambda_floor", _claim_equ0_lambda_floor, 160_000),
    ("iso0_conditions", _claim_iso0_conditions, 130_000),
    ("interval_u3_bound", _claim_interval_u3, 160_000),
    ("phi_below_9", _claim_phi_below_9, 160_000),
    ("phi_crossing_near_1459", _claim_phi_crossing, 4_096),
    ("equi1_on_X2", _claim_equi1_on_x2, 160_000),
    ("iso1_on_X4", _claim_iso1_on_x4, 130_000),
    ("flat_delta3_identity", _claim_flat_identity, 160_000),
    ("selfhex_delta3_cap_6.8", _claim_selfhex_cap, 200_000),
    ("mixed_delta3_cap_11.35", _claim_comdelta_cap, 1),
]


def verify_paper_inequalities(scale: float = 1.0) -> List[ClaimReport]:
    """Evaluate every computer-checked claim; all margins must be positive.

    `scale` multiplies the grid sizes (used by the refinement stability
    check).  A non-positive margin signals a genuine contradiction with the
    source of the inequality and is surfaced, never suppressed.
    """
    out = []
    for _, fn, base_n in _CLAIMS:
        out.append(fn(max(int(base_n * scale), 16)))
    return out
