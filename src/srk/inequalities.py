"""Grid re-verification of the computer-checked inequalities.

Each claim reduces to the positivity of an explicit analytic expression on
a compact box.  The checker evaluates the expression on a dense lattice and
subtracts a Lipschitz pad: half the largest difference between neighbouring
grid values along each axis, summed over the axes (the grid slope times half
the mesh, with the mesh cancelled).  A reported positive margin certifies
positivity at the granularity of the pad.  This reproduces the assurance
level of the original computer checks; formal interval arithmetic is out of
scope.

The grids are numpy arrays, and each function that builds or reads one
imports numpy itself: importing this module (as `srk` and its CLI do)
loads no numpy, and `srk verify` loads it on its first claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Tuple

from .search import (B2_HALF, COSH_B2_HALF, REGION_A3_MAX, _iso_lambda,
                     line_l1, line_l2)
from .tolerances import FLAT_IDENTITY_RESID, LAMBDA_FLOOR_RESID, X4_MASK_SLACK

if TYPE_CHECKING:
    import numpy as np

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


def _pad_and_min(values: np.ndarray) -> Tuple[float, float]:
    """Raw minimum and a Lipschitz pad: half the largest neighbour
    difference along each axis, summed over the axes (NaN cells skipped)."""
    import numpy as np
    raw = float(np.nanmin(values))
    pad = 0.0
    for axis in range(values.ndim):
        if values.shape[axis] > 1:
            dv = np.diff(values, axis=axis)
            pad += max(float(np.nanmax(dv)), -float(np.nanmin(dv))) / 2.0
            # one difference array alive at a time: on the equi1 grid each
            # is 11 MB, and they set the peak RSS of a verify run
            del dv
    return raw, pad


def _report(claim_id: str, values: np.ndarray,
            detail: str = "") -> ClaimReport:
    raw, pad = _pad_and_min(values)
    return ClaimReport(claim_id=claim_id, margin=raw - pad, raw_min=raw,
                       lipschitz_pad=pad, grid_points=int(values.size),
                       detail=detail)


def _lambda_floor(ch3: np.ndarray) -> np.ndarray:
    """Lower bound for the equilateral twist length at given cosh(a3)."""
    import numpy as np
    return 2.0 * np.arccosh((17.0 * ch3 + 1.0) / (ch3 + 17.0)) - np.arccosh(ch3)


def _lambda_of(b: np.ndarray, a3: np.ndarray) -> np.ndarray:
    """Twist length from cosh(b/2)^2 cosh((a3+lam)/2) = cosh a3 + sinh(b/2)^2."""
    import numpy as np
    arg = (np.cosh(a3) + np.sinh(b / 2.0) ** 2) / np.cosh(b / 2.0) ** 2
    return 2.0 * np.arccosh(np.maximum(arg, 1.0)) - a3


# ---------------------------------------------------------------------------
# individual claims
# ---------------------------------------------------------------------------

def _claim_equ0_cond0(n: int) -> ClaimReport:
    # the cubic sufficient condition for the equilateral strategy's
    # condition (0): 17 x^2 - x^3 - 8x - 8 > 0 on x = cosh(a3/2)
    import numpy as np
    x = np.linspace(math.sqrt(2.0), math.sqrt(5.68 / 2.0), n)
    vals = 17.0 * x ** 2 - x ** 3 - 8.0 * x - 8.0
    return _report("equ0_cond0_cubic", vals,
                   "x^3 + 8x + 8 < 17 x^2 on [sqrt 2, sqrt(5.68/2)]")


def _claim_equ0_cond1(n: int) -> ClaimReport:
    import numpy as np
    a3 = np.linspace(ACOSH3, B2_HALF, n)
    lam = _lambda_floor(np.cosh(a3))
    vals = 2.0 - (np.cosh(a3) + 1.0) / 8.0 * np.sinh((3 * a3 - lam) / 4.0) ** 2
    return _report("equ0_cond1", vals,
                   "(cosh b3 - 1) sinh^2((3a3 - lam)/4) <= 2 at extremal b3")


def _claim_equ0_cond2(n: int) -> ClaimReport:
    import numpy as np
    a3 = np.linspace(ACOSH3, B2_HALF, n)
    lam = _lambda_floor(np.cosh(a3))
    chb1 = (3.0 + np.cosh(a3) ** 2) / np.sinh(a3) ** 2
    vals = (1.0 + chb1 * np.sinh(lam / 2.0) * np.sinh(a3 / 2.0)
            - np.cosh(lam / 2.0) * np.cosh(a3 / 2.0))
    return _report("equ0_cond2", vals,
                   "cosh(lam/2)cosh(a3/2) - cosh(b1) sinh(lam/2) sinh(a3/2) <= 1")


def _claim_equ0_lambda_floor(n: int) -> ClaimReport:
    # lam is decreasing in b3 and equals the closed floor exactly at the
    # largest admissible b3; the claim checks the strict gap on an interior
    # band and the boundary identity separately
    import numpy as np
    m = max(int(math.sqrt(n)), 64)
    a3 = np.linspace(ACOSH3, B2_HALF, m)
    floor = _lambda_floor(np.cosh(a3))
    b3max = np.arccosh((np.cosh(a3) + 9.0) / 8.0)
    boundary_resid = float(np.max(np.abs(_lambda_of(b3max, a3) - floor)))
    b3 = np.linspace(0.2, b3max - 0.05, m, axis=1)
    vals = _lambda_of(b3, a3[:, None]) - floor[:, None]
    rep = _report("equ0_lambda_floor", vals,
                  f"lam(b3, a3) above the closed floor on the interior band; "
                  f"boundary identity residual {boundary_resid:.2e}")
    if boundary_resid > LAMBDA_FLOOR_RESID:
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
    import numpy as np
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
    return _report("iso0_conditions", vals,
                   "isosceles conditions (1)-(3) on cosh(a2) > cosh(a1) + 2")


def _claim_interval_u3(n: int) -> ClaimReport:
    import numpy as np
    m = max(int(math.sqrt(n)), 64)
    a2 = np.linspace(0.05, B2_HALF, m)
    a3 = np.linspace(0.05, B2_HALF, m)
    A2, A3 = np.meshgrid(a2, a3, indexing="ij")
    mask = A2 <= A3
    u3max = (np.cosh(A2 / 2) / np.cosh(A3 / 2)
             * np.sqrt(np.cosh(A2 + A3 / 2) * np.cosh(A2 - A3 / 2)))
    vals = np.where(mask, np.cosh(A2) + 1.0 - u3max, np.nan)
    return _report("interval_u3_bound", vals,
                   "max u3 <= cosh(a2) + 1 for a2 <= a3")


def _claim_phi_below_9(n: int) -> ClaimReport:
    # the true threshold sits within 2e-3 of 9 at a3 = 1.459, so the
    # certified band stops one crossing-tolerance short of it; the claim
    # below brackets the crossing itself
    import numpy as np
    m = max(int(math.sqrt(n)), 64)
    a3 = np.linspace(0.05, 1.449, m)
    vals = 9.0 - phi_max_over_a1(a3, m)
    return _report("phi_below_9", vals,
                   "max_a1 Phi(a1, a3) <= 9 for a3 <= 1.459 - 0.01")


def phi_max_over_a1(a3, n: int = 512):
    """max of Phi(a1, a3) over n points a1 in [1e-3, a3].

    A float for a scalar a3; for an array, the maximum at each entry.
    """
    import numpy as np
    a3 = np.asarray(a3, dtype=float)
    a1 = np.linspace(1e-3, a3, n, axis=-1)
    s1 = np.sinh(a1)
    s3 = np.sinh(a3)[..., None]
    s6 = np.sinh(2 * a3)[..., None]
    phi = (s3 ** 2 - s1 ** 2) / s3 ** 2 + np.sqrt(s6 ** 2 - s1 ** 2) * s1 / s3
    out = phi.max(axis=-1)
    return float(out) if out.ndim == 0 else out


def _claim_phi_crossing(n: int) -> ClaimReport:
    # the maximum of Phi crosses 9 inside a3 in [1.449, 1.469]
    below = 9.0 - phi_max_over_a1(1.449, n=max(n, 512))
    above = phi_max_over_a1(1.469, n=max(n, 512)) - 9.0
    low = min(below, above)
    return ClaimReport(claim_id="phi_crossing_near_1459",
                       margin=low, raw_min=low,
                       lipschitz_pad=0.0, grid_points=2 * max(n, 512),
                       detail="max Phi < 9 at a3 = 1.449 and > 9 at 1.469")


# rows of the equi1 grid evaluated at once: larger blocks save numpy call
# overhead; at 32 rows of 1200 a block's ~20 temporaries take ~6 MB, under
# the 11 MB difference array the pad needs, so they leave the peak RSS alone
_EQUI1_BLOCK = 32


def _claim_equi1_on_x2(n: int) -> ClaimReport:
    # the binding corner (a1 = l2(2.23), a3 = 2.23) leaves a margin of only
    # 5e-3, so the mesh must be fine enough for the pad to fit under it
    import numpy as np
    m = max(int(math.sqrt(n)) * 3, 384)
    a3 = np.linspace(1.42, REGION_A3_MAX, m)
    lo = np.maximum(line_l1(a3), line_l2(a3))
    worst = np.full((m, m), np.nan)
    rows = np.flatnonzero(lo <= a3)
    for start in range(0, rows.size, _EQUI1_BLOCK):
        r = rows[start:start + _EQUI1_BLOCK]
        worst[r] = _equi1_worst(lo[r], a3[r], m)
    return _report("equi1_on_X2", worst,
                   "equilateral conditions (0)-(3) across region X2")


def _equi1_worst(lo: np.ndarray, a3: np.ndarray, m: int) -> np.ndarray:
    """min of conditions (0)-(3) on the rows a1 = linspace(lo, a3, m).

    No inverse function is evaluated: with y = sin(alpha),
    cos(alpha) = sqrt((1 - y)(1 + y)); with x = cosh(a3) tanh(a1)^2 =
    cosh(lam), L = e^{lam/2} = sqrt(x + sqrt((x - 1)(x + 1))), and with
    E = e^{a3/2} the half-angle terms are rational in L and E:
    sinh((3 a3 - lam)/2) = (E^3/L - L/E^3)/2 and
    cos(alpha) cosh((a3 - lam)/2) - sin(alpha) sinh((a3 + lam)/2)
    = ((cos(alpha) E + sin(alpha)/E)/L + (cos(alpha)/E - sin(alpha) E) L)/2.
    """
    import numpy as np
    a1 = np.linspace(lo, a3, m, axis=1)
    v = a3[:, None]
    ch3, sh3, e = np.cosh(v), np.sinh(v), np.exp(v / 2.0)
    s1, c1 = np.sinh(a1), np.cosh(a1)
    th1 = s1 / c1
    s2a1 = 2.0 * s1 * c1                                # sinh(2 a1)
    x = ch3 * th1 ** 2                                  # cosh(lam), unclipped
    xc = np.maximum(x, 1.0)
    el = np.sqrt(xc + np.sqrt((xc - 1.0) * (xc + 1.0)))
    sin_M = np.minimum(sh3 / s2a1, 1.0)
    cos_M = np.sqrt((1.0 - sin_M) * (1.0 + sin_M))
    sin_m = s1 / np.sinh(2.0 * v)
    cos_m = np.sqrt((1.0 - sin_m) * (1.0 + sin_m))
    # condition (0) and alpha_M being defined, then conditions (1)-(3)
    worst = np.minimum(x - 1.0, s2a1 - sh3)
    np.minimum(worst, 2.0 * ch3 * s1 ** 2 - (s2a1 + sh3 ** 2), out=worst)
    np.minimum(worst, th1 - (sin_M * (e ** 3 / el - el / e ** 3) / 2.0
                             - cos_M), out=worst)
    np.minimum(worst, th1 - ((cos_m * e + sin_m / e) / el
                             + (cos_m / e - sin_m * e) * el) / 2.0, out=worst)
    return worst


def _claim_iso1_on_x4(n: int) -> ClaimReport:
    import numpy as np
    m = max(int(round(n ** (1.0 / 3.0))), 24)
    a3 = np.linspace(1.696, REGION_A3_MAX, m)
    worst = np.full((m, m, m), np.nan)
    lo1, hi1 = line_l1(a3), line_l2(a3)
    sh3 = np.sinh(a3)
    rows = np.flatnonzero((lo1 <= hi1) & (sh3 >= 2.0))
    # every condition depends on (a3, a1) alone; a2 enters only the mask
    v3, sh3 = a3[rows, None, None], sh3[rows, None, None]
    lam = np.array([_iso_lambda(s) for s in sh3.ravel()])[:, None, None]
    A1 = np.linspace(lo1[rows], hi1[rows], m, axis=1)[:, :, None]
    A2 = np.linspace(lo1[rows], a3[rows], m, axis=1)[:, None, :]
    sq = np.sqrt(np.cosh(lam) * np.cosh(v3))
    sh2v3 = np.sinh(2 * v3)
    cos2aM = ((np.cosh(2 * lam) * np.cosh(2 * v3) - np.cosh(2 * A1))
              / (np.sinh(2 * lam) * sh2v3))
    sh1 = np.sinh(A1)
    with np.errstate(invalid="ignore"):
        alpha_M = np.arccos(np.clip(cos2aM, -1.0, 1.0)) / 2.0
        alpha_m = np.arcsin(sh1 / sh2v3)
        pre = sh3 - (sh1 + 1.0 / sh1)
        c2 = sq - (1.0 + np.sin(alpha_M) * sh3)
        c3 = sq - (-np.cos(alpha_M)
                   + np.sin(alpha_M) * np.sinh((3 * v3 - lam) / 2.0))
        c4 = sq - (np.cos(alpha_m) * np.cosh((v3 - lam) / 2.0)
                   - np.sin(alpha_m) * np.sinh((v3 + lam) / 2.0))
        c5 = (np.cosh(v3) * sh3 * sh1
              - np.cosh(A1) ** 2 * np.cosh(2 * v3 - lam))
        vals = np.minimum.reduce([pre, c2, c3, c4, c5])
    # a2 >= lam is the defining inequality of X4 itself (equality on the
    # region boundary), so it is folded into the mask
    mask = ((A2 >= A1) & (np.cosh(A2) ** 2 >= np.sinh(A2) * sh3)
            & (A2 >= lam - X4_MASK_SLACK))
    worst[rows] = np.where(mask, vals, np.nan)
    return _report("iso1_on_X4", worst,
                   "isosceles conditions and preconditions across region X4")


def _claim_flat_identity(n: int) -> ClaimReport:
    import numpy as np
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
    rep = _report("flat_delta3_identity", vals,
                  f"(cosh b1 - 1) sinh^2 a2 = 2 cosh a1 sinh a2 / sinh a3 < 2"
                  f"; identity residual {resid:.2e}")
    if resid > FLAT_IDENTITY_RESID:
        return ClaimReport(claim_id=rep.claim_id, margin=-1.0,
                           raw_min=rep.raw_min, lipschitz_pad=rep.lipschitz_pad,
                           grid_points=rep.grid_points,
                           detail=f"identity residual {resid:.2e} too large")
    return rep


def _claim_selfhex_cap(n: int) -> ClaimReport:
    import numpy as np
    a3 = np.linspace(0.05, B2_HALF, n)
    vals = 6.8 - (2.0 + 4.0 * np.sinh(a3 / 2.0) ** 4 / np.cosh(a3 / 2.0) ** 2)
    return _report("selfhex_delta3_cap_6.8", vals,
                   "2 + 4 sinh^4(a3/2)/cosh^2(a3/2) <= 6.8 up to the Bers bound")


def _claim_comdelta_cap(n: int) -> ClaimReport:
    val = 11.35 - (2.0 + 2.0 * COSH_B2_HALF)
    return ClaimReport(claim_id="mixed_delta3_cap_11.35", margin=val,
                       raw_min=val, lipschitz_pad=0.0, grid_points=1,
                       detail="2 + 2 cosh(B2/2) <= 11.35 at the reported "
                              "Bers value")


_CLAIMS: List[Tuple[Callable[[int], ClaimReport], int]] = [
    (_claim_equ0_cond0, 200_000),
    (_claim_equ0_cond1, 200_000),
    (_claim_equ0_cond2, 200_000),
    (_claim_equ0_lambda_floor, 160_000),
    (_claim_iso0_conditions, 130_000),
    (_claim_interval_u3, 160_000),
    (_claim_phi_below_9, 160_000),
    (_claim_phi_crossing, 4_096),
    (_claim_equi1_on_x2, 160_000),
    (_claim_iso1_on_x4, 130_000),
    (_claim_flat_identity, 160_000),
    (_claim_selfhex_cap, 200_000),
    (_claim_comdelta_cap, 1),
]


def verify_paper_inequalities(scale: float = 1.0) -> List[ClaimReport]:
    """Evaluate every computer-checked claim; all margins must be positive.

    `scale` multiplies the grid sizes (used by the refinement stability
    check).  A non-positive margin signals a genuine contradiction with the
    source of the inequality and is surfaced, never suppressed.
    """
    out = []
    for fn, base_n in _CLAIMS:
        out.append(fn(max(int(base_n * scale), 16)))
    return out
