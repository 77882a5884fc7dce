"""The grid claims behind `srk.inequalities`, evaluated block by block.

No grid is held whole.  A claim evaluates runs of consecutive rows of its
grid (slices along its first axis), each run in order, in blocks of whole
rows of at most `_BLOCK_POINTS` points each, and a `MinPad` folds each
block into the running minimum and the largest neighbour difference along
each axis, keeping a copy of the block's last row for the difference with
the first row of the next.  `_blocks` makes a run's block buffers once
and hands them to every block; each per-point quantity is written into
them with `out=`, and is evaluated only on the axes it depends on,
broadcast against the others.  So a claim's memory
does not grow with `scale` until one row outgrows a block.  The reports
equal those of whole-grid arrays bit for bit: every point sees the same
floating-point operations in the same order, and minima and maxima are
exact in any order.

`verify` runs the claims on two threads (one where the process may use
one CPU only), which share the work because numpy's ufuncs release the
interpreter lock.  Every claim is one run, but equi1_on_X2, more than
half the work, is two: its row halves, the second starting on the first's
last row, each folded into its own `MinPad` and then merged.  A row
folded twice changes no minimum or maximum, so the reports do not depend
on the number of threads.

This module imports numpy at its top, and within srk only `srk.inequalities`
imports it, on the first call of `verify_paper_inequalities` or
`phi_max_over_a1`, so that `import srk` compiles neither this code nor numpy.
"""

from __future__ import annotations

import collections
import contextvars
import math
import os
import threading
from functools import partial
from typing import Callable, Iterator, List, Tuple

import numpy as np

from .inequalities import B2_HALF, ClaimReport
from .tolerances import FLAT_IDENTITY_RESID, LAMBDA_FLOOR_RESID, X4_MASK_SLACK

ACOSH3 = math.acosh(3.0)
COSH_B2_HALF = 4.67          # reported Bers value, used by constant checks
REGION_A3_MAX = 2.23         # region decomposition covers a3 up to here


def line_l1(a3):
    """The line bounding region X1 of the Euler +-1 decomposition."""
    return -0.9 * (a3 - 1.695) + 1.18


def line_l2(a3):
    """The line bounding region X2 of the Euler +-1 decomposition."""
    return 0.8 * (a3 - 1.695) + 1.18


def _iso_lambda(sha3: float) -> float:
    """Largest root of cosh(x)^2 = sinh(x) * sha3 (needs sha3 >= 2).

    With y = sinh(x) the equation reads y^2 - sha3 y + 1 = 0.
    """
    if sha3 < 2.0:
        raise ValueError("isosceles twist length needs sinh(a3) >= 2")
    return math.asinh((sha3 + math.sqrt(sha3 * sha3 - 4.0)) / 2.0)

# points in one block: 150 KB of float64, 16 rows of the equi1 grid at
# scale 1.  On a 2-core Xeon, with one thread, a verify call took 14-18%
# more CPU time with 9600-point blocks, which pay numpy's per-call cost
# twice as often, and 28800 to 57600 points came within 4% of this size.
# On two threads short ufunc calls hand the interpreter lock back and
# forth: in `bench/run.py --workload verify` runs (4 seeds) 9600-point
# blocks gave 8.2-9.7 ops/s, half of this size's 13.9-17.4 and below
# one thread's 11.7-14.1, and 28800 points gave 17.7-26.1 ops/s but
# peak_rss_mb 37.3-37.4, against 36.2-36.9 here and 34.9 on one thread.
_BLOCK_POINTS = 16 * 1200


def _blocks(start: int, stop: int, row_shape: Tuple[int, ...],
            count: int) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Cut grid rows start, ..., stop - 1 into (lo, hi) blocks of as many
    whole rows of `row_shape` as `_BLOCK_POINTS` holds (at least one), each
    with `count` float buffers shaped like the block, stacked in one array
    made once and reused by every block.

    One array, not `count`: glibc maps it afresh and, when it is freed,
    raises its mmap and trim thresholds above it, so later claims and calls
    reuse heap memory.  Separate 150 KB buffers would be mapped afresh by
    every claim: about 1900 minor page faults per warm verify call, against
    0-7."""
    step = max(_BLOCK_POINTS // math.prod(row_shape), 1)
    bufs = np.empty((count, min(step, stop - start)) + row_shape)
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        yield lo, hi, bufs[:, :hi - lo]


class MinPad:
    """Raw minimum and Lipschitz pad of a grid, folded block by block.

    The pad is half the largest neighbour difference along each axis,
    summed over the axes; NaN cells are skipped.  Blocks are whole rows,
    each block's first row the one after the previous block's last row,
    which is kept in a copy for the difference between them.
    """

    def __init__(self, shape: Tuple[int, ...]) -> None:
        self._shape = shape
        self._raw = math.nan
        self._hi = [math.nan] * len(shape)
        self._lo = [math.nan] * len(shape)
        self._last = None               # a copy of the last row added

    def _fold(self, axis: int, diff: np.ndarray) -> None:
        self._hi[axis] = np.fmax(self._hi[axis],
                                 np.fmax.reduce(diff, axis=None))
        self._lo[axis] = np.fmin(self._lo[axis],
                                 np.fmin.reduce(diff, axis=None))

    def add(self, block: np.ndarray) -> None:
        """Fold in the rows that follow those added so far."""
        self._raw = np.fmin(self._raw, np.fmin.reduce(block, axis=None))
        if self._last is not None:
            self._fold(0, block[:1] - self._last)
        for axis, size in enumerate(block.shape):
            if size > 1:
                self._fold(axis, np.diff(block, axis=axis))
        self._last = block[-1:].copy()

    def merge(self, other: "MinPad") -> "MinPad":
        """Fold in `other`, the pad of a run of rows that starts at or
        before the row after this one's last, so that every pair of
        neighbouring rows lies in one of the two runs; return self.  A
        row in both runs changes no minimum or maximum."""
        self._raw = np.fmin(self._raw, other._raw)
        self._hi = [np.fmax(a, b) for a, b in zip(self._hi, other._hi)]
        self._lo = [np.fmin(a, b) for a, b in zip(self._lo, other._lo)]
        self._last = other._last
        return self

    def result(self) -> Tuple[float, float]:
        pad = 0.0
        for axis, size in enumerate(self._shape):
            if size > 1:
                pad += max(float(self._hi[axis]), -float(self._lo[axis])) / 2.0
        return float(self._raw), pad

    def report(self, claim_id: str, detail: str = "") -> ClaimReport:
        raw, pad = self.result()
        return ClaimReport(claim_id=claim_id, margin=raw - pad, raw_min=raw,
                           lipschitz_pad=pad,
                           grid_points=math.prod(self._shape), detail=detail)


def _linspace(start, stop, num: int, out: np.ndarray,
              first: int = 0) -> np.ndarray:
    """Points first, first + 1, ... of np.linspace(start, stop, num) along
    the last axis of `out`, bit for bit: point i is
    i * ((stop - start) / (num - 1)) + start and the last point is stop.
    `start` and `stop` are floats or hold one value per row of `out`."""
    k = out.shape[-1]
    step = np.subtract(stop, start, dtype=float) / (num - 1)
    np.copyto(out, np.arange(first, first + k))
    out *= np.reshape(step, np.shape(step) + (1,))
    out += np.reshape(start, np.shape(start) + (1,))
    if first + k == num:
        out[..., -1] = stop
    return out


def _lambda_floor(ch3: np.ndarray, out: np.ndarray,
                  tmp: np.ndarray) -> np.ndarray:
    """Lower bound for the equilateral twist length at given cosh(a3):
    2 acosh((17 ch3 + 1) / (ch3 + 17)) - acosh(ch3), into out."""
    np.multiply(17.0, ch3, out=out)
    out += 1.0
    np.add(ch3, 17.0, out=tmp)
    out /= tmp
    np.arccosh(out, out=out)
    out *= 2.0
    np.arccosh(ch3, out=tmp)
    return np.subtract(out, tmp, out=out)


def _lambda_of(b: np.ndarray, a3: np.ndarray, ch3: np.ndarray,
               out: np.ndarray, sh_sq: np.ndarray,
               ch_sq: np.ndarray) -> np.ndarray:
    """Twist length from cosh(b/2)^2 cosh((a3+lam)/2) = cosh a3 + sinh(b/2)^2,
    into out, given ch3 = cosh(a3); sinh(b/2)^2 and cosh(b/2)^2 are left in
    sh_sq and ch_sq."""
    np.divide(b, 2.0, out=ch_sq)
    np.sinh(ch_sq, out=sh_sq)
    np.cosh(ch_sq, out=ch_sq)
    sh_sq *= sh_sq
    ch_sq *= ch_sq
    np.add(ch3, sh_sq, out=out)
    out /= ch_sq
    np.maximum(out, 1.0, out=out)
    np.arccosh(out, out=out)
    out *= 2.0
    return np.subtract(out, a3, out=out)


# ---------------------------------------------------------------------------
# individual claims
# ---------------------------------------------------------------------------

def _claim_equ0_cond0(n: int) -> ClaimReport:
    # the cubic sufficient condition for the equilateral strategy's
    # condition (0): 17 x^2 - x^3 - 8x - 8 > 0 on x = cosh(a3/2)
    acc = MinPad((n,))
    for lo, hi, (x, v, t) in _blocks(0, n, (), 3):
        _linspace(math.sqrt(2.0), math.sqrt(5.68 / 2.0), n, x, lo)
        np.multiply(x, x, out=v)
        v *= 17.0
        np.power(x, 3, out=t)
        v -= t
        np.multiply(8.0, x, out=t)
        v -= t
        acc.add(np.subtract(v, 8.0, out=v))
    return acc.report("equ0_cond0_cubic",
                      "x^3 + 8x + 8 < 17 x^2 on [sqrt 2, sqrt(5.68/2)]")


def _claim_equ0_cond1(n: int) -> ClaimReport:
    # 2 - (cosh a3 + 1)/8 sinh^2((3 a3 - lam)/4) at the floor lam
    acc = MinPad((n,))
    for lo, hi, (a3, ch3, lam, t) in _blocks(0, n, (), 4):
        _linspace(ACOSH3, B2_HALF, n, a3, lo)
        np.cosh(a3, out=ch3)
        _lambda_floor(ch3, lam, t)
        np.multiply(3, a3, out=t)
        t -= lam
        t /= 4.0
        np.sinh(t, out=t)
        t *= t
        ch3 += 1.0
        ch3 /= 8.0
        ch3 *= t
        acc.add(np.subtract(2.0, ch3, out=ch3))
    return acc.report("equ0_cond1",
                      "(cosh b3 - 1) sinh^2((3a3 - lam)/4) <= 2 at extremal b3")


def _claim_equ0_cond2(n: int) -> ClaimReport:
    # 1 + cosh(b1) sinh(lam/2) sinh(a3/2) - cosh(lam/2) cosh(a3/2) with
    # cosh(b1) = (3 + cosh^2 a3) / sinh^2 a3, at the floor lam
    acc = MinPad((n,))
    for lo, hi, (a3, v, lam, t, s) in _blocks(0, n, (), 5):
        _linspace(ACOSH3, B2_HALF, n, a3, lo)
        np.cosh(a3, out=v)
        _lambda_floor(v, lam, t)
        v *= v
        v += 3.0
        np.sinh(a3, out=t)
        t *= t
        v /= t  # cosh(b1)
        np.divide(lam, 2.0, out=t)
        np.sinh(t, out=s)
        np.cosh(t, out=t)  # cosh(lam/2)
        v *= s
        a3 /= 2.0
        np.sinh(a3, out=s)
        np.cosh(a3, out=a3)
        v *= s
        v += 1.0
        t *= a3
        acc.add(np.subtract(v, t, out=v))
    return acc.report("equ0_cond2",
                      "cosh(lam/2)cosh(a3/2) - cosh(b1) sinh(lam/2) sinh(a3/2) "
                      "<= 1")


def _claim_equ0_lambda_floor(n: int) -> ClaimReport:
    # lam is decreasing in b3 and equals the closed floor exactly at the
    # largest admissible b3; the claim checks the strict gap on an interior
    # band and the boundary identity separately
    m = max(int(math.sqrt(n)), 64)
    a3 = np.linspace(ACOSH3, B2_HALF, m)
    ch3 = np.cosh(a3)
    floor = _lambda_floor(ch3, np.empty(m), np.empty(m))
    b3max = np.arccosh((ch3 + 9.0) / 8.0)
    lam = _lambda_of(b3max, a3, ch3, *np.empty((3, m)))
    boundary_resid = float(np.max(np.abs(lam - floor)))
    b3_stop = b3max - 0.05
    acc = MinPad((m, m))
    for lo, hi, (b3, lam, t, u) in _blocks(0, m, (m,), 4):
        _linspace(0.2, b3_stop[lo:hi], m, b3)
        _lambda_of(b3, a3[lo:hi, None], ch3[lo:hi, None], lam, t, u)
        acc.add(np.subtract(lam, floor[lo:hi, None], out=lam))
    rep = acc.report("equ0_lambda_floor",
                     f"lam(b3, a3) above the closed floor on the interior band; "
                     f"boundary identity residual {boundary_resid:.2e}")
    if boundary_resid > LAMBDA_FLOOR_RESID:
        return rep._replace(margin=-1.0, detail=f"boundary identity residual "
                                                f"{boundary_resid:.2e} too large")
    return rep


def _claim_iso0_conditions(n: int) -> ClaimReport:
    # isosceles strategy in the (+1, -1) case on the region
    # cosh(a2) >= cosh(a1) + 2, a2 <= a3 <= B2/2; grid axes (a1, a2, a3)
    m = max(int(round(n ** (1.0 / 3.0))), 24)
    a1 = np.linspace(0.02, math.acosh(COSH_B2_HALF - 2.0), m)
    a2 = np.linspace(ACOSH3, B2_HALF, m)
    a3 = np.linspace(ACOSH3, B2_HALF, m)
    ch1, ch2, ch3 = np.cosh(a1), np.cosh(a2), np.cosh(a3)
    sh1, sh2, sh3 = np.sinh(a1), np.sinh(a2), np.sinh(a3)
    ch1h, sh1h = np.cosh(a1 / 2), np.sinh(a1 / 2)
    ch3h, sh3h = np.cosh(a3 / 2), np.sinh(a3 / 2)
    a3x3 = 3 * a3
    ch23 = ch2[:, None] * ch3               # b1 = acosh((ch1 + ch23) / sh23)
    sh23 = sh2[:, None] * sh3
    a2_le_a3 = a2[:, None] <= a3
    acc = MinPad((m, m, m))
    for lo, hi, (b1, b3, lam, s, c, t, v) in _blocks(0, m, (m, m), 7):
        r = slice(lo, hi)
        np.add(ch1[r, None, None], ch23, out=b1)
        b1 /= sh23
        np.arccosh(b1, out=b1)
        np.add(ch3, (ch1[r, None] * ch2)[:, :, None], out=b3)
        b3 /= (sh1[r, None] * sh2)[:, :, None]
        np.arccosh(b3, out=b3)
        _lambda_of(b1, a3, ch3, lam, s, c)      # s, c: sinh^2, cosh^2 (b1/2)
        np.maximum(lam, 0.0, out=lam)
        # c1 = 1 - (cosh(lam/2) cosh(a3/2) - cosh(b1) sinh(lam/2) sinh(a3/2))
        np.divide(lam, 2, out=t)
        np.cosh(t, out=v)
        v *= ch3h
        np.sinh(t, out=t)
        np.cosh(b1, out=b1)
        b1 *= t
        b1 *= sh3h
        v -= b1
        np.subtract(1.0, v, out=v)
        # c2 = 1 - (sinh(b1/2)^2 cosh((3 a3 - lam)/2) - cosh(b1/2)^2)
        np.subtract(a3x3, lam, out=t)
        t /= 2
        np.cosh(t, out=t)
        s *= t
        s -= c
        np.subtract(1.0, s, out=s)
        np.minimum(v, s, out=v)
        # c3 = cosh a3 - (cosh(a1/2) cosh(a3/2) + cosh(b3) sinh(a1/2) sinh(a3/2))
        np.cosh(b3, out=b3)
        b3 *= sh1h[r, None, None]
        b3 *= sh3h
        np.add((ch1h[r, None] * ch3h)[:, None, :], b3, out=t)
        np.subtract(ch3, t, out=t)
        np.minimum(v, t, out=v)
        mask = (ch2 >= (ch1[r] + 2.0)[:, None])[:, :, None] & a2_le_a3
        np.copyto(v, np.nan, where=~mask)
        acc.add(v)
    return acc.report("iso0_conditions",
                      "isosceles conditions (1)-(3) on cosh(a2) > cosh(a1) + 2")


def _claim_interval_u3(n: int) -> ClaimReport:
    # grid axes (a2, a3); u3max = cosh(a2/2) / cosh(a3/2)
    # sqrt(cosh(a2 + a3/2) cosh(a2 - a3/2))
    m = max(int(math.sqrt(n)), 64)
    a2 = np.linspace(0.05, B2_HALF, m)
    a3 = np.linspace(0.05, B2_HALF, m)
    ch2h, ch3h, half3 = np.cosh(a2 / 2), np.cosh(a3 / 2), a3 / 2
    ch2p1 = np.cosh(a2) + 1.0
    acc = MinPad((m, m))
    for lo, hi, (v, t, u) in _blocks(0, m, (m,), 3):
        r = slice(lo, hi)
        np.divide(ch2h[r, None], ch3h, out=v)
        np.add(a2[r, None], half3, out=t)
        np.cosh(t, out=t)
        np.subtract(a2[r, None], half3, out=u)
        np.cosh(u, out=u)
        t *= u
        np.sqrt(t, out=t)
        v *= t
        np.subtract(ch2p1[r, None], v, out=v)
        np.copyto(v, np.nan, where=a2[r, None] > a3)
        acc.add(v)
    return acc.report("interval_u3_bound",
                      "max u3 <= cosh(a2) + 1 for a2 <= a3")


def _claim_phi_below_9(n: int) -> ClaimReport:
    # the true threshold sits within 2e-3 of 9 at a3 = 1.459, so the
    # certified band stops one crossing-tolerance short of it; the claim
    # below brackets the crossing itself
    m = max(int(math.sqrt(n)), 64)
    a3 = np.linspace(0.05, 1.449, m)
    vals = np.subtract(9.0, phi_max(a3, m))
    acc = MinPad((m,))
    acc.add(vals)
    return acc.report("phi_below_9",
                      "max_a1 Phi(a1, a3) <= 9 for a3 <= 1.459 - 0.01")


def phi_max(a3: np.ndarray, n: int) -> np.ndarray:
    """max of Phi(a1, a3) over n points a1 in [1e-3, a3] for each entry of
    the 1-D array a3, a block of a3 values at a time:
    Phi = (s3^2 - s1^2) / s3^2 + sqrt(s6^2 - s1^2) s1 / s3 with
    s1 = sinh a1, s3 = sinh a3, s6 = sinh(2 a3)."""
    out = np.empty(a3.size)
    for lo, hi, (s1, t, u) in _blocks(0, a3.size, (n,), 3):
        s3 = np.sinh(a3[lo:hi])[:, None]
        s6 = np.sinh(2 * a3[lo:hi])[:, None]
        s3_sq = s3 ** 2
        _linspace(1e-3, a3[lo:hi], n, s1)
        np.sinh(s1, out=s1)
        np.multiply(s1, s1, out=t)
        np.subtract(s6 ** 2, t, out=u)
        np.sqrt(u, out=u)
        u *= s1
        u /= s3
        np.subtract(s3_sq, t, out=t)
        t /= s3_sq
        t += u
        np.max(t, axis=1, out=out[lo:hi])
    return out


def _claim_phi_crossing(n: int) -> ClaimReport:
    # the maximum of Phi crosses 9 inside a3 in [1.449, 1.469]
    phi = phi_max(np.array([1.449, 1.469]), max(n, 512))
    low = min(9.0 - float(phi[0]), float(phi[1]) - 9.0)
    return ClaimReport(claim_id="phi_crossing_near_1459",
                       margin=low, raw_min=low,
                       lipschitz_pad=0.0, grid_points=2 * max(n, 512),
                       detail="max Phi < 9 at a3 = 1.449 and > 9 at 1.469")


def _equi1_jobs(n: int) -> Tuple[list, Callable[..., ClaimReport]]:
    """equi1_on_X2 as two jobs, each folding one half of its grid's rows
    into its own `MinPad`, and the function that merges the two into the
    claim's report.  The halves are rows [start, mid) and [mid - 1, m):
    the second starts one row early, so that its pad takes the difference
    across the seam, and a row folded twice changes no minimum or maximum.
    """
    # the binding corner (a1 = l2(2.23), a3 = 2.23) leaves a margin of only
    # 5e-3, so the mesh must be fine enough for the pad to fit under it;
    # grid axes (a3, a1), a1 in [max(l1, l2)(a3), a3].  l2 stays below the
    # diagonal on the whole grid, and l1(a3) - a3 falls (rounding keeps it
    # monotone), crossing 0 once at a3 = 2.7055/1.9 ~ 1.424; so the rows
    # with a1's range nonempty are one run that ends at the last row, and
    # the rows before it are left out, as NaN rows would be
    m = max(int(math.sqrt(n)) * 3, 384)
    a3 = np.linspace(1.42, REGION_A3_MAX, m)
    lo = np.maximum(line_l1(a3), line_l2(a3))
    start = int(np.count_nonzero(lo > a3))
    mid = (start + m + 1) // 2

    def rows(r0: int, r1: int) -> MinPad:
        acc = MinPad((m, m))
        for b0, b1, bufs in _blocks(r0, r1, (m,), 8):
            acc.add(_equi1_worst(lo[b0:b1], a3[b0:b1], bufs))
        return acc

    def report(first: MinPad, second: MinPad) -> ClaimReport:
        return first.merge(second).report(
            "equi1_on_X2", "equilateral conditions (0)-(3) across region X2")

    halves = [partial(rows, start, mid), partial(rows, max(mid - 1, start), m)]
    return halves, report


def _claim_equi1_on_x2(n: int) -> ClaimReport:
    jobs, report = _equi1_jobs(n)
    return report(*[job() for job in jobs])


def _equi1_worst(lo: np.ndarray, a3: np.ndarray,
                 bufs: np.ndarray) -> np.ndarray:
    """min of conditions (0)-(3) on the rows a1 = linspace(lo, a3, m),
    evaluated in `bufs`, eight (rows, m) arrays stacked.

    No inverse function is evaluated: with y = sin(alpha),
    cos(alpha) = sqrt((1 - y)(1 + y)); with x = cosh(a3) tanh(a1)^2 =
    cosh(lam), L = e^{lam/2} = sqrt(x + sqrt((x - 1)(x + 1))), and with
    E = e^{a3/2} the half-angle terms are rational in L and E:
    sinh((3 a3 - lam)/2) = (E^3/L - L/E^3)/2 and
    cos(alpha) cosh((a3 - lam)/2) - sin(alpha) sinh((a3 + lam)/2)
    = ((cos(alpha) E + sin(alpha)/E)/L + (cos(alpha)/E - sin(alpha) E) L)/2.
    """
    a1, s1, th1, s2a1, x, t, u, worst = bufs
    _linspace(lo, a3, a1.shape[1], a1)
    v = a3[:, None]
    ch3, sh3, e = np.cosh(v), np.sinh(v), np.exp(v / 2.0)
    e3 = e ** 3
    np.sinh(a1, out=s1)
    c1 = np.cosh(a1, out=a1)
    np.divide(s1, c1, out=th1)  # tanh(a1)
    np.multiply(2.0, s1, out=s2a1)
    s2a1 *= c1  # sinh(2 a1)
    np.multiply(th1, th1, out=x)
    x *= ch3  # cosh(lam), unclipped
    # condition (0) and alpha_M being defined, then condition (1)
    np.subtract(x, 1.0, out=worst)
    np.subtract(s2a1, sh3, out=t)
    np.minimum(worst, t, out=worst)
    np.multiply(s1, s1, out=t)
    t *= 2.0 * ch3
    np.add(s2a1, sh3 ** 2, out=u)
    t -= u
    np.minimum(worst, t, out=worst)
    # el = L, into t
    np.maximum(x, 1.0, out=x)
    np.subtract(x, 1.0, out=t)
    np.add(x, 1.0, out=u)
    t *= u
    np.sqrt(t, out=t)
    t += x
    el = np.sqrt(t, out=t)
    # condition (2) with sin_M in u, cos_M in x
    np.divide(sh3, s2a1, out=u)
    np.minimum(u, 1.0, out=u)
    np.subtract(1.0, u, out=x)
    np.add(1.0, u, out=s2a1)
    x *= s2a1
    np.sqrt(x, out=x)
    np.divide(e3, el, out=s2a1)
    np.divide(el, e3, out=a1)
    s2a1 -= a1
    u *= s2a1
    u /= 2.0
    u -= x
    np.subtract(th1, u, out=u)
    np.minimum(worst, u, out=worst)
    # condition (3) with sin_m in s2a1, cos_m in x
    np.divide(s1, np.sinh(2.0 * v), out=s2a1)
    np.subtract(1.0, s2a1, out=x)
    np.add(1.0, s2a1, out=u)
    x *= u
    np.sqrt(x, out=x)
    np.multiply(x, e, out=u)
    np.divide(s2a1, e, out=a1)
    u += a1
    u /= el
    np.divide(x, e, out=a1)
    np.multiply(s2a1, e, out=s1)
    a1 -= s1
    a1 *= el
    u += a1
    u /= 2.0
    np.subtract(th1, u, out=u)
    return np.minimum(worst, u, out=worst)


def _claim_iso1_on_x4(n: int) -> ClaimReport:
    # grid axes (a3, a1, a2).  Every row lies in region X4's a3 range: the
    # grid starts at a3 = 1.696, above the crossing of l1 and l2 at 1.695
    # (l1 <= l2 from there on), and sinh 1.696 ~ 2.63 >= 2
    m = max(int(round(n ** (1.0 / 3.0))), 24)
    a3 = np.linspace(1.696, REGION_A3_MAX, m)
    lo1, hi1 = line_l1(a3), line_l2(a3)
    # every condition depends on (a3, a1) alone; a2 enters only the mask
    v3, sh3 = a3[:, None, None], np.sinh(a3)[:, None, None]
    lam = np.array([_iso_lambda(s) for s in sh3.ravel()])[:, None, None]
    A1 = np.linspace(lo1, hi1, m, axis=1)[:, :, None]
    A2 = np.linspace(lo1, a3, m, axis=1)[:, None, :]
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
    a2_ok = (np.cosh(A2) ** 2 >= np.sinh(A2) * sh3) & (A2 >= lam - X4_MASK_SLACK)
    acc = MinPad((m, m, m))
    for lo, hi, (v,) in _blocks(0, m, (m, m), 1):
        r = slice(lo, hi)
        np.copyto(v, vals[r])
        np.copyto(v, np.nan, where=~((A2[r] >= A1[r]) & a2_ok[r]))
        acc.add(v)
    return acc.report("iso1_on_X4",
                      "isosceles conditions and preconditions across region X4")


def _claim_flat_identity(n: int) -> ClaimReport:
    # grid axes (a1, a2), a3 = a1 + a2
    m = max(int(math.sqrt(n)), 128)
    a1 = np.linspace(0.05, B2_HALF / 2.0, m)
    a2 = np.linspace(0.05, B2_HALF / 2.0, m)
    ch1, ch2, sh2 = np.cosh(a1), np.cosh(a2), np.sinh(a2)
    sh2_sq, ch1x2 = sh2 ** 2, 2.0 * ch1
    resid = -np.inf
    acc = MinPad((m, m))
    for lo, hi, (lhs, sh3, rhs) in _blocks(0, m, (m,), 3):
        r = slice(lo, hi)
        np.add(a1[r, None], a2, out=lhs)
        np.sinh(lhs, out=sh3)
        np.cosh(lhs, out=lhs)
        # lhs = (cosh b1 - 1) sinh^2 a2 with
        # cosh b1 = (cosh a1 + cosh a2 cosh a3) / (sinh a2 sinh a3)
        lhs *= ch2
        lhs += ch1[r, None]
        np.multiply(sh2, sh3, out=rhs)
        lhs /= rhs
        lhs -= 1.0
        lhs *= sh2_sq
        # rhs = 2 cosh a1 sinh a2 / sinh a3
        np.multiply(ch1x2[r, None], sh2, out=rhs)
        rhs /= sh3
        np.subtract(lhs, rhs, out=rhs)
        resid = np.maximum(resid, np.abs(rhs, out=rhs).max())
        acc.add(np.subtract(2.0, lhs, out=lhs))
    rep = acc.report("flat_delta3_identity",
                     f"(cosh b1 - 1) sinh^2 a2 = 2 cosh a1 sinh a2 / sinh a3 < 2"
                     f"; identity residual {resid:.2e}")
    if resid > FLAT_IDENTITY_RESID:
        return rep._replace(margin=-1.0,
                            detail=f"identity residual {resid:.2e} too large")
    return rep


def _claim_selfhex_cap(n: int) -> ClaimReport:
    acc = MinPad((n,))
    for lo, hi, (a3, v) in _blocks(0, n, (), 2):
        _linspace(0.05, B2_HALF, n, a3, lo)
        a3 /= 2.0
        np.sinh(a3, out=v)
        np.power(v, 4, out=v)
        np.cosh(a3, out=a3)
        a3 *= a3
        v *= 4.0
        v /= a3
        v += 2.0
        acc.add(np.subtract(6.8, v, out=v))
    return acc.report("selfhex_delta3_cap_6.8",
                      "2 + 4 sinh^4(a3/2)/cosh^2(a3/2) <= 6.8 up to the Bers "
                      "bound")


def _claim_comdelta_cap(n: int) -> ClaimReport:
    val = 11.35 - (2.0 + 2.0 * COSH_B2_HALF)
    return ClaimReport(claim_id="mixed_delta3_cap_11.35", margin=val,
                       raw_min=val, lipschitz_pad=0.0, grid_points=1,
                       detail="2 + 2 cosh(B2/2) <= 11.35 at the reported "
                              "Bers value")


CLAIMS: List[Tuple[Callable[[int], ClaimReport], int]] = [
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


def _workers() -> int:
    """Threads for a verify call: two, or one where this process may run
    on one CPU only."""
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def verify(scale: float) -> List[ClaimReport]:
    """The reports of `CLAIMS` at `scale`, in their order, evaluated on
    `_workers()` threads.  The two row halves of equi1_on_X2, the largest
    jobs, are taken up first, then the other claims in order; numpy's
    ufuncs release the interpreter lock, so the threads share the work.
    When claims raise, the first of them in `CLAIMS` order raises here."""
    claims = []                 # (jobs, report from their results) per claim
    for fn, base_n in CLAIMS:
        n = max(int(base_n * scale), 16)
        claims.append(_equi1_jobs(n) if fn is _claim_equi1_on_x2
                      else ([partial(fn, n)], lambda rep: rep))
    jobs = [job for parts, _ in claims for job in parts]
    split = [len(parts) > 1 for parts, _ in claims for _ in parts]
    results = iter(_run(jobs, sorted(range(len(jobs)),
                                     key=lambda j: not split[j])))
    return [report(*[next(results) for _ in parts])
            for parts, report in claims]


def _run(jobs: List[Callable[[], object]], order: List[int]) -> list:
    """Call every job, taking them up in `order`, on `_workers()` threads,
    the calling thread one of them; return their results in the order of
    `jobs`, or raise the exception of the first job there that raised.
    Each thread runs in a copy of the caller's context, so numpy's error
    state holds in all of them, and every thread has ended on return."""
    results: list = [None] * len(jobs)
    errors: list = [None] * len(jobs)
    todo = collections.deque(order)     # popleft is atomic

    def work() -> None:
        while True:
            try:
                i = todo.popleft()
            except IndexError:
                return
            try:
                results[i] = jobs[i]()
            except Exception as exc:
                errors[i] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(work,))
               for _ in range(_workers() - 1)]
    for t in threads:
        t.start()
    try:
        work()
    finally:
        todo.clear()                    # an interrupt stops the other threads
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
