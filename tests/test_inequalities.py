import math
import threading
import tracemalloc

import numpy as np
import pytest

from srk import _grids, inequalities
from srk.inequalities import verify_paper_inequalities
from srk._grids import REGION_A3_MAX, line_l1, line_l2


@pytest.fixture(scope="module")
def reports():
    return verify_paper_inequalities()


EXPECTED_CLAIMS = {
    "equ0_cond0_cubic", "equ0_cond1", "equ0_cond2", "equ0_lambda_floor",
    "iso0_conditions", "interval_u3_bound", "phi_below_9",
    "phi_crossing_near_1459", "equi1_on_X2", "iso1_on_X4",
    "flat_delta3_identity", "selfhex_delta3_cap_6.8",
    "mixed_delta3_cap_11.35",
}


def test_all_claims_present(reports):
    assert {r.claim_id for r in reports} == EXPECTED_CLAIMS


def test_all_margins_positive(reports):
    for r in reports:
        assert r.ok, f"{r.claim_id}: margin {r.margin} ({r.detail})"


def test_grid_sizes(reports):
    for r in reports:
        if r.claim_id in ("mixed_delta3_cap_11.35", "phi_crossing_near_1459",
                          "phi_below_9"):
            continue
        assert r.grid_points >= 100_000, r.claim_id


def test_pad_reported(reports):
    for r in reports:
        assert r.lipschitz_pad >= 0.0
        assert r.margin == pytest.approx(r.raw_min - r.lipschitz_pad)


def test_refinement_stability(reports):
    fine = verify_paper_inequalities(scale=4.0)
    for r0, r4 in zip(reports, fine):
        assert r4.ok
        drift = abs(r4.raw_min - r0.raw_min) / max(abs(r0.raw_min), 1e-12)
        assert drift < 0.10, (r0.claim_id, r0.raw_min, r4.raw_min)


def _equi1_reference(n):
    """equi1_on_X2 one row at a time through the inverse functions, with the
    pad taken as grid slope times half the mesh (the last row's a1 mesh)."""
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
        guard = s2a1 - sh3
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
    raw = float(np.nanmin(worst))
    pad = 0.0
    for axis, grid in enumerate([a3, a1_axis]):
        h = float(grid[1] - grid[0])
        slope = float(np.nanmax(np.abs(np.diff(worst, axis=axis)))) / h
        pad += slope * h / 2.0
    return raw, pad, worst.size


@pytest.mark.parametrize("scale", [0.05, 1.0])
def test_equi1_matches_inverse_trig_reference(scale):
    n = int(160_000 * scale)
    raw, pad, points = _equi1_reference(n)
    jobs, report = _grids._claim_equi1_on_x2(n)     # verify's halves, merged
    rep = report(*[job() for job in jobs])
    assert rep.grid_points == points
    assert rep.raw_min == pytest.approx(raw, abs=1e-12)
    assert rep.lipschitz_pad == pytest.approx(pad, abs=1e-12)
    assert rep.margin == pytest.approx(raw - pad, abs=1e-12)


def test_equi1_halves_cover_its_rows_and_share_the_seam_row(monkeypatch):
    """The second half starts on the first half's last row, so one of the
    two pads takes each difference between neighbouring rows; together
    they fold every row with a nonempty a1 range, in order."""
    folded = []

    def worst(lo, a3, bufs):
        folded.append(a3.copy())
        return np.zeros(bufs.shape[1:])

    monkeypatch.setattr(_grids, "_equi1_worst", worst)
    jobs, _ = _grids._claim_equi1_on_x2(160_000)
    runs = []
    for job in jobs:
        folded.clear()
        job()
        runs.append(np.concatenate(folded))
    m = max(int(math.sqrt(160_000)) * 3, 384)
    a3 = np.linspace(1.42, REGION_A3_MAX, m)
    rows = a3[np.maximum(line_l1(a3), line_l2(a3)) <= a3]
    assert runs[0][-1] == runs[1][0]
    assert abs(len(runs[0]) - len(runs[1])) <= 1
    assert np.array_equal(np.concatenate([runs[0], runs[1][1:]]), rows)


def _phi_max_whole_row(a3, n):
    """max of Phi(a1, a3) over n points a1, evaluated on one whole row."""
    s3, s6 = np.sinh(np.array([a3])), np.sinh(np.array([2 * a3]))
    s1 = np.sinh(np.linspace(1e-3, a3, n))
    t = s1 * s1
    phi = (s3 ** 2 - t) / s3 ** 2 + np.sqrt(s6 ** 2 - t) * s1 / s3
    return float(np.max(phi))


def test_a_row_longer_than_a_block_equals_the_whole_row():
    """A claim whose rows outgrow a block (verify above scale 9.4 or so)
    takes one row per block, and reports what one whole row gives."""
    n = _grids._BLOCK_POINTS + 1280
    rep = _grids._claim_phi_crossing(n)
    want = min(9.0 - _phi_max_whole_row(1.449, n),
               _phi_max_whole_row(1.469, n) - 9.0)
    assert rep.raw_min == want


@pytest.mark.parametrize("workers", [1, 2])
def test_memory_does_not_grow_with_scale(monkeypatch, workers):
    """At scale 4 a whole-grid evaluation held 88 MB of arrays; streamed
    block by block, a call holds one run's buffers per thread and
    per-axis vectors."""
    monkeypatch.setattr(_grids, "_workers", lambda: workers)
    verify_paper_inequalities(scale=0.05)
    tracemalloc.start()
    try:
        verify_paper_inequalities(scale=4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


@pytest.mark.parametrize("shape", [(32, 1200), (8, 60, 80)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_a_minpad_allocates_no_block_after_its_first(shape):
    """Every neighbour difference of a later block is written into the
    scratch array made on the first block; what remains is numpy's own
    bounded iterator buffer for differences along strided axes."""
    rows = shape[0]
    values = _grid((5 * rows,) + shape[1:], seed=rows)
    acc = _grids.MinPad(values.shape)
    acc.add(values[:rows])
    tracemalloc.start()
    try:
        for lo in range(rows, len(values), rows):
            acc.add(values[lo:lo + rows])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values[:rows].nbytes, peak
    assert _bits(acc.result()) == _bits(_pad_and_min(values))


def _pad_and_min(values):
    """The whole-grid reference: raw minimum and a Lipschitz pad, half the
    largest neighbour difference along each axis, summed over the axes
    (NaN cells skipped)."""
    raw = float(np.nanmin(values))
    pad = 0.0
    for axis in range(values.ndim):
        if values.shape[axis] > 1:
            dv = np.diff(values, axis=axis)
            pad += max(float(np.nanmax(dv)), -float(np.nanmin(dv))) / 2.0
    return raw, pad


def _streamed(values, block, skip_nan_rows, split=None):
    """`MinPad` fed `block` rows at a time; with `skip_nan_rows`, the
    leading rows that are entirely NaN are never added, as
    `equi1_on_X2` leaves out its leading rows with an empty a1 range.
    With a `split` row, rows [start, split) and [split - 1, end) stream
    into two pads that are then merged, as `verify` splits equi1_on_X2
    (a split at or before the start makes the first run one row, and
    when every row is left out both runs are empty)."""
    start = 0
    if skip_nan_rows:
        empty = np.isnan(values).reshape(len(values), -1).all(axis=1)
        start = int(np.logical_and.accumulate(empty).sum())
    if split is None:
        return _streamed_rows(values, block, start, len(values)).result()
    mid = min(max(split % len(values), start + 1), len(values))
    first = _streamed_rows(values, block, start, mid)
    return first.merge(_streamed_rows(values, block, max(mid - 1, start),
                                      len(values))).result()


def _streamed_rows(values, block, start, stop):
    acc = _grids.MinPad(values.shape)
    for lo in range(start, stop, block):
        acc.add(values[lo:min(lo + block, stop)])
    return acc


def _bits(pair):
    return tuple(float(x).hex() for x in pair)


def _grid(shape, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape).cumsum(axis=0)
    values[rng.random(shape) < 0.1] = np.nan       # scattered NaN cells
    values[:2] = np.nan                            # leading NaN rows
    values[3:6] = np.nan                           # a gap of NaN rows
    values[-1] = np.nan
    return values


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block", [1, 2, 3, 7, 1000])
@pytest.mark.parametrize("shape", [(50,), (23, 17), (11, 7, 5), (9, 1, 4)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("skip_nan_rows", [False, True])
# rows 0-1 and 3-5 and the last row are NaN: the seam falls at the start,
# on the leading NaN rows, inside and at the end of the gap, mid-grid, and
# on the trailing NaN row
@pytest.mark.parametrize("split", [None, 0, 2, 4, 6, 8, -1])
def test_streamed_pad_equals_whole_grid(shape, block, skip_nan_rows, split):
    values = _grid(shape, seed=len(shape) * 100 + block)
    assert _bits(_streamed(values, block, skip_nan_rows, split)) == \
        _bits(_pad_and_min(values))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("split", [None, 3])
def test_streamed_all_nan_grid_is_nan_without_warning(split):
    values = np.full((6, 4), np.nan)
    with pytest.warns(RuntimeWarning, match="All-NaN"):
        want = _pad_and_min(values)
    assert _bits(_streamed(values, 2, False, split)) == _bits(want) == \
        ("nan", "nan")
    assert _bits(_streamed(values, 2, True, split)) == ("nan", "nan")


@pytest.mark.parametrize("claim, band", [
    (_grids._claim_equ0_lambda_floor, "LAMBDA_FLOOR_RESID"),
    (_grids._claim_flat_identity, "FLAT_IDENTITY_RESID"),
])
def test_identity_residual_over_band_fails_the_claim(monkeypatch, claim,
                                                     band):
    # a residual above its band turns the claim's report into a failure
    # that keeps the grid figures and names the residual
    good = claim(4096)
    monkeypatch.setattr(_grids, band, -1.0)
    bad = claim(4096)
    assert good.ok and not bad.ok and bad.margin == -1.0
    assert bad._replace(margin=good.margin, detail=good.detail) == good
    assert bad.detail.endswith("too large") and "residual" in bad.detail


def _hexed(reports):
    return [tuple(v.hex() if isinstance(v, float) else v for v in r)
            for r in reports]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("points", [1000, _grids._BLOCK_POINTS, 10**8])
def test_reports_do_not_depend_on_the_block_size(monkeypatch, points,
                                                 workers):
    """Every claim, end to end, reports the same bits on one thread or two,
    and whether its rows are cut into blocks of 1000 points or each grid
    is one block."""
    monkeypatch.setattr(_grids, "_workers", lambda: 1)
    want = _hexed(verify_paper_inequalities(scale=0.3))
    monkeypatch.setattr(_grids, "_workers", lambda: workers)
    monkeypatch.setattr(_grids, "_BLOCK_POINTS", points)
    assert _hexed(verify_paper_inequalities(scale=0.3)) == want


@pytest.mark.parametrize("cpus, workers", [(None, 1), (1, 1), (2, 2),
                                           (8, 2)])
def test_workers_are_the_cpus_this_process_may_use_up_to_two(
        monkeypatch, cpus, workers):
    if cpus is not None:
        monkeypatch.setattr(_grids.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        assert _grids._workers() == workers
    monkeypatch.delattr(_grids.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(_grids.os, "cpu_count", lambda: cpus)
    assert _grids._workers() == workers


class _Refused(Exception):
    pass


def _refuse(name):
    def refuse(*args):
        raise _Refused(name)
    return refuse


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("failing", [
    ["_claim_equi1_on_x2"], ["_claim_flat_identity"],
    ["_claim_equi1_on_x2", "_claim_flat_identity"],
    ["_claim_equ0_cond2", "_claim_equi1_on_x2"]])
def test_a_claim_that_raises_raises_after_every_thread_ends(
        monkeypatch, workers, failing):
    """The error of the first failing claim in `CLAIMS` order reaches the
    caller, though equi1_on_X2's halves, which raise inside `_equi1_worst`
    here, are taken up first; and no thread of the call outlives it."""
    order = [fn.__name__ for fn, _ in _grids.CLAIMS]
    equi1 = "_claim_equi1_on_x2"
    if equi1 in failing:
        monkeypatch.setattr(_grids, "_equi1_worst", _refuse(equi1))
    monkeypatch.setattr(_grids, "CLAIMS", [
        (_refuse(fn.__name__) if fn.__name__ in failing and
         fn.__name__ != equi1 else fn, base_n)
        for fn, base_n in _grids.CLAIMS])
    monkeypatch.setattr(_grids, "_workers", lambda: workers)
    before = threading.active_count()
    with pytest.raises(_Refused, match=f"^{min(failing, key=order.index)}$"):
        verify_paper_inequalities(scale=0.05)
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 2])
def test_an_interrupt_stops_the_queued_claims(monkeypatch, workers):
    """A KeyboardInterrupt on the calling thread, inside the first of
    equi1_on_X2's halves, reaches the caller: no claim still queued runs,
    and the helper thread ends with the half it took up before the call
    returns."""
    worst = _grids._equi1_worst

    def interrupted(*args):
        if threading.current_thread() is threading.main_thread():
            raise KeyboardInterrupt
        return worst(*args)

    ran = []

    def counting(fn):
        def claim(n):
            ran.append(fn.__name__)
            return fn(n)
        return claim

    equi1 = _grids._claim_equi1_on_x2
    monkeypatch.setattr(_grids, "_equi1_worst", interrupted)
    monkeypatch.setattr(_grids, "CLAIMS", [
        (fn if fn is equi1 else counting(fn), base_n)
        for fn, base_n in _grids.CLAIMS])
    monkeypatch.setattr(_grids, "_workers", lambda: workers)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        verify_paper_inequalities(scale=1.0)
    assert ran == []
    assert threading.active_count() == before


@pytest.mark.parametrize("a3", [-1.0, 0.0, 1e-4, math.nan, math.inf, 178.0])
def test_phi_max_outside_its_domain_raises(a3):
    """Below 1e-3 the a1 interval [1e-3, a3] is empty; past about 177.79
    sinh(2 a3)^2 overflows.  Neither answers, and no numpy warning
    escapes (the suite turns warnings into errors)."""
    with pytest.raises(OverflowError if a3 == 178.0 else ValueError):
        inequalities.phi_max_over_a1(a3)


@pytest.mark.parametrize("a3", [1e-3, 177.0])
def test_phi_max_at_the_ends_of_its_domain_is_finite(a3):
    assert math.isfinite(inequalities.phi_max_over_a1(a3))


@pytest.mark.parametrize("a1, b2", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
def test_bandwidth_window_needs_positive_lengths(a1, b2):
    with pytest.raises(ValueError, match="positive a1, b2"):
        inequalities.bandwidth_window(a1, b2, 1.0)


def test_positive_roots():
    assert inequalities._positive_roots(1.0, -3.0, 2.0) == pytest.approx(
        [2.0, 1.0])
    assert inequalities._positive_roots(0.0, 2.0, -4.0) == [2.0]
    assert inequalities._positive_roots(1.0, 1.0, 1.0) == []
    assert inequalities._positive_roots(1.0, 3.0, 2.0) == []
    # no cancellation: the small root of u^2 - 1e9 u + 1 keeps its digits
    small = min(inequalities._positive_roots(1.0, -1e9, 1.0))
    assert small == pytest.approx(1e-9, rel=1e-15)
