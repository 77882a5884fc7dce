import math
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
    rep = _grids._claim_equi1_on_x2(n)
    assert rep.grid_points == points
    assert rep.raw_min == pytest.approx(raw, abs=1e-12)
    assert rep.lipschitz_pad == pytest.approx(pad, abs=1e-12)
    assert rep.margin == pytest.approx(raw - pad, abs=1e-12)


def _phi_max_whole_row(a3, n):
    """max of Phi(a1, a3) over n points a1, evaluated on one whole row."""
    s3, s6 = np.sinh(np.array([a3])), np.sinh(np.array([2 * a3]))
    s1 = np.sinh(np.linspace(1e-3, a3, n))
    t = s1 * s1
    phi = (s3 ** 2 - t) / s3 ** 2 + np.sqrt(s6 ** 2 - t) * s1 / s3
    return float(np.max(phi))


def test_a_row_longer_than_a_block_equals_the_whole_row():
    """A claim whose rows outgrow a block (verify above scale 4.7 or so)
    takes one row per block, and reports what one whole row gives."""
    n = 20480
    assert n > _grids._BLOCK_POINTS
    rep = _grids._claim_phi_crossing(n)
    want = min(9.0 - _phi_max_whole_row(1.449, n),
               _phi_max_whole_row(1.469, n) - 9.0)
    assert rep.raw_min == want


def test_memory_does_not_grow_with_scale():
    """At scale 4 a whole-grid evaluation held 88 MB of arrays; streamed
    block by block, a call holds one claim's buffers and per-axis
    vectors."""
    verify_paper_inequalities(scale=0.05)
    tracemalloc.start()
    try:
        verify_paper_inequalities(scale=4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


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


def _streamed(values, block, skip_nan_rows):
    """`MinPad` fed `block` rows at a time; with `skip_nan_rows`, rows that
    are entirely NaN are never added, as the claims skip empty rows."""
    acc = _grids.MinPad(values.shape)
    runs = [(0, len(values))]
    if skip_nan_rows:
        empty = np.isnan(values).reshape(len(values), -1).all(axis=1)
        runs = _grids._runs(~empty)
    for start, stop in runs:
        for lo in range(start, stop, block):
            acc.add(lo, values[lo:min(lo + block, stop)])
    return acc.result()


def _bits(pair):
    return tuple(float(x).hex() for x in pair)


def _grid(shape, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape).cumsum(axis=0)
    values[rng.random(shape) < 0.1] = np.nan       # scattered NaN cells
    values[3:6] = np.nan                           # a gap of NaN rows
    values[-1] = np.nan
    return values


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block", [1, 2, 3, 7, 1000])
@pytest.mark.parametrize("shape", [(50,), (23, 17), (11, 7, 5), (9, 1, 4)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("skip_nan_rows", [False, True])
def test_streamed_pad_equals_whole_grid(shape, block, skip_nan_rows):
    values = _grid(shape, seed=len(shape) * 100 + block)
    assert _bits(_streamed(values, block, skip_nan_rows)) == \
        _bits(_pad_and_min(values))


@pytest.mark.filterwarnings("error")
def test_streamed_all_nan_grid_is_nan_without_warning():
    values = np.full((6, 4), np.nan)
    with pytest.warns(RuntimeWarning, match="All-NaN"):
        want = _pad_and_min(values)
    assert _bits(_streamed(values, 2, False)) == _bits(want) == ("nan", "nan")
    assert _bits(_streamed(values, 2, True)) == ("nan", "nan")


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


@pytest.mark.parametrize("points", [1000, 10**8])
def test_reports_do_not_depend_on_the_block_size(monkeypatch, points):
    """Every claim, end to end, reports the same bits whether its rows are
    cut into blocks of 1000 points or each grid is one block."""
    want = _hexed(verify_paper_inequalities(scale=0.3))
    monkeypatch.setattr(_grids, "_BLOCK_POINTS", points)
    assert _hexed(verify_paper_inequalities(scale=0.3)) == want


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


def test_positive_roots():
    assert inequalities._positive_roots(1.0, -3.0, 2.0) == pytest.approx(
        [2.0, 1.0])
    assert inequalities._positive_roots(0.0, 2.0, -4.0) == [2.0]
    assert inequalities._positive_roots(1.0, 1.0, 1.0) == []
    assert inequalities._positive_roots(1.0, 3.0, 2.0) == []
    # no cancellation: the small root of u^2 - 1e9 u + 1 keeps its digits
    small = min(inequalities._positive_roots(1.0, -1e9, 1.0))
    assert small == pytest.approx(1e-9, rel=1e-15)
