"""Acceptance suite: one criterion per test, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
from case_pairs import ALL_PAIRS

from srk import _grids, genus2, hyptrig, inequalities, pants, search, torus
from srk.pants import EU_MINUS1, EU_PLUS1, PantsCase
from srk.psl2r import mmul, mtrace

PC = PantsCase
CH, SH = math.cosh, math.sinh
B2H = search.B2_HALF

TRI_P, TRI_M = PC("tri", 1), PC("tri", -1)
SH_P, SH_M = PC("selfhex", 1), PC("selfhex", -1)
FU_P, FU_M = PC("flat_upper", 1), PC("flat_upper", -1)
FL_P, FL_M = PC("flat_lower", 1), PC("flat_lower", -1)
FD = PC("flat_diag", 1)

ALL_CASES = [EU_PLUS1, EU_MINUS1, TRI_P, TRI_M, SH_P, SH_M, FD,
             FU_P, FU_M, FL_P, FL_M]


def _sample_batch(case, n, rng, amax=B2H, aligned=False):
    """Half-length triples compatible with a construction tag."""
    if case.kind in ("plus1", "minus1"):
        return rng.uniform(0.2, amax, (n, 3))
    if case.kind == "tri":
        out = np.empty((n, 3))
        i = 0
        while i < n:
            cand = rng.uniform(0.2, amax, (2 * (n - i) + 8, 3))
            ch = np.cosh(cand)
            delta = 2 * ch.prod(axis=1) - (ch ** 2).sum(axis=1) + 1
            good = cand[delta > 0.02]
            take = min(len(good), n - i)
            out[i:i + take] = good[:take]
            i += take
        return out
    small = np.sort(rng.uniform(0.15, min(0.9, amax / 2.4), (n, 2)), axis=1)
    if case.kind.startswith("flat"):
        a3 = small.sum(axis=1)
    else:
        top = np.minimum(0.7, amax - small.sum(axis=1) - 0.02)
        a3 = small.sum(axis=1) + 0.08 + rng.uniform(0.0, 1.0, n) * \
            np.maximum(top - 0.08, 0.01)
    full = np.column_stack([small, a3])
    if aligned:
        return full
    shift = rng.integers(0, 3, n)
    out = np.empty_like(full)
    for s in range(3):
        sel = shift == s
        perm = [(i + s) % 3 for i in range(3)]
        out[sel] = full[sel][:, [perm.index(t) for t in range(3)]]
    return out


def sample_a(case, rng, amax=B2H, aligned=False):
    return tuple(_sample_batch(case, 1, rng, amax, aligned)[0])


def _report(num, ok, text, t0):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {status} - {text} ({time.time() - t0:.2f}s)")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_cocycle_soundness():
    """Both cocycle residuals < 1e-9 for 1e4 random pants per case tag."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    n_cases = 0
    for case in ALL_CASES[:9]:
        for a in _sample_batch(case, 10_000, rng).tolist():
            res = pants.build_pants(a, case).cocycle_residuals()
            worst = max(worst, *res)
        n_cases += 1
    elapsed = time.time() - t0
    _report(1, worst < 1e-9 and elapsed < 5.0 and n_cases == 9,
            f"cocycle residuals over 9 x 1e4 pants, worst {worst:.2e}", t0)


NINE_CASES = [
    ("(+1,-1)", EU_PLUS1, EU_MINUS1),
    ("(0+,0+) d<0", SH_P, SH_P),
    ("(0+,0-) d<0", SH_P, SH_M),
    ("(0+,0+) d>0", TRI_P, TRI_P),
    ("(0+,0-) d>0", TRI_P, TRI_M),
    ("flat(u,v)", FU_P, FL_M),
    ("(0+,-1) d<0", SH_P, EU_MINUS1),
    ("(0+,-1) d>0", TRI_P, EU_MINUS1),
    ("(0flat,-1)", FU_P, EU_MINUS1),
]


def test_criterion_02_formula_matrix_oracle():
    """Closed form vs matrix trace to 1e-9 over 1e3 samples per case."""
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for name, eps1, eps2 in NINE_CASES:
        covered_total = 0
        for _ in range(1000):
            rep = genus2.build_glued(eps1, eps2,
                                     sample_a(eps1, rng, 1.9, aligned=True),
                                     tuple(rng.uniform(-2, 2, 3)))
            for tag in genus2.CURVE_TAGS:
                val, covered = genus2.trace_curve_closed_form(rep, tag)
                if covered:
                    covered_total += 1
                    worst = max(worst, abs(val -
                                           genus2.trace_curve_matrix(rep, tag)))
        assert covered_total >= 1000 * 4, name
    _report(2, worst < 1e-9,
            f"trace formulas across the nine cases, worst {worst:.2e}", t0)


def test_criterion_03_euler_calibration():
    """Milnor output equals eps1 + eps2 for all valid case pairs."""
    t0 = time.time()
    rng = np.random.default_rng(103)
    pairs = [tuple(map(pants.case_from_string, p)) for p in ALL_PAIRS]
    n_per = max(1000 // len(pairs) * len(pairs), 1000)  # total >= 1000 each

    checked = 0
    ok = True
    for eps1, eps2 in pairs:
        # sample against the stratum-constrained tag of the pair
        anchor = eps1 if eps1.kind not in ("plus1", "minus1") else eps2
        for _ in range(1000):
            rep = genus2.build_glued(eps1, eps2, sample_a(anchor, rng, 1.8),
                                     tuple(rng.uniform(-1.5, 1.5, 3)))
            if genus2.euler_class(rep) != rep.euler_nominal:
                ok = False
                break
            checked += 1
        if not ok:
            break
    extremes = (
        genus2.euler_class(genus2.build_glued(
            EU_MINUS1, EU_MINUS1, (0.8, 1.0, 1.2), (0.4, 0.0, -0.3))) == -2
        and genus2.euler_class(genus2.build_glued(
            EU_PLUS1, EU_PLUS1, (0.8, 1.0, 1.2), (0.4, 0.0, -0.3))) == 2)
    elapsed = time.time() - t0
    _report(3, ok and extremes and elapsed < 30.0,
            f"Euler additivity on {len(pairs)} case pairs x 1e3 samples, "
            f"extremes -2/+2", t0)


def test_criterion_04_pants_sign_lemma():
    """sign(tr AB) = (-1)^eu over 1e3 samples per non-flat case."""
    t0 = time.time()
    rng = np.random.default_rng(104)
    ok = True
    for case in (EU_PLUS1, EU_MINUS1, TRI_P, TRI_M, SH_P, SH_M):
        for _ in range(1000):
            rep = pants.build_pants(sample_a(case, rng, 1.9), case)
            la, lb = pants.free_generators(rep)
            tr = mtrace(mmul(la, lb))
            if (tr > 0) != (case.euler % 2 == 0):
                ok = False
                break
            if pants.pants_trace_sign(rep) != case.euler:
                ok = False
                break
        if not ok:
            break
    _report(4, ok, "trace-sign classification on 6 x 1e3 pants", t0)


def test_criterion_05_sign_invariant_coherence():
    """delta sides agree, handle_sign matches, sign constant on orbits."""
    t0 = time.time()
    rng = np.random.default_rng(105)
    from srk.psl2r import handle_sign
    zero_cases = [(EU_PLUS1, EU_MINUS1), (TRI_P, TRI_M), (TRI_P, TRI_P),
                  (SH_P, SH_P), (SH_P, SH_M), (FU_P, FL_P), (FU_P, FL_M)]
    degenerate = 0
    total = 0
    ok = True
    for trial in range(1000):
        eps1, eps2 = zero_cases[trial % len(zero_cases)]
        rep = genus2.build_glued(eps1, eps2, sample_a(eps1, rng, 1.8),
                                 tuple(rng.uniform(-1.5, 1.5, 3)))
        total += 1
        sign = str(genus2.sign_invariant(rep))
        if sign == "Degenerate":
            degenerate += 1
            continue
        # (i) all three deltas on one side of 2
        try:
            if not genus2.delta_side_consistency(rep):
                ok = False
        except genus2.Genus2Error:
            degenerate += 1
            continue
        # (ii) agreement with the handle-pair orientation class whenever
        # the raw handle trace is itself classifiable
        hs = handle_sign(genus2.curve_matrix(rep, "gamma2"),
                         genus2.curve_matrix(rep, "beta1"))
        if hs != "degenerate" and hs != {"Plus": 1, "Minus": -1}[sign]:
            ok = False
        # (iii) constancy along a random twist orbit of length 50
        cur = rep
        for _ in range(50):
            cur = genus2.dehn_twist_gamma(cur, int(rng.integers(1, 4)),
                                          int(rng.integers(-2, 3)))
        if str(genus2.sign_invariant(cur)) != sign:
            ok = False
        if not ok:
            break
    rate = degenerate / total
    _report(5, ok and rate < 0.001,
            f"sign coherence on 1e3 Euler-0 orbits, degenerate rate "
            f"{rate:.4f}", t0)


def test_criterion_06_paper_constants():
    """The explicit constants of the separating-curve bounds."""
    t0 = time.time()
    rng = np.random.default_rng(106)
    ok = True
    # (a) the twisted-normalised delta_3 cap in the self-intersecting case
    cap = lambda a3: 2.0 + 4.0 * SH(a3 / 2) ** 4 / CH(a3 / 2) ** 2
    grid = np.linspace(0.05, B2H, 20001)
    caps = 2.0 + 4.0 * np.sinh(grid / 2) ** 4 / np.cosh(grid / 2) ** 2
    ok &= bool(np.all(np.diff(caps) > 0))          # increasing in a3
    ok &= float(caps.max()) <= 6.8 + 0.05
    for _ in range(300):
        rep = genus2.build_glued(SH_P, SH_P, sample_a(SH_P, rng),
                                 (0.0, 0.0, 0.0))
        rep = genus2.normalize_twists(rep)
        a3 = max(rep.a)
        pivot = int(np.argmax(rep.a)) + 1
        worst_tr = 0.0
        for t3 in np.linspace(-a3, a3, 21):
            t = [0.0, 0.0, 0.0]
            t[pivot - 1] = t3
            r2 = genus2.build_glued(SH_P, SH_P, rep.a, tuple(t))
            worst_tr = max(worst_tr,
                           genus2.trace_curve_matrix(r2, f"delta{pivot}"))
        ok &= worst_tr <= cap(a3) + 1e-9
    # (b) mixed-case cap at the reported Bers value
    ok &= 2.0 + 2.0 * _grids.COSH_B2_HALF <= 11.35 + 0.01
    # (c) the Phi threshold crosses 9 near a3 = 1.459
    ok &= inequalities.phi_max_over_a1(1.449) < 9.0
    ok &= inequalities.phi_max_over_a1(1.469) > 9.0
    ok &= all(inequalities.phi_max_over_a1(a3) < 9.0
              for a3 in np.linspace(0.1, 1.449, 60))
    # (d) flat-stratum identity, residual < 1e-9
    worst_resid = 0.0
    for _ in range(2000):
        a1, a2 = rng.uniform(0.05, B2H / 2, 2)
        a3 = a1 + a2
        chb1 = (CH(a1) + CH(a2) * CH(a3)) / (SH(a2) * SH(a3))
        lhs = (chb1 - 1.0) * SH(a2) ** 2
        rhs = 2.0 * CH(a1) * SH(a2) / SH(a3)
        worst_resid = max(worst_resid, abs(lhs - rhs))
        ok &= lhs < 2.0
    ok &= worst_resid < 1e-9
    _report(6, ok, f"bound constants 6.8/11.35/Phi-9 and the flat identity "
                   f"(residual {worst_resid:.1e})", t0)


def test_criterion_07_sage_reproduction():
    """Verifier margins positive on >= 1e5-point grids, stable under x4."""
    t0 = time.time()
    reports = inequalities.verify_paper_inequalities()
    ok = all(r.ok for r in reports)
    for r in reports:
        if r.claim_id not in ("mixed_delta3_cap_11.35",
                              "phi_crossing_near_1459", "phi_below_9"):
            ok &= r.grid_points >= 100_000
    fine = inequalities.verify_paper_inequalities(scale=4.0)
    for r0, r4 in zip(reports, fine):
        ok &= r4.ok
        drift = abs(r4.raw_min - r0.raw_min) / max(abs(r0.raw_min), 1e-12)
        ok &= drift < 0.10
    elapsed = time.time() - t0
    _report(7, ok and elapsed < 60.0,
            f"{len(reports)} verified claims, all margins positive, "
            f"raw minima stable under 4x refinement", t0)


def test_criterion_08_markov_reduction():
    """kappa invariance and guaranteed termination in the (2, 18] window."""
    t0 = time.time()
    rng = np.random.default_rng(108)
    # 1e5 single-move invariance checks, vectorised
    x, y, z = rng.uniform(-6, 6, (3, 100_000))
    k0 = torus.kappa(x, y, z)
    moves = [(y, x, z), (x, z, y), (x, y, x * y - z)]
    worst = 0.0
    for xm, ym, zm in moves:
        k1 = torus.kappa(xm, ym, zm)
        worst = max(worst, float(np.max(np.abs(k1 - k0)
                                        / np.maximum(1.0, np.abs(k0)))))
    ok = worst < 1e-9
    # 1e4 reductions in the Goldman window
    count = 0
    while count < 10_000:
        xx, yy, zz = rng.uniform(-8, 8, 3)
        kk = torus.kappa(xx, yy, zz)
        if not 2.0 < kk <= 18.0:
            continue
        count += 1
        res = torus.reduce_triple(xx, yy, zz)
        assert res.steps <= 1000, (xx, yy, zz)
        if res.found_index is None and not res.all_negative:
            ok = False
            break
        if res.found_index is None:
            ok = False               # all-negative is impossible here
            break
    worked = torus.reduce_triple(3, 4, 10)
    ok &= worked.triple == (3.0, 4.0, 2.0) and worked.moves == ("M3",)
    _report(8, ok, f"kappa residual {worst:.1e} on 1e5 triples; 1e4 "
                   f"window reductions terminated; (3,4,10) -> (3,4,2)", t0)


def test_criterion_09_end_to_end_search():
    """1e3 seeded admissible representations: all found and replayed."""
    t0 = time.time()
    rng = np.random.default_rng(109)
    class_samplers = [
        (EU_PLUS1, EU_MINUS1),       # Euler 0, Minus
        (TRI_P, TRI_M),              # Euler 0, Minus (delta > 0)
        (SH_P, SH_P),                # Euler 0, Minus (delta < 0)
        (FU_P, FL_P),                # Euler 0, Minus (flat)
        (TRI_P, EU_MINUS1),          # Euler -1
        (SH_M, EU_MINUS1),           # Euler -1
        (TRI_M, EU_PLUS1),           # Euler +1
        (FU_M, EU_PLUS1),            # Euler +1 (flat)
    ]
    rounds = []
    ok = True
    diag = ""
    for trial in range(1000):
        eps1, eps2 = class_samplers[trial % len(class_samplers)]
        rep = genus2.build_glued(eps1, eps2, sample_a(eps1, rng),
                                 tuple(rng.uniform(-3.0, 3.0, 3)))
        out = search.search_nonhyperbolic(rep)
        if not isinstance(out, search.FoundCurve):
            ok, diag = False, out.diagnostic
            break
        if abs(out.trace) > 2.0 + 1e-9:
            ok, diag = False, f"trace {out.trace}"
            break
        report = search.replay_certificate(out.certificate)
        if not report["ok"]:
            ok, diag = False, f"replay {report}"
            break
        rounds.append(out.rounds)
    elapsed = time.time() - t0
    med = float(np.median(rounds)) if rounds else math.inf
    _report(9, ok and med <= 5.0 and elapsed < 120.0,
            f"1e3 searches found+replayed, median rounds {med}, "
            f"{diag}", t0)


def test_criterion_10_bound_validity():
    """Analytic strategy bounds dominate matrix-evaluated traces."""
    t0 = time.time()
    rng = np.random.default_rng(110)
    ok = True
    # Cauchy-Schwarz bounds, 1e4 samples
    for _ in range(10_000):
        a = sample_a(TRI_P, rng, 1.9)
        t = tuple(rng.uniform(-1.5, 1.5, 3))
        rep = genus2.build_glued(TRI_P, EU_MINUS1, a, t)
        bounds, _ = inequalities.boum_bound(a, t)
        for i in range(3):
            if abs(genus2.trace_curve_matrix(rep, f"beta{i+1}")) \
                    > bounds[i] + 1e-9:
                ok = False
                break
        if not ok:
            break
    # hexagon polygon maxima dominate the beta traces on P, 1e4 samples
    count = 0
    while ok and count < 10_000:
        a = np.sort(rng.uniform(0.4, 2.1, 3))
        sol = hyptrig.solve_hexagon(*a)
        lam_arg = (CH(a[2]) + SH(sol.b[2] / 2) ** 2) / CH(sol.b[2] / 2) ** 2
        if lam_arg < 1.0:
            continue
        lam = 2 * math.acosh(lam_arg) - a[2]
        if lam < 0:
            continue
        count += 1
        t = rng.uniform(-1.0, 1.0, 3) * a
        if any(abs(t[(i + 1) % 3] + t[(i + 2) % 3]) > a[2] + lam
               for i in range(3)):
            continue                                  # outside the polygon
        rep = genus2.build_glued(EU_PLUS1, EU_MINUS1, tuple(a), tuple(t))
        fmax = [2 * CH((a[2] + lam) / 2) * CH(sol.b[i] / 2) ** 2
                - 2 * SH(sol.b[i] / 2) ** 2 for i in range(3)]
        for i in range(3):
            tr = genus2.trace_curve_matrix(rep, f"beta{i+1}")
            if abs(tr) > max(fmax[i], 2 * CH(a[2])) + 1e-9:
                ok = False
                break
    # bandwidth windows: returned twists really enter [-2, 2], 1e4 draws
    opened = 0
    for _ in range(10_000):
        a1 = rng.uniform(0.4, 2.0)
        b2 = rng.uniform(0.4, 2.0)
        t3 = rng.uniform(-2.0, 2.0)
        t1 = inequalities.bandwidth_window(a1, b2, t3, t1=rng.uniform(-3, 3))
        if t1 is None:
            continue
        opened += 1
        tr = 2 * CH(t1 / 2) * CH(t3 / 2) + 2 * CH(b2) * SH(t1 / 2) * SH(t3 / 2)
        if abs(tr) > 2.0 + 1e-9:
            ok = False
            break
    _report(10, ok and opened > 1000,
            f"strategy bounds dominate matrix traces "
            f"({opened} bandwidth windows exercised)", t0)
