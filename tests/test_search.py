import ast
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from srk import genus2, hyptrig, pants, search
import srk.search
from srk.pants import EU_MINUS1, EU_PLUS1, PantsCase
from srk.search import (B2_HALF, Certificate, FoundCurve, OutOfScopeError,
                        bandwidth_window, boum_bound,
                        intervals_test, line_l1, line_l2, phi_bound,
                        region_of, replay_certificate, search_nonhyperbolic)

rng = np.random.default_rng(2718)

PC = PantsCase
CH, SH = math.cosh, math.sinh


def sample_tri_a(rng, lo=0.3, hi=B2_HALF):
    while True:
        a = rng.uniform(lo, hi, 3)
        if hyptrig.delta_invariant(*a) > 0.02:
            return tuple(a)


def sample_self_a(rng):
    small = np.sort(rng.uniform(0.2, 0.8, 2))
    long = small.sum() + rng.uniform(0.1, min(0.8, B2_HALF - small.sum() - 0.02))
    return tuple(np.array([small[0], small[1], long])[rng.permutation(3)])


def sample_flat_a(rng):
    small = rng.uniform(0.3, 0.9, 2)
    return (small[0], small[1], small.sum())


class TestBandwidthWindow:
    def test_unit_product_always_open(self):
        # sinh(|t3|/2) sinh(b2) = 1 sits inside (tanh, coth) strictly
        a1 = 0.9
        b2 = 1.3
        t3 = 2.0 * math.asinh(1.0 / SH(b2))
        t1 = bandwidth_window(a1, b2, t3, t1=5.0)
        assert t1 is not None

    def test_returned_twist_bounds_trace(self):
        # verified against the closed beta_2 trace in the (+1,-1) case
        for _ in range(60):
            a1 = rng.uniform(0.4, 2.0)
            b2 = rng.uniform(0.4, 2.0)
            t3 = rng.uniform(-2.0, 2.0)
            t1 = bandwidth_window(a1, b2, t3, t1=rng.uniform(-3, 3))
            if t1 is None:
                continue
            tr = (2 * CH(t1 / 2) * CH(t3 / 2)
                  + 2 * CH(b2) * SH(t1 / 2) * SH(t3 / 2))
            assert abs(tr) <= 2.0 + 1e-9

    def test_window_width_formulas(self):
        # |t1+ - t1-| equals 4 arctanh(q) or 4 arccoth(q) by branch
        for _ in range(40):
            b2 = rng.uniform(0.5, 1.8)
            t3 = rng.uniform(0.3, 2.0)
            q = SH(t3 / 2) * SH(b2)
            big_a = CH(t3 / 2) + CH(b2) * SH(t3 / 2)
            big_b = CH(t3 / 2) - CH(b2) * SH(t3 / 2)

            def phi(tt):
                return big_a * math.exp(tt / 2) + big_b * math.exp(-tt / 2)

            # numeric window endpoints
            ts = np.linspace(-25, 25, 400001)
            vals = np.abs(big_a * np.exp(ts / 2) + big_b * np.exp(-ts / 2))
            inside = ts[vals <= 2.0]
            if len(inside) < 2:
                continue
            width = inside[-1] - inside[0]
            if big_a * big_b > 0 and q < 1:
                assert width == pytest.approx(4 * math.atanh(q), abs=2e-3)
            elif big_a * big_b < 0 and q > 1:
                assert width == pytest.approx(4 * math.atanh(1 / q), abs=2e-3)

    def test_closed_window(self):
        # tiny t3 against a short a1: q below tanh(a1/2)
        assert bandwidth_window(2.0, 0.3, 0.05) is None


class TestIntervalsAndRegions:
    def test_dispositions(self):
        small = (0.8, 1.0, 1.4)
        assert intervals_test(small, 0.0) == ("separating_small", None)
        # bands only engage above the separating window u3 <= 2
        big = (1.9, 2.0, 2.2)
        assert intervals_test(big, CH(1.9) - 1.0) == ("bandwidth", 1)
        assert intervals_test(big, CH(2.0) + 1.0 - 1e-9) == ("bandwidth", 2)
        assert intervals_test(big, 100.0) == ("dichotomy", None)

    def test_dichotomy_region_always_disposed(self):
        # small sides: the intervals overlap, so u3 always lands somewhere
        a = (0.8, 1.0, 1.4)
        assert CH(0.8) <= 3.0 and CH(1.0) <= CH(0.8) + 2.0
        sol = hyptrig.solve_hexagon(*a)
        for t3 in np.linspace(-1.4, 1.4, 200):
            u3 = sol.heron * SH(abs(t3) / 2) / SH(1.4)
            disp, _ = intervals_test(a, u3)
            assert disp in ("separating_small", "bandwidth")

    def test_phi_limits(self):
        assert phi_bound(1e-9, 1.0) == pytest.approx(1.0, abs=1e-6)
        for a1 in np.linspace(0.05, 1.0, 30):
            assert phi_bound(a1, 1.0) < 9.0

    def test_phi_threshold_near_1459(self):
        from srk.inequalities import phi_max_over_a1
        assert phi_max_over_a1(1.449) < 9.0
        assert phi_max_over_a1(1.469) > 9.0

    def test_region_cover_and_partition(self):
        for _ in range(4000):
            a3 = rng.uniform(0.05, 2.23)
            a1 = rng.uniform(0.01, a3)
            a2 = rng.uniform(a1, a3)
            assert region_of(a1, a2, a3) in ("X1", "X2", "X3", "X4")

    def test_region_lines(self):
        assert line_l1(1.695) == pytest.approx(1.18)
        assert line_l2(1.695) == pytest.approx(1.18)


class TestBoumBound:
    def test_zero_twists_value(self):
        a = (0.9, 0.9, 1.5)
        bounds, _ = boum_bound(a, (0.0, 0.0, 0.0))
        assert bounds[2] == pytest.approx(2.0 / math.tanh(0.9))

    def test_dominates_matrix_traces(self):
        for _ in range(300):
            a = sample_tri_a(rng, lo=0.5, hi=1.8)
            t = tuple(rng.uniform(-1.5, 1.5, 3))
            rep = genus2.build_glued(PC("tri", 1), EU_MINUS1, a, t)
            bounds, _ = boum_bound(a, t)
            for i in range(3):
                tr = genus2.trace_curve_matrix(rep, f"beta{i+1}")
                assert abs(tr) <= bounds[i] + 1e-9

    def test_sufficiency_flag(self):
        # X3-style triple: cosh(a_i)^2 <= sinh(a_i) sinh(a_3)
        a = (1.0, 1.1, 2.2)
        assert CH(1.1) ** 2 <= SH(1.1) * SH(2.2)
        bounds, flag = boum_bound(a, (0.9, 1.0, 2.0))
        assert flag
        assert all(b <= 2 * CH(2.2) for b in bounds)


def _doubled_alpha(a):
    """Half the angles of the triangle with doubled sides 2a."""
    tri = hyptrig.solve_triangle(2 * a[0], 2 * a[1], 2 * a[2])
    return [th / 2.0 for th in tri.theta]


def _class1_f(alpha_i, aj, ak, x, y):
    """F_i(t_j, t_k), the paper's closed form of -tr beta_i in (0+, -1)."""
    return (2.0 / math.sqrt(math.tanh(aj) * math.tanh(ak))
            * (math.cos(alpha_i) * CH((x + y) / 2.0)
               + math.sin(alpha_i) * SH((x - y) / 2.0)))


class TestDoubledTriangleData:
    def test_alpha_identity(self):
        # cos(alpha_1)^2 = cos^2(theta1/2) cosh^2(b1/2) tanh(a2) tanh(a3)
        for _ in range(100):
            a = sample_tri_a(rng, lo=0.4, hi=1.1)
            alpha = _doubled_alpha(a)
            tri = hyptrig.solve_triangle(*a)
            hexa = hyptrig.solve_hexagon(*a)
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                lhs = math.cos(alpha[i]) ** 2
                rhs = (math.cos(tri.theta[i] / 2) ** 2
                       * CH(hexa.b[i] / 2) ** 2
                       * math.tanh(a[j]) * math.tanh(a[k]))
                assert lhs == pytest.approx(rhs, rel=1e-9)
                lhs_s = math.sin(alpha[i]) ** 2
                rhs_s = (math.sin(tri.theta[i] / 2) ** 2
                         * SH(hexa.b[i] / 2) ** 2
                         * math.tanh(a[j]) * math.tanh(a[k]))
                assert lhs_s == pytest.approx(rhs_s, rel=1e-8, abs=1e-12)

    def test_beta_trace_is_minus_f(self):
        # tr beta_i = -F_i(t_j, t_k) in the (0+, -1) family
        for _ in range(60):
            a = sample_tri_a(rng, lo=0.4, hi=1.2)
            t = tuple(rng.uniform(-1.2, 1.2, 3))
            rep = genus2.build_glued(PC("tri", 1), EU_MINUS1, a, t)
            alpha = _doubled_alpha(a)
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                f = _class1_f(alpha[i], a[j], a[k], t[j], t[k])
                tr = genus2.trace_curve_matrix(rep, f"beta{i+1}")
                assert tr == pytest.approx(-f, rel=1e-9, abs=1e-9)

    def test_iso_lambda_root(self):
        # largest root of cosh(x)^2 = sinh(x) sinh(a3) at sinh(a3) = 2
        lam = search._iso_lambda(2.0)
        assert CH(lam) ** 2 == pytest.approx(2.0 * SH(lam), abs=1e-10)
        assert lam >= math.asinh(1.0)
        with pytest.raises(search.SearchError):
            search._iso_lambda(1.5)
        # against the closed form and a bisection of f = cosh^2 - s sinh,
        # which is <= 0 at asinh(1) and 1 at asinh(s), over s in [2, 20];
        # at s = 2 the root is double and a bisection only finds it to ~1e-8
        for s in np.linspace(2.0, 20.0, 73):
            closed = math.asinh((s + math.sqrt(s * s - 4.0)) / 2.0)
            lo, hi = math.asinh(1.0), math.asinh(s)
            for _ in range(100):
                mid = (lo + hi) / 2.0
                if CH(mid) ** 2 <= s * SH(mid):
                    lo = mid
                else:
                    hi = mid
            lam = search._iso_lambda(s)
            assert lam == pytest.approx(closed, rel=1e-12)
            assert lam == pytest.approx(lo, abs=1e-7 if s == 2.0 else 1e-12)
            assert CH(lam) ** 2 == pytest.approx(s * SH(lam), rel=1e-12)


class TestSearchEndToEnd:
    CASES = [
        (EU_PLUS1, EU_MINUS1, sample_tri_a),
        (PC("tri", 1), PC("tri", -1), sample_tri_a),
        (PC("selfhex", 1), PC("selfhex", 1), sample_self_a),
        (PC("tri", 1), EU_MINUS1, sample_tri_a),
        (PC("tri", -1), EU_PLUS1, sample_tri_a),
        (PC("selfhex", 1), EU_MINUS1, sample_self_a),
        (PC("flat_upper", 1), PC("flat_lower", 1), sample_flat_a),
        (PC("flat_upper", -1), EU_MINUS1, sample_flat_a),
    ]

    @pytest.mark.parametrize("eps1,eps2,sampler", CASES,
                             ids=lambda v: str(v) if isinstance(v, PC) else "")
    def test_found_and_replay(self, eps1, eps2, sampler):
        for _ in range(25):
            rep = genus2.build_glued(eps1, eps2, sampler(rng),
                                     tuple(rng.uniform(-3, 3, 3)))
            out = search_nonhyperbolic(rep)
            assert isinstance(out, FoundCurve), getattr(out, "diagnostic", "")
            assert abs(out.trace) <= 2.0 + 1e-9
            report = replay_certificate(out.certificate)
            assert report["ok"], report

    def test_trivial_case_is_delta3(self):
        rep = genus2.build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.0, 1.0),
                                 (0.0, 0.0, 0.0))
        out = search_nonhyperbolic(rep)
        assert out.word == [["delta3", 1]]
        assert out.trace == pytest.approx(2.0)
        assert out.rounds == 0

    def test_m0_plus_rejected(self):
        rep = genus2.build_glued(PC("tri", 1), PC("tri", 1),
                                 sample_tri_a(rng), (0.4, 0.2, 0.6))
        with pytest.raises(OutOfScopeError):
            search_nonhyperbolic(rep)

    def test_euler_two_rejected(self):
        rep = genus2.build_glued(EU_PLUS1, EU_PLUS1, (0.8, 0.9, 1.0),
                                 (0, 0, 0))
        with pytest.raises(OutOfScopeError):
            search_nonhyperbolic(rep)

    def test_bers_bound_enforced(self):
        rep = genus2.build_glued(EU_PLUS1, EU_MINUS1, (2.5, 1.0, 1.0),
                                 (0, 0, 0))
        with pytest.raises(OutOfScopeError):
            search_nonhyperbolic(rep)

    def test_multi_round_descent(self):
        # near the Bers corner the polygon strategies engage and the search
        # re-coordinatises on the dual curve triple before concluding
        hard = [
            ((2.198357685272788, 2.0959027896033517, 2.0510531380398436),
             (1.6175391777729755, 1.3997193333038709, 1.527668421916658), 1),
            ((2.093250468557487, 2.1264520637935904, 2.020753959571758),
             (-1.6226775954328718, -1.495973116882266, -1.8424879178000826),
             2),
            ((2.100260727481017, 2.094002255072442, 2.192444177381235),
             (-1.7656058694910144, -1.8770951274596857, -1.5944732330287885),
             2),
        ]
        for a, t, expect_rounds in hard:
            rep = genus2.build_glued(EU_PLUS1, EU_MINUS1, a, t)
            out = search_nonhyperbolic(rep)
            assert isinstance(out, FoundCurve)
            assert out.rounds == expect_rounds
            assert any(mv["kind"] == "recoordinatize"
                       for mv in out.certificate.moves)
            assert replay_certificate(out.certificate)["ok"]

    @pytest.mark.parametrize("eps1,a,t,kind", [
        (EU_PLUS1,
         (2.093250468557487, 2.1264520637935904, 2.020753959571758),
         (-1.6226775954328718, -1.495973116882266, -1.8424879178000826),
         FoundCurve),
        (PantsCase("tri", 1),
         (1.908404397457957, 2.153087053993022, 2.210361055660192),
         (1.9268671253769547, -1.7233252044846268, -1.7505724989637994),
         search.Stalled),
    ])
    def test_history_is_returned(self, eps1, a, t, kind):
        """Both outcomes carry the decision trace of a re-coordinatising
        search; its twist moves are the certificate's, and the certificate
        JSON leaves it out."""
        out = search_nonhyperbolic(genus2.build_glued(eps1, EU_MINUS1, a, t))
        assert isinstance(out, kind) and out.rounds >= 1
        moves = [(h["i"], h["k"]) for h in out.history
                 if h["move"] == "twist"]
        assert moves == [(mv["i"], mv["k"]) for mv in out.certificate.moves
                         if mv["kind"] == "twist"]
        assert sum(h["move"] == "recoordinatize"
                   for h in out.history) == out.rounds
        assert "history" not in out.certificate.to_json()

    def test_certificate_roundtrip(self):
        rep = genus2.build_glued(EU_PLUS1, EU_MINUS1, (1.9, 2.0, 2.1),
                                 (1.4, -1.1, 1.9))
        out = search_nonhyperbolic(rep)
        cert = Certificate.from_json(out.certificate.to_json())
        assert replay_certificate(cert)["ok"]

    def test_tampered_certificate_fails(self):
        rep = genus2.build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.1, 1.2),
                                 (0.4, 0.5, 0.9))
        out = search_nonhyperbolic(rep)
        data = json.loads(out.certificate.to_json())
        data["curve"] = [["gamma1", 1]]       # hyperbolic by construction
        bad = Certificate.from_json(json.dumps(data))
        assert not replay_certificate(bad)["ok"]


class TestRareStrategies:
    """Strategies the end-to-end samplers almost never dispatch, driven by
    samplers aimed at their regions.  A strategy has run when the search's
    history holds its entry; every such search must find a curve whose
    certificate replays."""

    @staticmethod
    def _hits(sid, draws):
        hits = 0
        for eps1, eps2, a, t in draws:
            try:
                out = search_nonhyperbolic(
                    genus2.build_glued(eps1, eps2, a, t))
            except OutOfScopeError:         # Euler class 0 with sign Plus
                continue
            if not any(h["move"] == "strategy" and h["id"] == sid
                       for h in out.history):
                continue
            hits += 1
            assert isinstance(out, FoundCurve), out.diagnostic
            assert abs(out.trace) <= 2.0 + 1e-9
            assert replay_certificate(out.certificate)["ok"]
        return hits

    def test_isosceles0(self):
        # (+1, -1) with cosh a_mid > cosh a_min + 2 and cosh a_min <= 3:
        # the interval test's isosceles branch
        rng = np.random.default_rng(31)

        def draws(n):
            while n:
                a_min = rng.uniform(0.3, 1.65)
                a_mid = math.acosh(CH(a_min) + 2.0 + rng.uniform(0.0, 1.5))
                if a_mid > B2_HALF:
                    continue
                a = np.array([a_min, a_mid, rng.uniform(a_mid, B2_HALF)])
                yield (EU_PLUS1, EU_MINUS1, tuple(a[rng.permutation(3)]),
                       tuple(rng.uniform(-3, 3, 3)))
                n -= 1

        assert self._hits("isosceles0", draws(1500)) >= 10

    def test_flat_twist(self):
        # both pants flat (a_3 = a_1 + a_2) with wide twists, so that
        # delta_3 often starts outside the torus window
        rng = np.random.default_rng(32)
        pairs = [(PC("flat_upper", s), PC("flat_lower", r))
                 for s in (1, -1) for r in (1, -1)]

        def draws(n):
            for i in range(n):
                a1, a2 = rng.uniform(0.2, 1.11, 2)
                yield (*pairs[i % 4], (a1, a2, a1 + a2),
                       tuple(rng.uniform(-40, 40, 3)))

        assert self._hits("flat_twist", draws(3000)) >= 10


def _curve_trace(x, y, a, t, tag):
    q = genus2.curve_quad(x, y, a, t, tag)
    return q[0] + q[3]


class TestFitRoots:
    """The closed-form delta-twist roots behind the re-coordinatisation."""

    SAMPLERS = {1: sample_tri_a, -1: sample_self_a}

    @pytest.mark.parametrize("euler", [1, -1, 0])
    @pytest.mark.parametrize("delta_sign", [1, -1])
    def test_roots_reproduce_delta_traces(self, euler, delta_sign):
        # every candidate pair of the fit, self-hexagon against hexagon
        # included, for delta_1, delta_2 and delta_3
        for _ in range(20):
            a = self.SAMPLERS[delta_sign](rng)
            pairs = search._candidate_pairs(euler, hyptrig.delta_invariant(*a))
            assert len(pairs) == 2
            for eps1, eps2 in pairs:
                x = pants.build_pants(a, eps1).q
                y = pants.build_pants(a, eps2.euler_flipped()).q
                for k in range(3):
                    t = [0.0, 0.0, 0.0]
                    t[k] = rng.uniform(-3.0, 3.0)
                    tag = f"delta{k+1}"
                    d = _curve_trace(x, y, a, t, tag)
                    roots = search._delta_twist_roots(x, y, a, k, d)
                    assert roots == sorted(roots)
                    assert min(abs(r - t[k]) for r in roots) < 1e-6
                    for r in roots:
                        t[k] = r
                        assert _curve_trace(x, y, a, t, tag) == pytest.approx(
                            d, rel=1e-9, abs=1e-9)

    def test_unreachable_target_has_no_roots(self):
        # for the (+1, -1) pair tr delta_k = 2 + 4 (sinh a sinh b
        # sinh(t/2))^2 >= 2, so a target of 1 has no root
        a = (1.0, 1.1, 1.2)
        x = pants.build_pants(a, EU_PLUS1).q
        y = pants.build_pants(a, EU_MINUS1.euler_flipped()).q
        for k in range(3):
            assert search._delta_twist_roots(x, y, a, k, 1.0) == []

    def test_positive_roots(self):
        assert search._positive_roots(1.0, -3.0, 2.0) == pytest.approx(
            [2.0, 1.0])
        assert search._positive_roots(0.0, 2.0, -4.0) == [2.0]
        assert search._positive_roots(1.0, 1.0, 1.0) == []
        assert search._positive_roots(1.0, 3.0, 2.0) == []
        # no cancellation: the small root of u^2 - 1e9 u + 1 keeps its digits
        small = min(search._positive_roots(1.0, -1e9, 1.0))
        assert small == pytest.approx(1e-9, rel=1e-15)


# one re-coordinatisation, replay ok with one link error of 6.9e-14
RECOORD_A = (2.198357685272788, 2.0959027896033517, 2.0510531380398436)
RECOORD_T = (1.6175391777729755, 1.3997193333038709, 1.527668421916658)


class TestLinkGaps:
    """A link gap that is not finite fails the fit and the replay, wherever
    it sits among the nine."""

    def test_nan_target_anywhere_gives_nan(self):
        rep = genus2.build_glued(EU_PLUS1, EU_MINUS1, (1, 1.1, 1.2),
                                 (0.1, 0.2, 0.3))
        targets = search._link_targets(rep.coords, [0, 1, 2])
        assert math.isfinite(search._link_error(rep.coords, targets))
        for idx in range(9):
            bad = list(targets)
            bad[idx] = math.nan
            assert math.isnan(search._link_error(rep.coords, bad)), idx

    @staticmethod
    def _nan_beta2_target(monkeypatch):
        link_targets = search._link_targets

        def nan_beta2(*args):
            out = link_targets(*args)
            out[4] = math.nan
            return out

        monkeypatch.setattr(search, "_link_targets", nan_beta2)

    def _recoord_rep(self):
        return genus2.build_glued(EU_PLUS1, EU_MINUS1, RECOORD_A, RECOORD_T)

    def test_fit_refuses_a_nan_target(self, monkeypatch):
        assert search_nonhyperbolic(self._recoord_rep()).rounds == 1
        self._nan_beta2_target(monkeypatch)
        out = search_nonhyperbolic(self._recoord_rep())
        assert isinstance(out, search.Stalled) and out.rounds == 0
        assert out.diagnostic == "no coordinate fit for the new curve triple"

    def test_replay_refuses_a_nan_gap(self, monkeypatch):
        cert = search_nonhyperbolic(self._recoord_rep()).certificate
        assert replay_certificate(cert)["ok"]
        self._nan_beta2_target(monkeypatch)
        with pytest.raises(OutOfScopeError, match="link error nan"):
            replay_certificate(cert)


@pytest.mark.parametrize("a, t", [
    ((1.0, 1.1, 1.2), (0.3, -0.2, 0.5)), ((1.0, 1.1, 1.2), (2.5, -3.0, 7.1)),
    (RECOORD_A, RECOORD_T)], ids=["placed", "wide", "recoord"])
def test_twist_counts_once_per_rep(monkeypatch, a, t):
    """`classify_scope`, `normalize_twists` and the move log share one count
    per rep: the input rep is counted once, then the rep of each later
    round once."""
    counted = []
    count_twists = genus2._count_twists

    def counting(rep):
        counted.append(rep)
        return count_twists(rep)

    monkeypatch.setattr(genus2, "_count_twists", counting)
    rep = genus2.build_glued(EU_PLUS1, EU_MINUS1, a, t)
    out = search_nonhyperbolic(rep)
    assert isinstance(out, FoundCurve)
    assert counted[0] is rep
    assert len(counted) == out.rounds + 1
    assert len({id(r) for r in counted}) == len(counted)


def _run_fresh(code: str) -> str:
    """Run `code` in a fresh interpreter on this checkout's sources; its
    stdout."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


# the re-coordinatising record: its search concludes in round 1
RECOORD = ("(2.198357685272788, 2.0959027896033517, 2.0510531380398436), "
           "(1.6175391777729755, 1.3997193333038709, 1.527668421916658)")


def test_no_scipy_import():
    # srk computes every root in closed form: import, a re-coordinatising
    # search and `srk verify` load no scipy module
    out = _run_fresh(f"""
        import contextlib, io, sys
        import srk
        from srk import cli, genus2, search
        from srk.pants import EU_MINUS1, EU_PLUS1
        rep = genus2.build_glued(EU_PLUS1, EU_MINUS1, {RECOORD})
        out = search.search_nonhyperbolic(rep)
        assert isinstance(out, search.FoundCurve) and out.rounds == 1
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify"]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert out.strip() == "[]"


def test_no_numpy_import(tmp_path):
    # numpy is imported only where an ndarray is made: `import srk` and
    # classify, search, replay and orbit-stats load none; verify, which
    # evaluates grids, still runs in the same process
    out = _run_fresh(f"""
        import contextlib, io, sys
        import srk
        from srk import cli, genus2
        from srk.pants import EU_MINUS1, EU_PLUS1
        seen = ["numpy" in sys.modules]
        rep = genus2.build_glued(EU_PLUS1, EU_MINUS1, {RECOORD})
        tmp = {str(tmp_path)!r}
        with open(tmp + "/rep.json", "w") as fh:
            fh.write(rep.to_json())
        cert = tmp + "/cert.json"
        for argv in (["classify", tmp + "/rep.json"],
                     ["search", tmp + "/rep.json", "--out", cert],
                     ["replay", cert]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
            seen.append("numpy" in sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["orbit-stats", "--n", "3", "--length", "70"]) == 0
        seen.append("numpy" in sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--scale", "0.05"]) == 0
        seen.append("numpy" in sys.modules)
        print(seen)
    """)
    assert out.strip() == "[False, False, False, False, False, True]"


def test_only_inequalities_imports_numpy():
    # every module but `inequalities` and the grid code it imports on its
    # first call (`_grids`) computes on floats and 4-tuples: an import of
    # numpy there, at module level, in a function or under TYPE_CHECKING,
    # fails here
    importers = set()
    for path in Path(srk.search.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(n.split(".")[0] == "numpy" for n in names):
                importers.add(path.stem)
    assert importers <= {"inequalities", "_grids"}, sorted(importers)
