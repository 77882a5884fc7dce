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

from srk import _grids, genus2, hyptrig, pants, search
import srk.search
from srk._grids import line_l1, line_l2
from srk.inequalities import bandwidth_window, boum_bound
from srk.pants import EU_MINUS1, EU_PLUS1, PantsCase
from srk.search import (B2_HALF, Certificate, FoundCurve, OutOfScopeError,
                        replay_certificate, search_nonhyperbolic)

rng = np.random.default_rng(2718)

PC = PantsCase
CH, SH = math.cosh, math.sinh


# records near the Bers corner, from the benchmark's corner corpus, that no
# torus window and no twist of the lattice step concludes on: each search
# re-coordinatises once on the dual curve triple, then finds a curve
LINKING = [
    {"eps": ["Eu0PlusTriangle", "EuMinus1"],
     "a": [2.177271425843055, 2.0216335715832017, 2.2096542923498688],
     "t": [1.1546330313413034, 0.7929074417928108, 1.2030657845188415]},
    {"eps": ["Eu0PlusTriangle", "Eu0MinusTriangle"],
     "a": [2.1750322387098557, 2.0751280116119153, 2.130530884994086],
     "t": [1.0466397691676281, 0.5715379794039412, 0.8929889601796077]},
    {"eps": ["Eu0PlusTriangle", "Eu0MinusTriangle"],
     "a": [2.1338511894921486, 2.1394742638119824, 2.1308679337340375],
     "t": [0.7234787346138236, 0.7024305422652244, 0.8023916170624776]},
    {"eps": ["Eu0MinusTriangle", "EuPlus1"],
     "a": [2.1586917835799397, 2.1805017854172615, 2.189178872070682],
     "t": [1.1132127056456316, 1.0162646373150839, 0.9380069051012798]},
]
# the record that re-coordinatises once, with one link error of 4.4e-14
RECOORD = LINKING[0]
# written by an older search: two re-coordinatisation links
TWO_ROUNDS = Path(__file__).parent / "data" / "certificate_two_rounds.json"


def _rep(record):
    return genus2.GluedRep.from_json(json.dumps(record))


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
    def test_phi_threshold_near_1459(self):
        from srk.inequalities import phi_max_over_a1
        assert phi_max_over_a1(1.449) < 9.0
        assert phi_max_over_a1(1.469) > 9.0

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
        lam = _grids._iso_lambda(2.0)
        assert CH(lam) ** 2 == pytest.approx(2.0 * SH(lam), abs=1e-10)
        assert lam >= math.asinh(1.0)
        with pytest.raises(ValueError):
            _grids._iso_lambda(1.5)
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
            lam = _grids._iso_lambda(s)
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
        # near the Bers corner, where neither a torus window nor the lattice
        # step concludes, the search re-coordinatises on the dual curve
        # triple before concluding
        for record in LINKING:
            out = search_nonhyperbolic(_rep(record))
            assert isinstance(out, FoundCurve)
            assert out.rounds == 1
            assert any(mv["kind"] == "recoordinatize"
                       for mv in out.certificate.moves)
            assert replay_certificate(out.certificate)["ok"]
        # two links: the certificate an older search wrote
        report = replay_certificate(Certificate.from_json(
            TWO_ROUNDS.read_text()))
        assert report["ok"] and len(report["link_errors"]) == 2

    @pytest.mark.parametrize("eps1,a,t,kind", [
        (PantsCase("tri", 1), RECOORD["a"], RECOORD["t"], FoundCurve),
        (PantsCase("tri", 1), RECOORD["a"], RECOORD["t"], search.Stalled),
    ])
    def test_history_is_returned(self, monkeypatch, eps1, a, t, kind):
        """Both outcomes carry the decision trace of a re-coordinatising
        search; its twist moves are the certificate's, and the certificate
        JSON leaves it out.  The stall is forced: with no round to spare,
        the search stalls right after its first link."""
        if kind is search.Stalled:
            monkeypatch.setattr(search, "MAX_ROUNDS", 0)
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
        # equal field by field, as the benchmark's round-trip check reads it
        assert cert == out.certificate and cert is not out.certificate
        cert.trace = math.nextafter(cert.trace, math.inf)
        assert cert != out.certificate

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


def _found(record):
    """The search of a coordinate record: a curve whose certificate
    replays ok."""
    out = search_nonhyperbolic(genus2.GluedRep.from_json(json.dumps(record)))
    assert isinstance(out, FoundCurve), out.diagnostic
    assert replay_certificate(out.certificate)["ok"]
    return out


class TestRareBranches:
    """Records that reach branches neither the samplers above nor the
    bench corpora reach, and records the paper's polygon strategies
    stalled on or escaped from."""

    @pytest.mark.parametrize("record", [
        {"eps": ["Eu0LowerFlat(-1)", "EuMinus1"],
         "a": [1.044295054792829, 2.13160545389733, 1.0873103991045012],
         "t": [-0.9286845702875723, -2.33262333979277, 2.253827383933281]},
        {"eps": ["EuPlus1", "Eu0LowerFlat(-1)"],
         "a": [1.9063295682698538, 0.8362671387397037, 1.0700624295301502],
         "t": [-1.577897784709196, 0.42326323859711934, 2.0418978937248387]},
    ], ids=["flat_first", "flat_second"])
    def test_flat_pants_on_euler_one(self, record):
        # Euler +-1 with one flat pants dispatches to flat_twist
        out = _found(record)
        assert {"move": "strategy", "id": "flat_twist"} in out.history
        assert (out.rounds, out.word) == (0, [["delta3", 1]])

    @pytest.mark.parametrize("record", [
        # the corner corpus's stalls under the paper's polygon strategies,
        # each "equilateral1 escape trace" with |tr| just above 3; the first
        # is CI's stall record
        {"eps": ["Eu0PlusTriangle", "EuMinus1"],
         "a": [1.908404397457957, 2.153087053993022, 2.210361055660192],
         "t": [1.9268671253769547, -1.7233252044846268,
               -1.7505724989637994]},
        {"eps": ["Eu0PlusTriangle", "EuMinus1"],
         "a": [2.022423349074833, 2.0921631017842706, 2.085923768674561],
         "t": [1.770546325487663, -2.511640826265828, -2.3935423077134885]},
        {"eps": ["Eu0MinusTriangle", "EuPlus1"],
         "a": [2.083799301410556, 1.9324702994283094, 1.942171576097855],
         "t": [1.955538475347307, 1.7077523583798158, -2.2376280912226836]},
        {"eps": ["Eu0PlusTriangle", "EuMinus1"],
         "a": [2.014648630993693, 2.017007243554485, 2.0813994119461103],
         "t": [-1.7219332563115874, -1.6672860420686642,
               -1.9133801776240764]},
        {"eps": ["Eu0PlusTriangle", "EuMinus1"],
         "a": [2.028428891229098, 2.1166358067163, 2.0662267525898144],
         "t": [-1.9246082283853936, 2.324330017497145,
               -1.8501602396955705]},
        {"eps": ["Eu0PlusTriangle", "EuMinus1"],
         "a": [2.1182321256577445, 2.135250886987239, 1.9325086365248751],
         "t": [1.780602055401058, 1.8928754696368486, 1.919971377213649]},
        # the polygon escape along beta_2, from a positive and a negative
        # twist sum
        {"eps": ["EuMinus1", "Eu0MinusTriangle"],
         "a": [1.937157798423551, 1.8740627376227528, 1.9715050926779945],
         "t": [-1.6574273391425292, -1.8037046755639752,
               -1.6153880670178788]},
        {"eps": ["Eu0MinusTriangle", "EuMinus1"],
         "a": [2.1071585971702147, 1.9447414783259165, 2.1216197340641902],
         "t": [-2.089016312360866, -1.3658665239366967,
               -2.1074513120520897]},
    ], ids=["corner_stall_ci", "corner_stall_2", "corner_stall_3",
            "corner_stall_4", "corner_stall_5", "corner_stall_6",
            "positive_sum", "negative_sum"])
    def test_found_curve(self, record):
        _found(record)


def _curve_trace(p1, p2, t, tag):
    """The trace of `tag` on a fresh rep glued from the pants p1, p2."""
    q = genus2.curve_matrix(genus2.GluedRep(p1=p1, p2=p2, t=tuple(t)), tag)
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
                p1 = pants.build_pants(a, eps1)
                p2 = pants.build_pants(a, eps2.euler_flipped())
                for k in range(3):
                    t = [0.0, 0.0, 0.0]
                    t[k] = rng.uniform(-3.0, 3.0)
                    tag = f"delta{k+1}"
                    d = _curve_trace(p1, p2, t, tag)
                    # the coefficients read no twist: any rep of the pants
                    untwisted = genus2.GluedRep(p1=p1, p2=p2,
                                                t=(0.0, 0.0, 0.0))
                    roots = search._delta_twist_roots(untwisted, k, d)
                    assert roots == sorted(roots)
                    assert min(abs(r - t[k]) for r in roots) < 1e-6
                    for r in roots:
                        t[k] = r
                        assert _curve_trace(p1, p2, t, tag) == pytest.approx(
                            d, rel=1e-9, abs=1e-9)

    def test_unreachable_target_has_no_roots(self):
        # for the (+1, -1) pair tr delta_k = 2 + 4 (sinh a sinh b
        # sinh(t/2))^2 >= 2, so a target of 1 has no root
        rep = genus2.build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.1, 1.2),
                                 (0.0, 0.0, 0.0))
        for k in range(3):
            assert search._delta_twist_roots(rep, k, 1.0) == []

    def test_positive_roots(self):
        assert search._positive_roots(1.0, -3.0, 2.0) == pytest.approx(
            [2.0, 1.0])
        assert search._positive_roots(0.0, 2.0, -4.0) == [2.0]
        assert search._positive_roots(1.0, 1.0, 1.0) == []
        assert search._positive_roots(1.0, 3.0, 2.0) == []
        # no cancellation: the small root of u^2 - 1e9 u + 1 keeps its digits
        small = min(search._positive_roots(1.0, -1e9, 1.0))
        assert small == pytest.approx(1e-9, rel=1e-15)


class TestLinkGaps:
    """A link gap that is not finite fails the fit and the replay, wherever
    it sits among the nine."""

    def test_nan_target_anywhere_gives_nan(self):
        """A NaN target gives a NaN gap, which the link check refuses even
        with no bound."""
        rep = genus2.build_glued(EU_PLUS1, EU_MINUS1, (1, 1.1, 1.2),
                                 (0.1, 0.2, 0.3))
        targets = search._link_targets(rep, [0, 1, 2])
        tags = genus2.CURVE_TAGS
        assert search._worst_gap(rep, tags, targets, math.inf) is not None
        for idx in range(9):
            bad = list(targets)
            bad[idx] = math.nan
            assert math.isnan(search._link_gap(rep, tags[idx], math.nan))
            assert search._worst_gap(rep, tags, bad, math.inf) is None, idx

    @staticmethod
    def _nan_beta2_target(monkeypatch):
        link_targets = search._link_targets

        def nan_beta2(*args):
            out = link_targets(*args)
            out[4] = math.nan
            return out

        monkeypatch.setattr(search, "_link_targets", nan_beta2)

    def _recoord_rep(self):
        return _rep(RECOORD)

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
        with pytest.raises(OutOfScopeError, match="link error is not finite"):
            replay_certificate(cert)


@pytest.mark.parametrize("record", [
    {"eps": ["EuPlus1", "EuMinus1"], "a": [1.0, 1.1, 1.2],
     "t": [0.3, -0.2, 0.5]},
    {"eps": ["EuPlus1", "EuMinus1"], "a": [1.0, 1.1, 1.2],
     "t": [2.5, -3.0, 7.1]},
    RECOORD], ids=["placed", "wide", "recoord"])
def test_twist_counts_once_per_rep(monkeypatch, record):
    """`classify_scope`, `normalize_twists` and the move log share one count
    per rep: the input rep is counted once, then the rep of each later
    round once."""
    counted = []
    count_twists = genus2._count_twists

    def counting(rep):
        counted.append(rep)
        return count_twists(rep)

    monkeypatch.setattr(genus2, "_count_twists", counting)
    rep = _rep(record)
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


def test_no_scipy_import():
    # srk computes every root in closed form: import, a re-coordinatising
    # search and `srk verify` load no scipy module
    out = _run_fresh(f"""
        import contextlib, io, sys
        import srk
        from srk import cli, genus2, search
        rep = genus2.GluedRep.from_json({json.dumps(RECOORD)!r})
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
        seen = ["numpy" in sys.modules]
        rep = genus2.GluedRep.from_json({json.dumps(RECOORD)!r})
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


def test_import_srk_stays_light():
    # srk's value objects are __slots__ classes and named tuples, so
    # `import srk`, which every CLI run pays, loads neither dataclasses nor
    # the inspect and ast modules it pulls in, nor numpy; -S keeps site's
    # own imports out of the fresh interpreter
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import srk; "
            "print([m for m in ('dataclasses', 'inspect', 'ast', 'numpy') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_only_inequalities_imports_numpy():
    # every module but `inequalities` and the grid code it imports on its
    # first call (`_grids`, which imports numpy at its top) computes on
    # floats and 4-tuples: an import of numpy there, at module level, in a
    # function or under TYPE_CHECKING, fails here
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
