import ast
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import free_group as fg
import numpy as np
import pytest
import search_digests
from bench_corpus import corpus

from srk import _grids, genus2, hyptrig, search, torus
import srk.search
from srk._grids import line_l1, line_l2
from srk.inequalities import bandwidth_window, boum_bound
from srk.pants import EU_MINUS1, EU_PLUS1, PantsCase
from srk.psl2r import commutator, minv, mmul, mtrace
from srk.search import (B2_HALF, Certificate, FoundCurve, OutOfScopeError,
                        replay_certificate, search_nonhyperbolic)
from srk.tolerances import TRACE_BAND

rng = np.random.default_rng(2718)

PC = PantsCase
CH, SH = math.cosh, math.sinh


DATA = Path(__file__).parent / "data"
# the records that no torus window and no twist of the lattice step
# concludes on, each with its source: the searches of an older srk
# re-coordinatised once on them, by a fitted link; each now twists once
# along beta_3 (`search.beta_twist_step`)
LINKING = [row["record"] for row in
           json.loads((DATA / "beta_twist_records.json").read_text())]
# corner_corpus(124, 2960)[2838], on (Eu0PlusTriangle, EuMinus1): the
# record that demo 04 and the CLI tests search
BETA_TWIST = LINKING[20]
SAMPLER_STALLS = DATA / "sampler_stalls_e0be987.json"


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
        """The 58 records of `beta_twist_records.json` (corner_corpus
        101-130 x 2960, and the triangle-hexagon sampler of
        `test_sampler_stall_finds_a_curve` x 150000 under
        `random.Random(29)` and `random.Random(30)`): where neither a torus
        window nor the lattice step concludes, round 1 twists along beta_3,
        both ways among them, and concludes on a certificate of twist
        moves that replays."""
        twists = set()
        for record in LINKING:
            out = search_nonhyperbolic(_rep(record))
            assert isinstance(out, FoundCurve), out.diagnostic
            assert out.rounds == 1
            assert {mv["kind"] for mv in out.certificate.moves} <= {"twist"}
            assert replay_certificate(out.certificate)["ok"]
            step, = [h for h in out.history if h["move"] == "beta_twist"]
            twists.add((step["beta"], step["k"]))
        assert len(LINKING) == 58 and twists == {(3, 1), (3, -1)}

    @pytest.mark.parametrize("eps1,a,t,kind", [
        (PantsCase("tri", 1), BETA_TWIST["a"], BETA_TWIST["t"],
         FoundCurve),
        (PantsCase("tri", 1), BETA_TWIST["a"], BETA_TWIST["t"],
         search.Stalled),
    ])
    def test_history_is_returned(self, monkeypatch, eps1, a, t, kind):
        """Both outcomes carry the decision trace of a search that reaches
        the beta-twist step; its twist moves are the certificate's, and
        the certificate JSON leaves it out.  The stall is forced: with no
        handle to try, the step stalls in round 0."""
        if kind is search.Stalled:
            monkeypatch.setattr(search, "_BETA3_HANDLES", {1: (), -1: ()})
        out = search_nonhyperbolic(genus2.build_glued(eps1, EU_MINUS1, a, t))
        assert isinstance(out, kind)
        assert out.rounds == (kind is FoundCurve)
        moves = [(h["i"], h["k"]) for h in out.history
                 if h["move"] == "twist"]
        assert moves == [(mv["i"], mv["k"]) for mv in out.certificate.moves
                         if mv["kind"] == "twist"]
        assert sum(h["move"] == "beta_twist"
                   for h in out.history) == out.rounds
        assert "history" not in out.certificate.to_json()
        if kind is search.Stalled:
            assert out.diagnostic == \
                "no twist along beta_3 opens a torus window"

    def test_certificate_roundtrip(self):
        rep = genus2.build_glued(EU_PLUS1, EU_MINUS1, (1.9, 2.0, 2.1),
                                 (1.4, -1.1, 1.9))
        out = search_nonhyperbolic(rep)
        cert = Certificate.from_json(out.certificate.to_json())
        assert replay_certificate(cert)["ok"]
        # equal field by field, as the benchmark's round-trip check reads it
        assert cert == out.certificate and cert is not out.certificate
        cert = cert._replace(trace=math.nextafter(cert.trace, math.inf))
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
        # both pants flat (a_3 = a_1 + a_2, the long side third) with wide
        # twists, so that delta_3 often starts outside the torus window
        rng = np.random.default_rng(32)
        pairs = [(PC("flat_upper", s), PC("flat_lower", r))
                 for s in (1, -1) for r in (1, -1)]

        def draws(n):
            for i in range(n):
                a1, a2 = rng.uniform(0.2, 1.11, 2)
                yield (*pairs[i % 4], (a1, a2, a1 + a2),
                       tuple(rng.uniform(-40, 40, 3)))

        assert self._hits("flat_twist", draws(3000)) >= 10


def _probe_rep_lattice_point(rep):
    """The lattice step's pick (i, k_j, k_k), or None, by the route it took
    before the twist coefficients: every probe a twisted rep, read through
    the beta matrix word."""
    for i in range(1, 4):
        j, k = i % 3 + 1, (i + 1) % 3 + 1
        for kj, kk in search._LATTICE:
            probe = rep
            if kj:
                probe = genus2.dehn_twist_gamma(probe, j, kj)
            if kk:
                probe = genus2.dehn_twist_gamma(probe, k, kk)
            if abs(genus2.trace_curve_matrix(probe, f"beta{i}")) \
                    <= 2.0 + TRACE_BAND:
                return i, kj, kk
    return None


def _probe_rep_flat_moves(rep):
    """The flat step's twist moves by the route it took before the twist
    coefficients: both probes twisted reps, read through the delta_L
    matrix word."""
    long = hyptrig.long_index(rep.a) + 1
    moves = []
    while search._torus_window(rep, long) is None and len(moves) < 200:
        up, dn = (abs(genus2.trace_curve_matrix(
            genus2.dehn_twist_gamma(rep, long, k), f"delta{long}") - 2.0)
            for k in (1, -1))
        k = 1 if up <= dn else -1
        rep = genus2.dehn_twist_gamma(rep, long, k)
        moves.append({"kind": "twist", "i": long, "k": k})
    return moves


def _counting_reps(monkeypatch):
    """A list that grows by one for every GluedRep built from now on."""
    built, init = [], genus2.GluedRep.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(genus2.GluedRep, "__init__", counting)
    return built


class TestTwistCoefficientSteps:
    """The lattice and flat-twist steps score their probes with
    `genus2.twist_trace`; they decide as the probe-rep route did and build
    a rep only for a twist they apply."""

    @staticmethod
    def _normalised(text):
        rep = genus2.GluedRep.from_json(text)
        try:
            search.classify_scope(rep)
        except OutOfScopeError:
            return None
        state = search.SearchState(rep)
        search._normalize(state)
        return state

    def test_lattice_picks_as_probe_reps(self, monkeypatch):
        """On every in-scope normalised rep of corner_corpus(101, 400), the
        lattice step concludes on the (i, k_j, k_k) of the probe-rep route,
        or on none, and builds one rep per nonzero twist it applies."""
        picked = 0
        for rec in corpus.corner_corpus(101, 400):
            state = self._normalised(rec["text"])
            if state is None:
                continue
            want = _probe_rep_lattice_point(state.rep)
            n0, history0 = len(state.moves), len(state.history)
            built = _counting_reps(monkeypatch)
            try:
                search.lattice_step(state)
            except torus.ReductionError:
                pass
            finally:
                monkeypatch.undo()
            moves = {mv["i"]: mv["k"] for mv in state.moves[n0:]}
            got = next(((h["beta"], moves.get(h["beta"] % 3 + 1, 0),
                         moves.get((h["beta"] + 1) % 3 + 1, 0))
                        for h in state.history[history0:]
                        if h.get("id") == "lattice"), None)
            assert got == want, rec["text"]
            assert len(built) == len(moves), rec["text"]
            picked += got is not None
        assert picked >= 100

    def test_flat_steps_move_as_probe_reps(self, monkeypatch):
        """On the flat records of search_corpus(101, 800), normalised and
        then twisted 0, 3 or -3 times along gamma_L, the flat step makes
        the probe-rep route's twist moves and builds one rep per move."""
        walked = 0
        for rec in corpus.search_corpus(101, 800):
            state = self._normalised(rec["text"])
            if state is None or not (state.rep.eps1.is_flat
                                     or state.rep.eps2.is_flat):
                continue
            long = hyptrig.long_index(state.rep.a) + 1
            for m in (0, 3, -3):
                start = search.SearchState(
                    genus2.dehn_twist_gamma(state.rep, long, m))
                want = _probe_rep_flat_moves(start.rep)
                built = _counting_reps(monkeypatch)
                try:
                    search.flat_twist_step(start)
                finally:
                    monkeypatch.undo()
                assert start.moves == want, (rec["text"], m)
                assert len(built) == len(want), (rec["text"], m)
                walked += bool(want)
        assert walked >= 100


class TestSearchOutputsPinned:
    def test_outputs_match_golden(self):
        """The search answers every record of `search_digests.CORPORA` as
        `tests/data/search_sha256.json` pins: the same certificate JSON,
        rounds and replay report.  A failure names the first record that
        differs."""
        golden = json.loads(search_digests.GOLDEN.read_text())
        assert sorted(golden) == sorted(search_digests.CORPORA)
        for name, make in search_digests.CORPORA.items():
            records = make()
            assert len(records) == len(golden[name]), name
            for index, (rec, want) in enumerate(zip(records, golden[name])):
                assert search_digests.digest(rec["text"]) == want, \
                    f"{name}[{index}] differs: {rec['text']}"


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
        # Euler +-1 with one flat pants dispatches to flat_twist, which
        # concludes on delta_L, L the long side (the first largest a_L), in
        # the frame of the record: L is 2 and 1 here
        out = _found(record)
        assert {"move": "strategy", "id": "flat_twist"} in out.history
        long = record["a"].index(max(record["a"])) + 1
        assert (out.rounds, out.word) == (0, [[f"delta{long}", 1]])

    @pytest.mark.parametrize("a, t", [
        ((2.1545715915548462, 1.0627506979102124, 1.0918208936446339),
         (20.23657330808863, -14.003115163915638, 35.52871006031245)),
        ((2.074842967737012, 1.0333810022918946, 1.0414619654451176),
         (-34.94763914231182, -5.540337512947964, -36.52405370235009)),
        ((1.0405648611260816, 2.1489506735730872, 1.1083858124470054),
         (29.993341125606037, -10.284289692718716, 36.08303207456301))],
        ids=["long_first", "long_first_2", "long_second"])
    def test_flat_pair_near_the_bers_corner(self, a, t):
        # a_L = a_j + a_k on two flat pants: the flat step finds a curve
        # on each, and the lattice step, run in its place, stalled on each
        # with "no twist along beta_3 opens a torus window"
        out = _found({"eps": ["Eu0UpperFlat(-1)", "Eu0LowerFlat(-1)"],
                      "a": list(a), "t": list(t)})
        assert {"move": "strategy", "id": "flat_twist"} in out.history

    @pytest.mark.parametrize("record", [
        # the corner corpus's stalls under the paper's polygon strategies,
        # each "equilateral1 escape trace" with |tr| just above 3; the first
        # is the record an earlier CI step searched with an unwritable --out
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

    @pytest.mark.parametrize("record", [
        pytest.param(s["record"], id=f"draw{s['draw']}")
        for s in json.loads(SAMPLER_STALLS.read_text())])
    def test_sampler_stall_finds_a_curve(self, record):
        """The 52 records on which the paper's polygon strategies stalled
        (commit e0be987, each "equilateral1 escape trace"), among the first
        20000 draws of the triangle-hexagon sampler: `random.Random(29)`;
        the eight pairs `[(t, h) for t in TRI for h in HEX] + [(h, t) for t
        in TRI for h in HEX]`, TRI = ("Eu0PlusTriangle",
        "Eu0MinusTriangle"), HEX = ("EuPlus1", "EuMinus1"); each draw takes
        `pairs[randrange(8)]`, then three a_i = uniform(1.6, 2.2254), then
        s = choice([-1, 1]), then three t_i = s * uniform(a_i / 2, a_i).
        Each id is the draw's index, from 0."""
        _found(record)


class TestHandleAcrossDelta:
    """delta_k bounds two handles, and the surface relator of the lift is
    (-1)^e I, e the Euler class: the handle across delta_k from the one
    its word spans has commutator trace (-1)^e tr delta_k.  The dispatch
    reads it so, and builds no generator images."""

    def test_the_relator_sign(self):
        """Over every case pair at |t| <= 1.5, the commutator of the
        complement handle's generator words has the trace
        `_complement_trace` reads off delta_k, to 1e-9 relative to max(1,
        |trace|), as `srk classify` measures agreement."""
        pairs = set()
        for rec in corpus.classify_corpus(101, 56 * 12):
            if rec["wide"]:
                continue
            rep = genus2.GluedRep.from_json(rec["text"])
            pairs.add((str(rep.eps1), str(rep.eps2)))
            for k in (1, 2, 3):
                p, q = (search._word_quad(rep, word)
                        for word in search._COMPLEMENT_HANDLES[k])
                want = mtrace(commutator(p, q))
                gap = abs(search._complement_trace(rep, k) - want)
                assert gap <= 1e-9 * max(1.0, abs(want)), (rec["text"], k)
        assert len(pairs) == 56

    def test_dispatch_builds_no_loops(self, monkeypatch):
        reps = [genus2.place_twists(genus2.GluedRep.from_json(
            rec["text"]))[1] for rec in (corpus.corner_corpus(101, 400)
                                      + corpus.search_corpus(101, 400))]

        def refuse(rep):
            raise AssertionError("the generator images were built")

        monkeypatch.setattr(genus2, "generator_images", refuse)
        routes = set()
        for rep in reps:
            state = search.SearchState(rep)
            routes.add(search.dispatch(state).partition(":")[0])
        assert routes == {"delta_torus", "delta_torus_complement",
                          "lattice"}


def _word(text):
    """A word from letters such as "A1" and "b2'" (a prime inverts)."""
    return [(c.rstrip("'"), -1 if c.endswith("'") else 1)
            for c in text.split()]


# [P, Q] = Q^-1 P^-1 Q P, and the surface relator is [A2, B2][A1, B1]
RELATOR = _word("B2' A2' B2 A2 B1' A1' B1 A1")
# the Dehn twist T along beta_3 and its inverse: with C = A2 B1^-1 A1^-1 B1,
# which T fixes, A1 -> A1, B1 -> B1 C^n, A2 -> C^-n A2 C^n, B2 -> C^-n B2
_C = _word("A2 B1' A1' B1")
TWIST = {n: {"A1": _word("A1"),
             "B1": fg.reduce(_word("B1") + (_C if n > 0 else fg.inverse(_C))),
             "A2": fg.reduce((fg.inverse(_C) + _word("A2") + _C) if n > 0
                             else (_C + _word("A2") + fg.inverse(_C))),
             "B2": fg.reduce((fg.inverse(_C) if n > 0 else _C)
                             + _word("B2"))}
         for n in (1, -1)}


class TestBetaTwist:
    """The beta-twist step's table, derived in the free group on the four
    generators, and the twist law its traces follow."""

    def test_twist_is_a_mapping_class(self):
        """T and its inverse compose to the identity, and T keeps the
        relator up to cyclic conjugacy, not inverted: an orientation
        preserving homeomorphism, which sends simple curves to simple
        curves."""
        for n in (1, -1):
            for name in ("A1", "B1", "A2", "B2"):
                back = fg.substitute(TWIST[n][name], TWIST[-n])
                assert back == [(name, 1)]
            image = fg.substitute(RELATOR, TWIST[n])
            assert fg.conjugators(image, RELATOR)
            assert not fg.conjugators(image, fg.inverse(RELATOR))

    def test_twist_fixes_the_curves_beta_3_misses(self):
        """T fixes the classes of the co-based loops b1, b2, b3 and g3 of
        `genus2.generator_images`, which beta_3 does not cross, and moves
        g1 and g2: written in the generators, b1 = A1, g2 = B1, b3 = B1 w,
        b2 = w^-1 A2 w, g1 = w^-1 B2 w and g3 = (g1 g2)^-1, with w = A2
        B1^-1 A1^-1."""
        w = _word("A2 B1' A1'")
        loops = {"b1": _word("A1"), "g2": _word("B1"),
                 "b3": fg.reduce(_word("B1") + w),
                 "b2": fg.reduce(fg.inverse(w) + _word("A2") + w),
                 "g1": fg.reduce(fg.inverse(w) + _word("B2") + w)}
        loops["g3"] = fg.inverse(fg.reduce(loops["g1"] + loops["g2"]))
        for n in (1, -1):
            for loop, word in loops.items():
                image = fg.substitute(word, TWIST[n])
                assert bool(fg.conjugators(image, word)) == \
                    (loop in ("b1", "b2", "b3", "g3")), (n, loop)

    @pytest.mark.parametrize("n", [1, -1, 0])
    def test_the_table_is_derived(self, n):
        """`_BETA3_HANDLES[n]` is T^n of the handles (B2, A2) and (A1, B1);
        at n = 0, (B2, A2) is `_COMPLEMENT_HANDLES[3]`."""
        def image(name):
            word = [(name, 1)]
            return fg.substitute(word, TWIST[n]) if n else word

        far, near = (image("B2"), image("A2")), (image("A1"), image("B1"))
        if n == 0:
            assert far == tuple([tuple(letter) for letter in word]
                                for word in search._COMPLEMENT_HANDLES[3])
        else:
            assert [tuple([tuple(letter) for letter in word] for word in pair)
                    for pair in search._BETA3_HANDLES[n]] == [far, near]

    def test_twist_law(self):
        """tr T^m(delta_3) = c_- e^{-m l} + c_0 + c_+ e^{m l}, l the
        translation length of beta_3: the three coefficients fitted at
        m = -1, 0, 1 give the traces at m = -3..3 within 1e-8 relative,
        on the records of the benchmark's search corpus with
        |tr beta_3| > 2.05."""
        def evaluate(word, mats):
            out = (1.0, 0.0, 0.0, 1.0)
            for name, exp in word:
                out = mmul(out, mats[name] if exp > 0 else minv(mats[name]))
            return out

        delta3 = _word("B1' A1' B1 A1")
        checked = 0
        for rec in corpus.search_corpus(101, 240):
            rep = genus2.GluedRep.from_json(rec["text"])
            tr_beta = genus2.trace_curve_matrix(rep, "beta3")
            if abs(tr_beta) <= 2.05:
                continue
            ell = 2.0 * math.acosh(abs(tr_beta) / 2.0)
            gens = dict(zip(("A1", "B1", "A2", "B2"),
                            genus2.generator_images(rep)))
            traces = {0: mtrace(evaluate(delta3, gens))}
            for n in (1, -1):
                word = delta3
                for m in range(1, 4):
                    word = fg.substitute(word, TWIST[n])
                    traces[n * m] = mtrace(evaluate(word, gens))
            basis = [[math.exp(-m * ell), 1.0, math.exp(m * ell)]
                     for m in (-1, 0, 1)]
            coeffs = np.linalg.solve(basis, [traces[m] for m in (-1, 0, 1)])
            for m in range(-3, 4):
                fit = (coeffs[0] * math.exp(-m * ell) + coeffs[1]
                       + coeffs[2] * math.exp(m * ell))
                assert fit == pytest.approx(traces[m], rel=1e-8), (rec, m)
            checked += 1
        assert checked >= 100


@pytest.mark.parametrize("record", [
    {"eps": ["EuPlus1", "EuMinus1"], "a": [1.0, 1.1, 1.2],
     "t": [0.3, -0.2, 0.5]},
    {"eps": ["EuPlus1", "EuMinus1"], "a": [1.0, 1.1, 1.2],
     "t": [2.5, -3.0, 7.1]},
    BETA_TWIST], ids=["placed", "wide", "beta_twist"])
def test_place_twists_once_per_rep(monkeypatch, record):
    """`classify_scope`, the sign invariant and the move log share one
    placement per rep, and only the input rep is placed: the search
    dispatches once, and the beta-twist step moves no coordinates."""
    counted = []
    place_twists = genus2.place_twists

    def counting(rep):
        if rep._normal is None:          # a computation, not a cache hit
            counted.append(rep)
        return place_twists(rep)

    monkeypatch.setattr(genus2, "place_twists", counting)
    rep = _rep(record)
    out = search_nonhyperbolic(rep)
    assert isinstance(out, FoundCurve)
    assert len(counted) == 1 and counted[0] is rep


def test_generator_letters_read_the_memo(monkeypatch):
    """A search and its replay read every generator letter of a word from
    `rep.quads`: each rep builds its generator images at most once, on its
    first generator letter, and the memo then holds all four under their
    letters, bit for bit the images `genus2.generator_images` builds."""
    images = genus2.generator_images
    built = []

    def counting(rep):
        built.append(rep)
        return images(rep)

    monkeypatch.setattr(genus2, "generator_images", counting)
    words = 0
    for record in LINKING + [json.loads(rec["text"])
                             for rec in corpus.corner_corpus(101, 400)]:
        out = search_nonhyperbolic(_rep(record))
        assert isinstance(out, FoundCurve)
        if any(name in genus2.GENERATORS for name, _ in out.word):
            words += 1
        assert replay_certificate(out.certificate)["ok"]
    assert len({id(rep) for rep in built}) == len(built)
    assert len(built) >= 2 * words > 2 * len(LINKING)
    for rep in built:
        assert [rep.quads[name] for name in genus2.GENERATORS] == \
            list(images(rep))


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
    # srk computes every root in closed form: import, a search that twists
    # along beta_3 and `srk verify` load no scipy module
    out = _run_fresh(f"""
        import contextlib, io, sys
        import srk
        from srk import cli, genus2, search
        rep = genus2.GluedRep.from_json({json.dumps(BETA_TWIST)!r})
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
        rep = genus2.GluedRep.from_json({json.dumps(BETA_TWIST)!r})
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


def test_no_unused_imports():
    """No module of srk imports a name it never reads (`__init__`
    re-exports, and `__future__` imports switch features on)."""
    unused = []
    for path in sorted(Path(srk.search.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {n}" for n in names
                       if n not in read]
    assert unused == []
