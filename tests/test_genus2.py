import json
import math
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from bench_corpus import corpus
from case_pairs import ALL_PAIRS
from boundary_lifts import milnor_euler_class
from matrices import arr, quad

from srk import genus2, hyptrig, pants, search
from srk.genus2 import (BETA_TAGS, CURVE_TAGS, DELTA_TAGS, Genus2Error,
                        GluedRep, build_glued, curve_matrix, dehn_twist_gamma,
                        delta_side_consistency, euler_class,
                        generator_images, place_twists, sign_invariant,
                        trace_curve_closed_form, trace_curve_matrix,
                        twist_coeffs, twist_trace)
from srk.pants import EU0_DIAGONAL_FLAT, EU_MINUS1, EU_PLUS1, PantsCase
from srk.psl2r import (PSL2Error, commutator,
                       deviation_from_projective_identity, euler_class_closed,
                       mmul, mtrace)
from srk.search import (Certificate, SearchState, replay_certificate,
                        search_nonhyperbolic)
from srk.tolerances import TWIST_EDGE

rng = np.random.default_rng(13)

PC = PantsCase
TRI_P, TRI_M = PC("tri", 1), PC("tri", -1)
SH_P, SH_M = PC("selfhex", 1), PC("selfhex", -1)
FU = lambda s: PC("flat_upper", s)
FL = lambda s: PC("flat_lower", s)


def sample_tri_a(rng, lo=0.3, hi=1.8):
    while True:
        a = rng.uniform(lo, hi, 3)
        if hyptrig.delta_invariant(*a) > 0.02:
            return tuple(a)


def sample_self_a(rng, aligned=True):
    small = np.sort(rng.uniform(0.2, 0.8, 2))
    out = np.array([small[0], small[1], small.sum() + rng.uniform(0.15, 0.7)])
    if not aligned:
        out = out[rng.permutation(3)]
    return tuple(out)


def sample_flat_a(rng):
    small = rng.uniform(0.3, 0.9, 2)
    return (small[0], small[1], small.sum())


def sample_hex_a(rng):
    return tuple(rng.uniform(0.3, 1.8, 3))


PAIR_SAMPLERS = [
    (EU_PLUS1, EU_MINUS1, sample_hex_a),
    (EU_MINUS1, EU_PLUS1, sample_hex_a),
    (TRI_P, TRI_P, sample_tri_a), (TRI_P, TRI_M, sample_tri_a),
    (TRI_M, TRI_P, sample_tri_a), (TRI_M, TRI_M, sample_tri_a),
    (SH_P, SH_P, sample_self_a), (SH_P, SH_M, sample_self_a),
    (SH_M, SH_P, sample_self_a), (SH_M, SH_M, sample_self_a),
    (TRI_P, EU_MINUS1, sample_tri_a), (TRI_M, EU_MINUS1, sample_tri_a),
    (TRI_P, EU_PLUS1, sample_tri_a), (EU_MINUS1, TRI_P, sample_tri_a),
    (EU_PLUS1, TRI_M, sample_tri_a),
    (SH_P, EU_MINUS1, sample_self_a), (SH_M, EU_PLUS1, sample_self_a),
    (EU_PLUS1, SH_P, sample_self_a),
    (FU(1), FL(1), sample_flat_a), (FU(1), FL(-1), sample_flat_a),
    (FL(-1), FU(1), sample_flat_a),
    (FU(1), EU_MINUS1, sample_flat_a), (FL(-1), EU_PLUS1, sample_flat_a),
    (EU_MINUS1, FU(-1), sample_flat_a),
    (EU0_DIAGONAL_FLAT, EU_PLUS1, sample_flat_a),
]


class TestBuild:
    def test_stratum_mismatch(self):
        with pytest.raises(Genus2Error):
            build_glued(TRI_P, SH_P, (1.0, 1.0, 1.0), (0, 0, 0))

    def test_incompatible_delta(self):
        with pytest.raises(pants.PantsError):
            build_glued(TRI_P, TRI_M, (1.0, 1.0, 3.0), (0, 0, 0))

    def test_euler_nominal(self):
        rep = build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.0, 1.0), (0, 0, 0))
        assert rep.euler_nominal == 0

    def test_json_roundtrip(self):
        rep = build_glued(TRI_P, EU_MINUS1, sample_tri_a(rng),
                          tuple(rng.uniform(-1, 1, 3)))
        back = GluedRep.from_json(rep.to_json())
        assert back.eps1 == rep.eps1 and back.eps2 == rep.eps2
        assert np.allclose(back.a, rep.a) and np.allclose(back.t, rep.t)
        data = json.loads(rep.to_json())
        assert set(data) == {"eps", "a", "t"}

    @pytest.mark.parametrize("text", ["[" * 200_000,
                                      '{"eps": ' + "[" * 200_000],
                             ids=["top", "eps"])
    def test_json_too_deep_to_decode_is_malformed(self, text):
        """JSON nested past the decoder's recursion limit is a malformed
        record, not a RecursionError."""
        with pytest.raises(Genus2Error, match="nested too deeply"):
            GluedRep.from_json(text)

    def test_equality_ignores_the_memo_and_caches(self):
        rep = build_glued(EU_PLUS1, EU_PLUS1, (1.0, 1.1, 1.2), (3.0, 0, 0))
        for tag in CURVE_TAGS + genus2.GENERATORS:
            curve_matrix(rep, tag)
        norm = place_twists(rep)[1]
        assert norm is not rep
        fresh = GluedRep(p1=rep.p1, p2=rep.p2, t=rep.t)
        assert not fresh.quads
        assert fresh == rep and hash(fresh) == hash(rep)
        assert norm != rep and norm == GluedRep(rep.p1, rep.p2, norm.t)
        assert rep.p1 != rep.p2 and GluedRep(rep.p2, rep.p1, rep.t) != rep
        assert rep != (rep.p1, rep.p2, rep.t)
        assert repr(fresh) == repr(rep) == (
            f"GluedRep(p1={rep.p1!r}, p2={rep.p2!r}, t={rep.t!r})")


class TestCurveWords:
    def test_gamma_is_translation(self):
        rep = build_glued(EU_PLUS1, EU_MINUS1, (0.7, 0.9, 1.1), (0.2, 0.3, -0.4))
        for i in range(3):
            m = curve_matrix(rep, f"gamma{i+1}")
            assert mtrace(m) == pytest.approx(2 * math.cosh(rep.a[i]))

    def test_delta_is_commutator_of_pair(self):
        rep = build_glued(EU_PLUS1, EU_MINUS1, (0.7, 0.9, 1.1), (0.2, 0.3, -0.4))
        d3 = curve_matrix(rep, "delta3")
        expect = commutator(curve_matrix(rep, "beta1"),
                            curve_matrix(rep, "gamma2"))
        assert np.abs(np.subtract(d3, expect)).max() < 1e-12

    def test_spec_trivial_values(self):
        # (1,-1), t3 = 0: tr delta3 = 2; t2 = t3 = 0: tr beta1 = 2
        rep = build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.0, 1.0),
                          (0.5, 0.0, 0.0))
        assert trace_curve_matrix(rep, "delta3") == pytest.approx(2.0)
        assert trace_curve_matrix(rep, "beta1") == pytest.approx(2.0)


class TestClosedForms:
    @pytest.mark.parametrize("eps1,eps2,sampler", PAIR_SAMPLERS,
                             ids=lambda v: str(v) if isinstance(v, PC) else "")
    def test_agreement(self, eps1, eps2, sampler):
        covered_any = False
        for _ in range(25):
            rep = build_glued(eps1, eps2, sampler(rng),
                              tuple(rng.uniform(-1.5, 1.5, 3)))
            for tag in CURVE_TAGS:
                val, covered = trace_curve_closed_form(rep, tag)
                if covered:
                    covered_any = True
                    ref = trace_curve_matrix(rep, tag)
                    assert abs(val - ref) < 1e-9, (str(eps1), str(eps2), tag)
        assert covered_any

    @pytest.mark.parametrize("long", [0, 1])
    @pytest.mark.parametrize("eps1,eps2,sampler", [
        (SH_P, SH_P, sample_self_a), (SH_P, SH_M, sample_self_a),
        (SH_M, SH_P, sample_self_a), (FU(1), FL(1), sample_flat_a),
        (FL(-1), FU(1), sample_flat_a), (SH_P, EU_MINUS1, sample_self_a),
        (SH_M, EU_PLUS1, sample_self_a), (EU_PLUS1, SH_P, sample_self_a),
        (FU(1), EU_MINUS1, sample_flat_a), (FL(-1), EU_PLUS1, sample_flat_a),
        (EU_MINUS1, FU(-1), sample_flat_a),
        (EU0_DIAGONAL_FLAT, EU_PLUS1, sample_flat_a)],
        ids=lambda v: str(v) if isinstance(v, PC) else "")
    def test_the_long_side_anywhere(self, eps1, eps2, sampler, long):
        """The self-hexagon and flat formulas name the long side L by its
        index: delta_L, and each beta of the opposite-sign self-hexagon
        pair, are covered with L first or second too."""
        tags = [f"delta{long + 1}"]
        if eps1.kind == eps2.kind == "selfhex" and eps1.eps != eps2.eps:
            tags += ["beta1", "beta2", "beta3"]
        draw = np.random.default_rng(30 + long)
        for _ in range(10):
            a = sampler(draw)                # the long side third
            a = tuple(a[(i - long + 2) % 3] for i in range(3))
            rep = build_glued(eps1, eps2, a,
                              tuple(draw.uniform(-1.5, 1.5, 3)))
            assert hyptrig.long_index(rep.a) == long
            for tag in tags:
                val, covered = trace_curve_closed_form(rep, tag)
                ref = trace_curve_matrix(rep, tag)
                assert covered, tag
                assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref)), tag

    def test_specific_delta3_formula(self):
        # (1,-1), a = (1,1,1), t3 = 1
        rep = build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.0, 1.0),
                          (0.0, 0.0, 1.0))
        b1 = hyptrig.solve_hexagon(1.0, 1.0, 1.0).b[0]
        expect = 2 + 4 * math.sinh(1.0) ** 2 * math.sinh(b1) ** 2 \
            * math.sinh(0.5) ** 2
        assert trace_curve_matrix(rep, "delta3") == pytest.approx(expect,
                                                                  abs=1e-9)

    def test_mixed_triangle_delta_sign_structure(self):
        # (0+,0-), delta > 0: tr delta3 = 2 + 4 sin^2 sinh^2 cosh^2 >= 2
        for _ in range(40):
            rep = build_glued(TRI_P, TRI_M, sample_tri_a(rng),
                              tuple(rng.uniform(-2, 2, 3)))
            assert trace_curve_matrix(rep, "delta3") >= 2.0
        # (0+,0+), delta > 0: <= 2 always
        for _ in range(40):
            rep = build_glued(TRI_P, TRI_P, sample_tri_a(rng),
                              tuple(rng.uniform(-2, 2, 3)))
            assert trace_curve_matrix(rep, "delta3") <= 2.0

    def test_uncovered_falls_back(self):
        rep = build_glued(EU_PLUS1, EU_PLUS1, (0.7, 0.9, 1.1), (0, 0, 0))
        val, covered = trace_curve_closed_form(rep, "delta3")
        assert not covered
        assert val == pytest.approx(trace_curve_matrix(rep, "delta3"))


class TestTwists:
    def test_zero_twist_identity(self):
        rep = build_glued(EU_PLUS1, EU_MINUS1, (0.7, 0.9, 1.1), (0.2, 0.3, -0.4))
        assert dehn_twist_gamma(rep, 1, 0).t == rep.t

    def test_gamma_traces_invariant(self):
        rep = build_glued(TRI_P, EU_MINUS1, sample_tri_a(rng),
                          tuple(rng.uniform(-1, 1, 3)))
        for i in (1, 2, 3):
            tw = dehn_twist_gamma(rep, i, rng.integers(-3, 4))
            for j in range(3):
                assert trace_curve_matrix(tw, f"gamma{j+1}") == pytest.approx(
                    trace_curve_matrix(rep, f"gamma{j+1}"))

    def test_twist_moves_closed_form_argument(self):
        rep = build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.1, 1.2),
                          (0.3, -0.2, 0.4))
        k = 3
        tw = dehn_twist_gamma(rep, 3, k)
        shifted = build_glued(EU_PLUS1, EU_MINUS1, rep.a,
                              (0.3, -0.2, 0.4 + 2 * k * 1.2))
        assert trace_curve_matrix(tw, "delta3") == pytest.approx(
            trace_curve_matrix(shifted, "delta3"), rel=1e-12)

    def test_delta_invariant_under_own_twist(self):
        # tr delta_j is unchanged by twisting gamma_j for j != pivot index
        rep = build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.1, 1.2),
                          (0.3, -0.2, 0.4))
        tw = dehn_twist_gamma(rep, 1, 2)
        assert trace_curve_matrix(tw, "delta3") == pytest.approx(
            trace_curve_matrix(rep, "delta3"), rel=1e-12)

    def test_a_twist_back_from_the_float_limit_is_finite(self):
        """t_i + k (2 a_i): the count meets the doubled half-length, so a
        twist near the float limit comes back finite where 2 k overflows."""
        t = genus2.gamma_twists((1e308, 0, 0), (0.5, 1, 1), 1, -10**308)
        assert all(map(math.isfinite, t))

    def test_place_twists(self):
        rep = build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.0, 1.0),
                          (5.0, -3.2, 0.4))
        counts, out = place_twists(rep)
        assert counts == (-2, 2, 0)
        assert out.t[0] == pytest.approx(1.0)      # 5 - 2*2*1 = 1, tie -> +a
        for i in range(3):
            assert -rep.a[i] - 1e-12 <= out.t[i] <= rep.a[i] + 1e-12
        assert place_twists(out) == ((0, 0, 0), out)

    def test_place_twists_is_kept_on_the_rep(self):
        # only a twist whose count moves changes: t_1 = -0.0 keeps its
        # sign, as it does under the search's twist moves
        rep = build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.0, 1.0),
                          (-0.0, 5.0, 0.4))
        counts, out = place_twists(rep)
        assert math.copysign(1.0, out.t[0]) == -1.0
        assert out.t == (0.0, 1.0, 0.4)
        assert place_twists(rep)[1] is out
        assert place_twists(out)[1] is out
        state = SearchState(rep)
        for i, k in enumerate(counts):
            search._apply_twist(state, i + 1, k)
        assert [math.copysign(1.0, v) for v in state.rep.t] == [-1.0, 1.0, 1.0]


class TestEulerClass:
    @pytest.mark.parametrize("eps1,eps2,sampler", PAIR_SAMPLERS,
                             ids=lambda v: str(v) if isinstance(v, PC) else "")
    def test_additivity(self, eps1, eps2, sampler):
        for _ in range(6):
            rep = build_glued(eps1, eps2, sampler(rng),
                              tuple(rng.uniform(-1.5, 1.5, 3)))
            assert euler_class(rep) == rep.euler_nominal

    def test_wide_twists(self):
        # the class is constant along twist orbits; far out on the orbit
        # the un-normalised generator images lose every significant digit
        for eps1, eps2, sampler in (PAIR_SAMPLERS[0], PAIR_SAMPLERS[3],
                                    PAIR_SAMPLERS[7]):
            a = sampler(rng)
            for wide in (20.0, -60.0, 800.0):
                rep = build_glued(eps1, eps2, a, (0.3, wide, -0.2))
                assert euler_class(rep) == rep.euler_nominal
        rep = build_glued(EU_PLUS1, EU_PLUS1, (1.0, 1.1, 1.2),
                          (0.3, -24.5, -0.2))
        assert euler_class(rep) == 2

    @pytest.mark.parametrize("s", [5.0, 10.0])
    @pytest.mark.parametrize("names", [
        ("EuPlus1", "EuMinus1"), ("EuPlus1", "EuPlus1"),
        ("EuMinus1", "EuMinus1"), ("Eu0PlusTriangle", "EuPlus1"),
        ("Eu0MinusTriangle", "EuMinus1"),
        ("Eu0PlusTriangle", "Eu0MinusTriangle")], ids="/".join)
    def test_long_half_lengths(self, names, s):
        """At a = s (1, 1.1, 1.2) the generator images' entries reach
        e^{2 s}; the Milnor sum still returns the nominal class."""
        eps1, eps2 = map(pants.case_from_string, names)
        rep = build_glued(eps1, eps2, tuple(s * x for x in (1.0, 1.1, 1.2)),
                          (0.3, -0.2, 0.1))
        assert euler_class(rep) == rep.euler_nominal

    def test_long_half_length_scan(self):
        """Hexagon and triangle pairs with a in [2, 20] and |t| <= 60, where
        the boundary-circle Milnor sum read 6 wrong classes of 284: every
        class answered is the nominal one."""
        names = ["EuPlus1", "EuMinus1", "Eu0PlusTriangle", "Eu0MinusTriangle"]
        scan = np.random.default_rng(2323)
        answered = 0
        for _ in range(2000):
            eps = map(pants.case_from_string, scan.choice(names, 2))
            a, t = scan.uniform(2, 20, 3), scan.uniform(-60, 60, 3)
            try:
                rep = build_glued(*eps, tuple(a), tuple(t))
                euler = euler_class(rep)
            except PSL2Error:
                continue
            assert euler == rep.euler_nominal, rep
            answered += 1
        assert answered >= 250

    def test_agrees_with_boundary_circle_lifts(self):
        # 10 records of each of the 56 case pairs, one in eight at a wide
        # twist
        for rec in corpus.classify_corpus(35, 560):
            rep = GluedRep.from_json(rec["text"])
            images = generator_images(place_twists(rep)[1])
            assert euler_class(rep) == milnor_euler_class(*images) \
                == rec["euler"], rec

    def test_fuchsian_extremes(self):
        rep = build_glued(EU_MINUS1, EU_MINUS1, (0.8, 1.0, 1.2), (0.4, 0, -0.3))
        assert euler_class(rep) == -2
        rep = build_glued(EU_PLUS1, EU_PLUS1, (0.8, 1.0, 1.2), (0.4, 0, -0.3))
        assert euler_class(rep) == 2

    def test_relator_projects_to_identity(self):
        rep = build_glued(TRI_P, EU_MINUS1, sample_tri_a(rng),
                          tuple(rng.uniform(-1, 1, 3)))
        a1, b1, a2, b2 = generator_images(rep)
        rel = mmul(commutator(a2, b2), commutator(a1, b1))
        assert deviation_from_projective_identity(rel) < 1e-9

    def test_orientation_reversal_flips_sign(self):
        u = np.diag([1.0, -1.0])
        for eps1, eps2, sampler in (PAIR_SAMPLERS[0], PAIR_SAMPLERS[12],
                                    PAIR_SAMPLERS[15]):
            rep = build_glued(eps1, eps2, sampler(rng),
                              tuple(rng.uniform(-1, 1, 3)))
            a1, b1, a2, b2 = (quad(u @ arr(m) @ u)
                              for m in generator_images(rep))
            from srk.psl2r import euler_class_closed
            assert euler_class_closed(a1, b1, a2, b2) == -rep.euler_nominal


class TestSignInvariant:
    def test_case_table(self):
        table = [
            (EU_PLUS1, EU_MINUS1, sample_hex_a, "Minus"),
            (TRI_P, TRI_M, sample_tri_a, "Minus"),
            (TRI_P, TRI_P, sample_tri_a, "Plus"),
            (SH_P, SH_P, sample_self_a, "Minus"),
            (SH_P, SH_M, sample_self_a, "Plus"),
            (FU(1), FL(1), sample_flat_a, "Minus"),
            (FU(1), FL(-1), sample_flat_a, "Plus"),
        ]
        for eps1, eps2, sampler, expect in table:
            for _ in range(20):
                t = rng.uniform(0.2, 1.5, 3)        # keep away from t = 0
                rep = build_glued(eps1, eps2, sampler(rng), tuple(t))
                assert str(sign_invariant(rep)) == expect, (str(eps1),
                                                            str(eps2))

    def test_degenerate_at_zero_twist(self):
        rep = build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.0, 1.0), (0.3, 0.2, 0.0))
        assert str(sign_invariant(rep)) == "Degenerate"

    def test_requires_euler_zero(self):
        rep = build_glued(TRI_P, EU_MINUS1, sample_tri_a(rng), (0, 0, 0))
        with pytest.raises(Genus2Error):
            sign_invariant(rep)

    def test_invariant_along_orbits(self):
        for _ in range(10):
            rep = build_glued(EU_PLUS1, EU_MINUS1, sample_hex_a(rng),
                              tuple(rng.uniform(0.2, 1.0, 3)))
            ref = str(sign_invariant(rep))
            cur = rep
            for _ in range(30):
                cur = dehn_twist_gamma(cur, int(rng.integers(1, 4)),
                                       int(rng.integers(-2, 3)))
            assert str(sign_invariant(cur)) == ref

    def test_matches_handle_sign(self):
        from srk.psl2r import handle_sign
        for eps1, eps2, sampler in ((EU_PLUS1, EU_MINUS1, sample_hex_a),
                                    (TRI_P, TRI_M, sample_tri_a),
                                    (SH_P, SH_M, sample_self_a)):
            for _ in range(20):
                rep = build_glued(eps1, eps2, sampler(rng),
                                  tuple(rng.uniform(0.2, 1.2, 3)))
                hs = handle_sign(curve_matrix(rep, "gamma2"),
                                 curve_matrix(rep, "beta1"))
                si = str(sign_invariant(rep))
                if si == "Degenerate":
                    assert hs == "degenerate"
                else:
                    assert hs == {"Plus": 1, "Minus": -1}[si]

    def test_delta_side_consistency(self):
        for _ in range(25):
            rep = build_glued(TRI_P, TRI_P, sample_tri_a(rng),
                              tuple(rng.uniform(0.2, 1.4, 3)))
            assert delta_side_consistency(rep)
            assert all(trace_curve_matrix(rep, t) < 2 for t in DELTA_TAGS)
        for _ in range(25):
            rep = build_glued(EU_PLUS1, EU_MINUS1, sample_hex_a(rng),
                              tuple(rng.uniform(0.2, 1.4, 3)))
            assert delta_side_consistency(rep)
            assert all(trace_curve_matrix(rep, t) > 2 for t in DELTA_TAGS)

    def test_side_consistency_flags_degenerate(self):
        rep = build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.0, 1.0),
                          (0.0, 0.5, 0.5))
        with pytest.raises(Genus2Error):
            delta_side_consistency(rep)


class TestRelabeling:
    def test_cyclic_relabel_matches(self):
        a = sample_tri_a(rng)
        t = tuple(rng.uniform(-1, 1, 3))
        rep = build_glued(TRI_P, EU_MINUS1, a, t)
        perm = [2, 0, 1]           # new index i <- old index perm[i]
        rep2 = build_glued(TRI_P, EU_MINUS1,
                           tuple(a[p] for p in perm),
                           tuple(t[p] for p in perm))
        for i in range(3):
            for fam in ("gamma", "beta", "delta"):
                assert trace_curve_matrix(rep2, f"{fam}{i+1}") == \
                    pytest.approx(trace_curve_matrix(rep, f"{fam}{perm[i]+1}"),
                                  rel=1e-10, abs=1e-10)

    def test_pants_swap_negates_twists(self):
        # exchanging the pants maps (e1, e2; t) onto (flip(e2), flip(e1); -t)
        a = sample_tri_a(rng)
        t = tuple(rng.uniform(-1, 1, 3))
        rep = build_glued(TRI_P, EU_MINUS1, a, t)
        swapped = build_glued(EU_PLUS1, TRI_P, a, tuple(-x for x in t))
        for tag in CURVE_TAGS:
            assert trace_curve_matrix(swapped, tag) == pytest.approx(
                trace_curve_matrix(rep, tag), rel=1e-10, abs=1e-10)


# Reference words as plain numpy products, written out independently of the
# 4-tuple evaluators: the curve words of the module docstring and the
# generator images, with the translations T(-t3) T(-a3) kept apart.

def _np_translation(length):
    return np.diag([math.exp(length / 2.0), math.exp(-length / 2.0)])


def _np_mul(*ms):
    return reduce(np.matmul, ms)


def _np_inv(m):
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def _np_commutator(p, q):
    return _np_mul(_np_inv(q), _np_inv(p), q, p)


def _np_curve(x, y, a, t, tag):
    n = int(tag[-1]) - 1
    n1, n2 = (n + 1) % 3, (n + 2) % 3
    if tag.startswith("gamma"):
        return _np_translation(2.0 * a[n])
    if tag.startswith("beta"):
        return _np_mul(_np_inv(x[n]), _np_translation(-t[n2]), y[n],
                       _np_translation(t[n1]))
    # delta_n = [beta_{n+1}, gamma_{n+2}], indices cyclic
    return _np_commutator(_np_curve(x, y, a, t, f"beta{n1 + 1}"),
                          _np_curve(x, y, a, t, f"gamma{n2 + 1}"))


def _np_generators(x, y, a, t):
    tr_, mul, inv = _np_translation, _np_mul, _np_inv
    p3 = mul(x[1], tr_(a[2]), x[0])
    p5 = mul(x[2], tr_(a[0]), p3)
    g1 = mul(inv(p3), tr_(2 * a[0]), p3)
    g2 = mul(inv(p5), tr_(2 * a[1]), p5)
    b1 = mul(inv(x[0]), tr_(-t[2]), tr_(-a[2]), inv(y[1]), tr_(-a[0]),
             inv(y[2]), tr_(t[1]), p5)
    b2 = mul(inv(x[0]), tr_(-t[2]), tr_(-a[2]), inv(y[1]), tr_(t[0]), p3)
    b3 = mul(inv(p5), tr_(-t[1]), y[2], tr_(a[0] + t[0]), p3)
    w = mul(inv(g2), b3)
    return b1, g2, mul(w, b2, inv(w)), mul(w, g1, inv(w))


def _assert_rel_close(got, ref, rel=1e-12):
    got = arr(got)
    assert np.abs(got - ref).max() <= rel * max(1.0, np.abs(ref).max())


class TestSingleEvaluator:
    rng = np.random.default_rng(29)

    @pytest.mark.parametrize("eps1,eps2,sampler", PAIR_SAMPLERS,
                             ids=lambda v: str(v) if isinstance(v, PC) else "")
    def test_matches_numpy_words(self, eps1, eps2, sampler):
        rep = build_glued(eps1, eps2, sampler(self.rng),
                          tuple(self.rng.uniform(-1.5, 1.5, 3)))
        x, y = ([arr(q) for q in p.q] for p in (rep.p1, rep.p2))
        for tag in CURVE_TAGS:
            ref = _np_curve(x, y, rep.a, rep.t, tag)
            # a fresh rep evaluates the whole word, `rep` reuses its memo
            fresh = GluedRep(p1=rep.p1, p2=rep.p2, t=rep.t)
            _assert_rel_close(curve_matrix(fresh, tag), ref)
            _assert_rel_close(curve_matrix(rep, tag), ref)
        for name, got, ref in zip(genus2.GENERATORS, generator_images(rep),
                                  _np_generators(x, y, rep.a, rep.t)):
            _assert_rel_close(got, ref)
            assert curve_matrix(rep, name) == got

    def test_parent_certificate_replays(self):
        # the committed certificate of a beta-twist search: its word is in
        # the generators, so the replay evaluates `generator_images`
        path = Path(__file__).parent / "data" / "certificate_beta_twist.json"
        cert = Certificate.from_json(path.read_text())
        report = replay_certificate(cert)
        assert report["ok"], report
        assert {name for name, _ in cert.curve} <= set(genus2.GENERATORS)
        assert report["trace"] == pytest.approx(cert.trace, rel=1e-12)

    def test_certificate_json_roundtrip_replays(self):
        # a fresh search that twists along beta_3, on a corner record
        rep = build_glued(PantsCase("tri", 1), EU_MINUS1,
                          (2.177271425843055, 2.0216335715832017,
                           2.2096542923498688),
                          (1.1546330313413034, 0.7929074417928108,
                           1.2030657845188415))
        out = search_nonhyperbolic(rep)
        assert out.rounds == 1
        back = Certificate.from_json(out.certificate.to_json())
        assert back == out.certificate
        assert replay_certificate(back)["ok"]
        # the committed certificate of such a search
        text = (Path(__file__).parent / "data"
                / "certificate_beta_twist.json").read_text()
        cert = Certificate.from_json(text)
        back = Certificate.from_json(cert.to_json())
        assert back == cert
        assert replay_certificate(back)["ok"]

    def test_search_logs_the_normalising_twists(self):
        rep = build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.1, 1.2),
                          (5.0, -3.2, 0.4))
        state = SearchState(rep)
        search._normalize(state)
        counts, normal = place_twists(rep)
        assert state.rep is normal
        moves = [(mv["i"], mv["k"]) for mv in state.moves]
        assert moves == [(i + 1, k) for i, k in enumerate(counts) if k]


class TestExactHalfTurn:
    """The flat and triangle pants are built from S; an S with rounding
    noise where 0 belongs lets the beta words scale that noise by e^{|t3|}."""

    @pytest.mark.parametrize("record", [
        {"eps": ["EuPlus1", "Eu0LowerFlat(-1)"],
         "a": [0.27397924685335784, 0.4773742577749054, 0.7513535046282632],
         "t": [1.2439466502193266, 0.15971665327791884, 26.59824032951481]},
        {"eps": ["Eu0DiagonalFlat", "EuMinus1"],
         "a": [0.39446161608724334, 0.689112367594859, 1.0835739836821023],
         "t": [0.273962834187756, -1.0273814778246613, -38.26102846681627]},
    ], ids=["lower-flat", "diagonal-flat"])
    def test_wide_delta3_closed_form(self, record):
        rep = GluedRep.from_json(json.dumps(record))
        val, covered = trace_curve_closed_form(rep, "delta3")
        ref = trace_curve_matrix(rep, "delta3")
        assert covered
        assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref))


# Property tests.  Each case pair draws its half-lengths from the same
# families as the samplers above, with the shrinking Hypothesis provides;
# derandomized, so every run checks the same examples.
_HEX_A = st.tuples(*[st.floats(0.3, 1.8)] * 3)
_A_STRATEGIES = {
    sample_hex_a: _HEX_A,
    sample_tri_a: _HEX_A.filter(lambda a: hyptrig.delta_invariant(*a) > 0.02),
    sample_self_a: st.tuples(st.floats(0.2, 0.8), st.floats(0.2, 0.8),
                             st.floats(0.15, 0.7)).map(
        lambda s: (min(s[:2]), max(s[:2]), s[0] + s[1] + s[2])),
    sample_flat_a: st.tuples(st.floats(0.3, 0.9), st.floats(0.3, 0.9)).map(
        lambda s: (s[0], s[1], s[0] + s[1])),
}
_PROPERTY = settings(deadline=None, derandomize=True, database=None)
_STRATUM_SAMPLERS = {"plus1": sample_hex_a, "minus1": sample_hex_a,
                     "tri": sample_tri_a, "selfhex": sample_self_a}


def _stratum_sampler(eps1, eps2):
    """The sampler of the pair's tag that fixes its stratum."""
    anchor = eps1 if eps1.kind not in ("plus1", "minus1") else eps2
    return _STRATUM_SAMPLERS.get(anchor.kind, sample_flat_a)


ALL_PAIR_SAMPLERS = [
    (eps1, eps2, _stratum_sampler(eps1, eps2))
    for eps1, eps2 in (map(pants.case_from_string, p) for p in ALL_PAIRS)]


EULER0_PAIR_SAMPLERS = [(eps1, eps2, sampler)
                        for eps1, eps2, sampler in ALL_PAIR_SAMPLERS
                        if eps1.euler + eps2.euler == 0]
assert len(EULER0_PAIR_SAMPLERS) == 18

# c_0^2 - 4 c_- c_+ = (P12 Q21 - Q12 P21)^2 (`twist_coeffs`) is 0 to
# rounding on Euler-0 pairs: the two products agree to a few eps, and
# their gap enters squared.  What is left is the rounding of the
# evaluation: c_0 = P12 Q21 + Q12 P21 and its square take four roundings,
# at most 2.5 eps relative, and 4 c_- c_+ three, 1.5 eps.  So the bound is
# 4 eps; 1.8 eps was measured on the Euler-0 records of the benchmark's
# classify corpus.
DISCRIMINANT_REL = 4 * sys.float_info.epsilon


def _twists(bound):
    return st.tuples(*[st.floats(-bound, bound)] * 3)


class TestProperties:
    @pytest.mark.parametrize("eps1,eps2,sampler", PAIR_SAMPLERS,
                             ids=lambda v: str(v) if isinstance(v, PC) else "")
    def test_invariants_along_twist_orbit(self, eps1, eps2, sampler):
        @settings(_PROPERTY, max_examples=3)
        @given(a=_A_STRATEGIES[sampler], t=_twists(2.0))
        def check(a, t):
            rep = build_glued(eps1, eps2, a, t)
            euler = euler_class(rep)
            sign = sign_invariant(rep) if rep.euler_nominal == 0 else None
            for i in (1, 2, 3):
                for k in range(-20, 21):
                    tw = dehn_twist_gamma(rep, i, k)
                    assert euler_class(tw) == euler, (i, k)
                    if sign is not None:
                        assert sign_invariant(tw) == sign, (i, k)

        check()

    @pytest.mark.parametrize("eps1,eps2,sampler", PAIR_SAMPLERS,
                             ids=lambda v: str(v) if isinstance(v, PC) else "")
    def test_closed_forms_match_matrices(self, eps1, eps2, sampler):
        @settings(_PROPERTY, max_examples=15)
        @given(a=_A_STRATEGIES[sampler], t=_twists(40.0))
        def check(a, t):
            rep = build_glued(eps1, eps2, a, t)
            for tag in CURVE_TAGS:
                val, covered = trace_curve_closed_form(rep, tag)
                if covered:
                    ref = trace_curve_matrix(rep, tag)
                    assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref)), tag

        check()

    @pytest.mark.parametrize("eps1,eps2,sampler", ALL_PAIR_SAMPLERS,
                             ids=lambda v: str(v) if isinstance(v, PC) else "")
    def test_delta_twist_coeffs_match_matrices(self, eps1, eps2, sampler):
        """`twist_trace` from `twist_coeffs` gives every beta and delta
        trace within 1e-9 relative of the matrix words, |t| <= 40, on all
        56 case pairs.  (The name is that of the delta-only coefficients
        the test first checked, kept so that its ids stay.)"""
        @settings(_PROPERTY, max_examples=15)
        @given(a=_A_STRATEGIES[sampler], t=_twists(40.0))
        def check(a, t):
            rep = build_glued(eps1, eps2, a, t)
            for tag in BETA_TAGS + DELTA_TAGS:
                val = twist_trace(tag, twist_coeffs(rep, tag), rep.t)
                ref = trace_curve_matrix(rep, tag)
                assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref)), tag

        check()

    @pytest.mark.parametrize("eps1,eps2,sampler", ALL_PAIR_SAMPLERS,
                             ids=lambda v: str(v) if isinstance(v, PC) else "")
    def test_euler_class_invariant_under_beta3_twist(self, eps1, eps2,
                                                     sampler):
        """The Milnor class of the generator images under T^n, n = +-1, T
        the Dehn twist along beta_3 (`search._BETA3_TWIST`), read on the
        normalised rep, is the rep's Euler class, |t| <= 40, on all 56
        case pairs.  The twisted words have larger entries than the
        generators: on the Euler +-2 pairs the algorithm may refuse them
        (PSL2Error), at most a quarter of the time; elsewhere it answers."""
        extremal = abs(eps1.euler + eps2.euler) == 2
        refused, tried = [], []

        @settings(_PROPERTY, max_examples=40)
        @given(a=_A_STRATEGIES[sampler], t=_twists(40.0))
        def check(a, t):
            rep = build_glued(eps1, eps2, a, t)
            euler, normal = euler_class(rep), place_twists(rep)[1]
            for n in (1, -1):
                tried.append(n)
                images = [search._word_quad(normal, search._BETA3_TWIST[n][g])
                          for g in genus2.GENERATORS]
                try:
                    twisted = euler_class_closed(*images)
                except PSL2Error:
                    if not extremal:
                        raise
                    refused.append(n)
                    continue
                assert twisted == euler, n

        check()
        assert len(refused) <= len(tried) // 4

    @pytest.mark.parametrize("eps1,eps2,sampler", EULER0_PAIR_SAMPLERS,
                             ids=lambda v: str(v) if isinstance(v, PC) else "")
    def test_delta_twist_coeffs_decide_the_sign(self, eps1, eps2, sampler):
        """On the 18 Euler-0 pairs, c_- e^-t + c_0 + c_+ e^t of each delta
        is a perfect square up to its sign, so tr delta_k - 2 keeps one
        sign along the whole twist line; on flat pairs c_0 = 0 and exactly
        one of c_- and c_+ is 0.  The signs of delta_3's c_- and c_+ give
        `sign_invariant`: Plus where both are >= 0, Minus where both are
        <= 0.  Twists keep 0.2 away from 0, where tr delta_k touches 2 on
        six of the pairs and the invariant reads Degenerate."""
        away = st.floats(0.2, 3.0)

        @settings(_PROPERTY, max_examples=10)
        @given(a=_A_STRATEGIES[sampler],
               t=st.tuples(*[st.one_of(away, away.map(float.__neg__))] * 3))
        def check(a, t):
            rep = build_glued(eps1, eps2, a, t)
            for tag in DELTA_TAGS:
                _, cm, c0, cp = twist_coeffs(rep, tag)
                assert abs(c0 * c0 - 4 * cm * cp) <= DISCRIMINANT_REL * max(
                    c0 * c0, abs(4 * cm * cp)), tag
                if eps1.is_flat or eps2.is_flat:
                    assert c0 == 0.0 and (cm == 0.0) != (cp == 0.0), tag
            _, cm, _, cp = twist_coeffs(rep, "delta3")
            sign = ("Plus" if cm >= 0 and cp >= 0
                    else "Minus" if cm <= 0 and cp <= 0 else None)
            assert sign_invariant(rep) == sign

        check()

    @settings(_PROPERTY, max_examples=300)
    @given(a=st.tuples(*[st.floats(0.05, 2.3)] * 3),
           t=st.tuples(*[st.one_of(st.floats(-100.0, 100.0),
                                   st.floats(-1e30, 1e30))] * 3))
    def test_normalised_twists_keep_their_orbit(self, a, t):
        # an accepted normalisation lies within TWIST_EDGE of the exact
        # remainder of t_i modulo 2 a_i; twists up to 100 are never refused
        rep = build_glued(EU_PLUS1, EU_MINUS1, a, t)
        try:
            out = place_twists(rep)[1]
        except Genus2Error:
            assert max(map(abs, t)) > 100.0
            return
        for ti, ni, ai in zip(rep.t, out.t, a):
            width = 2 * Fraction(ai)
            gap = Fraction(ni) - Fraction(ti)
            gap -= round(gap / width) * width
            assert abs(gap) <= TWIST_EDGE and abs(ni) <= ai + TWIST_EDGE


@pytest.mark.parametrize("call, match", [
    (lambda: dehn_twist_gamma(
        build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.1, 1.2), (0.3, -0.2, 0.5)),
        4), "curve index must be 1, 2 or 3"),
    (lambda: curve_matrix(
        build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.1, 1.2), (0.3, -0.2, 0.5)),
        "gamma4"), "unknown curve tag"),
    (lambda: trace_curve_closed_form(
        build_glued(EU_PLUS1, EU_MINUS1, (1.0, 1.1, 1.2), (0, 1500, 1500)),
        "beta1"), "closed form of beta1 overflows"),
    (lambda: delta_side_consistency(
        build_glued(TRI_P, TRI_P, (1.0, 1.1, 1.2), (0, 0, 0))),
        "degenerate sample")],
    ids=["twist-along-gamma4", "curve-gamma4", "closed-form-overflow",
         "side-consistency-at-zero-twist"])
def test_library_calls_out_of_range_are_refused(call, match):
    with pytest.raises(Genus2Error, match=match):
        call()
