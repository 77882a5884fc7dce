import math

import numpy as np
import pytest
from boundary_lifts import euler_class_relative
from matrices import arr

from srk import hyptrig, pants
from srk.genus2 import build_glued
from srk.pants import (EU0_DIAGONAL_FLAT, EU0_MINUS_SELFHEX,
                       EU0_MINUS_TRIANGLE, EU0_PLUS_SELFHEX,
                       EU0_PLUS_TRIANGLE, EU_MINUS1, EU_PLUS1, PantsCase,
                       PantsError, boundary_holonomies, build_pants,
                       case_from_string, free_generators,
                       pants_trace_sign)
from srk.psl2r import deviation_from_projective_identity, mmul, mtrace

rng = np.random.default_rng(7)

ALL_CASES = [EU_PLUS1, EU_MINUS1, EU0_PLUS_TRIANGLE, EU0_MINUS_TRIANGLE,
             EU0_PLUS_SELFHEX, EU0_MINUS_SELFHEX, EU0_DIAGONAL_FLAT,
             PantsCase("flat_upper", 1), PantsCase("flat_upper", -1),
             PantsCase("flat_lower", 1), PantsCase("flat_lower", -1)]


def sample_a(case, rng):
    if case.kind in ("plus1", "minus1"):
        return tuple(rng.uniform(0.2, 2.2, 3))
    if case.kind == "tri":
        while True:
            a = rng.uniform(0.2, 2.0, 3)
            if hyptrig.delta_invariant(*a) > 0.02:
                return tuple(a)
    small = np.sort(rng.uniform(0.2, 0.9, 2))
    long = small.sum() + (rng.uniform(0.15, 0.8)
                          if case.kind == "selfhex" else 0.0)
    out = np.array([small[0], small[1], long])
    return tuple(out[rng.permutation(3)])


class TestCocycle:
    @pytest.mark.parametrize("case", ALL_CASES, ids=str)
    def test_residuals_small(self, case):
        for _ in range(40):
            rep = build_pants(sample_a(case, rng), case)
            assert max(rep.cocycle_residuals()) < 1e-9

    def test_case_stratum_mismatch(self):
        with pytest.raises(PantsError):
            build_pants((1.0, 1.0, 1.0), EU0_PLUS_SELFHEX)
        with pytest.raises(PantsError):
            build_pants((1.0, 1.0, 3.0), EU0_PLUS_TRIANGLE)
        with pytest.raises(PantsError):
            build_pants((1.0, 1.0, 1.0), PantsCase("flat_upper", 1))

    @pytest.mark.parametrize("scale", [10.0, 20.0])
    def test_long_sides_build_and_glue(self, scale):
        """The cocycle bound scales with the translations' entries: at
        a = s (1, 1.1, 1.2) the residuals reach 2.5e-9 (s = 10) and 0.047
        (s = 20), rounding in products with entries up to e^{a3/2}."""
        a = tuple(scale * v for v in (1.0, 1.1, 1.2))
        for case in (EU_PLUS1, EU_MINUS1, EU0_PLUS_TRIANGLE,
                     EU0_MINUS_TRIANGLE):
            build_pants(a, case)
        for pair in ((EU_PLUS1, EU_MINUS1), (EU0_PLUS_TRIANGLE, EU_MINUS1),
                     (EU0_PLUS_TRIANGLE, EU0_MINUS_TRIANGLE)):
            rep = build_glued(*pair, a, (0.3, -0.2, 0.5))
            assert rep.a == a

    def test_tiny_hexagon_refused(self):
        with pytest.raises(PantsError, match="cocycle residuals"):
            build_pants((1e-3, 1.1e-3, 1.2e-3), EU_PLUS1)

    def test_nonpositive_rejected(self):
        with pytest.raises(PantsError):
            build_pants((0.0, 1.0, 1.0), EU_PLUS1)

    @pytest.mark.parametrize("case", ALL_CASES, ids=str)
    def test_equality_is_field_by_field(self, case):
        rep = build_pants(sample_a(case, rng), case)
        same = pants.PantsRep(rep.a, rep.case, rep.q, rep.solution)
        assert same == rep and hash(same) == hash(rep)
        assert repr(same) == repr(rep)
        other = EU_PLUS1 if case != EU_PLUS1 else EU_MINUS1
        assert pants.PantsRep(rep.a, other, rep.q, None) != rep
        assert pants.PantsRep(rep.a, rep.case, rep.q[::-1], None) != rep

    def test_flat_upper_matrix_form(self):
        # parabolic entry pattern of the triangular family
        a = (1.0, 1.3, 2.3)
        rep = build_pants(a, PantsCase("flat_upper", 1))
        x1 = arr(rep.q[0])
        s_part = np.array([[0.0, 1.0], [-1.0, 0.0]])
        par = np.linalg.solve(s_part, x1)
        assert par[0, 0] == pytest.approx(1.0)
        assert par[1, 1] == pytest.approx(1.0)
        assert par[1, 0] == pytest.approx(0.0, abs=1e-14)
        assert abs(par[0, 1]) == pytest.approx(math.sinh(1.0), rel=1e-12)


class TestBoundaryData:
    @pytest.mark.parametrize("case", ALL_CASES, ids=str)
    def test_boundary_traces(self, case):
        a = sample_a(case, rng)
        rep = build_pants(a, case)
        la, lb, lc = boundary_holonomies(rep)
        assert abs(mtrace(la)) == pytest.approx(2 * math.cosh(a[0]), rel=1e-9)
        assert abs(mtrace(lb)) == pytest.approx(2 * math.cosh(a[1]), rel=1e-9)
        assert abs(mtrace(lc)) == pytest.approx(2 * math.cosh(a[2]), rel=1e-9)

    @pytest.mark.parametrize("case", ALL_CASES, ids=str)
    def test_boundary_relation(self, case):
        rep = build_pants(sample_a(case, rng), case)
        la, lb, lc = boundary_holonomies(rep)
        assert deviation_from_projective_identity(mmul(la, lb, lc)) < 1e-9

    def test_free_generators_product_is_third_boundary(self):
        rep = build_pants((0.8, 1.0, 1.2), EU_PLUS1)
        la, lb = free_generators(rep)
        assert mtrace(la) > 0 and mtrace(lb) > 0
        assert abs(mtrace(mmul(la, lb))) == pytest.approx(
            2 * math.cosh(1.2), rel=1e-9)


class TestEulerAndSign:
    @pytest.mark.parametrize("case,expect", [
        (EU_PLUS1, 1), (EU_MINUS1, -1), (EU0_PLUS_TRIANGLE, 0),
        (EU0_MINUS_TRIANGLE, 0), (EU0_PLUS_SELFHEX, 0),
        (EU0_MINUS_SELFHEX, 0)], ids=str)
    def test_euler_class_relative_matches_tag(self, case, expect):
        for _ in range(100):
            rep = build_pants(sample_a(case, rng), case)
            assert euler_class_relative(boundary_holonomies(rep)) == expect

    @pytest.mark.parametrize("case", [EU_PLUS1, EU_MINUS1, EU0_PLUS_TRIANGLE,
                                      EU0_MINUS_TRIANGLE, EU0_PLUS_SELFHEX,
                                      EU0_MINUS_SELFHEX], ids=str)
    def test_trace_sign_lemma(self, case):
        for _ in range(60):
            rep = build_pants(sample_a(case, rng), case)
            la, lb = free_generators(rep)
            eu = pants_trace_sign(rep)
            assert eu == case.euler
            assert (mtrace(mmul(la, lb)) > 0) == (eu % 2 == 0)

    def test_trace_sign_excluded_on_flat(self):
        rep = build_pants((0.5, 0.7, 1.2), PantsCase("flat_upper", 1))
        with pytest.raises(PantsError):
            pants_trace_sign(rep)

    def test_euler_relative_pants_values(self):
        # hexagon pants: +-1; triangle pants: 0 (diagonal deformation)
        rep = build_pants((0.9, 1.0, 1.1), EU_PLUS1)
        assert euler_class_relative(boundary_holonomies(rep)) == 1
        rep = build_pants((0.9, 1.0, 1.1), EU0_PLUS_TRIANGLE)
        assert euler_class_relative(boundary_holonomies(rep)) == 0


def _mirror(q):
    """Conjugate by the reflection z -> -conj(z): (a, b, c, d) -> (a, -b, -c, d)."""
    a, b, c, d = q
    return (a, -b, -c, d)


def _equal_up_to_sign(p, q, tol=1e-12):
    p, q = np.array(p), np.array(q)
    return min(np.abs(p - q).max(), np.abs(p + q).max()) <= tol


class TestReflect:
    """The mirror image of a pants is the pants of the mirrored tag, built
    directly: +1 and -1 swap, 0+ and 0- swap, and so do the two signs of a
    flat pants' parabolic entries."""

    def test_hexagon_mirror(self):
        rep = build_pants((0.8, 1.0, 1.2), EU_PLUS1)
        mir = build_pants((0.8, 1.0, 1.2), EU_MINUS1)
        for i in range(3):
            la = boundary_holonomies(rep)[i]
            lb = boundary_holonomies(mir)[i]
            assert abs(mtrace(la)) == pytest.approx(abs(mtrace(lb)), rel=1e-9)
            assert _equal_up_to_sign(_mirror(rep.q[i]), mir.q[i])

    def test_triangle_mirror_negates_angles(self):
        mir = build_pants((0.8, 1.0, 1.2), EU0_MINUS_TRIANGLE)
        sol = hyptrig.solve_triangle(0.8, 1.0, 1.2)
        from srk.psl2r import S, make_rotation
        for i in range(3):
            want = mmul(S, make_rotation(-sol.theta[i]))
            assert np.abs(np.subtract(mir.q[i], want)).max() < 1e-12

    def test_diagonal_self_mirror(self):
        rep = build_pants((0.5, 0.7, 1.2), EU0_DIAGONAL_FLAT)
        assert all(_equal_up_to_sign(_mirror(q), q) for q in rep.q)

    def test_flat_mirror_flips_sign(self):
        for kind in ("flat_upper", "flat_lower"):
            rep = build_pants((0.5, 0.7, 1.2), PantsCase(kind, 1))
            mir = build_pants((0.5, 0.7, 1.2), PantsCase(kind, -1))
            assert not _equal_up_to_sign(rep.q[2], mir.q[2])
            for i in range(3):
                assert _equal_up_to_sign(_mirror(rep.q[i]), mir.q[i])


# one half-length triple per delta stratum, long side second
STRATUM_SIDES = {1: (1.0, 1.1, 1.2), 0: (0.5, 1.2, 0.7),
                 -1: (0.5, 1.6, 0.7)}


class TestStratum:
    @pytest.mark.parametrize("case", ALL_CASES, ids=str)
    def test_stratum_is_what_build_pants_accepts(self, case):
        accepted = set()
        for sign, a in STRATUM_SIDES.items():
            try:
                build_pants(a, case)
                accepted.add(sign)
            except PantsError:
                pass
        want = {1, 0, -1} if case.stratum is None else {case.stratum}
        assert accepted == want


class TestSerialization:
    def test_case_names_roundtrip(self):
        for case in ALL_CASES:
            assert case_from_string(str(case)) == case
        assert len(pants._CASES) == len(set(ALL_CASES)) == 11
        for name, case in pants._CASES.items():
            assert str(case_from_string(name)) == name
            # a case built afresh hashes as its (kind, eps) fields do, and
            # finds its name
            fresh = PantsCase(case.kind, case.eps)
            assert hash(fresh) == hash(case) == hash((case.kind, case.eps))
            assert pants._NAME_OF[fresh] == name == f"{fresh}"
            assert repr(fresh) == (f"PantsCase(kind={case.kind!r}, "
                                   f"eps={case.eps!r})")

    def test_unknown_name(self):
        with pytest.raises(PantsError):
            case_from_string("EuSomething")


@pytest.mark.parametrize("call, match", [
    (lambda: build_pants((1.0, 1.1, 1.2), PantsCase("bogus")),
     "unknown case kind"),
    (lambda: pants.pants_trace_sign(build_pants(
        (1.0, 1.1, 1.2), EU_PLUS1)._replace(case=PantsCase("tri", 1))),
     "trace sign disagrees")], ids=["unknown-kind", "mislabelled-pants"])
def test_library_calls_out_of_range_are_refused(call, match):
    with pytest.raises(PantsError, match=match):
        call()
