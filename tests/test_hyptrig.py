import math

import numpy as np
import pytest

from srk.hyptrig import (TrigError, _acos_clamped, _acosh_clamped,
                         delta_invariant, long_index, solve_hexagon,
                         solve_self_hexagon, solve_triangle)

rng = np.random.default_rng(42)


def sample_triangle_sides(rng):
    while True:
        a = rng.uniform(0.2, 2.0, 3)
        if delta_invariant(*a) > 0.05:
            return a


def sample_selfhex_sides(rng):
    small = np.sort(rng.uniform(0.2, 0.9, 2))
    long = small.sum() + rng.uniform(0.15, 0.9)
    out = np.array([small[0], small[1], long])
    return out[rng.permutation(3)]


class TestLongIndex:
    def test_long_index_takes_the_first_largest(self):
        assert long_index((1.2, 1.2, 1.0)) == 0
        assert long_index((1.0, 1.2, 1.2)) == 1
        assert long_index((1.0, 1.0, 1.0)) == 0

    @pytest.mark.parametrize("v", [(3.0, 1.0, 2.0), (1.0, 3.0, 2.0),
                                   (1.0, 2.0, 3.0)])
    def test_long_index_names_the_long_side(self, v):
        assert v[long_index(v)] == max(v) == 3.0

    @pytest.mark.parametrize("shift", range(-4, 6))
    def test_long_index_follows_a_cyclic_shift(self, shift):
        """Moving every entry of a triple with one largest entry `shift`
        places on moves its long index the same way."""
        v = (1.0, 3.0, 2.0)
        moved = [v[(i - shift) % 3] for i in range(3)]
        assert long_index(moved) == (long_index(v) + shift) % 3


class TestDeltaInvariant:
    def test_boundary_zero(self):
        assert delta_invariant(1.0, 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_equilateral_value(self):
        expect = 2 * math.cosh(1.0) ** 3 - 3 * math.cosh(1.0) ** 2 + 1
        assert delta_invariant(1.0, 1.0, 1.0) == pytest.approx(expect)
        assert expect == pytest.approx(1.20516, abs=1e-4)

    def test_long_side_negative(self):
        assert delta_invariant(1.0, 1.0, 3.0) < 0.0

    @pytest.mark.parametrize("a", [(800.0, 1.0, 1.0), (700.0,) * 3,
                                   (400.0, 1.0, 1.0)])
    def test_overflow_raises(self, a):
        # cosh(800) overflows; at 700 and 400 the products do, and would
        # leave a NaN or -inf for the sign tests
        with pytest.raises(OverflowError):
            delta_invariant(*a)


class TestClamps:
    """Arguments within CLAMP (1e-12) outside the domain are rounding and
    clamp to its edge; beyond it they raise."""

    def test_acosh_just_below_one(self):
        assert _acosh_clamped(1.0 - 1e-13) == 0.0
        with pytest.raises(TrigError, match="below domain"):
            _acosh_clamped(1.0 - 1e-11)

    @pytest.mark.parametrize("sign, edge", [(1.0, 0.0), (-1.0, math.pi)])
    def test_acos_just_outside_one(self, sign, edge):
        assert _acos_clamped(sign * (1.0 + 1e-13)) == edge
        with pytest.raises(TrigError, match="outside domain"):
            _acos_clamped(sign * (1.0 + 1e-11))


class TestHexagon:
    def test_equilateral(self):
        sol = solve_hexagon(1.0, 1.0, 1.0)
        expect = math.acosh(math.cosh(1.0) / (math.cosh(1.0) - 1.0))
        for b in sol.b:
            assert b == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(1.70491, abs=1e-4)

    def test_formula_symmetry(self):
        s1 = solve_hexagon(0.7, 1.1, 1.6)
        s2 = solve_hexagon(0.7, 1.6, 1.1)
        assert s1.b[0] == pytest.approx(s2.b[0], rel=1e-14)

    def test_heron_consistency(self):
        for _ in range(200):
            a = rng.uniform(0.2, 2.2, 3)
            sol = solve_hexagon(*a)
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                prod = (math.sinh(sol.b[i]) * math.sinh(a[j])
                        * math.sinh(a[k]))
                assert abs(prod - sol.heron) < 1e-10 * max(1.0, sol.heron)

    def test_heron_polynomial_form(self):
        for _ in range(100):
            a = rng.uniform(0.2, 2.2, 3)
            sol = solve_hexagon(*a)
            ch = np.cosh(a)
            poly = 2 * ch.prod() + (ch ** 2).sum() - 1.0
            assert sol.heron ** 2 == pytest.approx(poly, rel=1e-9)

    def test_monotone_in_other_side(self):
        # b_1 strictly decreases when a_2 grows
        b_prev = None
        for a2 in np.linspace(0.5, 2.0, 12):
            b1 = solve_hexagon(0.8, a2, 1.1).b[0]
            if b_prev is not None:
                assert b1 < b_prev
            b_prev = b1

    def test_rejects_nonpositive(self):
        with pytest.raises(TrigError):
            solve_hexagon(0.0, 1.0, 1.0)


class TestTriangle:
    def test_equilateral(self):
        sol = solve_triangle(1.0, 1.0, 1.0)
        expect = math.acos(math.cosh(1.0) / (math.cosh(1.0) + 1.0))
        for th in sol.theta:
            assert th == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.9188, abs=2e-4)

    def test_degenerate_limit(self):
        sol = solve_triangle(1.0, 1.0, 1.999999)
        assert sol.theta[2] == pytest.approx(math.pi, abs=5e-3)
        assert sol.theta[0] < 5e-3 and sol.theta[1] < 5e-3

    def test_angle_defect(self):
        for _ in range(200):
            a = sample_triangle_sides(rng)
            sol = solve_triangle(*a)
            assert sum(sol.theta) < math.pi

    def test_heron_both_forms(self):
        for _ in range(200):
            a = sample_triangle_sides(rng)
            sol = solve_triangle(*a)
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                prod = (math.sin(sol.theta[i]) * math.sinh(a[j])
                        * math.sinh(a[k]))
                assert abs(prod - sol.heron) < 1e-10 * max(1.0, sol.heron)
            assert sol.heron ** 2 == pytest.approx(delta_invariant(*a),
                                                   rel=1e-9)

    def test_rejects_flat(self):
        with pytest.raises(TrigError):
            solve_triangle(1.0, 1.0, 2.0)
        with pytest.raises(TrigError):
            solve_triangle(1.0, 1.0, 3.0)


class TestSelfHexagon:
    def test_long_side_value(self):
        sol = solve_self_hexagon(1.0, 1.0, 3.0)
        expect = math.acosh((math.cosh(3.0) - math.cosh(1.0) ** 2)
                            / math.sinh(1.0) ** 2)
        assert sol.d[2] == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(2.40157, abs=1e-4)
        assert long_index(sol.a) == 2

    def test_heron_consistency(self):
        for _ in range(200):
            a = sample_selfhex_sides(rng)
            sol = solve_self_hexagon(*a)
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                prod = (math.sinh(sol.d[i]) * math.sinh(a[j])
                        * math.sinh(a[k]))
                assert abs(prod - sol.heron) < 1e-10 * max(1.0, sol.heron)
            assert sol.heron ** 2 == pytest.approx(-delta_invariant(*a),
                                                   rel=1e-9)

    def test_sinh_ratio_identity(self):
        # sinh(d_1)/sinh(a_1) = sinh(d_3)/sinh(a_3), used by the mixed
        # delta trace computation
        for _ in range(100):
            a = sample_selfhex_sides(rng)
            sol = solve_self_hexagon(*a)
            r = [math.sinh(sol.d[i]) / math.sinh(a[i]) for i in range(3)]
            assert r[0] == pytest.approx(r[2], rel=1e-9)
            assert r[0] == pytest.approx(r[1], rel=1e-9)

    def test_permutation_recorded(self):
        a = (2.4, 0.8, 0.7)
        sol = solve_self_hexagon(*a)
        assert long_index(sol.a) == 0
        aligned = solve_self_hexagon(0.8, 0.7, 2.4)
        assert sol.d[0] == pytest.approx(aligned.d[2], rel=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(TrigError):
            solve_self_hexagon(1.0, 1.0, 2.0)
        with pytest.raises(TrigError):
            solve_self_hexagon(1.0, 1.0, 1.5)
