import math

import numpy as np
import pytest
from boundary_lifts import boundary_angle, fixed_points
from matrices import arr, quad

from srk import psl2r
from srk.psl2r import (IDENTITY, LiftedIsometry, PSL2Error, commutator,
                       euler_class_closed, handle_sign, lift,
                       lifted_commutator, lifted_compose, make_rotation,
                       make_translation, minv, mmul, mtrace)

rng = np.random.default_rng(20240811)

TWO_PI = 2 * math.pi


def _axis_through(p, q, length):
    """Translation by `length` along the geodesic with endpoints p < q."""
    c = np.array([[q, p], [1.0, 1.0]])
    c = quad(c / math.sqrt(abs(np.linalg.det(c))))
    return mmul(c, make_translation(length), minv(c))


def random_hyperbolic(rng, scale=2.0):
    g = rng.normal(size=(2, 2), scale=scale)
    while abs(np.linalg.det(g)) < 0.2:
        g = rng.normal(size=(2, 2), scale=scale)
    g /= math.sqrt(abs(np.linalg.det(g)))
    q = quad(g)
    m = mmul(q, make_translation(rng.uniform(0.5, 2.5)), minv(q))
    return m if np.linalg.det(g) > 0 else minv(m)


def axes_cross(a, b):
    """Whether the axes of two hyperbolic elements cross inside the plane.

    Decided by interleaving of endpoint angles on the boundary circle,
    independently of any trace identity: the oracle for handle_sign.
    """
    p, q = (boundary_angle(x) for x in fixed_points(a))
    r, s = (boundary_angle(x) for x in fixed_points(b))
    for u in (r, s):
        for v in (p, q):
            if abs((u - v + math.pi) % TWO_PI - math.pi) < 1e-12:
                return False      # asymptotic axes meet only at the boundary
    in_arc_r = (r - p) % TWO_PI < (q - p) % TWO_PI
    in_arc_s = (s - p) % TWO_PI < (q - p) % TWO_PI
    return in_arc_r != in_arc_s


class TestBasicMatrices:
    def test_translation_identity(self):
        assert np.allclose(make_translation(0.0), IDENTITY)

    def test_translation_trace(self):
        m = make_translation(2.0)
        assert np.allclose(m, (math.e, 0.0, 0.0, 1.0 / math.e))
        assert mtrace(m) == pytest.approx(2.0 * math.cosh(1.0), abs=1e-12)

    def test_translation_inverse(self):
        assert np.allclose(make_translation(-2.0),
                           minv(make_translation(2.0)))

    def test_rotation_identity(self):
        assert np.allclose(make_rotation(0.0), IDENTITY)

    def test_rotation_pi_is_s(self):
        assert np.allclose(make_rotation(math.pi), (0, 1, -1, 0))
        assert psl2r.S == (0.0, 1.0, -1.0, 0.0)     # exact zeros

    def test_rotation_quarter(self):
        m = make_rotation(math.pi / 2)
        assert mtrace(m) == pytest.approx(math.sqrt(2.0))
        # a rotation by theta moves every boundary angle by theta
        assert lift(m).base == pytest.approx(math.pi / 2)

    def test_translation_rejects_non_finite(self):
        with pytest.raises(PSL2Error):
            make_translation(float("nan"))


class TestWordsAndCommutators:
    def test_commutator_of_equal_is_identity(self):
        a = make_translation(1.3)
        assert np.allclose(commutator(a, a), IDENTITY)

    def test_commutator_translation_rotation(self):
        # S conjugates T_l into T_-l, so the commutator doubles the shift
        c = commutator(make_translation(2.0), make_rotation(math.pi))
        assert np.allclose(c, make_translation(4.0), atol=1e-12)
        assert mtrace(c) == pytest.approx(2 * math.cosh(2.0))

    def test_fricke_identity(self):
        for _ in range(200):
            a = random_hyperbolic(rng)
            b = random_hyperbolic(rng)
            x, y, z = mtrace(a), mtrace(b), mtrace(mmul(a, b))
            lhs = mtrace(commutator(a, b))
            assert lhs == pytest.approx(x * x + y * y + z * z - x * y * z - 2,
                                        abs=1e-9 * max(1, abs(lhs)))


class TestAxesAndCrossing:
    def test_crossing_criterion_equals_trace_sign(self):
        hits = 0
        for _ in range(400):
            a = random_hyperbolic(rng)
            b = random_hyperbolic(rng)
            tr = mtrace(commutator(a, b))
            if abs(tr - 2.0) < 1e-6:
                continue
            crossing = axes_cross(a, b)
            assert crossing == (tr < 2.0)
            hits += 1
        assert hits > 300

    def test_perpendicular_crossing_commutator_trace(self):
        # perpendicular axes: Tr[A,B] = 2 - 4 sinh^2 sinh^2
        for la, lb in ((0.8, 1.1), (1.7, 0.5), (2.2, 2.0)):
            a = make_translation(la)
            b = mmul(psl2r.R_LEFT, make_translation(lb), psl2r.R_RIGHT)
            expect = 2.0 - 4.0 * math.sinh(la / 2) ** 2 * math.sinh(lb / 2) ** 2
            assert mtrace(commutator(a, b)) == pytest.approx(expect, abs=1e-10)


class TestLifts:
    def test_rotation_circle_map(self):
        for theta in (0.4, 1.9, 5.5):
            f = lift(make_rotation(theta))
            assert f.base == pytest.approx(theta % TWO_PI, abs=1e-12)
            for x in np.linspace(0.1, 9.0, 7):
                assert f(x) == pytest.approx(x + (theta % TWO_PI), abs=1e-9)

    def test_lift_monotone_and_equivariant(self):
        m = arr(mmul(random_hyperbolic(rng), make_rotation(0.7)))
        m /= math.copysign(math.sqrt(abs(np.linalg.det(m))),
                           np.linalg.det(m))
        f = lift(quad(m))
        xs = np.linspace(0.0, TWO_PI, 40)
        vals = [f(x) for x in xs]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        for x in xs[:10]:
            assert f(x + TWO_PI) == pytest.approx(f(x) + TWO_PI, abs=1e-9)

    def test_compose_projects_and_deck(self):
        f = lift(make_rotation(1.0))
        g = lift(make_translation(1.3))
        h = lifted_compose(f, g)
        assert np.allclose(h.q, mmul(f.q, g.q))
        deck = LiftedIsometry(IDENTITY, TWO_PI)
        assert lifted_compose(deck, g).base == pytest.approx(g.base + TWO_PI)

    def test_rotation_lifts_add(self):
        f = lift(make_rotation(4.0))
        g = lift(make_rotation(5.0))
        h = lifted_compose(f, g)
        assert h.base == pytest.approx(9.0, abs=1e-9)

    def test_compose_with_identity(self):
        g = lift(make_translation(0.9))
        h = lifted_compose(lift(IDENTITY), g)
        assert h.base == pytest.approx(g.base, abs=1e-12)


class TestMatrixForms:
    """A matrix is a 4-tuple: the entries that take matrices from outside
    the kernel refuse any other form."""

    def test_lifted_isometry_from_ndarray(self):
        with pytest.raises(PSL2Error):
            LiftedIsometry(np.eye(2), TWO_PI)
        deck = LiftedIsometry(IDENTITY, TWO_PI)
        assert deck.q == (1.0, 0.0, 0.0, 1.0)
        assert deck(1.0) == pytest.approx(1.0 + TWO_PI, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.eye(3), [[1.0, 2.0, 3.0]],
                                     np.array([1.0, 0.0, 0.0, 1.0]),
                                     [1.0, 0.0, 0.0, 1.0], (1.0, 0.0, 1.0)],
                             ids=["3x3", "1x3", "flat-array", "flat-list",
                                  "3-tuple"])
    def test_non_2x2_raises(self, bad):
        ok = make_translation(0.5)
        with pytest.raises(PSL2Error):
            lift(bad)
        with pytest.raises(PSL2Error):
            LiftedIsometry(bad, 0.0)
        with pytest.raises(PSL2Error):
            euler_class_closed(ok, ok, ok, bad)

    def test_deviation_of_non_finite_matrix(self):
        m = (1.0, float("nan"), 0.0, 1.0)
        assert psl2r.deviation_from_projective_identity(m) == math.inf


class TestEulerOps:
    def test_identity_images(self):
        e = euler_class_closed(IDENTITY, IDENTITY, IDENTITY, IDENTITY)
        assert e == 0

    def test_relation_violation(self):
        with pytest.raises(PSL2Error):
            euler_class_closed(make_translation(1.0), make_rotation(0.7),
                               make_translation(0.5), make_rotation(0.3))

    def test_lift_choice_independence(self):
        a, b = random_hyperbolic(rng), random_hyperbolic(rng)
        com1 = lifted_commutator(lift(a), lift(b))
        com2 = lifted_commutator(lift(a).deck(3), lift(b).deck(-2))
        assert com1.base == pytest.approx(com2.base, abs=1e-9)

    @pytest.mark.parametrize("p,q", [
        ((1, 1e120, 0, 1), (1, 0, 1e120, 1)),
        ((1, 0, 1e150, 1), (1, 1e150, 0, 1))])
    def test_overflowing_products_raise(self, p, q):
        # the scale is finite, but the commutators overflow to inf - inf:
        # a NaN relator is refused before its angle is rounded
        with pytest.raises(PSL2Error):
            euler_class_closed(p, q, p, q)

    @pytest.mark.parametrize("top", [1e155, 1e300, math.inf])
    def test_relation_scale_overflow_fails_closed(self, top):
        # the square of the largest entry overflows a float: a relator
        # check against an infinite scale would pass anything
        huge = (top, 0.0, 0.0, 1.0 / top)
        with pytest.raises(PSL2Error, match="relator scale overflows"):
            psl2r._relation_scale(huge, (1.0, 0.0, 0.0, 1.0))
        with pytest.raises(PSL2Error):
            euler_class_closed(huge, huge, huge, huge)


class TestHandleSign:
    def test_crossing_axes_plus(self):
        p = make_translation(2.0)
        q = mmul(psl2r.R_LEFT, make_translation(2.0), psl2r.R_RIGHT)
        assert handle_sign(p, q) == 1
        assert mtrace(commutator(p, q)) < 2.0

    def test_disjoint_axes_minus(self):
        # axis of q through the boundary points 5 and 7
        p = make_translation(1.5)
        q = _axis_through(5.0, 7.0, 1.5)
        assert not axes_cross(p, q)
        assert handle_sign(p, q) == -1

    def test_degenerate(self):
        p = make_translation(1.0)
        assert handle_sign(p, p) == "degenerate"

    def test_elliptic_with_hyperbolic_minus(self):
        p = make_rotation(1.0)                       # fixed point i
        q = _axis_through(5.0, 7.0, 1.5)             # axis avoids i
        assert handle_sign(p, q) == -1
