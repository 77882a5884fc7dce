import math

import numpy as np
import pytest
from boundary_lifts import boundary_angle, fixed_points
from matrices import quad, random_hyperbolic

from srk import psl2r
from srk.psl2r import (IDENTITY, PSL2Error, circle_position, commutator,
                       euler_class_closed, handle_sign, lift, make_rotation,
                       make_translation, minv, mmul, mtrace, nonhyperbolic,
                       side_of_two)
from srk.tolerances import TRACE_BAND

rng = np.random.default_rng(20240811)

TWO_PI = 2 * math.pi


def _axis_through(p, q, length):
    """Translation by `length` along the geodesic with endpoints p < q."""
    c = np.array([[q, p], [1.0, 1.0]])
    c = quad(c / math.sqrt(abs(np.linalg.det(c))))
    return mmul(c, make_translation(length), minv(c))


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
        assert circle_position(m, 0.0) == pytest.approx(math.pi / 2)

    def test_translation_rejects_non_finite(self):
        with pytest.raises(PSL2Error):
            make_translation(float("nan"))

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_rotation_rejects_non_finite(self, theta):
        with pytest.raises(PSL2Error, match="rotation angle must be finite"):
            make_rotation(theta)


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


class TestAngleLift:
    @pytest.mark.parametrize("theta", [0.0, 0.4, -1.9, 3.0, -5.5, 6.2])
    def test_rotation_lift_is_minus_half_the_angle(self, theta):
        # rotation by theta carries the branch -theta/2 of arg(c i + d),
        # so the deck generator is the angle shift -pi
        m = make_rotation(theta)
        q, alpha = lift(m)
        assert q == m
        assert alpha == pytest.approx(-theta / 2, abs=1e-15)


class TestMatrixForms:
    """A matrix is a 4-tuple: the entries that take matrices from outside
    the kernel refuse any other form."""

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


_HI, _LO = 2.0 + TRACE_BAND, 2.0 - TRACE_BAND


class TestTracesAgainstTwo:
    """The two verdicts on a trace against 2, at the edges of the band."""

    @pytest.mark.parametrize("x, want", [
        (_HI, True), (-_HI, True),
        (math.nextafter(_HI, math.inf), False),
        (math.nextafter(-_HI, -math.inf), False),
        (math.nan, False), (math.inf, False), (-math.inf, False)],
        ids=["edge", "minus-edge", "past-edge", "past-minus-edge", "nan",
             "inf", "minus-inf"])
    def test_nonhyperbolic_edges(self, x, want):
        assert nonhyperbolic(x) is want

    @pytest.mark.parametrize("x, want", [
        (_HI, 0), (_LO, 0), (math.nan, 0),
        (math.nextafter(_HI, math.inf), 1),
        (math.nextafter(_LO, -math.inf), -1),
        (math.inf, 1), (-math.inf, -1)],
        ids=["upper-edge", "lower-edge", "nan", "past-upper-edge",
             "past-lower-edge", "inf", "minus-inf"])
    def test_side_of_two_edges(self, x, want):
        side = side_of_two(x)
        assert type(side) is int and side == want
