"""The boundary-circle lifts of `boundary_lifts`, the tests' Euler class
oracle: circle maps, composition, deck shifts and lifted commutators."""

import math

import numpy as np
import pytest
from boundary_lifts import (LiftedIsometry, circle_lift, lifted_commutator,
                            lifted_compose)
from matrices import arr, quad, random_hyperbolic

from srk.psl2r import (IDENTITY, PSL2Error, make_rotation, make_translation,
                       mmul)

rng = np.random.default_rng(20240811)

TWO_PI = 2 * math.pi


class TestLifts:
    def test_rotation_circle_map(self):
        for theta in (0.4, 1.9, 5.5):
            f = circle_lift(make_rotation(theta))
            assert f.base == pytest.approx(theta % TWO_PI, abs=1e-12)
            for x in np.linspace(0.1, 9.0, 7):
                assert f(x) == pytest.approx(x + (theta % TWO_PI), abs=1e-9)

    def test_lift_monotone_and_equivariant(self):
        m = arr(mmul(random_hyperbolic(rng), make_rotation(0.7)))
        m /= math.copysign(math.sqrt(abs(np.linalg.det(m))),
                           np.linalg.det(m))
        f = circle_lift(quad(m))
        xs = np.linspace(0.0, TWO_PI, 40)
        vals = [f(x) for x in xs]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        for x in xs[:10]:
            assert f(x + TWO_PI) == pytest.approx(f(x) + TWO_PI, abs=1e-9)

    def test_compose_projects_and_deck(self):
        f = circle_lift(make_rotation(1.0))
        g = circle_lift(make_translation(1.3))
        h = lifted_compose(f, g)
        assert np.allclose(h.q, mmul(f.q, g.q))
        deck = LiftedIsometry(IDENTITY, TWO_PI)
        assert lifted_compose(deck, g).base == pytest.approx(g.base + TWO_PI)

    def test_rotation_lifts_add(self):
        f = circle_lift(make_rotation(4.0))
        g = circle_lift(make_rotation(5.0))
        h = lifted_compose(f, g)
        assert h.base == pytest.approx(9.0, abs=1e-9)

    def test_compose_with_identity(self):
        g = circle_lift(make_translation(0.9))
        h = lifted_compose(circle_lift(IDENTITY), g)
        assert h.base == pytest.approx(g.base, abs=1e-12)

    def test_lift_choice_independence(self):
        a, b = random_hyperbolic(rng), random_hyperbolic(rng)
        com1 = lifted_commutator(circle_lift(a), circle_lift(b))
        com2 = lifted_commutator(circle_lift(a).deck(3),
                                 circle_lift(b).deck(-2))
        assert com1.base == pytest.approx(com2.base, abs=1e-9)


class TestMatrixForms:
    """A lift holds a 4-tuple matrix and refuses any other form."""

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
        with pytest.raises(PSL2Error):
            circle_lift(bad)
        with pytest.raises(PSL2Error):
            LiftedIsometry(bad, 0.0)
