"""Boundary-circle lifts: the Euler class oracles of the tests.

A lift of an isometry to the universal cover of the boundary circle is
held as the matrix and its base value f~(0) (`LiftedIsometry`); the deck
generator adds 2pi.  `milnor_euler_class` is the Milnor sum on these
lifted circle maps, the reference that `psl2r.euler_class_closed`'s angle
model is held against.

A hyperbolic element has one lift to the universal cover of the boundary
circle that fixes its two boundary fixed points.  The relative Euler class
of a bordered representation is the deck power of the product of these
canonical lifts of the boundary images; relative classes add when pants
are glued.  The fixed points come from numpy's eigenvectors, not from srk.
"""

import math

import numpy as np
from matrices import arr

from srk.psl2r import (TWO_PI, PSL2Error, _quad, _relation_scale,
                       circle_position, deviation_from_projective_identity,
                       minv, mmul)
from srk.tolerances import DECK_SHIFT_PAD, DECK_SHIFT_TOL, RELATOR_TOL

# distance of a lift's argument from 2*pi*Z read as an exact deck multiple
LIFT_SNAP = 1e-9


class LiftedIsometry:
    """Lift to the universal cover: isometry plus base value f~(0).

    The full lifted map is reconstructed from monotonicity; composing with
    the deck generator adds exactly 2pi to the base.  The isometry is held
    as the matrix `q`.  Operations return new lifts and never modify their
    arguments.
    """

    __slots__ = ("q", "base")

    def __init__(self, q, base):
        self.q = _quad(q)
        self.base = base

    def __repr__(self):
        return f"LiftedIsometry(q={self.q!r}, base={self.base!r})"

    def __call__(self, y):
        k = round(y / TWO_PI)
        if abs(y - k * TWO_PI) < LIFT_SNAP:
            return k * TWO_PI + self.base
        mdiv, r = divmod(y, TWO_PI)
        adv = (circle_position(self.q, r)
               - circle_position(self.q, 0.0)) % TWO_PI
        return mdiv * TWO_PI + self.base + adv

    def deck(self, k):
        return LiftedIsometry(self.q, self.base + k * TWO_PI)


def circle_lift(g):
    """Lift with base in [0, 2pi)."""
    q = _quad(g)
    return LiftedIsometry(q, circle_position(q, 0.0))


def lifted_compose(f, g):
    """Composite lift x -> f~(g~(x)); projects to the matrix product."""
    return LiftedIsometry(mmul(f.q, g.q), f(g.base))


def lifted_inverse(f):
    g0 = circle_lift(minv(f.q))
    k = round(g0(f.base) / TWO_PI)
    return g0.deck(-k)


def lifted_commutator(fa, fb):
    """Lift of [A, B] = (AB)^-1 BA; independent of the deck choices."""
    return lifted_compose(lifted_inverse(lifted_compose(fa, fb)),
                          lifted_compose(fb, fa))


def deck_power(l, scale=1.0):
    """Integer k with l = deck^k, by consensus over several sample points."""
    if deviation_from_projective_identity(l.q) > RELATOR_TOL * scale:
        raise PSL2Error("lifted element does not project to the identity")
    shifts = [l.base] + [l(x) - x for x in (1.1, 2.7, 4.4)]
    ks = {round(s / TWO_PI) for s in shifts}
    # boundary angles lose accuracy with the entry size of the words
    # feeding the lift; the padding stays far below the deck gap 2*pi, and
    # the projection to +-identity has already been verified above
    err_tol = min(max(DECK_SHIFT_TOL, DECK_SHIFT_PAD * scale), 0.5)
    err = max(abs(s - round(s / TWO_PI) * TWO_PI) for s in shifts)
    if len(ks) != 1 or err > err_tol:
        raise PSL2Error(f"lifted shift {shifts} is not a consistent deck power")
    return ks.pop()


def milnor_euler_class(a1, b1, a2, b2):
    """Euler class of a closed genus-2 representation by lifted circle
    maps: the deck power of the lifted relator [a2,b2][a1,b1], each
    commutator lifted as (PQ)^-1 (QP).  The Fuchsian gluings read -2."""
    rel = lifted_compose(lifted_commutator(circle_lift(a2), circle_lift(b2)),
                         lifted_commutator(circle_lift(a1), circle_lift(b1)))
    return deck_power(rel, _relation_scale(a1, b1, a2, b2))


def fixed_points(g):
    """(repelling, attracting) boundary fixed points of a hyperbolic g, as
    reals or math.inf."""
    m = arr(g)
    if abs(np.trace(m)) <= 2.0:
        raise ValueError(f"{g} is not hyperbolic")
    w, v = np.linalg.eig(m)
    # the eigenvector (x, y) spans the fixed point x / y; the attracting
    # one has the eigenvalue of larger modulus
    return tuple(math.inf if v[1, k] == 0.0 else v[0, k] / v[1, k]
                 for k in np.argsort(np.abs(w)))


def boundary_angle(x):
    """Disc-model boundary angle of a real point (or math.inf)."""
    if math.isinf(x):
        return 0.0
    return (-2.0 * math.atan2(1.0, x)) % TWO_PI


def canonical_lift(g):
    """The lift of a hyperbolic g that fixes its boundary fixed points,
    with translation number zero."""
    f = circle_lift(g)
    phi = boundary_angle(fixed_points(g)[1])
    return f.deck(-round((f(phi) - phi) / TWO_PI))


def euler_class_relative(boundaries):
    """Relative Euler class of a surface without handles: the deck power
    of C~_1 C~_2 ... C~_n, the canonical lifts of the boundary images C_i
    composed as maps (C~_n acts first)."""
    rel = canonical_lift(boundaries[0])
    for c in boundaries[1:]:
        rel = lifted_compose(rel, canonical_lift(c))
    return deck_power(rel, _relation_scale(*boundaries))
