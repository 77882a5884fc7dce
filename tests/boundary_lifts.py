"""Boundary-circle lifts: the Euler class oracles of the tests.

`milnor_euler_class` is the Milnor sum on lifted circle maps, the reference
that `psl2r.euler_class_closed`'s angle model is held against.

A hyperbolic element has one lift to the universal cover of the boundary
circle that fixes its two boundary fixed points.  The relative Euler class
of a bordered representation is the deck power of the product of these
canonical lifts of the boundary images; relative classes add when pants
are glued.  The fixed points come from numpy's eigenvectors, not from srk.
"""

import math

import numpy as np
from matrices import arr

from srk.psl2r import (TWO_PI, _deck_power, _relation_scale, lift,
                       lifted_commutator, lifted_compose)


def milnor_euler_class(a1, b1, a2, b2):
    """Euler class of a closed genus-2 representation by lifted circle
    maps: the deck power of the lifted relator [a2,b2][a1,b1], each
    commutator lifted as (PQ)^-1 (QP).  The Fuchsian gluings read -2."""
    rel = lifted_compose(lifted_commutator(lift(a2), lift(b2)),
                         lifted_commutator(lift(a1), lift(b1)))
    return _deck_power(rel, _relation_scale(a1, b1, a2, b2))


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
    f = lift(g)
    phi = boundary_angle(fixed_points(g)[1])
    return f.deck(-round((f(phi) - phi) / TWO_PI))


def euler_class_relative(boundaries):
    """Relative Euler class of a surface without handles: the deck power
    of C~_1 C~_2 ... C~_n, the canonical lifts of the boundary images C_i
    composed as maps (C~_n acts first)."""
    rel = canonical_lift(boundaries[0])
    for c in boundaries[1:]:
        rel = lifted_compose(rel, canonical_lift(c))
    return _deck_power(rel, _relation_scale(*boundaries))
