"""Isometry kernel for the hyperbolic plane.

Matrices act on the upper half plane on the left; 2x2 real matrices of
determinant one, taken modulo sign.  Composition of group elements uses the
opposite ordering throughout the package: a word ``uv`` evaluates to the
matrix product ``M(v) M(u)`` (act by u first, then by v), and the commutator
of two elements is ``[A, B] = B^-1 A^-1 B A``, which is a well defined
element of SL(2,R) with an unambiguous trace.

The boundary circle of the disc model is parametrised by an angle in
[0, 2pi); the rotation-by-theta matrix acts on that angle as x -> x + theta
(`circle_position`).  The universal cover is read in its angle model: a
lift is a matrix with a continuous branch of arg(c i + d) (`lift`).
Rotation by theta carries the branch -theta/2, so the deck generator is
the angle shift -pi.

A matrix is a row-major 4-tuple of floats (a, b, c, d) standing for
[[a, b], [c, d]]: every function here takes and returns matrices in that
form, and a product of such tuples costs a fraction of a numpy call on a
2x2 array.  The entries that a caller outside the kernel reaches (`lift`,
`euler_class_closed`, `handle_sign`) check with `_quad` that they were
given a 4-tuple; the arithmetic primitives take one on trust.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

from .tolerances import (DECK_SHIFT_PAD, DECK_SHIFT_TOL, RELATOR_TOL,
                         TRACE_BAND)

TWO_PI = 2.0 * math.pi

Quad = Tuple[float, float, float, float]
AngleLift = Tuple[Quad, float]     # (q, a branch of arg(c i + d))


class PSL2Error(ValueError):
    """Raised when an operation's geometric preconditions fail."""


# ---------------------------------------------------------------------------
# basic matrices
# ---------------------------------------------------------------------------

def _quad(g) -> Quad:
    """`g` itself if it is a matrix, a 4-tuple; PSL2Error otherwise."""
    if type(g) is tuple and len(g) == 4:
        return g
    raise PSL2Error(f"expected a matrix as a 4-tuple (a, b, c, d), got {g!r}")


def mmul(*qs: Quad) -> Quad:
    """Product q_1 q_2 ... q_n, multiplied left to right."""
    a, b, c, d = qs[0]
    for e, f, g, h in qs[1:]:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return (a, b, c, d)


def minv(q: Quad) -> Quad:
    a, b, c, d = q
    return (d, -b, -c, a)


def mtrace(q: Quad) -> float:
    return q[0] + q[3]


def commutator(p: Quad, q: Quad) -> Quad:
    """[P, Q] = Q^-1 P^-1 Q P; sign-unambiguous in SL(2,R)."""
    return mmul(minv(q), minv(p), q, p)


def make_translation(length: float) -> Quad:
    """Translation by `length` along the axis (0, infinity)."""
    if not math.isfinite(length):
        raise PSL2Error("translation length must be finite")
    e = math.exp(length / 2.0)
    return (e, 0.0, 0.0, 1.0 / e)


def make_rotation(theta: float) -> Quad:
    """Rotation by `theta` around the point i."""
    if not math.isfinite(theta):
        raise PSL2Error("rotation angle must be finite")
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return (c, s, -s, c)


IDENTITY = (1.0, 0.0, 0.0, 1.0)
S = (0.0, 1.0, -1.0, 0.0)         # rotation by pi, with exact zeros
R_LEFT = make_rotation(math.pi / 2.0)
R_RIGHT = make_rotation(-math.pi / 2.0)


def deviation_from_projective_identity(q: Quad) -> float:
    """max-norm distance to the nearer of +I, -I; inf for non-finite entries."""
    a, b, c, d = q
    if not math.isfinite(a + b + c + d):
        return math.inf
    off = max(abs(b), abs(c))
    return min(max(abs(a - 1.0), off, abs(d - 1.0)),
               max(abs(a + 1.0), off, abs(d + 1.0)))


# ---------------------------------------------------------------------------
# the boundary circle and the universal cover
# ---------------------------------------------------------------------------

def circle_position(q: Quad, phi: float) -> float:
    """Image in [0, 2pi) of the boundary angle phi under the isometry."""
    a, b, c, d = q
    half = phi / 2.0
    x, y = math.cos(half), -math.sin(half)
    return (-2.0 * math.atan2(c * x + d * y, a * x + b * y)) % TWO_PI


def lift(g: Quad) -> AngleLift:
    """Lift to the universal cover in its angle model: (g, atan2(c, d)),
    the branch of arg(c i + d) in (-pi, pi]."""
    q = _quad(g)
    return q, math.atan2(q[2], q[3])


def _relation_scale(*qs: Quad) -> float:
    """Tolerance scale for relator residuals: floating-point error in a
    product of words grows with the square of the largest entry size.
    Raises PSL2Error where that square overflows a float: no relator check
    can pass or fail on an infinite scale."""
    top = max(abs(x) for q in qs for x in q)
    try:
        scale = max(1.0, top) ** 2
    except OverflowError:
        scale = math.inf
    if scale == math.inf:
        raise PSL2Error(f"relator scale overflows a float: entries reach "
                        f"{top}")
    return scale


def _angle_product(x: AngleLift, y: AngleLift, wraps: list) -> AngleLift:
    """Product of two lifts in the angle model of the universal cover.

    A lift is a pair (q, alpha), alpha a continuous branch of arg(c i + d)
    for q = (a, b, c, d).  The product's branch is alpha + beta + w, where
    w, the argument of the product's c i + d less alpha + beta, is reduced
    into [-pi, pi]: the true w is the change of arg(c z + d) of the first
    matrix from z = i to z = q_y i, and z -> c z + d maps the upper half
    plane into an open half plane, so |w| < pi.  Appends |w| to `wraps`.
    """
    q, alpha = x
    r, beta = y
    q = mmul(q, r)
    w = math.remainder(math.atan2(q[2], q[3]) - alpha - beta, TWO_PI)
    wraps.append(abs(w))
    return q, alpha + beta + w


def _angle_commutator(p: AngleLift, q: AngleLift,
                      wraps: list) -> AngleLift:
    """Lift of [P, Q] = (PQ)^-1 (QP)."""
    (a, b, c, d), alpha = _angle_product(p, q, wraps)
    inverse = ((d, -b, -c, a),
               math.remainder(math.atan2(-c, a) + alpha, TWO_PI) - alpha)
    return _angle_product(inverse, _angle_product(q, p, wraps), wraps)


def euler_class_closed(a1: Quad, b1: Quad, a2: Quad, b2: Quad) -> int:
    """Euler class of a closed genus-2 representation (Milnor algorithm).

    The four matrices are the images of a standard generating quadruple and
    must satisfy the surface relation [a1,b1][a2,b2] = 1 up to sign.  Each
    generator lifts to (g, arg(c i + d)) in the angle model (`lift`), and the
    relator [a2,b2][a1,b1] lifts to (+-I, m pi) whatever the lifts.  The
    deck generator is the angle shift -pi, so the class is -m, calibrated
    so that the Fuchsian gluings take the value -2.

    Raises PSL2Error unless the relator is +-I to RELATOR_TOL times the
    relation scale, moves each boundary angle 0, 1.1, 2.7, 4.4 by at most
    err_tol, and every product's wrap stays more than err_tol inside
    (-pi, pi), where its branch is certain.  A product that overflows
    leaves inf or NaN in the relator, which its check refuses.
    """
    l1, l2, l3, l4 = lifts = [lift(m) for m in (a1, b1, a2, b2)]
    scale = _relation_scale(*(q for q, _ in lifts))
    # boundary angles lose accuracy with the entry size of the words; the
    # padding stays far below the half-turn pi between two branches
    err_tol = min(max(DECK_SHIFT_TOL, DECK_SHIFT_PAD * scale), 0.5)
    wraps: list = []
    rel, angle = _angle_product(_angle_commutator(l3, l4, wraps),
                                _angle_commutator(l1, l2, wraps), wraps)
    if deviation_from_projective_identity(rel) > RELATOR_TOL * scale:
        raise PSL2Error("surface relation violated beyond tolerance")
    shift = max(abs(math.remainder(circle_position(rel, phi) - phi, TWO_PI))
                for phi in (0.0, 1.1, 2.7, 4.4))
    clearance = math.pi - max(wraps)
    if not shift <= err_tol < clearance:
        raise PSL2Error(f"relator moves the boundary by up to {shift:.3g} "
                        f"rad and the smallest wrap clearance is "
                        f"{clearance:.3g} rad, against a bound of "
                        f"{err_tol:.3g} rad")
    return -round(angle / math.pi)


# ---------------------------------------------------------------------------
# traces against 2
# ---------------------------------------------------------------------------

def nonhyperbolic(tr: float) -> bool:
    """The one |tr| <= 2 verdict, up to TRACE_BAND; False for NaN."""
    return abs(tr) <= 2.0 + TRACE_BAND


def side_of_two(x: float) -> int:
    """+1 above 2 + TRACE_BAND, -1 below 2 - TRACE_BAND, else 0 (NaN too)."""
    return (x > 2.0 + TRACE_BAND) - (x < 2.0 - TRACE_BAND)


def handle_sign(p: Quad, q: Quad) -> Union[int, str]:
    """Orientation class of a handle pair, from the commutator trace.

    Returns +1 when Tr[P, Q] < 2 (hyperbolic images with crossing axes),
    -1 when Tr[P, Q] > 2 (disjoint axes, or a non-order-2 elliptic or
    parabolic paired with a hyperbolic avoiding its fixed point), and the
    string "degenerate" inside the tolerance band around 2.
    """
    side = side_of_two(mtrace(commutator(_quad(p), _quad(q))))
    return -side if side else "degenerate"
