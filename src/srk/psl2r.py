"""Isometry kernel for the hyperbolic plane.

Matrices act on the upper half plane on the left; 2x2 real matrices of
determinant one, taken modulo sign.  Composition of group elements uses the
opposite ordering throughout the package: a word ``uv`` evaluates to the
matrix product ``M(v) M(u)`` (act by u first, then by v), and the commutator
of two elements is ``[A, B] = B^-1 A^-1 B A``, which is a well defined
element of SL(2,R) with an unambiguous trace.

The boundary circle of the disc model is parametrised by an angle in
[0, 2pi); the rotation-by-theta matrix acts on that angle as x -> x + theta,
which pins the deck generator of the universal cover to +2pi.

Matrices are accepted as ndarrays, nested sequences, or row-major
4-tuples (a, b, c, d) standing for [[a, b], [c, d]].
The scalar hot paths (lifts, the Milnor algorithm, the pants builders,
the genus-2 curve words and the search) do their 2x2 arithmetic on such
4-tuples of floats, which costs a fraction of a numpy call on a 2x2 array;
ndarrays are converted once, where they enter or leave a public function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from .tolerances import (CROSSING_BAND, DECK_SHIFT_PAD, DECK_SHIFT_TOL,
                         DEGENERATE_PAIR, EIGVEC_INF, ENTRY_ZERO,
                         IDENTITY_BAND, LIFT_SNAP, ORDER_TWO_BAND,
                         RELATOR_TOL, TRACE_BAND)

TWO_PI = 2.0 * math.pi

MatrixLike = Union[np.ndarray, Sequence]
Quad = Tuple[float, float, float, float]


class PSL2Error(ValueError):
    """Raised when an operation's geometric preconditions fail."""


# ---------------------------------------------------------------------------
# basic matrices
# ---------------------------------------------------------------------------

def _as_matrix(g: MatrixLike) -> np.ndarray:
    m = np.asarray(g, dtype=float)
    if type(g) is tuple and m.shape == (4,):
        return m.reshape(2, 2)
    if m.shape != (2, 2):
        raise PSL2Error(f"expected a 2x2 matrix, got shape {m.shape}")
    return m


# 2x2 arithmetic on row-major 4-tuples of floats (a, b, c, d)

def _quad(g: MatrixLike) -> Quad:
    """Entries (a, b, c, d) of a matrix; a 4-tuple of floats passes as is."""
    if type(g) is tuple and len(g) == 4 and type(g[0]) is float:
        return g
    (a, b), (c, d) = _as_matrix(g).tolist()
    return (a, b, c, d)


def _mat(q: Quad) -> np.ndarray:
    return np.array(q, dtype=float).reshape(2, 2)


def _qmul(*qs: Quad) -> Quad:
    """Product q_1 q_2 ... q_n, multiplied left to right as mmul does."""
    a, b, c, d = qs[0]
    for e, f, g, h in qs[1:]:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return (a, b, c, d)


def _qinv(q: Quad) -> Quad:
    a, b, c, d = q
    return (d, -b, -c, a)


def _qtrace(q: Quad) -> float:
    return q[0] + q[3]


def _qcommutator(p: Quad, q: Quad) -> Quad:
    """[P, Q] = Q^-1 P^-1 Q P, as `commutator`."""
    return _qmul(_qinv(q), _qinv(p), q, p)


def _qtranslation(length: float) -> Quad:
    """Translation by `length` along the axis (0, infinity)."""
    if not math.isfinite(length):
        raise PSL2Error("translation length must be finite")
    e = math.exp(length / 2.0)
    return (e, 0.0, 0.0, 1.0 / e)


def _qrotation(theta: float) -> Quad:
    """Rotation by `theta` around the point i."""
    if not math.isfinite(theta):
        raise PSL2Error("rotation angle must be finite")
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return (c, s, -s, c)


def make_translation(length: float) -> np.ndarray:
    """Translation by `length` along the axis (0, infinity)."""
    return _mat(_qtranslation(length))


def make_rotation(theta: float) -> np.ndarray:
    """Rotation by `theta` around the point i."""
    return _mat(_qrotation(theta))


S = _mat((0.0, 1.0, -1.0, 0.0))   # rotation by pi, with exact zeros
R_LEFT = make_rotation(math.pi / 2.0)
R_RIGHT = make_rotation(-math.pi / 2.0)
IDENTITY = np.eye(2)


def mmul(*ms: MatrixLike) -> np.ndarray:
    out = IDENTITY
    for m in ms:
        out = out @ _as_matrix(m)
    return out


def minv(g: MatrixLike) -> np.ndarray:
    m = _as_matrix(g)
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def mtrace(g: MatrixLike) -> float:
    m = _as_matrix(g)
    return float(m[0, 0] + m[1, 1])


def deviation_from_projective_identity(g: MatrixLike) -> float:
    """max-norm distance to the nearer of +I, -I; inf for non-finite entries."""
    a, b, c, d = _quad(g)
    if not math.isfinite(a + b + c + d):
        return math.inf
    off = max(abs(b), abs(c))
    return min(max(abs(a - 1.0), off, abs(d - 1.0)),
               max(abs(a + 1.0), off, abs(d + 1.0)))


def commutator(a: MatrixLike, b: MatrixLike) -> np.ndarray:
    """[A, B] = B^-1 A^-1 B A; sign-unambiguous in SL(2,R)."""
    return _mat(_qcommutator(_quad(a), _quad(b)))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Elliptic:
    angle: float                  # rotation angle in (0, 2*pi)
    fixed_point: complex          # in the upper half plane


@dataclass(frozen=True)
class Parabolic:
    boundary_fixed_point: float   # in R, or math.inf


@dataclass(frozen=True)
class Hyperbolic:
    displacement: float
    axis: Tuple[float, float]     # (repelling, attracting) boundary points


IsometryClass = Union[Identity, Elliptic, Parabolic, Hyperbolic]


def _fixed_boundary_points(m: np.ndarray) -> List[float]:
    """Real fixed points of the Moebius action, infinity as math.inf."""
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    if abs(c) < ENTRY_ZERO:
        pts = [math.inf]
        if abs(a - d) > ENTRY_ZERO:
            pts.append(b / (d - a))
        return pts
    disc = (a - d) ** 2 + 4.0 * b * c     # = tr^2 - 4
    if disc < 0.0:
        return []
    r = math.sqrt(max(disc, 0.0))
    return [((a - d) - r) / (2.0 * c), ((a - d) + r) / (2.0 * c)]


def _conjugate_fixed_point_to_i(z: complex) -> np.ndarray:
    """Matrix g with g(z) = i for z in the upper half plane."""
    shift = np.array([[1.0, -z.real], [0.0, 1.0]])
    s = math.sqrt(z.imag)
    scale = np.array([[1.0 / s, 0.0], [0.0, s]])
    return scale @ shift


def classify(g: MatrixLike) -> IsometryClass:
    """Trichotomy by |tr| against 2, with geometric data from eigenvectors."""
    m = _as_matrix(g)
    if deviation_from_projective_identity(m) <= IDENTITY_BAND:
        return Identity()
    tr = mtrace(m)
    if abs(tr) > 2.0 + TRACE_BAND:
        lam = 2.0 * math.acosh(abs(tr) / 2.0)
        evals, evecs = np.linalg.eig(m)
        order = np.argsort(np.abs(evals))        # [repelling, attracting]
        pts = []
        for idx in order:
            v = np.real(evecs[:, idx])
            pts.append(math.inf if abs(v[1]) < EIGVEC_INF * abs(v[0])
                       else v[0] / v[1])
        return Hyperbolic(displacement=lam, axis=(pts[0], pts[1]))
    if abs(tr) >= 2.0 - TRACE_BAND:
        pts = _fixed_boundary_points(m)
        return Parabolic(boundary_fixed_point=pts[0])
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    # c vanishes only for matrices with real spectrum, never for elliptics
    im = math.sqrt(4.0 - tr * tr) / (2.0 * abs(c))
    z = complex((a - d) / (2.0 * c), im)
    conj = _conjugate_fixed_point_to_i(z)
    r = conj @ m @ minv(conj)
    theta = 2.0 * math.atan2(r[0, 1], r[0, 0])
    theta %= TWO_PI
    return Elliptic(angle=theta, fixed_point=z)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

Word = Union[str, Iterable[Tuple[str, int]]]


def word_letters(word: Word) -> List[Tuple[str, int]]:
    """Normalise a word to (letter, +-1) tokens.

    A plain string is read one character at a time, uppercase meaning the
    inverse letter.  Any other iterable must yield (name, exponent) pairs;
    exponents may be arbitrary integers.
    """
    letters: List[Tuple[str, int]] = []
    if isinstance(word, str):
        for ch in word:
            if ch.isspace():
                continue
            if ch.isupper():
                letters.append((ch.lower(), -1))
            else:
                letters.append((ch, 1))
        return letters
    for name, exp in word:
        exp = int(exp)
        if exp == 0:
            continue
        sgn = 1 if exp > 0 else -1
        letters.extend([(name, sgn)] * abs(exp))
    return letters


def evaluate_word(images: Dict[str, MatrixLike], word: Word) -> np.ndarray:
    """Evaluate a word under the reversed convention.

    Concatenation uv maps to the matrix product M(v) M(u): the first letter
    of the word is the rightmost factor.
    """
    out = IDENTITY
    for name, sgn in word_letters(word):
        if name not in images:
            raise PSL2Error(f"unbound letter {name!r}")
        m = _as_matrix(images[name])
        out = (m if sgn > 0 else minv(m)) @ out
    return out


# ---------------------------------------------------------------------------
# commutator geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EllipticComm:
    quarter_angle: float
    crossing: float


@dataclass(frozen=True)
class ParabolicComm:
    crossing: float


@dataclass(frozen=True)
class HyperbolicComm:
    quarter_displacement: float
    crossing: float


CommutatorGeometry = Union[EllipticComm, ParabolicComm, HyperbolicComm]


def commutator_geometry(lam_a: float, lam_b: float) -> CommutatorGeometry:
    """Commutator type for perpendicularly crossing axes.

    The crossing datum is p = sinh(lam_a/2) sinh(lam_b/2); the commutator is
    elliptic, parabolic or hyperbolic according to p < 1, p = 1, p > 1, with
    quarter angle arccos(p) resp. quarter displacement arccosh(p).
    """
    if lam_a <= 0.0 or lam_b <= 0.0:
        raise PSL2Error("displacements must be positive")
    p = math.sinh(lam_a / 2.0) * math.sinh(lam_b / 2.0)
    if p < 1.0 - CROSSING_BAND:
        return EllipticComm(quarter_angle=math.acos(p), crossing=p)
    if p > 1.0 + CROSSING_BAND:
        return HyperbolicComm(quarter_displacement=math.acosh(p), crossing=p)
    return ParabolicComm(crossing=p)


# ---------------------------------------------------------------------------
# boundary circle lifts
# ---------------------------------------------------------------------------

def boundary_angle(x: float) -> float:
    """Disc-model boundary angle of a real point (or math.inf)."""
    if math.isinf(x):
        return (-2.0 * math.atan2(0.0, 1.0)) % TWO_PI   # direction (1, 0)
    return (-2.0 * math.atan2(1.0, x)) % TWO_PI


def circle_position(g: MatrixLike, phi: float) -> float:
    """Image in [0, 2pi) of the boundary angle phi under the isometry."""
    a, b, c, d = _quad(g)
    half = phi / 2.0
    x, y = math.cos(half), -math.sin(half)
    return (-2.0 * math.atan2(c * x + d * y, a * x + b * y)) % TWO_PI


class LiftedIsometry:
    """Lift to the universal cover: isometry plus base value f~(0).

    The full lifted map is reconstructed from monotonicity; composing with
    the deck generator adds exactly 2pi to the base.  The isometry is held
    as the row-major 4-tuple `q`, on which all lift arithmetic works; the
    constructor accepts any matrix form and converts it once, and `m`
    returns the isometry as an ndarray.  Operations return new lifts and
    never modify their arguments.
    """

    __slots__ = ("q", "base")

    def __init__(self, m: MatrixLike, base: float) -> None:
        self.q: Quad = _quad(m)
        self.base = base

    def __repr__(self) -> str:
        return f"LiftedIsometry(q={self.q!r}, base={self.base!r})"

    @property
    def m(self) -> np.ndarray:
        return _mat(self.q)

    def __call__(self, y: float) -> float:
        k = round(y / TWO_PI)
        if abs(y - k * TWO_PI) < LIFT_SNAP:
            return k * TWO_PI + self.base
        mdiv, r = divmod(y, TWO_PI)
        adv = (circle_position(self.q, r) - circle_position(self.q, 0.0)) % TWO_PI
        return mdiv * TWO_PI + self.base + adv

    def deck(self, k: int) -> "LiftedIsometry":
        return LiftedIsometry(self.q, self.base + k * TWO_PI)


def lift(g: MatrixLike, kind: str = "base") -> LiftedIsometry:
    """Lift with base in [0, 2pi), or the canonical lift of a hyperbolic.

    kind="canonical" requires a hyperbolic element (or the identity) and
    returns the lift fixing its boundary fixed points, with translation
    number zero.
    """
    q = _quad(g)
    base = circle_position(q, 0.0)
    if kind == "base":
        return LiftedIsometry(q, base)
    if kind != "canonical":
        raise PSL2Error(f"unknown lift kind {kind!r}")
    cl = classify(q)
    if isinstance(cl, Identity):
        return LiftedIsometry(q, 0.0)
    if not isinstance(cl, Hyperbolic):
        raise PSL2Error("canonical lifts exist only for hyperbolic elements")
    phi = boundary_angle(cl.axis[1])
    f0 = LiftedIsometry(q, base)
    k = round((f0(phi) - phi) / TWO_PI)
    return LiftedIsometry(q, base - k * TWO_PI)


def lifted_compose(f: LiftedIsometry, g: LiftedIsometry) -> LiftedIsometry:
    """Composite lift x -> f~(g~(x)); projects to the matrix product."""
    return LiftedIsometry(_qmul(f.q, g.q), f(g.base))


def lifted_inverse(f: LiftedIsometry) -> LiftedIsometry:
    q = _qinv(f.q)
    g0 = LiftedIsometry(q, circle_position(q, 0.0))
    k = round(g0(f.base) / TWO_PI)
    return g0.deck(-k)


def lifted_commutator(fa: LiftedIsometry, fb: LiftedIsometry) -> LiftedIsometry:
    """Lift of [A, B] = (AB)^-1 BA; independent of the deck choices."""
    return lifted_compose(lifted_inverse(lifted_compose(fa, fb)),
                          lifted_compose(fb, fa))


def _relation_scale(*ms: MatrixLike) -> float:
    """Tolerance scale for relator residuals: floating-point error in a
    product of words grows with the square of the largest entry size.
    Raises PSL2Error where that square overflows a float: no relator check
    can pass or fail on an infinite scale."""
    top = max(abs(x) for m in ms for x in _quad(m))
    try:
        scale = max(1.0, top) ** 2
    except OverflowError:
        scale = math.inf
    if scale == math.inf:
        raise PSL2Error(f"relator scale overflows a float: entries reach "
                        f"{top}")
    return scale


def _deck_power(l: LiftedIsometry, scale: float = 1.0) -> int:
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


def euler_class_closed(a1: MatrixLike, b1: MatrixLike,
                       a2: MatrixLike, b2: MatrixLike) -> int:
    """Euler class of a closed genus-2 representation (Milnor algorithm).

    The four matrices are the images of a standard generating quadruple and
    must satisfy the surface relation [a1,b1][a2,b2] = 1 up to sign.  The
    lifted relator is a deck power, independent of the choice of lifts; the
    sign is calibrated so that the Fuchsian gluings take the value -2.
    The matrices may come in any accepted form; they are converted to
    4-tuples once, here, and the lifts and the relator are computed on
    4-tuples throughout.
    """
    qa1, qb1, qa2, qb2 = (_quad(m) for m in (a1, b1, a2, b2))
    scale = _relation_scale(qa1, qb1, qa2, qb2)
    rel = lifted_compose(lifted_commutator(lift(qa2), lift(qb2)),
                         lifted_commutator(lift(qa1), lift(qb1)))
    if deviation_from_projective_identity(rel.q) > RELATOR_TOL * scale:
        raise PSL2Error("surface relation violated beyond tolerance")
    return _deck_power(rel, scale)


def euler_class_relative(handles: Sequence[Tuple[MatrixLike, MatrixLike]],
                         boundaries: Sequence[MatrixLike]) -> int:
    """Relative Euler class, canonical lifts on the boundary images.

    `handles` holds the images (A_i, B_i) of the interior handle generators
    (arbitrary lifts), `boundaries` the images of the boundary curves, each
    of which must be hyperbolic.  Computes the deck power of
    C~_n ... C~_1 [A~_g, B~_g] ... [A~_1, B~_1].
    """
    if not boundaries:
        raise PSL2Error("relative Euler class needs at least one boundary")
    handles = [(_quad(am), _quad(bm)) for am, bm in handles]
    boundaries = [_quad(c) for c in boundaries]
    for c in boundaries:
        if not isinstance(classify(c), Hyperbolic):
            raise PSL2Error("boundary image is not hyperbolic")
    scale = _relation_scale(*boundaries, *(m for pair in handles for m in pair))
    rel = None
    for am, bm in handles:
        com = lifted_commutator(lift(am), lift(bm))
        rel = com if rel is None else lifted_compose(com, rel)
    for c in boundaries:
        lc = lift(c, kind="canonical")
        rel = lc if rel is None else lifted_compose(lc, rel)
    return _deck_power(rel, scale)


# ---------------------------------------------------------------------------
# handle sign, elliptic powers
# ---------------------------------------------------------------------------

def handle_sign(p: MatrixLike, q: MatrixLike) -> Union[int, str]:
    """Orientation class of a handle pair, from the commutator trace.

    Returns +1 when Tr[P, Q] < 2 (hyperbolic images with crossing axes),
    -1 when Tr[P, Q] > 2 (disjoint axes, or a non-order-2 elliptic or
    parabolic paired with a hyperbolic avoiding its fixed point), and the
    string "degenerate" inside the tolerance band around 2.
    """
    c = mtrace(commutator(p, q))
    if c < 2.0 - TRACE_BAND:
        return 1
    if c > 2.0 + TRACE_BAND:
        return -1
    return "degenerate"


def elliptic_power(a: MatrixLike, b: MatrixLike, search_bound: int = 50) -> int:
    """Smallest |n| with B A^n elliptic and not of order two.

    A must be elliptic; writing A as a rotation in an adapted basis with
    B = [[x, y], [z, t]] there, the trace of B A^n is
    (x + t) cos(n alpha) + (z - y) sin(n alpha).
    """
    am = _as_matrix(a)
    cl = classify(am)
    if not isinstance(cl, Elliptic):
        raise PSL2Error("first element must be elliptic")
    conj = _conjugate_fixed_point_to_i(cl.fixed_point)
    bp = conj @ _as_matrix(b) @ minv(conj)
    ap = conj @ am @ minv(conj)
    alpha = math.atan2(ap[0, 1], ap[0, 0])
    u = bp[0, 0] + bp[1, 1]
    v = bp[1, 0] - bp[0, 1]
    if math.hypot(u, v) < DEGENERATE_PAIR:
        raise PSL2Error("degenerate pair: (x + t, z - y) = (0, 0)")
    for k in range(search_bound + 1):
        for n in ([0] if k == 0 else [k, -k]):
            tr = u * math.cos(n * alpha) + v * math.sin(n * alpha)
            if ORDER_TWO_BAND < abs(tr) < 2.0 - TRACE_BAND:
                return n
    raise PSL2Error(f"no elliptic power found within |n| <= {search_bound}")
