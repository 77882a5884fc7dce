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

All 2x2 arithmetic is done on row-major 4-tuples of floats (a, b, c, d)
standing for [[a, b], [c, d]]; a product of such tuples costs a fraction of
a numpy call on a 2x2 array.  ndarrays are only a boundary format: a public
function accepts an ndarray, a nested sequence or a 4-tuple, converts it
once with `_quad`, and returns an ndarray made by `_mat` where it returns a
matrix.  numpy is imported only inside `_as_matrix` and `_mat`, so importing
this module, and every computation on 4-tuples, loads no numpy; the ndarray
constants `S`, `R_LEFT` and `R_RIGHT` are built on first access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple,
                    Union)

from .tolerances import (CROSSING_BAND, DECK_SHIFT_PAD, DECK_SHIFT_TOL,
                         DEGENERATE_PAIR, ENTRY_ZERO,
                         IDENTITY_BAND, LIFT_SNAP, ORDER_TWO_BAND,
                         RELATOR_TOL, TRACE_BAND)

TWO_PI = 2.0 * math.pi

Quad = Tuple[float, float, float, float]

if TYPE_CHECKING:
    import numpy as np
    Matrix = np.ndarray
    MatrixLike = Union[Matrix, Sequence]


class PSL2Error(ValueError):
    """Raised when an operation's geometric preconditions fail."""


# ---------------------------------------------------------------------------
# basic matrices
# ---------------------------------------------------------------------------

def _as_matrix(g: MatrixLike) -> Matrix:
    import numpy as np
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


def _mat(q: Quad) -> Matrix:
    import numpy as np
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


def make_translation(length: float) -> Matrix:
    """Translation by `length` along the axis (0, infinity)."""
    return _mat(_qtranslation(length))


def make_rotation(theta: float) -> Matrix:
    """Rotation by `theta` around the point i."""
    return _mat(_qrotation(theta))


_IDENTITY = (1.0, 0.0, 0.0, 1.0)
_S = (0.0, 1.0, -1.0, 0.0)        # rotation by pi, with exact zeros
_R_LEFT = _qrotation(math.pi / 2.0)
_R_RIGHT = _qrotation(-math.pi / 2.0)
_CONSTANTS = {"S": _S, "R_LEFT": _R_LEFT, "R_RIGHT": _R_RIGHT}


def __getattr__(name: str) -> Matrix:
    """The ndarray constants `S`, `R_LEFT` and `R_RIGHT`, made by `_mat`
    on first access and then kept as module attributes."""
    if name not in _CONSTANTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    m = globals()[name] = _mat(_CONSTANTS[name])
    return m


def mmul(*ms: MatrixLike) -> Matrix:
    return _mat(_qmul(_IDENTITY, *(_quad(m) for m in ms)))


def minv(g: MatrixLike) -> Matrix:
    return _mat(_qinv(_quad(g)))


def mtrace(g: MatrixLike) -> float:
    return _qtrace(_quad(g))


def deviation_from_projective_identity(g: MatrixLike) -> float:
    """max-norm distance to the nearer of +I, -I; inf for non-finite entries."""
    return _qdeviation(_quad(g))


def _qdeviation(q: Quad) -> float:
    """`deviation_from_projective_identity` of a 4-tuple."""
    a, b, c, d = q
    if not math.isfinite(a + b + c + d):
        return math.inf
    off = max(abs(b), abs(c))
    return min(max(abs(a - 1.0), off, abs(d - 1.0)),
               max(abs(a + 1.0), off, abs(d + 1.0)))


def commutator(a: MatrixLike, b: MatrixLike) -> Matrix:
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


def _fixed_boundary_points(q: Quad) -> List[float]:
    """Real fixed points of the Moebius action, infinity as math.inf.  A
    discriminant that rounds below zero (a parabolic read within
    TRACE_BAND) counts as zero."""
    a, b, c, d = q
    if abs(c) < ENTRY_ZERO:
        pts = [math.inf]
        if abs(a - d) > ENTRY_ZERO:
            pts.append(b / (d - a))
        return pts
    r = math.sqrt(max((a - d) ** 2 + 4.0 * b * c, 0.0))   # sqrt(tr^2 - 4)
    # roots of c x^2 + (d - a) x - b, without cancellation in either
    h = ((a - d) + math.copysign(r, a - d)) / 2.0
    return [h / c, -b / h] if h else [0.0]


def _conjugate_fixed_point_to_i(z: complex) -> Quad:
    """Matrix g with g(z) = i for z in the upper half plane."""
    s = math.sqrt(z.imag)
    return (1.0 / s, -z.real / s, 0.0, s)


def classify(g: MatrixLike) -> IsometryClass:
    """Trichotomy by |tr| against 2, with the geometric data."""
    q = _quad(g)
    if _qdeviation(q) <= IDENTITY_BAND:
        return Identity()
    a, b, c, d = q
    tr = a + d
    if abs(tr) > 2.0 + TRACE_BAND:
        lam = 2.0 * math.acosh(abs(tr) / 2.0)
        # the eigenvalue at a fixed point x is c x + d (a at infinity):
        # the repelling point has the smaller modulus
        pts = sorted(_fixed_boundary_points(q),
                     key=lambda x: abs(a if math.isinf(x) else c * x + d))
        return Hyperbolic(displacement=lam, axis=(pts[0], pts[1]))
    if abs(tr) >= 2.0 - TRACE_BAND:
        pts = _fixed_boundary_points(q)
        return Parabolic(boundary_fixed_point=pts[0])
    # c vanishes only for matrices with real spectrum, never for elliptics
    im = math.sqrt(4.0 - tr * tr) / (2.0 * abs(c))
    z = complex((a - d) / (2.0 * c), im)
    conj = _conjugate_fixed_point_to_i(z)
    r = _qmul(conj, q, _qinv(conj))
    theta = 2.0 * math.atan2(r[1], r[0])
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


def evaluate_word(images: Dict[str, MatrixLike], word: Word) -> Matrix:
    """Evaluate a word under the reversed convention.

    Concatenation uv maps to the matrix product M(v) M(u): the first letter
    of the word is the rightmost factor.
    """
    quads = {name: _quad(m) for name, m in images.items()}
    out = _IDENTITY
    for name, sgn in word_letters(word):
        if name not in quads:
            raise PSL2Error(f"unbound letter {name!r}")
        q = quads[name]
        out = _qmul(q if sgn > 0 else _qinv(q), out)
    return _mat(out)


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
    return _qcircle_position(_quad(g), phi)


def _qcircle_position(q: Quad, phi: float) -> float:
    """`circle_position` of a 4-tuple."""
    a, b, c, d = q
    half = phi / 2.0
    x, y = math.cos(half), -math.sin(half)
    return (-2.0 * math.atan2(c * x + d * y, a * x + b * y)) % TWO_PI


class LiftedIsometry:
    """Lift to the universal cover: isometry plus base value f~(0).

    The full lifted map is reconstructed from monotonicity; composing with
    the deck generator adds exactly 2pi to the base.  The isometry is held
    as the row-major 4-tuple `q`, on which all lift arithmetic works; the
    constructor accepts any matrix form and converts it once (`_qlifted`
    takes a 4-tuple as is), and `m` returns the isometry as an ndarray.
    Operations return new lifts and never modify their arguments.
    """

    __slots__ = ("q", "base")

    def __init__(self, m: MatrixLike, base: float) -> None:
        self.q: Quad = _quad(m)
        self.base = base

    def __repr__(self) -> str:
        return f"LiftedIsometry(q={self.q!r}, base={self.base!r})"

    @property
    def m(self) -> Matrix:
        return _mat(self.q)

    def __call__(self, y: float) -> float:
        k = round(y / TWO_PI)
        if abs(y - k * TWO_PI) < LIFT_SNAP:
            return k * TWO_PI + self.base
        mdiv, r = divmod(y, TWO_PI)
        adv = (_qcircle_position(self.q, r)
               - _qcircle_position(self.q, 0.0)) % TWO_PI
        return mdiv * TWO_PI + self.base + adv

    def deck(self, k: int) -> "LiftedIsometry":
        return _qlifted(self.q, self.base + k * TWO_PI)


def _qlifted(q: Quad, base: float) -> LiftedIsometry:
    """`LiftedIsometry(q, base)` for a 4-tuple q, taken as is."""
    f = object.__new__(LiftedIsometry)
    f.q, f.base = q, base
    return f


def lift(g: MatrixLike, kind: str = "base") -> LiftedIsometry:
    """Lift with base in [0, 2pi), or the canonical lift of a hyperbolic.

    kind="canonical" requires a hyperbolic element (or the identity) and
    returns the lift fixing its boundary fixed points, with translation
    number zero.
    """
    q = _quad(g)
    base = _qcircle_position(q, 0.0)
    if kind == "base":
        return _qlifted(q, base)
    if kind != "canonical":
        raise PSL2Error(f"unknown lift kind {kind!r}")
    cl = classify(q)
    if isinstance(cl, Identity):
        return _qlifted(q, 0.0)
    if not isinstance(cl, Hyperbolic):
        raise PSL2Error("canonical lifts exist only for hyperbolic elements")
    phi = boundary_angle(cl.axis[1])
    f0 = _qlifted(q, base)
    k = round((f0(phi) - phi) / TWO_PI)
    return _qlifted(q, base - k * TWO_PI)


def lifted_compose(f: LiftedIsometry, g: LiftedIsometry) -> LiftedIsometry:
    """Composite lift x -> f~(g~(x)); projects to the matrix product."""
    return _qlifted(_qmul(f.q, g.q), f(g.base))


def lifted_inverse(f: LiftedIsometry) -> LiftedIsometry:
    q = _qinv(f.q)
    g0 = _qlifted(q, _qcircle_position(q, 0.0))
    k = round(g0(f.base) / TWO_PI)
    return g0.deck(-k)


def lifted_commutator(fa: LiftedIsometry, fb: LiftedIsometry) -> LiftedIsometry:
    """Lift of [A, B] = (AB)^-1 BA; independent of the deck choices."""
    return lifted_compose(lifted_inverse(lifted_compose(fa, fb)),
                          lifted_compose(fb, fa))


def _relation_scale(*qs: Quad) -> float:
    """Tolerance scale for relator residuals of 4-tuples: floating-point
    error in a product of words grows with the square of the largest entry
    size.  Raises PSL2Error where that square overflows a float: no relator
    check can pass or fail on an infinite scale."""
    top = max(abs(x) for q in qs for x in q)
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
    if _qdeviation(l.q) > RELATOR_TOL * scale:
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
    if _qdeviation(rel.q) > RELATOR_TOL * scale:
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
    c = _qtrace(_qcommutator(_quad(p), _quad(q)))
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
    qa = _quad(a)
    cl = classify(qa)
    if not isinstance(cl, Elliptic):
        raise PSL2Error("first element must be elliptic")
    conj = _conjugate_fixed_point_to_i(cl.fixed_point)
    conj_inv = _qinv(conj)
    x, y, z, t = _qmul(conj, _quad(b), conj_inv)
    ap = _qmul(conj, qa, conj_inv)
    alpha = math.atan2(ap[1], ap[0])
    u = x + t
    v = z - y
    if math.hypot(u, v) < DEGENERATE_PAIR:
        raise PSL2Error("degenerate pair: (x + t, z - y) = (0, 0)")
    for k in range(search_bound + 1):
        for n in ([0] if k == 0 else [k, -k]):
            tr = u * math.cos(n * alpha) + v * math.sin(n * alpha)
            if ORDER_TWO_BAND < abs(tr) < 2.0 - TRACE_BAND:
                return n
    raise PSL2Error(f"no elliptic power found within |n| <= {search_bound}")
