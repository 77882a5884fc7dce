"""Search for a simple closed curve with non-hyperbolic image.

Entry point: `search_nonhyperbolic`.  Given a glued representation whose
half-lengths are below the Bers bound and whose class is Euler +-1 or Euler
0 of Minus sign, the search normalises the twists and dispatches, in the
frame of its input.  The dispatch hands a separating curve of commutator
trace in (2, 18] to the one-holed-torus reduction, twists flat pants along
gamma_L, L the long side, until delta_L opens such a window, or takes the
lattice step: for i = 1, 2, 3 it tries the twists (k_j, k_k) in
{-1, 0, 1}^2 along the other two gammas, nearest first, and concludes on
the first beta_i with |trace| <= 2.  When no lattice point does, it
twists once along beta_3, either way, and runs the torus route on a handle
of the twisted delta_3 (`beta_twist_step`).  The lattice and flat-twist
probes are scored by `genus2.twist_trace` from `genus2.twist_coeffs`, the
one home of how a trace depends on the twists: no probe builds a rep.
The paper's theorem says that a curve exists; that the search finds one
is measured on the benchmark's corpora, not proved.

Every terminal answer carries a certificate, written once when the search
ends, about the representation its initial coordinates name, holding
only what the replay reads: the coordinate record (eps, a, t), the twist
moves along the gammas, and the curve word.  The replay builds the rep
with `genus2.build_glued`, so it trusts `pants.build_pants` and hyptrig's
solvers, and the 2x2 arithmetic after them; it moves the rep with the
search's own twist (`genus2.dehn_twist_gamma`).  A word's letters are
curve tags and the generators A1, B1, A2, B2; every word is evaluated on
a `GluedRep`, letter by letter through `genus2.curve_matrix`.
The dispatch reads the complement handle's trace off delta_k
(`_complement_trace`).
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import genus2, hyptrig, pants, torus
from .hyptrig import long_index
from .words import inverse, reduce, substitute
# the certificate replay builds each snapshot's rep through this binding
from .genus2 import (GluedRep, build_glued, gamma_twists, trace_curve_matrix,
                     twist_coeffs, twist_trace)
from .psl2r import IDENTITY, PSL2Error, Quad, minv, mmul, mtrace
from .tolerances import B2_HALF_SLACK, REPLAY_TOL, TRACE_BAND

B2_HALF = 2.2254             # admissible half-length bound of the search
TORUS_TRACE_MAX = 18.0


class SearchError(PSL2Error):
    pass


class OutOfScopeError(SearchError):
    """Representation class outside the search's guarantee."""


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class Certificate(NamedTuple):
    """Replayable record of the search: snapshots, moves, final curve.
    Snapshots and moves hold exactly the keys the replay reads
    (`_SNAPSHOT_KEYS`, `_MOVE_KEYS`).  The search writes its certificate
    once, when it ends (`_found`, `_stalled`); a stalled search's has no
    curve and no trace."""

    initial: Dict
    moves: List[Dict]
    curve: Optional[List]
    trace: Optional[float]

    def to_json(self) -> str:
        return json.dumps(self._asdict())

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        """Parse a certificate; raises SearchError unless its snapshots,
        moves, curve word and trace have the shapes and keys the replay
        reads, and a certificate with no curve has no trace.  Each
        snapshot is checked by `genus2.parse_record`."""
        try:
            d = json.loads(text)
        except RecursionError:
            raise SearchError("malformed certificate: nested too deeply "
                              "to decode") from None
        if not (isinstance(d, dict) and _is_snapshot(d.get("initial"))
                and isinstance(d.get("moves"), list)):
            raise SearchError("malformed certificate: initial or moves")
        for mv in d["moves"]:
            if not _is_move(mv):
                raise SearchError(f"malformed certificate: move {mv!r}")
        curve, trace = d.get("curve"), d.get("trace")
        if not ((curve is None and trace is None) or (
                _is_word(curve) and genus2.is_finite_number(trace))):
            raise SearchError(f"malformed certificate: curve {curve!r} "
                              f"with trace {trace!r}")
        return cls(initial=d["initial"], moves=d["moves"],
                   curve=curve, trace=trace)


_SNAPSHOT_KEYS = frozenset(("eps", "a", "t"))
# the keys of a move, the one kind there is: exactly what the replay reads
_MOVE_KEYS = frozenset(("kind", "i", "k"))


def _is_snapshot(s) -> bool:
    """Whether `s` is a coordinate record (`genus2.parse_record`) with no
    other key."""
    try:
        return s.keys() == _SNAPSHOT_KEYS and bool(genus2.parse_record(s))
    except (AttributeError, genus2.Genus2Error, pants.PantsError):
        return False


def _is_move(mv) -> bool:
    """Whether `mv` is a twist move with exactly its keys, with values the
    replay can apply."""
    return (isinstance(mv, dict) and mv.keys() == _MOVE_KEYS
            and mv["kind"] == "twist" and mv["i"] in (1, 2, 3)
            and type(mv["i"]) is type(mv["k"]) is int)


def _is_word(word) -> bool:
    """Whether `word` is a list of [name, +-1] letters, as the search emits
    them."""
    return isinstance(word, list) and all(
        isinstance(w, list) and len(w) == 2 and w[0] in _WORD_NAMES
        and type(w[1]) is int and w[1] in (1, -1) for w in word)


_WORD_NAMES = genus2.CURVE_TAGS + genus2.GENERATORS


class FoundCurve(NamedTuple):
    certificate: Certificate
    rounds: int
    history: List[Dict]   # the search's decision trace, not certified

    @property
    def word(self) -> List:
        """[[tag, exponent], ...], matrices multiply left to right."""
        return self.certificate.curve

    @property
    def trace(self) -> float:
        return self.certificate.trace


class Stalled(NamedTuple):
    diagnostic: str
    certificate: Certificate
    rounds: int
    history: List[Dict]


class SearchState:
    """The search's current rep, the coordinate record it started from,
    its twist moves so far, its rounds (1 once it twists along beta_3) and
    its decision trace; `_found` and `_stalled` write the certificate."""

    __slots__ = ("rep", "initial", "moves", "rounds", "history")

    def __init__(self, rep: GluedRep) -> None:
        self.rep = rep
        self.initial = rep.to_dict()
        self.moves: List[Dict] = []
        self.rounds = 0
        self.history: List[Dict] = []


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def _word_quad(rep: GluedRep, word: Sequence) -> Quad:
    """Product of a word of +-1 letters over the named curves and the
    generators of `rep`."""
    quads = []
    for name, exp in word:
        m = genus2.curve_matrix(rep, name)
        quads.append(m if exp > 0 else minv(m))
    return mmul(*quads) if quads else IDENTITY


def _complement_trace(rep: GluedRep, k: int) -> float:
    """Commutator trace of the handle across delta_k (`_COMPLEMENT_HANDLES`):
    the two handles' commutators multiply to the surface relator of the
    lift, (-1)^e I for Euler class e (Goldman 1988), so it is (-1)^e tr
    delta_k."""
    tr = trace_curve_matrix(rep, f"delta{k}")
    return -tr if rep.euler_nominal % 2 else tr


def replay_certificate(cert: Certificate, tol: float = REPLAY_TOL) -> Dict:
    """Re-verify a certificate for the representation its coordinates name.

    Builds the rep of the initial snapshot from its (eps, a, t) with
    `build_glued`, so the replay trusts `pants.build_pants` and hyptrig's
    solvers; applies the twist moves, and re-evaluates the curve word.
    Returns a report dict with the replayed trace, ok when |trace| <= 2 and
    the trace is within `tol` of the recorded one (a NaN or negative `tol`
    fails).  A snapshot, move, curve word or trace that `from_json` would
    refuse, a snapshot whose coordinates name no representation, or a
    curve word that reduces freely to the identity, makes the report not
    ok.  Raises OutOfScopeError when the certificate's numbers overflow a
    float (huge twists or half-lengths), or when the snapshot's
    half-lengths are outside the float build's range.
    """
    try:
        return _replay(cert, tol)
    except pants.CocycleResidualError as exc:
        raise OutOfScopeError(f"a snapshot is outside the float build's "
                              f"range: {exc}") from None
    except ArithmeticError as exc:   # an exp overflows, a translation hits 0
        # or a trace is not finite
        raise OutOfScopeError(f"certificate replay overflows a float: "
                              f"{exc}") from None


def _replay(cert: Certificate, tol: float) -> Dict:
    # a certificate built in code gets the checks `from_json` gives a
    # parsed one
    try:
        (eps1, eps2), a, t = genus2.parse_record(cert.initial)
    except (genus2.Genus2Error, pants.PantsError) as exc:
        return {"ok": False, "reason": f"malformed snapshot: {exc}"}
    try:     # the pants the search built are memo hits
        rep = build_glued(eps1, eps2, a, t)
    except pants.CocycleResidualError:
        raise
    except (pants.PantsError, genus2.Genus2Error, hyptrig.TrigError) as exc:
        return {"ok": False, "reason": f"snapshot coordinates name no "
                                       f"representation: {exc}"}
    for mv in cert.moves:
        if not _is_move(mv):
            return {"ok": False, "reason": f"malformed move {mv!r}"}
        rep = genus2.dehn_twist_gamma(rep, mv["i"], mv["k"])
        ti = rep.t[mv["i"] - 1]
        if not math.isfinite(ti):    # no rep is glued at an infinite twist
            raise OverflowError(f"a twist move carries t_{mv['i']} to {ti}")
    if cert.curve is None:
        return {"ok": False, "reason": "certificate has no curve"}
    if not (_is_word(cert.curve) and genus2.is_finite_number(cert.trace)):
        return {"ok": False, "reason": f"malformed curve {cert.curve!r} "
                                       f"with trace {cert.trace!r}"}
    if not reduce(cert.curve):
        return {"ok": False, "reason": "curve word reduces to the identity"}
    tr = mtrace(_word_quad(rep, cert.curve))
    if not math.isfinite(tr):
        raise OverflowError(f"replayed trace {tr}")
    ok = abs(tr) <= 2.0 + TRACE_BAND and abs(tr - cert.trace) <= tol
    return {"ok": bool(ok), "trace": tr}


# ---------------------------------------------------------------------------
# state moves
# ---------------------------------------------------------------------------

def _log_twist(state: SearchState, i: int, k: int) -> None:
    state.moves.append({"kind": "twist", "i": i, "k": k})
    state.history.append({"move": "twist", "i": i, "k": k})


def _apply_twist(state: SearchState, i: int, k: int) -> None:
    if k == 0:
        return
    state.rep = genus2.dehn_twist_gamma(state.rep, i, k)
    _log_twist(state, i, k)


def _normalize(state: SearchState) -> None:
    """Log the twist moves into [-a_i, a_i] and move to the normalised rep
    that `genus2.normalize_twists` keeps, with the curves it evaluated."""
    for i, k in enumerate(genus2.twist_counts(state.rep)):
        if k:
            _log_twist(state, i + 1, k)
    state.rep = genus2.normalize_twists(state.rep)


def _found(state: SearchState, word: List):
    """FoundCurve, or Stalled when the word's matrix trace fails its check."""
    tr = mtrace(_word_quad(state.rep, word))
    if not abs(tr) <= 2.0 + TRACE_BAND:
        return _stalled(state, f"found curve fails its matrix check: "
                               f"|tr| = {abs(tr)!r}")
    cert = Certificate(state.initial, state.moves,
                       [[name, int(e)] for name, e in word], float(tr))
    return FoundCurve(certificate=cert, rounds=state.rounds,
                      history=state.history)


def _stalled(state: SearchState, why: str) -> Stalled:
    cert = Certificate(state.initial, state.moves, None, None)
    return Stalled(diagnostic=why, certificate=cert, rounds=state.rounds,
                   history=state.history)


# ---------------------------------------------------------------------------
# class and dispatch
# ---------------------------------------------------------------------------

def classify_scope(rep: GluedRep) -> None:
    """Raise OutOfScopeError unless the search covers `rep`: Euler class
    +-1, or 0 with a sign invariant other than Plus.  Returns nothing.

    A twist that `genus2.twist_counts` cannot normalise has lost its place
    in the twist orbit, and is out of scope too.
    """
    try:
        genus2.twist_counts(rep)
    except genus2.Genus2Error:
        raise OutOfScopeError(f"twists {rep.t} are too large to normalise "
                              f"into [-a_i, a_i]") from None
    eu = rep.euler_nominal
    if abs(eu) > 1:
        raise OutOfScopeError(f"Euler class {eu} is extremal (Fuchsian locus)")
    # Degenerate is in scope: a separating curve within tolerance of trace
    # 2 is itself non-hyperbolic, so the search can still run
    if eu == 0 and genus2.sign_invariant(rep) == "Plus":
        raise OutOfScopeError(
            "Euler class 0 with sign Plus is outside the search's scope")


_C = [("A2", 1), ("B1", -1), ("A1", -1), ("B1", 1)]     # C = B1^-1 b3 B1
# The generator words of the pair spanning the torus on the other side of
# delta_k, by k.  delta_k bounds the handle of (beta_i, gamma_j) on one side
# and the handle of (gamma_i, beta_j) on the other, (i, j, k) cyclic; their
# commutator traces are equal for even Euler class and opposite for odd
# (`_complement_trace`).  In the co-based loops of `genus2.generator_images`,
# with w = g2^-1 b3, the pair (g1, b2) conjugated by w is (B2, A2); (g2, b3)
# conjugated by B1^-1 is (B1, C); and (g3, b1) conjugated by A1^-1 is
# (B2^-1 B1^-1, A1) up to the sign of g3, which the torus route does not
# read.
_COMPLEMENT_HANDLES = {1: ([("B1", 1)], _C),
                       2: ([("B2", -1), ("B1", -1)], [("A1", 1)]),
                       3: ([("B2", 1)], [("A2", 1)])}


def _torus_window(rep: GluedRep, k: int) -> Optional[str]:
    """Which route (if any) the separating curve delta_k opens."""
    tr = trace_curve_matrix(rep, f"delta{k}")
    if abs(tr) <= 2.0 + TRACE_BAND or 2.0 < tr <= TORUS_TRACE_MAX:
        return f"delta_torus:{k}"
    if 2.0 < _complement_trace(rep, k) <= TORUS_TRACE_MAX:
        return f"delta_torus_complement:{k}"
    return None


def dispatch(state: SearchState) -> str:
    """Strategy id for the current (normalized) state: a torus window,
    "flat_twist" for flat pants, else "lattice".  The windows read all
    three delta curves, so no id depends on which side is long."""
    rep = state.rep
    for k in (3, 1, 2):
        route = _torus_window(rep, k)
        if route is not None:
            return route
    if rep.eps1.is_flat or rep.eps2.is_flat:
        return "flat_twist"
    return "lattice"


# ---------------------------------------------------------------------------
# torus route
# ---------------------------------------------------------------------------

def _handle_curve(rep: GluedRep, p: List, q: List) -> Tuple[
        float, Optional[torus.ReductionResult], Optional[List]]:
    """The torus route on the handle spanned by the co-based words p and q:
    (kappa, the reduction, the curve word), with free pairs cancelled.

    A handle whose boundary, the commutator q^-1 p^-1 q p of trace kappa,
    is itself non-hyperbolic answers with that word and no reduction.
    Otherwise the word is None when kappa is outside the window (2, 18] or
    the reduction ends AllNegative, and else the reduction's word in a, b
    with p, q put in their place (`words.substitute`).
    """
    mp, mq = _word_quad(rep, p), _word_quad(rep, q)
    x, y, z = mtrace(mp), mtrace(mq), mtrace(mmul(mp, mq))
    kappa = torus.kappa(x, y, z)
    if abs(kappa) <= 2.0 + TRACE_BAND:
        return kappa, None, reduce(inverse(q) + inverse(p) + q + p)
    if not 2.0 < kappa <= TORUS_TRACE_MAX:
        return kappa, None, None
    red = torus.reduce_triple(x, y, z)
    if red.found_index is None:
        return kappa, red, None
    return kappa, red, substitute(red.curve_word, {"a": p, "b": q})


def _log_torus(state: SearchState, k: int, complement: bool, red) -> None:
    """Log the reduction `red` on a handle of delta_k, if one ran."""
    if red is not None:
        state.history.append({"move": "torus", "delta": k,
                              "complement": complement,
                              "moves": list(red.moves), "steps": red.steps})


def _torus_route(state: SearchState, k: int, complement: bool = False):
    """Reduce on a handle bounded by delta_k; terminal by construction."""
    rep = state.rep
    tr_delta = trace_curve_matrix(rep, f"delta{k}")
    if abs(tr_delta) <= 2.0 + TRACE_BAND:
        return _found(state, [[f"delta{k}", 1]])
    p, q = (_COMPLEMENT_HANDLES[k] if complement
            else ([(tag, 1)] for tag in genus2._DELTA_PAIRS[f"delta{k}"]))
    kappa, red, word = _handle_curve(rep, p, q)
    if word is None:
        why = (f"torus reduction ended AllNegative at kappa {kappa}"
               if red is not None
               else f"handle at delta_{k} has commutator trace {kappa} "
                    f"outside (2, 18]")
        return _stalled(state, why)
    _log_torus(state, k, complement, red)
    return _found(state, word)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def flat_twist_step(state: SearchState):
    """Twist along gamma_L until the delta_L trace enters the torus window,
    L the long side (`hyptrig.long_index`).

    On the flat stratum tr delta_L = c + C e^{-t_L} (or e^{+t_L}), the
    closed forms of `genus2`.  Against a hexagon side |c| < 2, so a bounded
    number of twists brings the trace into [-2, 18] and the separating
    route concludes.  Each twist goes the way `genus2.twist_trace` puts
    nearer 2; only the twist applied builds a rep.
    """
    long = long_index(state.rep.a) + 1
    tag = f"delta{long}"
    coeffs = twist_coeffs(state.rep, tag)
    for _ in range(200):
        route = _torus_window(state.rep, long)
        if route is not None:
            state.history.append({"move": "strategy", "id": "flat_twist"})
            return _torus_route(state, long,
                                complement=route.startswith("delta_torus_c"))
        up, dn = (abs(twist_trace(tag, coeffs, gamma_twists(
            state.rep.t, state.rep.a, long, k)) - 2.0) for k in (1, -1))
        _apply_twist(state, long, 1 if up <= dn else -1)
    return _stalled(state, "flat twisting did not reach the torus window")


# the twists (k_j, k_k) that the lattice step tries, nearest first
_LATTICE = sorted(itertools.product((-1, 0, 1), repeat=2),
                  key=lambda kk: abs(kk[0]) + abs(kk[1]))


def lattice_step(state: SearchState):
    """Conclude on the first beta_i, i = 1, 2, 3, that the twists
    (k_j, k_k) in {-1, 0, 1}^2 along the other two gammas, nearest first,
    make non-hyperbolic (`genus2.twist_trace`: only the twists applied
    build a rep); when no lattice point does, twist along beta_3."""
    rep = state.rep
    for i, tag in enumerate(genus2.BETA_TAGS):
        coeffs = twist_coeffs(rep, tag)
        j, k = (i + 1) % 3 + 1, (i + 2) % 3 + 1
        for kj, kk in _LATTICE:
            t = gamma_twists(gamma_twists(rep.t, rep.a, j, kj), rep.a, k, kk)
            if abs(twist_trace(tag, coeffs, t)) <= 2.0 + TRACE_BAND:
                _apply_twist(state, j, kj)
                _apply_twist(state, k, kk)
                state.history.append({"move": "strategy", "id": "lattice",
                                      "beta": i + 1})
                return _found(state, [[tag, 1]])
    return beta_twist_step(state)


# T^n, n = +-1, T the Dehn twist along beta_3, as the images of the
# generators.  With C = A2 B1^-1 A1^-1 B1, which T fixes, T fixes A1 and
# sends B1 to B1 C, A2 to C^-1 A2 C and B2 to C^-1 B2; T^-1 puts C^-1 for
# C.  T maps the surface relator to a cyclic conjugate of itself, not of
# its inverse, so it is a mapping class: it sends simple closed curves to
# simple closed curves.
_BETA3_TWIST = {
    n: {"A1": [("A1", 1)], "B1": [("B1", 1)] + c,
        "A2": inverse(c) + [("A2", 1)] + c, "B2": inverse(c) + [("B2", 1)]}
    for n, c in ((1, _C), (-1, inverse(_C)))}

# The handles of delta_3 after n = +-1 Dehn twists T^n along beta_3: first
# T^n of the complement handle (B2, A2), then T^n of (A1, B1).  Each pair
# spans a handle of the twisted delta_3, and the simple curves of that
# handle are simple curves of the surface.
_BETA3_HANDLES = {
    n: tuple(tuple(substitute(w, _BETA3_TWIST[n]) for w in pair)
             for pair in (_COMPLEMENT_HANDLES[3], ([("A1", 1)], [("B1", 1)])))
    for n in (1, -1)}


def beta_twist_step(state: SearchState):
    """Twist once along beta_3, n = +1 then -1, and conclude on the first
    handle of the twisted delta_3 whose torus route finds a curve
    (`_BETA3_HANDLES`, `_handle_curve`).

    The twist is a mapping-class move on the generators, so the curve
    word names a simple curve of the rep the certificate's coordinates
    name: the certificate records no move for it.
    """
    for n in (1, -1):
        for far, (p, q) in zip((True, False), _BETA3_HANDLES[n]):
            _, red, word = _handle_curve(state.rep, p, q)
            if word is not None:
                state.rounds = 1
                state.history.append({"move": "beta_twist", "beta": 3,
                                      "k": n})
                _log_torus(state, 3, far, red)
                return _found(state, word)
    return _stalled(state, "no twist along beta_3 opens a torus window")


_STRATEGY_STEPS = {"flat_twist": flat_twist_step, "lattice": lattice_step}


def search_nonhyperbolic(rep: GluedRep):
    """Find a simple closed curve whose image has |trace| <= 2.

    The representation must have all half-lengths at most B2_HALF and total
    Euler class +1, -1, or 0 with sign invariant Minus.  Returns a
    FoundCurve with a replayable certificate, or Stalled with diagnostics,
    which a torus reduction that fails (`torus.ReductionError`) and a
    found word whose matrix trace fails its check also return.  Either
    answer's certificate is written once, as it ends.  Raises only
    OutOfScopeError, from the scope checks before the search starts.
    """
    for v in rep.a:
        if v > B2_HALF + B2_HALF_SLACK:
            raise OutOfScopeError(f"half-length {v} exceeds the Bers bound "
                                  f"{B2_HALF}")
    classify_scope(rep)
    state = SearchState(rep)
    _normalize(state)
    strategy = dispatch(state)
    sid, _, k = strategy.partition(":")
    try:
        if k:
            return _torus_route(state, int(k),
                                complement=sid == "delta_torus_complement")
        return _STRATEGY_STEPS[strategy](state)
    except torus.ReductionError as exc:
        return _stalled(state, f"torus reduction failed: {exc}")
