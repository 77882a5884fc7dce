"""Descent search for a simple closed curve with non-hyperbolic image.

Entry point: `search_nonhyperbolic`.  Given a glued representation whose
half-lengths are below the Bers bound and whose class is Euler +-1 or Euler
0 of Minus sign, the search iterates

    normalize twists -> dispatch

in the frame of its input.  The dispatch hands a separating curve of
commutator trace in (2, 18] to the one-holed-torus reduction, twists flat
pants along gamma_L, L the long side, until delta_L opens such a window,
or takes the lattice step: for i = 1, 2, 3 it tries the twists (k_j, k_k)
in {-1, 0, 1}^2 along the other two gammas, nearest first, and concludes
on the first beta_i with |trace| <= 2.  When no lattice point does, the
search certifies that the dual curve triple (beta_1, beta_2, beta_3) has
strictly smaller traces and re-coordinatises on it, index by index: the
new gamma_i is the old beta_i.  The paper's theorem
says that a curve exists; that the search finds one is measured on the
benchmark's corpora, not proved.  Every terminal
answer carries a certificate about the representation its coordinates name,
holding only what the replay reads.  Each snapshot is a coordinate record
(eps, a, t), and the replay builds its rep with `genus2.build_glued`, so it
trusts `pants.build_pants` and hyptrig's solvers, and the 2x2 arithmetic
after them.  It moves the rep with the search's own twist
(`genus2.dehn_twist_gamma`), and checks each re-coordinatisation link
with the fit's own `_worst_gap`.  Every curve is evaluated on a
`GluedRep`, by `genus2.curve_matrix` and, for the complement torus route's
words, `GluedRep.loops`; the dispatch and the links read that route's
handle trace off delta_k (`_complement_trace`).
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import genus2, hyptrig, pants, torus
from .hyptrig import long_index
# the certificate replay builds each snapshot's rep through this binding
from .genus2 import GluedRep, build_glued, trace_curve_matrix
from .pants import PantsCase
from .psl2r import IDENTITY, PSL2Error, Quad, minv, mmul, mtrace
from .tolerances import (B2_HALF_SLACK, LINK_TOL, MU_MIN, RECOORD_FLAT_BAND,
                         TRACE_BAND)

B2_HALF = 2.2254             # admissible half-length bound of the search
TORUS_TRACE_MAX = 18.0
MAX_ROUNDS = 64


class SearchError(PSL2Error):
    pass


class OutOfScopeError(SearchError):
    """Representation class outside the search's guarantee."""


def _positive_roots(c2: float, c1: float, c0: float) -> List[float]:
    """Roots u > 0 of c2 u^2 + c1 u + c0 = 0, by the stable form of the
    quadratic formula (-c1 and the square root never cancel)."""
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    if c2 == 0.0:
        us = [-c0 / c1] if c1 else []
    else:
        h = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
        us = [h / c2, c0 / h] if h else []
    return [u for u in us if u > 0.0]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class Certificate:
    """Replayable record of the search: snapshots, moves, final curve.
    Snapshots and moves hold exactly the keys the replay reads
    (`_SNAPSHOT_KEYS`, `_MOVE_KEYS`).  Two certificates are equal when all
    four fields are."""

    __slots__ = ("initial", "moves", "curve", "trace")

    def __init__(self, initial: Dict, moves: Optional[List[Dict]] = None,
                 curve: Optional[List] = None,
                 trace: Optional[float] = None) -> None:
        self.initial = initial
        self.moves = [] if moves is None else moves
        self.curve = curve
        self.trace = trace

    def _key(self) -> tuple:
        return self.initial, self.moves, self.curve, self.trace

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return ("Certificate(initial={!r}, moves={!r}, curve={!r}, "
                "trace={!r})".format(*self._key()))

    def to_dict(self) -> Dict:
        return {"initial": self.initial, "moves": self.moves,
                "curve": self.curve, "trace": self.trace}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        """Parse a certificate; raises SearchError unless its snapshots,
        moves, curve word and trace have the shapes and keys the replay
        reads.  Each snapshot is checked by `genus2.parse_record`."""
        d = json.loads(text)
        if not (isinstance(d, dict) and _is_snapshot(d.get("initial"))
                and isinstance(d.get("moves"), list)):
            raise SearchError("malformed certificate: initial or moves")
        for mv in d["moves"]:
            if not _is_move(mv):
                raise SearchError(f"malformed certificate: move {mv!r}")
        curve, trace = d.get("curve"), d.get("trace")
        if not (curve is None or (_is_word(curve)
                                  and genus2.is_finite_number(trace))):
            raise SearchError(f"malformed certificate: curve {curve!r} "
                              f"with trace {trace!r}")
        return cls(initial=d["initial"], moves=d["moves"],
                   curve=curve, trace=trace)


_SNAPSHOT_KEYS = frozenset(("eps", "a", "t"))
# the keys of each kind of move: exactly what the replay reads
_MOVE_KEYS = {"twist": frozenset(("kind", "i", "k")),
              "recoordinatize": frozenset(("kind", "snapshot"))}


def _is_snapshot(s) -> bool:
    """Whether `s` is a coordinate record (`genus2.parse_record`) with no
    other key."""
    try:
        return s.keys() == _SNAPSHOT_KEYS and bool(genus2.parse_record(s))
    except (AttributeError, genus2.Genus2Error, pants.PantsError):
        return False


def _is_move(mv) -> bool:
    """Whether `mv` has exactly its kind's keys, with values the replay
    can apply."""
    kind = mv.get("kind") if isinstance(mv, dict) else None
    if not (type(kind) is str and mv.keys() == _MOVE_KEYS.get(kind)):
        return False
    if kind == "twist":
        return mv["i"] in (1, 2, 3) and type(mv["i"]) is type(mv["k"]) is int
    return _is_snapshot(mv["snapshot"])


def _is_word(word) -> bool:
    """Whether `word` is a list of [name, +-1] letters, as the search emits
    them."""
    return isinstance(word, list) and all(
        isinstance(w, list) and len(w) == 2 and w[0] in _WORD_NAMES
        and type(w[1]) is int and w[1] in (1, -1) for w in word)


_LOOP_PREFIXES = ("gloop", "bloop")
_WORD_NAMES = genus2.CURVE_TAGS + tuple(f"{c}{i}" for c in _LOOP_PREFIXES
                                        for i in "123")


class FoundCurve(NamedTuple):
    word: List            # [[tag, exponent], ...], matrices multiply l-to-r
    trace: float
    certificate: Certificate
    rounds: int
    history: List[Dict]   # the search's decision trace, not certified


class Stalled(NamedTuple):
    diagnostic: str
    certificate: Certificate
    rounds: int
    history: List[Dict]


class SearchState:
    """The search's current rep, its certificate so far, the rounds it has
    re-coordinatised and its decision trace."""

    __slots__ = ("rep", "cert", "rounds", "history")

    def __init__(self, rep: GluedRep, cert: Certificate) -> None:
        self.rep = rep
        self.cert = cert
        self.rounds = 0
        self.history: List[Dict] = []

    @property
    def max_boundary_trace(self) -> float:
        return 2.0 * math.cosh(max(self.rep.a))


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

class _NotARep(Exception):
    """A snapshot names no representation: the replay's report is not ok."""


def _rep_from_snapshot(snap: Dict) -> GluedRep:
    """The rep a snapshot's coordinates name, built by `build_glued`: the
    pants the search built are memo hits.  Raises _NotARep when
    `build_glued` refuses the coordinates; a CocycleResidualError (the
    float build's range) propagates."""
    eps1, eps2 = map(pants.case_from_string, snap["eps"])
    try:
        return build_glued(eps1, eps2, snap["a"], snap["t"])
    except pants.CocycleResidualError:
        raise
    except (pants.PantsError, genus2.Genus2Error, hyptrig.TrigError) as exc:
        raise _NotARep(f"snapshot coordinates name no representation: "
                       f"{exc}") from None


def _trace(rep: GluedRep, tag: str) -> float:
    return mtrace(genus2.curve_matrix(rep, tag))


def _word_quad(rep: GluedRep, word: Sequence) -> Quad:
    """Product of a word of +-1 letters over the named curves and the
    co-based loops of `rep`."""
    out = IDENTITY
    for name, exp in word:
        if name.startswith(_LOOP_PREFIXES):
            m = rep.loops[name[0] == "b"][int(name[-1]) - 1]
        else:
            m = genus2.curve_matrix(rep, name)
        out = mmul(out, m if exp > 0 else minv(m))
    return out


def _freely_trivial(word: Sequence) -> bool:
    """Whether cancelling each letter next to its inverse leaves nothing."""
    left: List = []
    for name, exp in word:
        if left and left[-1] == [name, -exp]:
            left.pop()
        else:
            left.append([name, exp])
    return not left


def _complement_trace(rep: GluedRep, k: int) -> float:
    """Commutator trace of the handle across delta_k (`_complement_handle`):
    the two handles' commutators multiply to the surface relator of the
    lift, (-1)^e I for Euler class e (Goldman 1988), so it is (-1)^e tr
    delta_k."""
    tr = _trace(rep, f"delta{k}")
    return -tr if rep.euler_nominal % 2 else tr


def _link_targets(old: GluedRep) -> List[float]:
    """Traces of (gamma_1..3, beta_1..3, delta_1..3) after re-coordinatising
    `old` on its dual curve triple, index by index.

    gamma'_i is the old beta_i and beta'_i the old gamma_i; delta'_k is
    the old delta_k seen from the other side, the handle of (gamma_i,
    beta_j), (i, j, k) cyclic.
    """
    return ([_trace(old, tag) for tag in genus2.BETA_TAGS + genus2.GAMMA_TAGS]
            + [_complement_trace(old, k) for k in (1, 2, 3)])


def _link_gap(rep: GluedRep, tag: str, target: float) -> float:
    """Gap between the trace of `tag` at `rep` and its link target; gamma
    and beta compare in absolute value, as their lifts' signs are free."""
    tr = _trace(rep, tag)
    if tag in genus2.DELTA_TAGS:
        return abs(tr - target)
    return abs(abs(tr) - abs(target))


def _worst_gap(rep: GluedRep, tags, targets, bound: float,
               worst: float = 0.0) -> Optional[float]:
    """The largest of `worst` and the `_link_gap`s over `tags`, or None as
    soon as one of them is not below `bound` (a NaN never is).  The fit
    and the replay check every link with it."""
    if not worst < bound:
        return None
    for tag, v in zip(tags, targets):
        gap = _link_gap(rep, tag, v)
        if not gap < bound:
            return None
        worst = max(worst, gap)
    return worst


def replay_certificate(cert: Certificate, tol: float = LINK_TOL) -> Dict:
    """Re-verify a certificate for the representation its coordinates name.

    Builds the rep of each snapshot from its (eps, a, t) with
    `build_glued`, so the replay trusts `pants.build_pants` and hyptrig's
    solvers.  Walks the move list, checking every re-coordinatisation link
    (the new named-curve traces must reproduce the recorded old-coordinate
    values), and finally re-evaluates the curve word; returns a report dict
    with the replayed trace.  A snapshot whose coordinates name no
    representation, or a curve word that reduces freely to the identity,
    makes the report not ok.  Raises OutOfScopeError when the certificate's
    numbers overflow a float (huge twists or half-lengths), or when a
    snapshot's half-lengths are outside the float build's range.
    """
    try:
        return _replay(cert, tol)
    except _NotARep as exc:
        return {"ok": False, "reason": str(exc)}
    except pants.CocycleResidualError as exc:
        raise OutOfScopeError(f"a snapshot is outside the float build's "
                              f"range: {exc}") from None
    except ArithmeticError as exc:   # an exp overflows, a translation hits 0
        # or a trace is not finite
        raise OutOfScopeError(f"certificate replay overflows a float: "
                              f"{exc}") from None


def _replay(cert: Certificate, tol: float) -> Dict:
    rep = _rep_from_snapshot(cert.initial)
    checks = []
    for mv in cert.moves:
        kind = mv["kind"]
        if kind == "twist":
            rep = genus2.dehn_twist_gamma(rep, mv["i"], mv["k"])
            t = rep.t[mv["i"] - 1]
            if not math.isfinite(t):     # no rep is glued at an infinite twist
                raise OverflowError(f"a twist move carries t_{mv['i']} to {t}")
        elif kind == "recoordinatize":
            old, rep = rep, _rep_from_snapshot(mv["snapshot"])
            worst = _worst_gap(rep, genus2.CURVE_TAGS, _link_targets(old),
                               math.inf)
            if worst is None:
                raise OverflowError("a link error is not finite")
            checks.append(worst)
            if not worst <= tol:    # fails closed on a NaN tol
                return {"ok": False, "reason": "recoordinatisation link",
                        "link_error": worst}
        else:
            return {"ok": False, "reason": f"unknown move {kind!r}"}
    if cert.curve is None:
        return {"ok": False, "reason": "certificate has no curve"}
    if _freely_trivial(cert.curve):
        return {"ok": False, "reason": "curve word reduces to the identity"}
    tr = mtrace(_word_quad(rep, cert.curve))
    if not math.isfinite(tr):
        raise OverflowError(f"replayed trace {tr}")
    ok = abs(tr) <= 2.0 + TRACE_BAND and abs(tr - cert.trace) <= LINK_TOL
    return {"ok": bool(ok), "trace": tr, "link_errors": checks}


# ---------------------------------------------------------------------------
# state moves
# ---------------------------------------------------------------------------

def _log_twist(state: SearchState, i: int, k: int) -> None:
    state.cert.moves.append({"kind": "twist", "i": i, "k": k})
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


def _found(state: SearchState, word: List) -> FoundCurve:
    tr = mtrace(_word_quad(state.rep, word))
    if abs(tr) > 2.0 + TRACE_BAND:
        raise SearchError(
            f"found-curve verification failed: |{tr}| > 2 for {word}")
    state.cert.curve = [[name, int(e)] for name, e in word]
    state.cert.trace = float(tr)
    return FoundCurve(word=state.cert.curve, trace=float(tr),
                      certificate=state.cert, rounds=state.rounds,
                      history=state.history)


def _stalled(state: SearchState, why: str) -> Stalled:
    return Stalled(diagnostic=why, certificate=state.cert,
                   rounds=state.rounds, history=state.history)


# ---------------------------------------------------------------------------
# class and dispatch
# ---------------------------------------------------------------------------

def classify_scope(rep: GluedRep) -> str:
    """"plus1", "minus1" or "zero_minus"; raises OutOfScopeError otherwise.

    A twist that `genus2.twist_counts` cannot normalise has lost its place
    in the twist orbit, and is out of scope too.
    """
    try:
        genus2.twist_counts(rep)
    except genus2.Genus2Error:
        raise OutOfScopeError(f"twists {rep.t} are too large to normalise "
                              f"into [-a_i, a_i]") from None
    eu = rep.euler_nominal
    if eu == 1:
        return "plus1"
    if eu == -1:
        return "minus1"
    if eu == 0:
        # Minus, or Degenerate: a separating curve within tolerance of
        # trace 2 is itself non-hyperbolic, so the search can still run
        if genus2.sign_invariant(rep) != "Plus":
            return "zero_minus"
        raise OutOfScopeError(
            "Euler class 0 with sign Plus is outside the search's scope")
    raise OutOfScopeError(f"Euler class {eu} is extremal (Fuchsian locus)")


def _complement_handle(rep: GluedRep, k: int) -> Tuple[Quad, Quad, str, str]:
    """Co-based pair spanning the torus on the other side of delta_k.

    delta_k bounds the handle of (beta_i, gamma_j) on one side and the
    handle of (gamma_i, beta_j) on the other, (i, j, k) cyclic; their
    commutator traces are equal for even Euler class and opposite for odd
    (`_complement_trace`).
    """
    i, j = k % 3, (k + 1) % 3          # 0-based successors of k-1
    g_loops, b_loops = rep.loops
    return (g_loops[i], b_loops[j], f"gloop{i+1}", f"bloop{j+1}")


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

def _torus_route(state: SearchState, k: int, complement: bool = False):
    """Reduce on a handle bounded by delta_k; terminal by construction."""
    rep = state.rep
    tr_delta = trace_curve_matrix(rep, f"delta{k}")
    if abs(tr_delta) <= 2.0 + TRACE_BAND:
        return _found(state, [[f"delta{k}", 1]])
    if complement:
        p, q, name_p, name_q = _complement_handle(rep, k)
    else:
        name_p, name_q = genus2._DELTA_PAIRS[f"delta{k}"]
        p, q = (genus2.curve_matrix(rep, n) for n in (name_p, name_q))
    x, y, z = mtrace(p), mtrace(q), mtrace(mmul(p, q))
    kappa = torus.kappa(x, y, z)
    if not 2.0 < kappa <= TORUS_TRACE_MAX:
        return _stalled(state, f"handle at delta_{k} has commutator trace "
                               f"{kappa} outside (2, 18]")
    red = torus.reduce_triple(x, y, z)
    if red.found_index is None:
        return _stalled(state, f"torus reduction ended AllNegative at "
                               f"kappa {kappa}")
    word_chars = red.curve_word
    word = [[{"a": name_p, "b": name_q}[c.lower()],
             1 if c.islower() else -1] for c in word_chars]
    state.history.append({"move": "torus", "delta": k,
                          "complement": complement,
                          "moves": list(red.moves), "steps": red.steps})
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
    route concludes.
    """
    long = long_index(state.rep.a) + 1
    tag = f"delta{long}"
    for _ in range(200):
        route = _torus_window(state.rep, long)
        if route is not None:
            state.history.append({"move": "strategy", "id": "flat_twist"})
            return _torus_route(state, long,
                                complement=route.startswith("delta_torus_c"))
        probes = (genus2.dehn_twist_gamma(state.rep, long, k) for k in (1, -1))
        up, dn = (abs(trace_curve_matrix(p, tag) - 2.0) for p in probes)
        _apply_twist(state, long, 1 if up <= dn else -1)
    return _stalled(state, "flat twisting did not reach the torus window")


# the twists (k_j, k_k) that the lattice step tries, nearest first
_LATTICE = sorted(itertools.product((-1, 0, 1), repeat=2),
                  key=lambda kk: abs(kk[0]) + abs(kk[1]))


def lattice_step(state: SearchState):
    """Conclude on the first beta_i, i = 1, 2, 3, that the twists
    (k_j, k_k) in {-1, 0, 1}^2 along the other two gammas, nearest first,
    make non-hyperbolic; when no lattice point does, re-coordinatise."""
    rep = state.rep
    for i in range(3):
        j, k = (i + 1) % 3 + 1, (i + 2) % 3 + 1
        for kj, kk in _LATTICE:
            probe = rep
            if kj:
                probe = genus2.dehn_twist_gamma(probe, j, kj)
            if kk:
                probe = genus2.dehn_twist_gamma(probe, k, kk)
            if abs(trace_curve_matrix(probe, f"beta{i+1}")) \
                    <= 2.0 + TRACE_BAND:
                _apply_twist(state, j, kj)
                _apply_twist(state, k, kk)
                state.history.append({"move": "strategy", "id": "lattice",
                                      "beta": i + 1})
                return _found(state, [[f"beta{i+1}", 1]])
    return _improve(state)


# ---------------------------------------------------------------------------
# improvement / re-coordinatisation
# ---------------------------------------------------------------------------

def _candidate_pairs(euler: int, delta: float) -> List[Tuple[PantsCase, PantsCase]]:
    PC = PantsCase
    if euler == 0:
        if delta > 0:
            return [(pants.EU_PLUS1, pants.EU_MINUS1),
                    (PC("tri", 1), PC("tri", -1))]
        return [(pants.EU_PLUS1, pants.EU_MINUS1),
                (PC("selfhex", 1), PC("selfhex", 1))]
    hexs = pants.EU_PLUS1 if euler == 1 else pants.EU_MINUS1
    if delta > 0:
        return [(PC("tri", 1), hexs), (PC("tri", -1), hexs)]
    return [(PC("selfhex", 1), hexs), (PC("selfhex", -1), hexs)]


def _delta_twist_roots(rep: GluedRep, k: int, d: float) -> List[float]:
    """Twists t_k, ascending, with tr delta_{k+1} = d (the trace depends
    on t_k alone).

    With the coefficients of `genus2.delta_twist_coeffs`, u = e^{t_k}
    solves c_plus u^2 + (c_mid + (d - 2) / s) u + c_minus = 0.
    """
    s, c_minus, c_mid, c_plus = genus2.delta_twist_coeffs(rep, k)
    return sorted(math.log(u) for u in
                  _positive_roots(c_plus, c_mid + (d - 2.0) / s, c_minus))


def _fit_candidate(eps_pair, a_new, targets):
    """Solve the three twists against the delta targets; verify all traces
    against the `_link_targets`, as the certificate replay does.  Returns
    (the fitted rep, with the matrices its check evaluated, link error) or
    None.

    The link error is the largest of the nine gaps, and the fit keeps the
    first root combination of least error below LINK_TOL.  Each gap is
    checked against the least error so far as soon as it is evaluated:
    the gamma gaps read no twist and are checked once, on the untwisted
    rep, whose gamma matrices seed each combination's rep; a combination is
    dropped at its first beta or delta gap that cannot improve on it.
    """
    case1, case2 = genus2.pants_cases(*eps_pair)
    try:
        p1 = pants.build_pants(a_new, case1)
        p2 = pants.build_pants(a_new, case2)
    except (pants.PantsError, hyptrig.TrigError):
        return None
    untwisted = GluedRep(p1=p1, p2=p2, t=(0.0, 0.0, 0.0))
    roots = [[r for r in _delta_twist_roots(untwisted, k, targets[6 + k])
              if -10.0 <= r <= 10.0] for k in range(3)]
    if not all(roots):
        return None
    g_err = _worst_gap(untwisted, genus2.GAMMA_TAGS, targets[:3], LINK_TOL)
    if g_err is None:
        return None
    best, bound = None, LINK_TOL
    for combo in itertools.product(*roots):
        rep = GluedRep(p1, p2, combo)
        rep.quads.update(untwisted.quads)
        err = _worst_gap(rep, genus2.BETA_TAGS + genus2.DELTA_TAGS,
                         targets[3:], bound, g_err)
        if err is not None:
            best, bound = rep, err
    return best and (best, bound)


def _improve(state: SearchState):
    """Re-coordinatise on the dual curve triple (beta_1, beta_2, beta_3)."""
    rep = state.rep
    tb = [trace_curve_matrix(rep, f"beta{i+1}") for i in range(3)]
    for i in range(3):
        if abs(tb[i]) <= 2.0 + TRACE_BAND:
            return _found(state, [[f"beta{i+1}", 1]])
    old_max = state.max_boundary_trace
    new_max = max(abs(v) for v in tb)
    if new_max > old_max - MU_MIN:
        return _stalled(state, f"no strict decrease: max |tr beta| "
                               f"{new_max} vs {old_max}")
    targets = _link_targets(rep)
    a_new = tuple(math.acosh(abs(v) / 2.0) for v in targets[:3])
    delta_new = hyptrig.delta_invariant(*a_new)
    if abs(delta_new) < RECOORD_FLAT_BAND:
        return _stalled(state, f"new half-lengths sit on the flat stratum: "
                               f"delta = {delta_new}")
    fit = None
    for eps_pair in _candidate_pairs(rep.euler_nominal, delta_new):
        fit = _fit_candidate(eps_pair, a_new, targets)
        if fit is not None:
            break
    if fit is None:
        return _stalled(state, "no coordinate fit for the new curve triple")
    new_rep = fit[0]
    state.cert.moves.append({"kind": "recoordinatize",
                             "snapshot": new_rep.to_dict()})
    state.history.append({"move": "recoordinatize", "residual": fit[1],
                          "eps": [str(new_rep.eps1), str(new_rep.eps2)],
                          "max_trace_before": old_max,
                          "max_trace_after": new_max})
    state.rep = new_rep
    state.rounds += 1
    return None                      # improved; caller continues the loop


_STRATEGY_STEPS = {"flat_twist": flat_twist_step, "lattice": lattice_step}


def search_nonhyperbolic(rep: GluedRep):
    """Find a simple closed curve whose image has |trace| <= 2.

    The representation must have all half-lengths at most B2_HALF and total
    Euler class +1, -1, or 0 with sign invariant Minus.  Returns a
    FoundCurve with a replayable certificate, or Stalled with diagnostics.
    """
    for v in rep.a:
        if v > B2_HALF + B2_HALF_SLACK:
            raise OutOfScopeError(f"half-length {v} exceeds the Bers bound "
                                  f"{B2_HALF}")
    classify_scope(rep)
    state = SearchState(rep=rep, cert=Certificate(initial=rep.to_dict()))
    while state.rounds <= MAX_ROUNDS:
        _normalize(state)
        strategy = dispatch(state)
        sid, _, k = strategy.partition(":")
        if k:
            return _torus_route(state, int(k),
                                complement=sid == "delta_torus_complement")
        out = _STRATEGY_STEPS[strategy](state)
        if out is not None:
            return out
    return _stalled(state, f"round budget {MAX_ROUNDS} exhausted")
