"""Descent search for a simple closed curve with non-hyperbolic image.

Entry point: `search_nonhyperbolic`.  Given a glued representation whose
half-lengths are below the Bers bound and whose class is Euler +-1 or Euler
0 of Minus sign, the search iterates

    normalize twists -> align the largest half-length -> dispatch

where the dispatch either hands a separating curve of commutator trace in
(2, 18] to the one-holed-torus reduction, twists a named curve into the
non-hyperbolic window (bandwidth and polygon strategies), or certifies that
the dual curve triple (beta_1, beta_2, beta_3) has strictly smaller traces
and re-coordinatises on it.  Every terminal answer carries a certificate
about the representation its coordinates name, holding only what the
replay reads.  Each snapshot is a coordinate record (eps, a, t), and the
replay builds its rep with `genus2.build_glued`, so it trusts
`pants.build_pants` and hyptrig's solvers, and the 2x2 arithmetic after
them.  It moves the rep with the search's own twist and rotation
(`genus2.dehn_twist_gamma`, `genus2.rotate`), and checks each
re-coordinatisation link with the fit's own `_worst_gap`.  Every curve is
evaluated on a `GluedRep`, by `genus2.curve_matrix` and `GluedRep.loops`.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import genus2, hyptrig, pants, torus
from .hyptrig import long_shift, rotation
# the certificate replay builds each snapshot's rep through this binding
from .genus2 import GluedRep, build_glued, trace_curve_matrix
from .pants import PantsCase
from .psl2r import IDENTITY, PSL2Error, Quad, commutator, minv, mmul, mtrace
from .tolerances import (B2_HALF_SLACK, LINK_TOL, MU_MIN, RECOORD_FLAT_BAND,
                         STRATEGY_SLACK, TRACE_BAND, WINDOW_END_SLACK,
                         WINDOW_START_SLACK)

B2_HALF = 2.2254             # admissible half-length bound of the search
COSH_B2_HALF = 4.67          # reported Bers value, used by constant checks
REGION_A3_MAX = 2.23         # region decomposition covers a3 up to here
TORUS_TRACE_MAX = 18.0
MAX_ROUNDS = 64

_CH, _SH = math.cosh, math.sinh


class SearchError(PSL2Error):
    pass


class OutOfScopeError(SearchError):
    """Representation class outside the search's guarantee."""


# ---------------------------------------------------------------------------
# analytic ingredients
# ---------------------------------------------------------------------------

def line_l1(a3: float) -> float:
    return -0.9 * (a3 - 1.695) + 1.18


def line_l2(a3: float) -> float:
    return 0.8 * (a3 - 1.695) + 1.18


def region_of(a_min: float, a_mid: float, a3: float) -> str:
    """Region of the sorted triple in the Euler class +-1 decomposition."""
    if a_min <= line_l1(a3):
        return "X1"
    if a_min >= line_l2(a3):
        return "X2"
    if _CH(a_mid) ** 2 <= _SH(a_mid) * _SH(a3):
        return "X3"
    return "X4"


def boum_bound(a, t) -> Tuple[Tuple[float, float, float], bool]:
    """Cauchy-Schwarz bounds on |tr beta_i| and the sufficiency flag.

    bound_i = 2 sqrt(cosh t_j cosh t_k / (tanh a_j tanh a_k)); the flag is
    whether cosh(a_i)^2 / sinh(a_i) <= sinh(a_3) holds for the two smaller
    sides, which forces every bound below 2 cosh(a_3).
    """
    a = tuple(float(v) for v in a)
    bounds = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        bounds.append(2.0 * math.sqrt(
            _CH(t[j]) * _CH(t[k]) / (math.tanh(a[j]) * math.tanh(a[k]))))
    a3 = max(a)
    flag = all(_CH(a[i]) ** 2 / _SH(a[i]) <= _SH(a3)
               for i in range(3) if a[i] < a3 or a.count(a[i]) > 1)
    return tuple(bounds), flag


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


def bandwidth_window(a1: float, b2: float, t3: float,
                     t1: float = 0.0) -> Optional[float]:
    """Twisted t_1 with |A e^{t1/2} + B e^{-t1/2}| <= 2, if the window opens.

    A, B = cosh(t3/2) +- cosh(b2) sinh(t3/2); the window condition is
    tanh(a1/2) <= sinh(|t3|/2) sinh(b2) <= coth(a1/2), which makes the set
    {|trace| <= 2} wider than one twist period 2*a1.  Returns a value
    congruent to `t1` modulo 2*a1, or None when the window is closed.
    """
    if a1 <= 0.0 or b2 <= 0.0:
        raise SearchError("bandwidth needs positive a1, b2")
    q = _SH(abs(t3) / 2.0) * _SH(b2)
    th, ct = math.tanh(a1 / 2.0), 1.0 / math.tanh(a1 / 2.0)
    if not (th <= q <= ct):
        return None
    big_a = _CH(t3 / 2.0) + _CH(b2) * _SH(t3 / 2.0)
    big_b = _CH(t3 / 2.0) - _CH(b2) * _SH(t3 / 2.0)

    def phi(tt):
        return big_a * math.exp(tt / 2.0) + big_b * math.exp(-tt / 2.0)

    # roots of A x + B / x = c over x = e^{t/2} > 0, for c = +-2
    cuts = [2.0 * math.log(x) for c in (2.0, -2.0)
            for x in _positive_roots(big_a, -c, big_b)]
    if not cuts:
        return None
    lo, hi = min(cuts), max(cuts)
    # the sublevel set {|phi| <= 2} contains [lo, hi] between extreme cuts
    # whenever phi is monotone (AB < 0); for AB > 0 it is exactly the span
    # of the two roots on the relevant side.  Width >= 2*a1 by the window
    # condition, so the residue class of t1 meets it.
    width = 2.0 * a1
    n = math.ceil((lo - t1) / width) - 1
    while t1 + n * width < hi + WINDOW_END_SLACK:
        cc = t1 + n * width
        if cc >= lo - WINDOW_START_SLACK and abs(phi(cc)) <= 2.0 + TRACE_BAND:
            return cc
        n += 1
    return None


def intervals_test(a_sorted, u3: float) -> Tuple[str, Optional[int]]:
    """Disposition of u3 = D' sinh(|t3|/2)/sinh(a3) in the interval strategy.

    Returns ("separating_small", None) for u3 <= 2 (delta_3 trace at most
    18), ("bandwidth", m) when u3 lies in [cosh(a_m) - 1, cosh(a_m) + 1]
    for m in {1, 2}, and otherwise ("dichotomy", None): then cosh(a_1) > 3
    or cosh(a_2) > cosh(a_1) + 2.
    """
    a1, a2, _ = a_sorted
    if u3 <= 2.0:
        return "separating_small", None
    if _CH(a1) - 1.0 <= u3 <= _CH(a1) + 1.0:
        return "bandwidth", 1
    if _CH(a2) - 1.0 <= u3 <= _CH(a2) + 1.0:
        return "bandwidth", 2
    return "dichotomy", None


# polygon machinery shared by the four polygon strategies ------------------

def _polygon_escape(tj: float, tk: float, aj: float, ak: float,
                    limit: float) -> Optional[Tuple[int, int]]:
    """Twist multiples (kj, kk) translating (tj, tk) toward the corner square.

    None when |tj + tk| <= limit (the point is inside the polygon P).
    """
    s = tj + tk
    if abs(s) <= limit:
        return None
    if s > 0.0:
        return (-1, 0) if tj > 0.0 else (0, 1)
    return (1, 0) if tj < 0.0 else (0, -1)


def _escape_or_improve(state: SearchState, sid: str, betas, limit: float):
    """Polygon strategy step: escape along the first listed beta_i whose
    twists (t_j, t_k) leave the polygon, else re-coordinatise."""
    rep = state.rep
    for i in betas:
        j, k = (i + 1) % 3, (i + 2) % 3
        esc = _polygon_escape(rep.t[j], rep.t[k], rep.a[j], rep.a[k], limit)
        if esc is not None:
            _apply_twist(state, j + 1, esc[0])
            _apply_twist(state, k + 1, esc[1])
            state.history.append({"move": "strategy", "id": sid,
                                  "branch": "escape", "beta": i + 1})
            return _conclude_on_beta(state, i, f"{sid} escape trace")
    state.history.append({"move": "strategy", "id": sid,
                          "branch": "interior"})
    return _improve(state)


def _conclude_on_beta(state: SearchState, i: int, why: str):
    """Found on beta_{i+1} if its trace is non-hyperbolic, else stalled."""
    tr = trace_curve_matrix(state.rep, f"beta{i+1}")
    if abs(tr) <= 2.0 + TRACE_BAND:
        return _found(state, [[f"beta{i+1}", 1]])
    return _stalled(state, f"{why} {tr}")


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
        if not (curve is None or (_is_word(curve) and type(trace) in (
                int, float) and math.isfinite(trace))):
            raise SearchError(f"malformed certificate: curve {curve!r} "
                              f"with trace {trace!r}")
        return cls(initial=d["initial"], moves=d["moves"],
                   curve=curve, trace=trace)


_SNAPSHOT_KEYS = frozenset(("eps", "a", "t"))
# the keys of each kind of move: exactly what the replay reads
_MOVE_KEYS = {"twist": frozenset(("kind", "i", "k")),
              "rotate": frozenset(("kind", "shift")),
              "recoordinatize": frozenset(("kind", "relabel", "snapshot"))}


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
    if kind == "rotate":
        return type(mv["shift"]) is int
    rho = mv["relabel"]
    return (isinstance(rho, list) and set(map(type, rho)) <= {int}
            and sorted(rho) == [0, 1, 2] and _is_snapshot(mv["snapshot"]))


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
        return 2.0 * _CH(max(self.rep.a))


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


def _link_targets(old: GluedRep, rho: Sequence[int]) -> List[float]:
    """Traces of (gamma_1..3, beta_1..3, delta_1..3) after re-coordinatising
    `old` on relabel rho (new index i <- old rho[i]).

    gamma'_i is the old beta_{rho(i)} and beta'_i the old gamma_{rho(i)};
    delta'_k pairs the old co-based handle (gamma_{rho(i)}, beta_{rho(j)}),
    (i, j, k) cyclic.
    """
    g, b = old.loops
    return ([_trace(old, f"beta{r+1}") for r in rho]
            + [_trace(old, f"gamma{r+1}") for r in rho]
            + [mtrace(commutator(g[rho[(k + 1) % 3]], b[rho[(k + 2) % 3]]))
               for k in range(3)])


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
        elif kind == "rotate":
            rep = genus2.rotate(rep, mv["shift"])
        elif kind == "recoordinatize":
            old, rep = rep, _rep_from_snapshot(mv["snapshot"])
            worst = _worst_gap(rep, genus2.CURVE_TAGS,
                               _link_targets(old, mv["relabel"]), math.inf)
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


def _align(state: SearchState) -> None:
    """Cyclic rotation putting the largest half-length at index 3."""
    shift = long_shift(state.rep.a)
    if shift == 0:
        return
    state.rep = genus2.rotate(state.rep, shift)
    state.cert.moves.append({"kind": "rotate", "shift": shift})
    state.history.append({"move": "rotate", "shift": shift})


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
    handle of (gamma_i, beta_j) on the other, (i, j, k) cyclic; the two
    sides carry opposite canonical lifts of the commutator, so exactly one
    of them has trace above 2 whenever |tr delta_k| > 2.
    """
    i, j = k % 3, (k + 1) % 3          # 0-based successors of k-1
    g_loops, b_loops = rep.loops
    return (g_loops[i], b_loops[j], f"gloop{i+1}", f"bloop{j+1}")


def _torus_window(rep: GluedRep, k: int) -> Optional[str]:
    """Which route (if any) the separating curve delta_k opens."""
    tr = trace_curve_matrix(rep, f"delta{k}")
    if abs(tr) <= 2.0 + TRACE_BAND or 2.0 < tr <= TORUS_TRACE_MAX:
        return f"delta_torus:{k}"
    p, q, _, _ = _complement_handle(rep, k)
    if 2.0 < mtrace(commutator(p, q)) <= TORUS_TRACE_MAX:
        return f"delta_torus_complement:{k}"
    return None


def dispatch(state: SearchState) -> str:
    """Strategy id for the current (normalized, aligned) state."""
    rep = state.rep
    a = rep.a
    for k in (3, 1, 2):
        route = _torus_window(rep, k)
        if route is not None:
            return route
    kinds = {rep.eps1.kind, rep.eps2.kind}
    eu = rep.euler_nominal
    if eu == 0:
        if kinds == {"plus1", "minus1"}:
            return "intervals"
        if kinds <= {"flat_upper", "flat_lower"}:
            return "flat_twist"
        if "tri" in kinds:
            return "triangle_improve"
        if "selfhex" in kinds:
            # the normalized delta_3 trace is at most 6.8 here, so the
            # torus route above must have fired
            raise SearchError("self-intersecting Euler 0 case missed the "
                              "separating route")
        raise SearchError(f"unsupported Euler 0 case pair {kinds}")
    # Euler class +-1
    if kinds & {"flat_upper", "flat_lower", "flat_diag"}:
        return "flat_twist"
    if "selfhex" in kinds:
        raise SearchError("Euler +-1 with negative delta invariant missed "
                          "the separating route")
    a_min, a_mid = sorted(a[:2])
    region = region_of(a_min, a_mid, a[2])
    return {"X1": "phi_torus", "X2": "equilateral1",
            "X3": "boum", "X4": "isosceles1"}[region]


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

def _twist_count(value: float, width: float) -> int:
    return int(round(value / width))


def flat_twist_step(state: SearchState):
    """Twist along gamma_3 until the delta_3 trace enters the torus window.

    On the flat stratum tr delta_3 = L + C e^{-t_3} (or e^{+t_3}); against a
    hexagon side |L| < 2, so a bounded number of twists brings the trace
    into [-2, 18] and the separating route concludes.
    """
    for _ in range(200):
        route = _torus_window(state.rep, 3)
        if route is not None:
            state.history.append({"move": "strategy", "id": "flat_twist"})
            return _torus_route(state, 3,
                                complement=route.startswith("delta_torus_c"))
        probes = (genus2.dehn_twist_gamma(state.rep, 3, k) for k in (1, -1))
        up, dn = (abs(trace_curve_matrix(p, "delta3") - 2.0) for p in probes)
        _apply_twist(state, 3, 1 if up <= dn else -1)
    return _stalled(state, "flat twisting did not reach the torus window")


def intervals_step(state: SearchState):
    """Case (+1, -1): interval test, then bandwidth or polygon strategies."""
    rep = state.rep
    a = rep.a
    sol = rep.p1.solution               # the (+1, -1) pair: p1 is a hexagon
    u3 = sol.heron * _SH(abs(rep.t[2]) / 2.0) / _SH(a[2])
    a_min, a_mid = sorted(a[:2])
    disposition, band = intervals_test((a_min, a_mid, a[2]), u3)
    if disposition == "separating_small":
        return _torus_route(state, 3)
    if disposition == "bandwidth":
        # band m=1 matches the smaller of a_1, a_2
        m = int(a[1] < a[0]) if band == 1 else int(a[1] > a[0])
        other = 1 - m
        # beta_{other+1} trace depends on (t_m, t_3) through b_{other}
        t_new = bandwidth_window(a[m], sol.b[other], rep.t[2], rep.t[m])
        if t_new is not None:
            k = _twist_count(t_new - rep.t[m], 2.0 * a[m])
            _apply_twist(state, m + 1, k)
            state.history.append({"move": "strategy", "id": "bandwidth",
                                  "beta": other + 1})
            return _conclude_on_beta(state, other, "bandwidth produced trace")
        return _stalled(state, f"bandwidth window closed at u3 = {u3}")
    if _CH(a_min) > 3.0:
        return _equilateral0(state)
    if _CH(a_mid) > _CH(a_min) + 2.0:
        return _isosceles0(state)
    return _stalled(state, f"interval dichotomy violated at u3 = {u3}")


def _equ0_lambda(b3: float, a3: float) -> Optional[float]:
    arg = (_CH(a3) + _SH(b3 / 2.0) ** 2) / _CH(b3 / 2.0) ** 2
    if arg < 1.0:
        return None
    return 2.0 * math.acosh(arg) - a3


def _equilateral0(state: SearchState):
    """Equilateral polygon strategy in the (+1, -1) case, cosh(a_min) > 3."""
    a = state.rep.a
    sol = state.rep.p1.solution
    b_max = sol.b[2]
    b_min = min(sol.b[0], sol.b[1])
    lam = _equ0_lambda(b_max, a[2])
    if lam is None or lam < 0.0:
        return _stalled(state, "equilateral condition (0) fails")
    cond1 = (_CH(b_max) * _SH((3 * a[2] - lam) / 4.0) ** 2
             - _CH((3 * a[2] - lam) / 4.0) ** 2) <= 1.0 + STRATEGY_SLACK
    cond2 = (_CH(lam / 2.0) * _CH(a[2] / 2.0)
             - _CH(b_min) * _SH(lam / 2.0) * _SH(a[2] / 2.0)) \
        <= 1.0 + STRATEGY_SLACK
    if not (cond1 and cond2):
        return _stalled(state, "equilateral conditions (1)-(2) fail")
    return _escape_or_improve(state, "equilateral0", range(3), a[2] + lam)


def _isosceles0(state: SearchState):
    """Isosceles polygon strategy in the (+1, -1) case."""
    a = state.rep.a
    sol = state.rep.p1.solution
    m = int(a[1] < a[0])
    b_m = sol.b[m]                      # pairs the two larger sides
    b_max = sol.b[2]
    lam = _equ0_lambda(b_m, a[2])
    if lam is None or lam < 0.0:
        return _stalled(state, "isosceles condition (0) fails")
    cond1 = (_CH(lam / 2.0) * _CH(a[2] / 2.0)
             - _CH(b_m) * _SH(lam / 2.0) * _SH(a[2] / 2.0)) \
        <= 1.0 + STRATEGY_SLACK
    cond2 = (_SH(b_m / 2.0) ** 2 * _CH((3 * a[2] - lam) / 2.0)
             - _CH(b_m / 2.0) ** 2) <= 1.0 + STRATEGY_SLACK
    cond3 = (_CH(a[m] / 2.0) * _CH(a[2] / 2.0)
             + _CH(b_max) * _SH(a[m] / 2.0) * _SH(a[2] / 2.0)) \
        <= _CH(a[2]) + STRATEGY_SLACK
    if not (cond1 and cond2 and cond3):
        return _stalled(state, "isosceles conditions (1)-(3) fail")
    return _escape_or_improve(state, "isosceles0", (m,), a[2] + lam)


def triangle_improve_step(state: SearchState):
    """Case (0+, 0-) with positive delta invariant: the beta triple shrinks."""
    state.history.append({"move": "strategy", "id": "triangle_improve"})
    return _improve(state)


def equilateral1_step(state: SearchState):
    """Region X2 strategy in Euler class +-1, positive delta invariant."""
    a = state.rep.a
    a_min = min(a[0], a[1])
    cl = _CH(a[2]) * math.tanh(a_min) ** 2
    if cl < 1.0:
        return _stalled(state, "equilateral1 condition (0) fails")
    lam = math.acosh(cl)
    if _SH(2 * a_min) < _SH(a[2]):
        return _stalled(state, "equilateral1 alpha_M undefined "
                               "(sinh(2 a_min) < sinh(a_3))")
    alpha_M = math.asin(_SH(a[2]) / _SH(2 * a_min))
    alpha_m = math.asin(_SH(a_min) / _SH(2 * a[2]))
    cond1 = (_SH(2 * a_min) + _SH(a[2]) ** 2
             <= 2.0 * _SH(a_min) ** 2 * _CH(a[2]) + STRATEGY_SLACK)
    cond2 = (-math.cos(alpha_M) + math.sin(alpha_M)
             * _SH((3 * a[2] - lam) / 2.0)) \
        <= math.tanh(a_min) + STRATEGY_SLACK
    cond3 = (math.cos(alpha_m) * _CH((a[2] - lam) / 2.0)
             - math.sin(alpha_m) * _SH((a[2] + lam) / 2.0)) \
        <= math.tanh(a_min) + STRATEGY_SLACK
    if not (cond1 and cond2 and cond3):
        return _stalled(state, "equilateral1 conditions (1)-(3) fail")
    return _escape_or_improve(state, "equilateral1", range(3), a[2] + lam)


def boum_step(state: SearchState):
    """Region X3: the Cauchy-Schwarz bounds alone certify the decrease."""
    rep = state.rep
    bounds, flag = boum_bound(rep.a, rep.t)
    if not flag:
        return _stalled(state, f"boum sufficiency fails: bounds {bounds}")
    state.history.append({"move": "strategy", "id": "boum"})
    return _improve(state)


def isosceles1_step(state: SearchState):
    """Region X4 strategy in Euler class +-1."""
    a = state.rep.a
    a_min = min(a[0], a[1])
    a_mid = max(a[0], a[1])
    if _SH(a[2]) < 2.0:
        return _stalled(state, "isosceles1 needs sinh(a_3) >= 2")
    if _SH(a_min) + 1.0 / _SH(a_min) > _SH(a[2]) + STRATEGY_SLACK:
        return _stalled(state, "isosceles1 precondition "
                               "sinh(a1)+1/sinh(a1) <= sinh(a3) fails")
    lam = _iso_lambda(_SH(a[2]))
    sq = math.sqrt(_CH(lam) * _CH(a[2]))
    cos2aM = ((_CH(2 * lam) * _CH(2 * a[2]) - _CH(2 * a_min))
              / (_SH(2 * lam) * _SH(2 * a[2])))
    if abs(cos2aM) > 1.0:
        return _stalled(state, "isosceles1 alpha_M undefined")
    alpha_M = math.acos(cos2aM) / 2.0
    alpha_m = math.asin(_SH(a_min) / _SH(2 * a[2]))
    conds = [
        a_mid >= lam - STRATEGY_SLACK,
        1.0 + math.sin(alpha_M) * _SH(a[2]) <= sq + STRATEGY_SLACK,
        (-math.cos(alpha_M) + math.sin(alpha_M) * _SH((3 * a[2] - lam) / 2.0))
        <= sq + STRATEGY_SLACK,
        (math.cos(alpha_m) * _CH((a[2] - lam) / 2.0)
         - math.sin(alpha_m) * _SH((a[2] + lam) / 2.0)) <= sq + STRATEGY_SLACK,
        _CH(a_min) ** 2 * _CH(2 * a[2] - lam)
        <= _CH(a[2]) * _SH(a[2]) * _SH(a_min) + STRATEGY_SLACK,
    ]
    if not all(conds):
        return _stalled(state, f"isosceles1 conditions fail: {conds}")
    m = int(a[1] < a[0])
    return _escape_or_improve(state, "isosceles1", (m,), a[2] + lam)


def _iso_lambda(sha3: float) -> float:
    """Largest root of cosh(x)^2 = sinh(x) * sha3 (needs sha3 >= 2).

    With y = sinh(x) the equation reads y^2 - sha3 y + 1 = 0.
    """
    if sha3 < 2.0:
        raise SearchError("isosceles twist length needs sinh(a3) >= 2")
    return math.asinh((sha3 + math.sqrt(sha3 * sha3 - 4.0)) / 2.0)


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
    # cyclic relabel: the new index i names the old beta_{rho(i)}
    rho = list(rotation(long_shift([abs(v) for v in tb])))
    targets = _link_targets(rep, rho)
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
    state.cert.moves.append({"kind": "recoordinatize", "relabel": rho,
                             "snapshot": new_rep.to_dict()})
    state.history.append({"move": "recoordinatize", "residual": fit[1],
                          "eps": [str(new_rep.eps1), str(new_rep.eps2)],
                          "max_trace_before": old_max,
                          "max_trace_after": new_max})
    state.rep = new_rep
    state.rounds += 1
    return None                      # improved; caller continues the loop


_STRATEGY_STEPS = {
    "intervals": intervals_step,
    "flat_twist": flat_twist_step,
    "triangle_improve": triangle_improve_step,
    "equilateral1": equilateral1_step,
    "boum": boum_step,
    "isosceles1": isosceles1_step,
}


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
        _align(state)
        strategy = dispatch(state)
        if strategy.startswith("delta_torus:"):
            return _torus_route(state, int(strategy.split(":")[1]))
        if strategy.startswith("delta_torus_complement:"):
            return _torus_route(state, int(strategy.split(":")[1]),
                                complement=True)
        if strategy == "phi_torus":
            # region X1 guarantees |tr delta_3| <= 2 Phi <= 18, so the
            # torus route must already have fired
            return _stalled(state, "X1 region missed the separating route")
        step = _STRATEGY_STEPS[strategy]
        out = step(state)
        if out is not None:
            return out
    return _stalled(state, f"round budget {MAX_ROUNDS} exhausted")
