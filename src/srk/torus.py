"""Trace-triple reduction on the one-holed torus.

For a pair (P, Q) in SL(2,R) generating the fundamental group of a one
holed torus, the triple (x, y, z) = (tr P, tr Q, tr PQ) determines the
boundary trace through

    kappa(x, y, z) = x^2 + y^2 + z^2 - x y z - 2 = tr [P, Q].

Changing the generating pair acts on the triple through permutations and
the move z -> xy - z; when kappa lies in (2, 18] this action always reaches
a triple with a coordinate in [-2, 2], i.e. a simple closed curve on the
torus whose image is non-hyperbolic.  The reduction below records its moves
so that the witness curve can be replayed as a word in the starting pair.
A reduction that has not ended after `MAX_STEPS` steps raises.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .tolerances import DESCENT_MARGIN, KAPPA_DRIFT
from .words import Word, inverse

MOVES = ("P12", "P23", "M3")
MAX_STEPS = 10_000


class ReductionError(RuntimeError):
    pass


def kappa(x: float, y: float, z: float) -> float:
    """x^2 + y^2 + z^2 - xyz - 2, the commutator trace of the pair."""
    return x * x + y * y + z * z - x * y * z - 2.0


def _move_triple(move: str, triple):
    """One move on the trace triple alone: (y,x,z), (x,z,y), (x,y,xy-z)."""
    x, y, z = triple
    if move == "P12":
        return y, x, z
    if move == "P23":
        return x, z, y
    if move == "M3":
        return x, y, x * y - z
    raise ReductionError(f"unknown move {move!r}")


def _apply_move(move: str, triple, words):
    """One move on the trace triple and the tracked pair words.

    P12 swaps the pair; P23 replaces (p, q) by (p^-1, p q); M3 replaces
    (p, q) by (p, q^-1).  All three keep both entries simple closed curves
    of the torus and act on the triple by (y,x,z), (x,z,y), (x,y,xy-z).
    """
    triple = _move_triple(move, triple)
    wa, wb = words
    if move == "P12":
        return triple, (wb, wa)
    if move == "P23":
        return triple, (inverse(wa), wa + wb)
    return triple, (wa, inverse(wb))


def _found_index(triple) -> Optional[int]:
    for idx, val in enumerate(triple):
        if abs(val) <= 2.0:
            return idx + 1
    return None


class ReductionResult(NamedTuple):
    start: Tuple[float, float, float]
    triple: Tuple[float, float, float]
    moves: Tuple[str, ...]
    found_index: Optional[int]          # 1, 2 or 3; None for AllNegative

    @property
    def all_negative(self) -> bool:
        return self.found_index is None

    @property
    def steps(self) -> int:
        return len(self.moves)

    @property
    def curve_word(self) -> Optional[Word]:
        """Witness word in the letters ("a", +-1) and ("b", +-1) of the
        starting pair, or None."""
        if self.found_index is None:
            return None
        _, (wa, wb) = replay_moves(self.start, self.moves)
        return (wa, wb, wa + wb)[self.found_index - 1]


# candidate compound steps: one flip z -> xy - z of each coordinate, moved
# to the third place by a permutation prefix.  Three words suffice: a prefix
# that also swapped the two factors of the product would reach a triple of
# the same score (the product commutes in floats), later in the scan, so it
# could never win the strict descent.
_PERM_WORDS = (("M3",), ("P23", "M3"), ("P12", "P23", "M3"))


def _max_abs(triple) -> float:
    return max(abs(v) for v in triple)


def reduce_triple(x: float, y: float, z: float) -> ReductionResult:
    """Reduce a trace triple until a coordinate lies in [-2, 2].

    Greedy descent on max(|x|, |y|, |z|) over the compound moves
    (permutation then z -> xy - z); kappa is invariant throughout.  Ends in
    one of three states: a found coordinate, AllNegative (all three below
    -2, possible only when kappa > 18), or a ReductionError when no
    compound move descends or after `MAX_STEPS` steps.
    """
    start = (float(x), float(y), float(z))
    # each step lowers the largest |coordinate|, so only the start can
    # exceed this bound
    if _max_abs(start) > 1e8:
        raise ReductionError(
            f"coordinates grew beyond float integrity from {start}")
    kappa0 = kappa(*start)
    triple = start
    moves: List[str] = []
    while True:
        if abs(kappa(*triple) - kappa0) > KAPPA_DRIFT * max(1.0, abs(kappa0)):
            raise ReductionError(
                f"kappa drifted from {kappa0} to {kappa(*triple)}")
        idx = _found_index(triple)
        if idx is not None:
            return ReductionResult(start=start, triple=triple,
                                   moves=tuple(moves), found_index=idx)
        if all(v < -2.0 for v in triple):
            return ReductionResult(start=start, triple=triple,
                                   moves=tuple(moves), found_index=None)
        if len(moves) >= MAX_STEPS:
            raise ReductionError(
                f"no terminal state within {MAX_STEPS} steps from {start}")
        cur = _max_abs(triple)
        best = None
        for word in _PERM_WORDS:
            cand = triple
            for mv in word:
                cand = _move_triple(mv, cand)
            score = _max_abs(cand)
            if score < cur - DESCENT_MARGIN \
                    and (best is None or score < best[0]):
                best = (score, word, cand)
        if best is None:
            raise ReductionError(
                f"greedy descent stalled at {triple} (kappa="
                f"{kappa(*triple):.6f})")
        _, word, triple = best
        moves.extend(word)


def replay_moves(start: Tuple[float, float, float],
                 moves: Tuple[str, ...]) -> Tuple[Tuple[float, float, float],
                                                  Tuple[Word, Word]]:
    """Replay a move word from a starting triple.

    Returns the final triple and the word pair expressing the final
    generating pair in the starting letters ("a", +-1) and ("b", +-1);
    replay is exact (bitwise reproducible from the same inputs).
    """
    triple = tuple(float(v) for v in start)
    words = ([("a", 1)], [("b", 1)])
    for mv in moves:
        triple, words = _apply_move(mv, triple, words)
    return triple, words
