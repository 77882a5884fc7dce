import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srk import torus
from srk.psl2r import (IDENTITY, make_rotation, make_translation, minv, mmul,
                       mtrace)
from srk.tolerances import DESCENT_MARGIN, KAPPA_DRIFT
from srk.torus import ReductionError, kappa, reduce_triple, replay_moves

rng = np.random.default_rng(99)


class TestKappa:
    def test_reducible_boundary(self):
        assert kappa(2, 2, 2) == 2.0

    def test_worked_value(self):
        assert kappa(3, 4, 10) == 3.0

    def test_origin(self):
        assert kappa(0, 0, 0) == -2.0

    def test_invariance_under_moves(self):
        # relative residual per move; chained moves can grow the entries
        # exponentially, so invariance is asserted move by move
        for _ in range(2000):
            tr = tuple(rng.uniform(-6, 6, 3))
            mv = torus.MOVES[rng.integers(0, 3)]
            tr2, _ = torus._apply_move(mv, tr, ([("a", 1)], [("b", 1)]))
            k0, k1 = kappa(*tr), kappa(*tr2)
            assert abs(k1 - k0) <= 1e-9 * max(1.0, abs(k0))


class TestReduce:
    def test_worked_example(self):
        res = reduce_triple(3, 4, 10)
        assert res.moves == ("M3",)
        assert res.triple == (3.0, 4.0, 2.0)
        assert res.found_index == 3
        assert res.steps == 1

    def test_immediate(self):
        res = reduce_triple(1, 5, 7)
        assert res.found_index == 1
        assert res.moves == ()

    @pytest.mark.parametrize("triple", [(2.0 + 5e-10, 3.0, 3.0),
                                        (-2.0 - 5e-10, 3.0, 4.0)],
                             ids=["above_2", "below_-2"])
    def test_a_coordinate_within_the_trace_band_is_found(self, triple):
        """|x| within TRACE_BAND of 2 is a found coordinate, as every
        |tr| <= 2 verdict reads it, not a descent that stalls."""
        res = reduce_triple(*triple)
        assert res.found_index == 1
        assert res.moves == ()

    def test_all_negative(self):
        res = reduce_triple(-3, -3, -3)
        assert res.all_negative
        assert res.found_index is None
        assert res.curve_word is None
        assert kappa(-3, -3, -3) > 18

    def test_terminates_in_goldman_window(self):
        # kappa in (2, 18] must always reach a coordinate in [-2, 2]
        count = 0
        while count < 400:
            x, y, z = rng.uniform(-8, 8, 3)
            if not 2.0 < kappa(x, y, z) <= 18.0:
                continue
            if max(abs(x), abs(y), abs(z)) <= 2.0:
                continue
            count += 1
            res = reduce_triple(x, y, z)
            assert res.found_index is not None and res.steps <= 1000
            assert abs(res.triple[res.found_index - 1]) <= 2.0

    def test_replay_reproduces(self):
        res = reduce_triple(2.1, 2.2, 5.4)      # kappa = 11.46, in (2, 18]
        assert res.found_index is not None
        triple, _ = replay_moves(res.start, res.moves)
        assert triple == res.triple          # bit-exact

    def test_curve_word_traces(self):
        # the witness word evaluates to a matrix of the found trace
        for _ in range(50):
            p = make_translation(rng.uniform(0.5, 2.0))
            theta = rng.uniform(0.4, math.pi - 0.4)
            q = mmul(make_rotation(theta),
                     make_translation(rng.uniform(0.5, 2.0)),
                     make_rotation(-theta))
            x, y, z = mtrace(p), mtrace(q), mtrace(mmul(p, q))
            if not 2.0 < kappa(x, y, z) <= 18.0:
                continue
            res = reduce_triple(x, y, z)
            if res.found_index is None:
                continue
            word = res.curve_word
            m = IDENTITY
            for name, exp in word:
                g = p if name == "a" else q
                m = mmul(m, g if exp > 0 else minv(g))
            assert abs(mtrace(m)) <= 2.0 + 1e-9

    def test_exhaustion_raises(self):
        # this triple stalls on the first greedy step, before the budget
        with mock.patch.object(torus, "MAX_STEPS", 2), \
                pytest.raises(ReductionError, match="stalled"):
            reduce_triple(30.0, 40.0, 50.0)

    def test_step_budget_raises(self):
        # with the budget, this triple reduces in 6 steps; 2 run out first
        assert torus.MAX_STEPS == 10_000
        assert reduce_triple(9.0, 28.5, 253.0).steps == 6
        with mock.patch.object(torus, "MAX_STEPS", 2), \
                pytest.raises(ReductionError, match="no terminal state within"
                                                    " 2 steps"):
            reduce_triple(9.0, 28.5, 253.0)

    def test_float_integrity_raises(self):
        with pytest.raises(ReductionError, match="float integrity"):
            reduce_triple(1e9, 3.0, 3.0)


# every permutation prefix of M3, as `reduce_triple` once scored them
_SIX_WORDS = (("M3",), ("P12", "M3"), ("P23", "M3"), ("P12", "P23", "M3"),
              ("P23", "P12", "M3"), ("P12", "P23", "P12", "M3"))


def _six_word_greedy(x, y, z, max_steps):
    """The reference descent: scores all six words and checks float
    integrity at every step.  Returns (triple, moves, found index)."""
    start = (float(x), float(y), float(z))
    k0 = kappa(*start)
    triple, moves = start, []
    while True:
        if max(map(abs, triple)) > 1e8:
            raise ReductionError(
                f"coordinates grew beyond float integrity from {start}")
        if abs(kappa(*triple) - k0) > KAPPA_DRIFT * max(1.0, abs(k0)):
            raise ReductionError(
                f"kappa drifted from {k0} to {kappa(*triple)}")
        for idx, v in enumerate(triple):
            if abs(v) <= 2.0:
                return triple, tuple(moves), idx + 1
        if all(v < -2.0 for v in triple):
            return triple, tuple(moves), None
        if len(moves) >= max_steps:
            raise ReductionError(
                f"no terminal state within {max_steps} steps from {start}")
        cur = max(map(abs, triple))
        best = None
        for word in _SIX_WORDS:
            cand = triple
            for mv in word:
                cand = torus._move_triple(mv, cand)
            score = max(map(abs, cand))
            if score < cur - DESCENT_MARGIN and (best is None
                                                 or score < best[0]):
                best = (score, word, cand)
        if best is None:
            raise ReductionError(f"greedy descent stalled at {triple} "
                                 f"(kappa={kappa(*triple):.6f})")
        _, word, triple = best
        moves.extend(word)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ReductionError as exc:
        return str(exc)


_COORD = st.one_of(st.floats(-8.0, 8.0), st.floats(-300.0, 300.0),
                   st.floats(-2e8, 2e8))


@st.composite
def _triples(draw):
    """Independent coordinates (most raise or end at once), or a triple
    grown by flips x_i -> x_j x_k - x_i that raise |x_i|, which takes
    steps to reduce."""
    if draw(st.booleans()):
        return draw(st.tuples(_COORD, _COORD, _COORD))
    triple = list(draw(st.tuples(st.floats(-3.0, 3.0),
                                 *[st.floats(-6.0, 6.0)] * 2)))
    for i in draw(st.lists(st.integers(0, 2), max_size=12)):
        flip = triple[i - 1] * triple[i - 2] - triple[i]
        if abs(flip) > abs(triple[i]):
            triple[i] = flip
    return tuple(triple)


@settings(deadline=None, derandomize=True, database=None, max_examples=400)
@given(triple=_triples(), max_steps=st.sampled_from([3, 10_000]))
def test_three_flips_descend_as_six_words(triple, max_steps):
    """The three words `reduce_triple` scores reach every triple the six
    words do, at the same score and earlier in the scan, so results,
    moves and error messages are the six-word greedy's."""
    def reduced(*args):
        res = reduce_triple(*args)
        return res.triple, res.moves, res.found_index
    with mock.patch.object(torus, "MAX_STEPS", max_steps):
        got = _outcome(reduced, *triple)
    assert got == _outcome(_six_word_greedy, *triple, max_steps)


@pytest.mark.parametrize("moves", [("P13",), ("P12", "M3", "X")],
                         ids=" ".join)
def test_replay_refuses_an_unknown_move(moves):
    with pytest.raises(ReductionError, match="unknown move"):
        replay_moves((3.0, 4.0, 10.0), moves)
