import math

import numpy as np
import pytest

from srk import torus
from srk.psl2r import (IDENTITY, make_rotation, make_translation, minv, mmul,
                       mtrace)
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
            tr2, _ = torus._apply_move(mv, tr, ("a", "b"))
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
            res = reduce_triple(x, y, z, max_steps=1000)
            assert res.found_index is not None
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
            for c in word:
                m = mmul(m, p if c == "a" else q if c == "b"
                         else minv(p) if c == "A" else minv(q))
            assert abs(mtrace(m)) <= 2.0 + 1e-9

    def test_exhaustion_raises(self):
        # this triple stalls on the first greedy step, before max_steps
        with pytest.raises(ReductionError, match="stalled"):
            reduce_triple(30.0, 40.0, 50.0, max_steps=2)

    def test_step_budget_raises(self):
        # unbounded, this triple reduces in 6 steps; 2 run out first
        assert reduce_triple(9.0, 28.5, 253.0).steps == 6
        with pytest.raises(ReductionError, match="no terminal state within"):
            reduce_triple(9.0, 28.5, 253.0, max_steps=2)
