"""srk.pcg64 against numpy's own Generator, draw for draw."""

import numpy as np
import pytest

from srk import pcg64

_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _numpy(entropy):
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _same_state(g, ref):
    s = ref.bit_generator.state
    assert (g.state, g.inc) == (s["state"]["state"], s["state"]["inc"])
    assert g.carry == (s["uinteger"] if s["has_uint32"] else None)


@pytest.mark.parametrize("entropy", [
    [0, 0], [7, 1], [2**32 - 1, 8], [2**32, 0], [2**32 + 5, 3],
    [2**64, 2], [2**64 + 7, 2**40], [3**90, 11], [1, 2, 3, 4, 5, 6], [5]])
def test_seeding_matches_seed_sequence(entropy):
    # seeds of 2**32 and up are several 32-bit words of entropy; more than
    # four words overflow SeedSequence's pool of four
    g, ref = pcg64.default_rng(entropy), _numpy(entropy)
    _same_state(g, ref)
    assert [g.next64() for _ in range(5)] == \
        ref.bit_generator.random_raw(5).tolist()


def test_negative_entropy_is_refused():
    with pytest.raises(ValueError):
        pcg64.default_rng([1, -1])


@pytest.mark.parametrize("seed", range(8))
def test_uniform_sized_and_scalar(seed):
    g, ref = pcg64.default_rng([seed, 3]), _numpy([seed, 3])
    for low, high, size in [(0.2, 0.8, 2), (0.1, 0.5, None),
                            (-1.5, 1.5, 3), (0.3, 1.8, None), (0.0, 1.0, 7)]:
        got, want = g.uniform(low, high, size), ref.uniform(low, high, size)
        if size is None:
            assert type(got) is float and got == float(want)
        else:
            assert got == want.tolist()
    _same_state(g, ref)


@pytest.mark.parametrize("seed", range(6))
def test_integers_carry_crosses_blocks(seed):
    # blocks of an odd number of 32-bit words: the high half left over by
    # one block is the first word of the next, and a 64-bit uniform draw
    # in between leaves it carried
    g, ref = pcg64.default_rng([seed, 9]), _numpy([seed, 9])
    for low, high in [([1, -2, 1], [4, 3, 4]), ([-2] * 5, [3] * 5),
                      ([0, 10], [2**32, 17]), ([4], [5]), ([1], [4]),
                      ([0] * 4, [6, 7, 1000, 2**31 + 3])]:
        assert g.integers(low, high) == \
            ref.integers(np.array(low), np.array(high)).tolist()
        _same_state(g, ref)
        assert g.uniform(0.0, 1.0) == float(ref.uniform(0.0, 1.0))
    assert g.integers([], []) == []


@pytest.mark.parametrize("low, high", [([0], [0]), ([3], [1]),
                                       ([0], [2**32 + 1])])
def test_integers_refuses_bad_bounds(low, high):
    with pytest.raises(ValueError):
        pcg64.default_rng([0, 0]).integers(low, high)


def _state_before(out: int, inc: int) -> int:
    """The PCG64 state whose next 64-bit output is `out`: the stepped state
    has its top six bits 0 (no rotation) and high ^ low = out."""
    high = 0x0123456789ABCDEF
    stepped = high << 64 | (high ^ out)
    return (stepped - inc) * pow(_MULT, -1, 1 << 128) & _M128


@pytest.mark.parametrize("out", [
    0x9E3779B9 << 32,               # low word 0: the first draw is rejected
    0x9E3779B9,                     # high word 0: the second is rejected
    0])                             # both words 0
@pytest.mark.parametrize("bounds", [([1, -2] * 3, [4, 3] * 3),
                                    ([0] * 5, [6] * 5)])
def test_lemire_rejection_matches_numpy(out, bounds):
    inc = (0xDA3E39CB94B95BDB << 1 | 1) & _M128
    state = _state_before(out, inc)
    ref = np.random.default_rng(0)
    ref.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    assert pcg64.Generator(state, inc).next64() == out
    g = pcg64.Generator(state, inc)
    low, high = bounds
    assert g.integers(low, high) == \
        ref.integers(np.array(low), np.array(high)).tolist()
    _same_state(g, ref)
