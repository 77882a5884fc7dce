"""srk.pcg64's seeding against numpy's own Generator, output for output."""

import numpy as np
import pytest

from srk import pcg64


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
