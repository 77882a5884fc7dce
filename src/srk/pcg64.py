"""numpy's SeedSequence seeding of PCG64, in pure Python.

`default_rng(entropy)` holds, bit for bit, the PCG64 state and increment
that `numpy.random.default_rng(numpy.random.SeedSequence(entropy))` starts
from, and `next64` steps it to numpy's 64-bit outputs.  No srk command
draws from it: `orbit-stats` draws from `random.Random`.  What is left:

- SeedSequence mixes the 32-bit words of the entropy into a pool of four
  with `hashmix`/`mix`, and `generate_state(4, uint64)` hashes the pool into
  the PCG64 seed and increment;
- PCG64 is the 128-bit LCG with numpy's multiplier, stepped before each
  output, whose 64-bit output is XSL-RR (high ^ low, rotated right by the
  top six bits of the state).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645      # PCG's 128-bit multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875        # SeedSequence's hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED        # constants, pool of four
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seed_words(entropy: Sequence[int]) -> List[int]:
    """SeedSequence.generate_state(4, uint64) for a sequence of ints."""
    words = []
    for n in entropy:           # each int as little-endian 32-bit words
        if n < 0:
            raise ValueError(f"entropy must be >= 0, got {n}")
        words.append(n & _M32)
        while n > _M32:
            n >>= 32
            words.append(n & _M32)
    h = _INIT_A

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * _MULT_A & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    h = _INIT_B
    out = []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * _MULT_B & _M32
        v = v * h & _M32
        out.append(v ^ v >> 16)
    return [out[2 * i] | out[2 * i + 1] << 32 for i in range(4)]


class Generator:
    """PCG64 state (`state`, `inc`) and the carried 32-bit half (`carry`),
    as numpy's `bit_generator.state` holds them.  Only 64-bit outputs are
    drawn here, so no half is ever carried and `carry` stays None."""

    __slots__ = ("state", "inc", "carry")

    def __init__(self, state: int, inc: int) -> None:
        self.state, self.inc = state, inc
        self.carry: Optional[int] = None

    def next64(self) -> int:
        s = self.state = (self.state * _MULT + self.inc) & _M128
        x = (s >> 64) ^ (s & _M64)
        return ((x << 64 | x) >> (s >> 122)) & _M64


def default_rng(entropy: Sequence[int]) -> Generator:
    """numpy's `default_rng(SeedSequence(entropy))` for ints >= 0."""
    s_hi, s_lo, i_hi, i_lo = _seed_words(entropy)
    g = Generator(0, ((i_hi << 64 | i_lo) << 1 | 1) & _M128)
    g.next64()
    g.state = (g.state + (s_hi << 64 | s_lo)) & _M128
    g.next64()
    return g
