"""Op times scaled to a reference machine speed.

On a shared host the speed of this process drifts, over seconds, between
levels up to ~2x apart while the code is unchanged: a fixed numpy
computation took 0.55 ms in fast spells and 1.1-1.3 ms in slow ones, and
the same record stream of `classify` ran at 0.75 ms or 1.35 ms per op.  A
20 s run sees an unpredictable mix of spells, so raw medians of `classify`
spread by 28-47% (inter-quartile range over median) between runs, and the
fixed-work `verify` op by 12-15%.

The loop therefore runs a fixed probe, a short numpy computation that does
not touch srk, before the first op and after every PROBE_EVERY_S of op
time.  An op's local speed is the mean duration of the two probes that
bracket it, and its scaled time is its wall time times REFERENCE_S over that
local probe time: the time the op would have taken on a machine where the
probe takes REFERENCE_S.  REFERENCE_S is close to the probe's time in this
machine's fast spells, so scaled times read close to wall times there.

The probe slows as much as numpy-heavy code does (1.97x against 2.00x for
a `search` op, measured across spells), which is what srk runs today.  Plain
Python float code slows less (1.62x): were srk's scalar paths moved off
numpy, its scaled times would read up to ~18% low in slow spells, so such a
change should be judged with the raw times the summary line also prints.
"""

from __future__ import annotations

import time
from typing import List, Sequence

PROBE_EVERY_S = 0.01
REFERENCE_S = 0.55e-3


def probe() -> float:
    """Seconds taken by a fixed 2x2 numpy computation.

    numpy is imported here, not at module level, so that the set-up probe
    can time `import srk` (numpy included) from a clean interpreter.
    """
    import numpy as np
    a = np.array([[1.0, 0.5], [0.2, 1.1]])
    t0 = time.perf_counter()
    m = np.eye(2)
    for _ in range(300):
        m = a @ m
        m = m / abs(m[0, 0])
    return time.perf_counter() - t0


def scaled(lat: Sequence[float], probe_pos: Sequence[int],
           probe_s: Sequence[float]) -> List[float]:
    """Op times scaled to the reference speed.

    probe_pos[j] is the number of ops that had finished when probe j ran;
    the first probe runs before any op and the last after every op.
    """
    import numpy as np
    pos = np.asarray(probe_pos)
    dur = np.asarray(probe_s)
    after = np.searchsorted(pos, np.arange(len(lat)), side="right")
    local = (dur[after - 1] + dur[after]) / 2.0
    return (np.asarray(lat) * (REFERENCE_S / local)).tolist()
