"""Grid re-verification of the computer-checked inequalities.

Each claim reduces to the positivity of an explicit analytic expression on
a compact box.  The checker evaluates the expression on a dense lattice and
subtracts a Lipschitz pad: half the largest difference between neighbouring
grid values along each axis, summed over the axes (the grid slope times half
the mesh, with the mesh cancelled).  A reported positive margin certifies
positivity at the granularity of the pad.  This reproduces the assurance
level of the original computer checks; formal interval arithmetic is out of
scope.

The claims stream their grids in blocks of whole rows, each claim through
its own block buffers (see `srk._grids`, which imports numpy at its top).
`verify_paper_inequalities` and `phi_max_over_a1` import that module, and
numpy with it, on their first call: importing this module (as `srk` and its
CLI do) compiles neither, and `srk verify` loads both on its first claim.

`boum_bound` and `bandwidth_window` are two of the paper's trace bounds in
closed form, on floats; acceptance criterion 10 checks them against matrix
traces.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

from .psl2r import nonhyperbolic
from .tolerances import WINDOW_END_SLACK, WINDOW_START_SLACK

B2_HALF = 2.2254             # admissible half-length bound of the search


class ClaimReport(NamedTuple):
    claim_id: str
    margin: float               # padded minimum; must be positive
    raw_min: float
    lipschitz_pad: float
    grid_points: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.margin > 0.0


def verify_paper_inequalities(scale: float = 1.0) -> List[ClaimReport]:
    """Evaluate every computer-checked claim; all margins must be positive.

    `scale` multiplies the grid sizes (used by the refinement stability
    check).  A margin is the grid minimum less a Lipschitz pad that grows
    with the grid spacing, so a positive margin proves the claim, while a
    non-positive one says only that this grid cannot: on coarse grids the
    pad exceeds a positive minimum.  At scale 0.02, phi_below_9 reads
    -0.0117 on 64 points; at 0.001, selfhex_delta3_cap_6.8 also fails, at
    -0.0165 on 200 points; at 0.05 all 13 claims pass.  A non-positive
    margin is surfaced, never suppressed.
    """
    from . import _grids
    return [fn(max(int(base_n * scale), 16)) for fn, base_n in _grids.CLAIMS]


def phi_max_over_a1(a3: float) -> float:
    """max of Phi(a1, a3) over 512 points a1 in [1e-3, a3].

    The domain is a finite a3 >= 1e-3, else ValueError; past a3 of about
    177.79, sinh(2 a3)^2 overflows a float and the call raises OverflowError.
    """
    a3 = float(a3)
    if not (math.isfinite(a3) and a3 >= 1e-3):
        raise ValueError(f"phi_max_over_a1 needs a finite a3 >= 1e-3, "
                         f"got {a3!r}")
    import numpy as np
    from . import _grids
    with np.errstate(over="ignore", invalid="ignore"):
        phi = float(_grids.phi_max(np.array([a3]), 512)[0])
    if not math.isfinite(phi):
        raise OverflowError(f"max of Phi at a3 = {a3!r} overflows a float")
    return phi


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
        bounds.append(2.0 * math.sqrt(math.cosh(t[j]) * math.cosh(t[k])
                                      / (math.tanh(a[j]) * math.tanh(a[k]))))
    a3 = max(a)
    flag = all(math.cosh(a[i]) ** 2 / math.sinh(a[i]) <= math.sinh(a3)
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
        raise ValueError("bandwidth needs positive a1, b2")
    q = math.sinh(abs(t3) / 2.0) * math.sinh(b2)
    th, ct = math.tanh(a1 / 2.0), 1.0 / math.tanh(a1 / 2.0)
    if not (th <= q <= ct):
        return None
    big_a = math.cosh(t3 / 2.0) + math.cosh(b2) * math.sinh(t3 / 2.0)
    big_b = math.cosh(t3 / 2.0) - math.cosh(b2) * math.sinh(t3 / 2.0)

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
        if cc >= lo - WINDOW_START_SLACK and nonhyperbolic(phi(cc)):
            return cc
        n += 1
    return None
