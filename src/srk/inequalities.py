"""Grid re-verification of the computer-checked inequalities.

Each claim reduces to the positivity of an explicit analytic expression on
a compact box.  The checker evaluates the expression on a dense lattice and
subtracts a Lipschitz pad: half the largest difference between neighbouring
grid values along each axis, summed over the axes (the grid slope times half
the mesh, with the mesh cancelled).  A reported positive margin certifies
positivity at the granularity of the pad.  This reproduces the assurance
level of the original computer checks; formal interval arithmetic is out of
scope.

The claims stream their grids through reused block buffers (see
`srk._grids`).  That module, and numpy with it, is imported on the first
call: importing this module (as `srk` and its CLI do) compiles neither,
and `srk verify` loads both on its first claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class ClaimReport:
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
    check).  A non-positive margin signals a genuine contradiction with the
    source of the inequality and is surfaced, never suppressed.  Every
    claim streams its grid through one workspace made here.
    """
    from . import _grids
    ws = _grids.Workspace()
    return [fn(max(int(base_n * scale), 16), ws)
            for fn, base_n in _grids.CLAIMS]


def phi_max_over_a1(a3, n: int = 512):
    """max of Phi(a1, a3) over n points a1 in [1e-3, a3].

    A float for a scalar a3; for an array, the maximum at each entry.
    """
    import numpy as np
    from . import _grids
    a3 = np.asarray(a3, dtype=float)
    out = _grids.phi_max(a3.ravel(), n, _grids.Workspace()).reshape(a3.shape)
    return float(out) if out.ndim == 0 else out
