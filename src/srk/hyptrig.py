"""Closed-form solvers for right-angled hexagons, triangles and the
self-intersecting hexagon, together with both Heron-type invariants.

All lengths are hyperbolic; indices follow the convention that the quantity
attached to index i is computed from the two sides with the other indices.
The long side of a triple is named by its index, `long_index`.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Tuple, Union

from .tolerances import CLAMP, DELTA_BAND

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def long_index(v: Sequence[float]) -> int:
    """Index of the first largest entry of `v`: the long side L of a
    self-hexagon or flat triple, which the pants builders and the closed
    forms name by its index; the search's flat step twists along it."""
    return max(range(3), key=v.__getitem__)


class TrigError(ValueError):
    pass


def _acosh_clamped(x: float) -> float:
    if x < 1.0:
        if x < 1.0 - CLAMP:
            raise TrigError(f"acosh argument {x} below domain")
        x = 1.0
    return math.acosh(x)


def _acos_clamped(x: float) -> float:
    if abs(x) > 1.0:
        if abs(x) > 1.0 + CLAMP:
            raise TrigError(f"acos argument {x} outside domain")
        x = math.copysign(1.0, x)
    return math.acos(x)


def _check_sides(a: Tuple[float, float, float]) -> Tuple[float, float, float]:
    a1, a2, a3 = (float(x) for x in a)
    for x in (a1, a2, a3):
        if not (x > 0.0 and math.isfinite(x)):
            raise TrigError(f"side lengths must be positive, got {a}")
    return a1, a2, a3


def delta_invariant(a1: float, a2: float, a3: float) -> float:
    """2 prod cosh(a_i) - sum cosh(a_i)^2 + 1.

    Positive exactly when no side exceeds the sum of the other two; its sign
    decides between triangle, flat and self-intersecting geometry.  Raises
    OverflowError when a cosh or a product overflows a float, so that no
    NaN reaches the sign tests.
    """
    c1, c2, c3 = math.cosh(a1), math.cosh(a2), math.cosh(a3)
    d = 2.0 * c1 * c2 * c3 - (c1 * c1 + c2 * c2 + c3 * c3) + 1.0
    if not math.isfinite(d):
        raise OverflowError(f"delta invariant of {(a1, a2, a3)} overflows")
    return d


# A solution is a named tuple of per-side triples only; the Heron terms and
# the long side derive from the half-lengths `a`.

class HexagonSolution(NamedTuple):
    a: Tuple[float, float, float]
    b: Tuple[float, float, float]

    @property
    def heron(self) -> float:
        """D' = sinh(b_i) sinh(a_j) sinh(a_k)."""
        c1, c2, c3 = (math.cosh(x) for x in self.a)
        return math.sqrt(2.0 * c1 * c2 * c3 + c1 ** 2 + c2 ** 2 + c3 ** 2
                         - 1.0)


class TriangleSolution(NamedTuple):
    a: Tuple[float, float, float]
    theta: Tuple[float, float, float]

    @property
    def heron(self) -> float:
        """D = sin(theta_i) sinh(a_j) sinh(a_k)."""
        return math.sqrt(delta_invariant(*self.a))


class SelfHexagonSolution(NamedTuple):
    a: Tuple[float, float, float]
    d: Tuple[float, float, float]

    @property
    def heron(self) -> float:
        return math.sqrt(-delta_invariant(*self.a))


Solution = Union[HexagonSolution, TriangleSolution, SelfHexagonSolution]


def solve_hexagon(a1: float, a2: float, a3: float) -> HexagonSolution:
    """Right-angled hexagon with alternate sides a_i; returns the b_i.

    cosh(b_i) = (cosh a_i + cosh a_j cosh a_k) / (sinh a_j sinh a_k).
    """
    a = _check_sides((a1, a2, a3))
    ch = [math.cosh(x) for x in a]
    sh = [math.sinh(x) for x in a]
    b = tuple(_acosh_clamped((ch[i] + ch[j] * ch[k]) / (sh[j] * sh[k]))
              for i, j, k in _CYCLIC)
    return HexagonSolution(a, b)


def solve_triangle(a1: float, a2: float, a3: float) -> TriangleSolution:
    """Hyperbolic triangle with sides a_i; returns opposite angles theta_i.

    cos(theta_i) = (cosh a_j cosh a_k - cosh a_i) / (sinh a_j sinh a_k).
    Requires the strict triangle inequality (delta invariant positive).
    """
    a = _check_sides((a1, a2, a3))
    if delta_invariant(*a) <= DELTA_BAND:
        raise TrigError(f"sides {a} violate the strict triangle inequality")
    ch = [math.cosh(x) for x in a]
    sh = [math.sinh(x) for x in a]
    theta = tuple(_acos_clamped((ch[j] * ch[k] - ch[i]) / (sh[j] * sh[k]))
                  for i, j, k in _CYCLIC)
    return TriangleSolution(a, theta)


def solve_self_hexagon(a1: float, a2: float, a3: float) -> SelfHexagonSolution:
    """Self-intersecting right-angled hexagon; one side exceeds the others.

    With L the long side and (L, j, k) cyclic, cosh(d_L) = (cosh a_L -
    cosh a_j cosh a_k) / (sinh a_j sinh a_k), and the short-side formulas
    mirror the hexagon ones with a sign flip.  The long side may be at any
    index; `long_index(a)` names it, for this solver and its callers alike.
    """
    a = _check_sides((a1, a2, a3))
    if delta_invariant(*a) >= -DELTA_BAND:
        raise TrigError(f"sides {a} are not in the self-intersecting range")
    li = long_index(a)
    ch = [math.cosh(x) for x in a]
    sh = [math.sinh(x) for x in a]
    d = tuple(_acosh_clamped((ch[i] - ch[j] * ch[k] if i == li
                              else ch[j] * ch[k] - ch[i]) / (sh[j] * sh[k]))
              for i, j, k in _CYCLIC)
    return SelfHexagonSolution(a, d)
