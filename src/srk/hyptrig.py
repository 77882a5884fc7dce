"""Closed-form solvers for right-angled hexagons, triangles and the
self-intersecting hexagon, together with both Heron-type invariants.

All lengths are hyperbolic; indices follow the convention that the quantity
attached to index i is computed from the two sides with the other indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence, Tuple, Union

from .tolerances import CLAMP, DELTA_BAND

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


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


# A solution holds per-side triples only; the Heron terms and the long side
# derive from the half-lengths `a`.  So a cyclic relabelling of the sides
# permutes every field (`relabel`).

@dataclass(frozen=True)
class HexagonSolution:
    a: Tuple[float, float, float]
    b: Tuple[float, float, float]

    @property
    def heron(self) -> float:
        """D' = sinh(b_i) sinh(a_j) sinh(a_k)."""
        c1, c2, c3 = (math.cosh(x) for x in self.a)
        return math.sqrt(2.0 * c1 * c2 * c3 + c1 ** 2 + c2 ** 2 + c3 ** 2
                         - 1.0)


@dataclass(frozen=True)
class TriangleSolution:
    a: Tuple[float, float, float]
    theta: Tuple[float, float, float]

    @property
    def heron(self) -> float:
        """D = sin(theta_i) sinh(a_j) sinh(a_k)."""
        return math.sqrt(delta_invariant(*self.a))


@dataclass(frozen=True)
class SelfHexagonSolution:
    a: Tuple[float, float, float]
    d: Tuple[float, float, float]

    @property
    def heron(self) -> float:
        return math.sqrt(-delta_invariant(*self.a))

    @property
    def long_index(self) -> int:
        """Index of the side exceeding the sum of the others."""
        return max(range(3), key=lambda i: self.a[i])


Solution = Union[HexagonSolution, TriangleSolution, SelfHexagonSolution]


def relabel(sol: Solution, perm: Sequence[int]) -> Solution:
    """The solution for the sides (a_{perm[0]}, a_{perm[1]}, a_{perm[2]}),
    perm a cyclic shift.

    Each per-side value reads its two neighbours in cyclic order, or
    through a two-factor product, which commutes exactly; so it moves with
    its side unchanged, and the result equals solving the relabelled sides
    afresh, bit for bit.
    """
    pick = itemgetter(*perm)
    return type(sol)(*map(pick, vars(sol).values()))   # its fields, in order


def solve_hexagon(a1: float, a2: float, a3: float) -> HexagonSolution:
    """Right-angled hexagon with alternate sides a_i; returns the b_i.

    cosh(b_i) = (cosh a_i + cosh a_j cosh a_k) / (sinh a_j sinh a_k).
    """
    a = _check_sides((a1, a2, a3))
    ch = [math.cosh(x) for x in a]
    sh = [math.sinh(x) for x in a]
    b = tuple(_acosh_clamped((ch[i] + ch[j] * ch[k]) / (sh[j] * sh[k]))
              for i, j, k in _CYCLIC)
    return HexagonSolution(a=a, b=b)


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
    return TriangleSolution(a=a, theta=theta)


def solve_self_hexagon(a1: float, a2: float, a3: float) -> SelfHexagonSolution:
    """Self-intersecting right-angled hexagon; one side exceeds the others.

    With the long side labelled 3, cosh(d_3) = (cosh a_3 - cosh a_1 cosh a_2)
    / (sinh a_1 sinh a_2), and the short-side formulas mirror the hexagon
    ones with a sign flip.  The input may carry the long side anywhere; the
    solution's `long_index` records which one it was.
    """
    a = _check_sides((a1, a2, a3))
    if delta_invariant(*a) >= -DELTA_BAND:
        raise TrigError(f"sides {a} are not in the self-intersecting range")
    long_index = max(range(3), key=lambda i: a[i])
    ch = [math.cosh(x) for x in a]
    sh = [math.sinh(x) for x in a]
    li = long_index
    d = [0.0, 0.0, 0.0]
    d[li] = _acosh_clamped(
        (ch[li] - ch[(li + 1) % 3] * ch[(li + 2) % 3])
        / (sh[(li + 1) % 3] * sh[(li + 2) % 3]))
    for i in ((li + 1) % 3, (li + 2) % 3):
        j, k = (x for x in range(3) if x != i)
        d[i] = _acosh_clamped((ch[j] * ch[k] - ch[i]) / (sh[j] * sh[k]))
    return SelfHexagonSolution(a=a, d=tuple(d))
