"""Brute-force references for feasibility and corner enumeration.

Everything here trades speed for obviousness: exhaustive scans over every
integral position, with validity spelled out as direct arithmetic. The
point is to have an independent answer to compare the real solver and the
corner enumerator against, so this module deliberately shares no search
logic with them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Instance, Packing, Placement, RectDims


@dataclass(frozen=True)
class OracleLimits:
    """Hard cap on how many search states the oracle may visit."""

    max_states: int = 10**8

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError(f"max_states must be positive, got {self.max_states}")


class OracleCapacityError(RuntimeError):
    """The exhaustive search exceeded its state budget.

    Raised instead of ever returning a wrong answer: the oracle refuses
    instances it cannot finish.
    """


def _disjoint(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    return a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1]


def _orientations(shape: RectDims) -> list[tuple[int, int, bool]]:
    out = [(shape.width, shape.height, False)]
    if not shape.is_square:
        out.append((shape.height, shape.width, True))
    return out


def oracle_feasible(instance: Instance, limits: OracleLimits | None = None) -> Packing | None:
    """Find any feasible packing by trying every placement, or prove none.

    Rectangles are processed in input order; for each, every in-container
    position is tried row by row from the bottom ((y, x) increasing),
    unrotated before rotated, with no stability requirement. Returns the
    first complete assignment found, None after exhausting all of them. A
    state is one partial assignment entered by the search.
    """
    limits = limits or OracleLimits()
    width = instance.container.width
    height = instance.container.height
    shapes = instance.rects
    n = instance.n
    states = 0
    placed: list[tuple[int, int, int, int]] = []
    chosen: list[Placement] = []

    def extend(i: int) -> bool:
        nonlocal states
        states += 1
        if states > limits.max_states:
            raise OracleCapacityError(
                f"exceeded {limits.max_states} states on a {width}x{height} instance with {n} rectangles"
            )
        if i == n:
            return True
        for ew, eh, rotated in _orientations(shapes[i]):
            if ew > width or eh > height:
                continue
            for y in range(height - eh + 1):
                for x in range(width - ew + 1):
                    box = (x, y, x + ew, y + eh)
                    if all(_disjoint(box, other) for other in placed):
                        placed.append(box)
                        chosen.append(Placement(x, y, rotated))
                        if extend(i + 1):
                            return True
                        placed.pop()
                        chosen.pop()
        return False

    if extend(0):
        return Packing(instance, tuple(chosen))
    return None


def oracle_corners(p: Packing, shape: RectDims) -> list[tuple[int, int, bool]]:
    """Every (x, y, rotated) that is a bottom-left corner for ``shape``.

    Scans all integral positions inside the container and tests each one
    literally: no overlap with placed rectangles, and a unit move down or
    left would collide or leave the container. Squares report only
    rotated=False. Sorted by (y, x, rotated).
    """
    width = p.instance.container.width
    height = p.instance.container.height
    placed = list(p.boxes().values())
    out = []
    for ew, eh, rotated in _orientations(shape):
        for y in range(max(0, height - eh + 1)):
            for x in range(max(0, width - ew + 1)):
                box = (x, y, x + ew, y + eh)
                if not all(_disjoint(box, other) for other in placed):
                    continue
                down = (x, y - 1, x + ew, y + eh - 1)
                left = (x - 1, y, x + ew - 1, y + eh)
                down_blocked = y == 0 or not all(_disjoint(down, other) for other in placed)
                left_blocked = x == 0 or not all(_disjoint(left, other) for other in placed)
                if down_blocked and left_blocked:
                    out.append((x, y, rotated))
    out.sort(key=lambda c: (c[1], c[0], c[2]))
    return out
