"""Brute-force references for feasibility and corner enumeration.

Everything here trades speed for obviousness: exhaustive scans over every
integral position, with validity spelled out as direct arithmetic. The
point is to have an independent answer to compare the real solver and the
corner enumerator against, so this module deliberately shares no search
logic with them. The feasibility search still considers every position,
but a row or a run of rows skips the positions that one blocking box
covers, so its work between two free boxes is bounded by the boxes alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .geometry import Instance, Packing, Placement, RectDims


@dataclass(frozen=True)
class OracleLimits:
    """Hard cap on how many search states the oracle may visit."""

    max_states: int = 10**8

    def __post_init__(self):
        if not (type(self.max_states) is int and self.max_states >= 1):
            raise ValueError(f"max_states must be a positive integer, got {self.max_states!r}")


class OracleCapacityError(RuntimeError):
    """The exhaustive search exceeded its state budget.

    Raised instead of ever returning a wrong answer: the oracle refuses
    instances it cannot finish.
    """


def _disjoint(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    return a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1]


def _orientations(shape: RectDims) -> list[tuple[int, int, bool]]:
    w, h = shape.width, shape.height
    return [(w, h, False)] if w == h else [(w, h, False), (h, w, True)]


def _free_boxes(
    dims: list[tuple[int, int, bool]], width: int, height: int, placed: list[tuple[int, int, int, int]]
) -> Iterator[tuple[tuple[int, int, int, int], bool]]:
    """Each in-container box of a shape with orientations ``dims`` disjoint
    from ``placed``, and if it is rotated: unrotated before rotated, then by
    (y, x). A box that meets ``other`` still meets it one cell right, up to
    ``other``'s right edge, and one cell up, up to its top: so a row resumes
    at that edge, and a row with no free box jumps to the lowest top it met,
    or ends the scan if it met none (the shape is too wide). Read lazily, so
    ``placed`` must hold the same boxes whenever the generator resumes."""
    for ew, eh, rotated in dims:
        y = 0
        while y <= height - eh:
            x, top = 0, height  # the next row: one up once a box is free
            while x <= width - ew:
                box = (x, y, x + ew, y + eh)
                for other in placed:
                    if not _disjoint(box, other):
                        x, top = other[2], min(top, other[3])
                        break
                else:
                    yield box, rotated
                    x, top = x + 1, y + 1
            y = top


def oracle_feasible(instance: Instance, limits: OracleLimits | None = None) -> Packing | None:
    """Find any feasible packing by trying every placement, or prove none.

    Rectangles are processed in input order; for each, every in-container
    position is tried row by row from the bottom ((y, x) increasing),
    unrotated before rotated, with no stability requirement. Returns the
    first complete assignment found, None after exhausting all of them. A
    state is one partial assignment entered by the search. The search
    keeps one pending-box generator per rectangle on an explicit stack, so
    Python's recursion limit does not bound the number of rectangles.
    """
    max_states = limits.max_states if limits else OracleLimits.max_states  # no default object built
    width = instance.container.width
    height = instance.container.height
    n = instance.n
    dims = [_orientations(r) for r in instance.rects]  # read at every state
    states = 0
    placed: list[tuple[int, int, int, int]] = []
    rotated: list[bool] = []
    pending = []  # one generator per entered state, for the rectangle it places next
    while True:
        # Entering the state in which rectangles 0 .. len(placed) - 1 are placed.
        states += 1
        if states > max_states:
            raise OracleCapacityError(
                f"exceeded {max_states} states on a {width}x{height} instance with {n} rectangles"
            )
        if len(placed) == n:
            return Packing(instance, tuple(Placement(b[0], b[1], r) for b, r in zip(placed, rotated)))
        pending.append(_free_boxes(dims[len(placed)], width, height, placed))
        while (step := next(pending[-1], None)) is None:
            pending.pop()
            if not pending:
                return None
            placed.pop()
            rotated.pop()
        placed.append(step[0])
        rotated.append(step[1])


def oracle_corners(p: Packing, shape: RectDims) -> list[tuple[int, int, bool]]:
    """Every (x, y, rotated) that is a bottom-left corner for ``shape``.

    Takes every in-container position overlapping no placed rectangle
    (:func:`_free_boxes`, as the feasibility search does) and tests each
    one literally: a unit move down or left would collide or leave the
    container. Squares report only rotated=False. Sorted by (y, x, rotated).
    """
    c = p.instance.container
    placed = list(p.boxes().values())
    out = []
    for (x, y, x2, y2), rotated in _free_boxes(_orientations(shape), c.width, c.height, placed):
        down = (x, y - 1, x2, y2 - 1)
        left = (x - 1, y, x2 - 1, y2)
        down_blocked = y == 0 or not all(_disjoint(down, other) for other in placed)
        left_blocked = x == 0 or not all(_disjoint(left, other) for other in placed)
        if down_blocked and left_blocked:
            out.append((x, y, rotated))
    out.sort(key=lambda pos: (pos[1], pos[0], pos[2]))
    return out
