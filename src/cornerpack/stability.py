"""Bottom-left stability and compaction.

A placed rectangle is bottom-left stable when it can slide neither
downwards nor leftwards by any positive distance while keeping the packing
feasible (container borders count as obstacles here). :func:`compact`
turns any feasible packing into a bottom-left stable one by repeated
maximal slides; every move strictly decreases the coordinate sum, which
bounds the number of moves and guarantees termination.

Slides are measured on one box map (:meth:`Packing.boxes`), derived once
per call, and on two sorted ``(edge, index)`` lists of its top and right
edges. A down (left) slide bisects to the tops (rights) at or below its
bottom (left) side and walks down to the first box it is over (right
of); :func:`compact` re-files only the edge a move changed. The worst
case stays quadratic (many lower tops sharing none of the box's
columns), never worse than a scan of the whole map.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

from .geometry import Box, Packing, Placement, _rect_index, box_over, box_right_of, is_feasible, l_value

DOWN = "down"
LEFT = "left"


class InfeasiblePackingError(ValueError):
    """Raised when an operation requires a feasible packing and got none."""


@dataclass(frozen=True)
class CompactionTrace:
    """Audit trail of one compaction run.

    ``steps`` holds ``(rect_index, direction, distance)`` triples in the
    order the moves were applied; each moves down or left by a positive
    distance, which lowers the coordinate sum by exactly that amount.
    """

    steps: tuple[tuple[int, str, int], ...]
    initial_l: int
    final_l: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        for _, direction, distance in self.steps:
            if direction not in (DOWN, LEFT):
                raise ValueError(f"unknown trace direction {direction!r}")
            if not distance > 0:
                raise ValueError(f"trace distance must be positive, got {distance}")
        moved = sum(d for _, _, d in self.steps)
        if self.final_l != self.initial_l - moved:
            raise ValueError("trace distances do not account for the coordinate-sum change")
        if self.final_l < 0:
            raise ValueError("coordinate sum cannot be negative")

    @property
    def total_distance(self) -> int:
        return self.initial_l - self.final_l


# Per direction: the moving side of a box and the side of a blocker it stops at.
_AXES = {DOWN: (1, 3), LEFT: (0, 2)}


def _index(p: Packing) -> tuple[dict[int, Box], dict[str, list[tuple[int, int]]]]:
    """``p``'s box map and, per direction, the sorted ``(edge, index)`` stops."""
    boxes = p.boxes()
    return boxes, {d: sorted((b[high], j) for j, b in boxes.items()) for d, (_, high) in _AXES.items()}


def _slide(boxes: dict[int, Box], edges: dict[str, list], i: int, direction: str) -> int:
    """How far box ``i`` can move down or left before a border or another box stops it."""
    rel = box_over if direction == DOWN else box_right_of
    low, box, filed = _AXES[direction][0], boxes[i], edges[direction]
    # Box i's own edge lies beyond its moving side, so the walk skips it.
    for k in range(bisect_left(filed, (box[low] + 1,)) - 1, -1, -1):
        edge, j = filed[k]
        if rel(box, boxes[j]):
            return box[low] - edge
    return box[low]


def max_down_slide(i: int, p: Packing) -> int:
    """Largest distance rectangle ``i`` can move straight down."""
    p.placed_rect(i)  # IndexError or ValueError unless rectangle i is placed
    return _slide(*_index(p), i, DOWN)


def max_left_slide(i: int, p: Packing) -> int:
    """Largest distance rectangle ``i`` can move straight left."""
    p.placed_rect(i)  # IndexError or ValueError unless rectangle i is placed
    return _slide(*_index(p), i, LEFT)


def is_bottom_left_stable_rect(i: int, p: Packing) -> bool:
    """True when rectangle ``i`` can move neither down nor left."""
    return max_down_slide(i, p) == 0 and max_left_slide(i, p) == 0


def is_bottom_left_stable(p: Packing) -> bool:
    """True when every placed rectangle is bottom-left stable."""
    boxes, edges = _index(p)
    return all(_slide(boxes, edges, i, DOWN) == 0 and _slide(boxes, edges, i, LEFT) == 0 for i in boxes)


def compact(p: Packing) -> tuple[Packing, CompactionTrace]:
    """Slide rectangles down and left until none can move.

    Sweeps the placed rectangles in order of increasing ``(y, x)``,
    applying the maximal down slide and then the maximal left slide to
    each, and repeats until a full sweep moves nothing. Orientations are
    never changed, no coordinate ever increases, and the result is
    feasible and bottom-left stable. The returned trace replays the input
    to the output move by move.

    Raises :class:`InfeasiblePackingError` on infeasible input; compaction
    of an overlapping packing is undefined.
    """
    if not is_feasible(p):
        raise InfeasiblePackingError("cannot compact an infeasible packing")

    initial = l_value(p)
    boxes, edges = _index(p)
    steps: list[tuple[int, str, int]] = []

    moved = True
    while moved:
        moved = False
        for i in sorted(boxes, key=lambda i: (boxes[i][1], boxes[i][0])):
            for direction in (DOWN, LEFT):
                d = _slide(boxes, edges, i, direction)
                if d > 0:
                    dx, dy = (0, d) if direction == DOWN else (d, 0)
                    x1, y1, x2, y2 = boxes[i]
                    boxes[i] = (x1 - dx, y1 - dy, x2 - dx, y2 - dy)
                    # Of the filed edges only its top (right) one moved.
                    high, filed = _AXES[direction][1], edges[direction]
                    del filed[bisect_left(filed, (boxes[i][high] + d, i))]
                    insort(filed, (boxes[i][high], i))
                    steps.append((i, direction, d))
                    moved = True

    placements = list(p.placements)
    for i, (x, y, _, _) in boxes.items():
        placements[i] = Placement(x, y, placements[i].rotated)
    current = Packing(p.instance, placements)
    trace = CompactionTrace(tuple(steps), initial, l_value(current))
    return current, trace


def apply_trace(p: Packing, trace: CompactionTrace) -> Packing:
    """Replay a compaction trace step by step from ``p``; a step whose index is
    not an int from 0 to n - 1 raises IndexError, as :meth:`Packing.placed_rect` does."""
    placements, n = list(p.placements), p.instance.n
    for i, direction, distance in trace.steps:
        pl = placements[_rect_index(i, n)]
        if pl is None:
            raise ValueError(f"trace moves unplaced rectangle {i}")
        dx, dy = (0, distance) if direction == DOWN else (distance, 0)
        placements[i] = Placement(pl.x - dx, pl.y - dy, pl.rotated)
    return Packing(p.instance, placements)
