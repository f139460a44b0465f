"""Bottom-left stability and compaction.

A placed rectangle is bottom-left stable when it can slide neither
downwards nor leftwards by any positive distance while keeping the packing
feasible (container borders count as obstacles here). :func:`compact`
turns any feasible packing into a bottom-left stable one by repeated
maximal slides; every move strictly decreases the coordinate sum, which
bounds the number of moves and guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Packing, Placement, box_over, box_right_of, is_feasible, l_value

DOWN = "down"
LEFT = "left"


class InfeasiblePackingError(ValueError):
    """Raised when an operation requires a feasible packing and got none."""


@dataclass(frozen=True)
class CompactionTrace:
    """Audit trail of one compaction run.

    ``steps`` holds ``(rect_index, direction, distance)`` triples in the
    order the moves were applied; each distance is positive and lowers the
    coordinate sum by exactly that amount.
    """

    steps: tuple[tuple[int, str, int], ...]
    initial_l: int
    final_l: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        moved = sum(d for _, _, d in self.steps)
        if self.final_l != self.initial_l - moved:
            raise ValueError("trace distances do not account for the coordinate-sum change")
        if self.final_l < 0:
            raise ValueError("coordinate sum cannot be negative")

    @property
    def total_distance(self) -> int:
        return self.initial_l - self.final_l


def max_down_slide(i: int, p: Packing) -> int:
    """Largest distance rectangle ``i`` can move straight down.

    The move must keep the packing feasible, so the floor and every
    rectangle below ``i`` with positive x-overlap limit the slide.
    """
    target = p.placed_rect(i).box
    below = [b[3] for j, b in p.boxes().items() if j != i and box_over(target, b)]
    return target[1] - max(below, default=0)


def max_left_slide(i: int, p: Packing) -> int:
    """Largest distance rectangle ``i`` can move straight left."""
    target = p.placed_rect(i).box
    left = [b[2] for j, b in p.boxes().items() if j != i and box_right_of(target, b)]
    return target[0] - max(left, default=0)


def _moved(pl: Placement, direction: str, distance: int) -> Placement:
    """``pl`` moved ``distance`` units down or left."""
    if direction == DOWN:
        return Placement(pl.x, pl.y - distance, pl.rotated)
    if direction == LEFT:
        return Placement(pl.x - distance, pl.y, pl.rotated)
    raise ValueError(f"unknown trace direction {direction!r}")


def is_bottom_left_stable_rect(i: int, p: Packing) -> bool:
    """True when rectangle ``i`` can move neither down nor left."""
    return max_down_slide(i, p) == 0 and max_left_slide(i, p) == 0


def is_bottom_left_stable(p: Packing) -> bool:
    """True when every placed rectangle is bottom-left stable."""
    return all(is_bottom_left_stable_rect(i, p) for i in p.placed_indices())


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
    current = p
    steps: list[tuple[int, str, int]] = []

    moved = True
    while moved:
        moved = False
        order = sorted(
            current.placed_indices(),
            key=lambda i: (current.placements[i].y, current.placements[i].x),
        )
        for i in order:
            for direction, max_slide in ((DOWN, max_down_slide), (LEFT, max_left_slide)):
                d = max_slide(i, current)
                if d > 0:
                    current = current.with_placement(i, _moved(current.placements[i], direction, d))
                    steps.append((i, direction, d))
                    moved = True

    trace = CompactionTrace(tuple(steps), initial, l_value(current))
    return current, trace


def apply_trace(p: Packing, trace: CompactionTrace) -> Packing:
    """Replay a compaction trace step by step from ``p``."""
    current = p
    for i, direction, distance in trace.steps:
        pl = current.placements[i]
        if pl is None:
            raise ValueError(f"trace moves unplaced rectangle {i}")
        current = current.with_placement(i, _moved(pl, direction, distance))
    return current
