"""Decomposing a stable packing into a corner-occupying build order.

Every feasible packing contains a rectangle that can escape: slide
arbitrarily far up or to the right without hitting anything. Removing it
and repeating yields an extraction order whose reverse rebuilds the
packing one corner-occupying action at a time. This is what makes a
solver restricted to corner placements complete.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corners import Corner, CornerAction, StaleCornerError, _supports, apply_action
from .geometry import RIGHT, UP, Box, Packing, box_over, box_right_of, free_directions, is_feasible
from .stability import InfeasiblePackingError, is_bottom_left_stable

_BOTH = frozenset((UP, RIGHT))


class NotBottomLeftStableError(ValueError):
    """The packing is not bottom-left stable; compact() it first."""


@dataclass(frozen=True)
class EscapeChain:
    """The witness trail produced while hunting for an escaping rectangle.

    ``visited`` starts at the rectangle with the lexicographically largest
    top-right corner and each later entry lies over its predecessor; the
    last entry is the escaper.
    """

    visited: tuple[int, ...]

    def __post_init__(self):
        if not self.visited:
            raise ValueError("an escape chain cannot be empty")
        if len(set(self.visited)) != len(self.visited):
            raise ValueError(f"escape chain revisits a rectangle: {self.visited}")

    @property
    def escaper(self) -> int:
        return self.visited[-1]

    def __len__(self) -> int:
        return len(self.visited)


def _rank(box: Box, i: int) -> tuple[int, int, int]:
    # Top-right corner, lexicographic; lower index wins ties (disjoint
    # rectangles cannot tie, the index term is belt and braces).
    return (box[2], box[3], -i)


def _climb(live: dict[int, Box]) -> EscapeChain:
    """The escape chain among ``live``, which must be non-empty and disjoint."""
    current = max(live, key=lambda i: _rank(live[i], i))
    chain = [current]
    while True:
        top = live[current]
        over = [i for i, box in live.items() if i != current and box_over(box, top)]
        if not over:
            return EscapeChain(tuple(chain))
        nxt = max(over, key=lambda i: _rank(live[i], i))
        if live[nxt][1] < top[3] or len(chain) >= len(live):
            raise RuntimeError("internal contradiction: escape chain failed to climb strictly")
        current = nxt
        chain.append(current)


def find_escaper(p: Packing) -> EscapeChain:
    """Find a rectangle free to move both up and right.

    Starts from the placed rectangle with the largest top-right corner and
    repeatedly steps to the highest-ranked rectangle over the current one;
    when nothing is over it, the current rectangle is the escaper.

    Raises InfeasiblePackingError on overlapping or protruding input and
    ValueError when no rectangle is placed at all.
    """
    if not is_feasible(p):
        raise InfeasiblePackingError("escape search requires a feasible packing")
    live = p.boxes()
    if not live:
        raise ValueError("escape search requires at least one placed rectangle")
    return _climb(live)


def extraction_order(p: Packing) -> tuple[int, ...]:
    """Peel off an escaping rectangle until none are left.

    Each round re-runs the escape search on the rectangles still present,
    so ranks and over-relations always refer to the current residue. In
    the returned order, no later entry is over or right of an earlier
    one; that relation is re-audited before returning. Raises
    InfeasiblePackingError on overlapping or protruding input.
    """
    if not is_feasible(p):
        raise InfeasiblePackingError("extraction order requires a feasible packing")
    boxes = p.boxes()
    live = dict(boxes)
    order = []
    while live:
        escaper = _climb(live).escaper
        order.append(escaper)
        del live[escaper]
    for k, earlier in enumerate(order):
        for later in order[k + 1 :]:
            if box_over(boxes[later], boxes[earlier]) or box_right_of(boxes[later], boxes[earlier]):
                raise RuntimeError(
                    "internal contradiction: extraction order leaves "
                    f"rectangle {later} over or right of rectangle {earlier}"
                )
    return tuple(order)


@dataclass(frozen=True)
class PlacementOrder:
    """An order in which a packing is rebuilt by corner placements.

    ``actions`` holds one corner-occupying action per placed rectangle;
    action k places ``order[k]`` at its final coordinates onto a corner
    formed only by earlier entries and the borders.
    """

    packing: Packing
    order: tuple[int, ...]
    actions: tuple[CornerAction, ...]

    def __post_init__(self):
        if sorted(self.order) != sorted(self.packing.placed_indices()):
            raise ValueError("order must be a permutation of the placed indices")
        if len(self.actions) != len(self.order):
            raise ValueError("exactly one action per ordered rectangle required")
        for i, action in zip(self.order, self.actions):
            if action.rect_index != i:
                raise ValueError(f"action for rectangle {i} targets {action.rect_index}")

    def replay(self) -> list[Packing]:
        """Rebuild the packing step by step, validating every action.

        Returns the intermediate packings from empty to complete; the last
        one equals the source packing on the placed indices. Raises
        StaleCornerError if some action is not corner-occupying for the
        prefix built so far.
        """
        current = Packing.empty(self.packing.instance)
        states = [current]
        for action in self.actions:
            current = apply_action(current, action)
            states.append(current)
        return states


def placement_order(p: Packing) -> PlacementOrder:
    """Derive a corner-realizable build order for a stable packing.

    The reverse of the extraction order works: whatever was extracted
    later gets placed earlier, and its supports are always among the
    rectangles placed before it. Each action is validated once during
    construction, by the corner scan that names its supports, and the
    freshly placed rectangle must end up with nothing over it and nothing
    on its right.

    Raises InfeasiblePackingError on infeasible input and
    NotBottomLeftStableError when some rectangle could still slide down
    or left (run compact() first in that case).
    """
    if not is_feasible(p):
        raise InfeasiblePackingError("cannot order an infeasible packing")
    if not is_bottom_left_stable(p):
        raise NotBottomLeftStableError(
            "packing is not bottom-left stable; compact() it before ordering"
        )
    order = tuple(reversed(extraction_order(p)))
    boxes = p.boxes()
    current = Packing.empty(p.instance)
    actions = []
    for i in order:
        x, y, x2, y2 = boxes[i]
        try:
            left, bottom = _supports(current, x, y, x2 - x, y2 - y)
        except StaleCornerError as e:
            raise RuntimeError(
                f"internal contradiction: rectangle {i} is not corner-placeable in order"
            ) from e
        action = CornerAction(i, Corner(x, y, p.placements[i].rotated, left, bottom))
        current = current.with_placement(i, p.placements[i])
        if free_directions(i, current) != _BOTH:
            raise RuntimeError(
                f"internal contradiction: rectangle {i} placed under or left of another"
            )
        actions.append(action)
    return PlacementOrder(p, order, tuple(actions))
