"""Decomposing a stable packing into a corner-occupying build order.

Every feasible packing contains a rectangle that can escape: slide
arbitrarily far up or to the right without hitting anything. Removing it
and repeating yields an extraction order whose reverse rebuilds the
packing one corner-occupying action at a time. This is what makes a
solver restricted to corner placements complete.

One walk finds every escaper. It sorts the rectangles by top-right
corner once, and each climbing step walks that list to the first
rectangle over the current one. When an escaper leaves, the walk audits
it and climbs on from the rest of its chain. A step may still pass most
of the list, so the worst case stays quadratic.

A build order names each action's supports by the corner module's rule,
from two indices of the boxes placed so far by right and by top edge,
and :meth:`PlacementOrder.replay` checks each action against one box
map kept across its steps, so neither derives a packing's boxes once
per rectangle. Naming the supports is also the stability check.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

from .corners import BOTTOM_BORDER, LEFT_BORDER, Corner, CornerAction, _action_box, _supports
from .geometry import Box, Packing, Placement, _rect_index, box_over, box_right_of, is_feasible
from .stability import InfeasiblePackingError
# Unused here: the benchmark's tracer patches these names on this module
# until its patch points become optional (ROADMAP item 1).
from .corners import apply_action  # noqa: F401
from .geometry import free_directions  # noqa: F401
from .stability import is_bottom_left_stable  # noqa: F401


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


def _escapes(boxes: dict[int, Box]) -> Iterator[tuple[int, ...]]:
    """Each round's escape chain among ``boxes``, escaper last.

    The escaper leaves when the walk resumes, which then climbs on from the
    rest of its chain: each earlier entry is still the highest-ranked box
    over its predecessor. Each escaper is audited as it leaves: no box left
    may be over or right of it. A failed audit raises when the first
    offender leaves, so it names the earliest such pair of the order.
    """
    # By top-right corner, highest first; the lower index wins ties
    # (disjoint boxes cannot tie, the index is belt and braces).
    ranked = sorted(boxes, key=lambda i: (boxes[i][2], boxes[i][3], -i), reverse=True)
    chain: list[int] = []
    offenders: dict[int, int] = {}  # box -> the escaper it is right of
    while ranked:
        chain = chain or [ranked[0]]
        top = boxes[chain[-1]]
        # The first box over ``top`` outranks the rest; once right edges
        # reach ``top``'s left side, no later box can be over or right of it.
        k = next(
            (m for m, j in enumerate(ranked) if boxes[j][2] <= top[0] or box_over(boxes[j], top)),
            len(ranked),
        )
        if k < len(ranked) and boxes[ranked[k]][2] > top[0]:
            chain.append(ranked[k])
            continue
        yield tuple(chain)
        escaper = chain.pop()
        if escaper in offenders:
            raise RuntimeError(
                "internal contradiction: extraction order leaves "
                f"rectangle {escaper} over or right of rectangle {offenders[escaper]}"
            )
        # None of ranked[:k] is over ``top``, or the climb would have gone on.
        offenders = offenders or {j: escaper for j in ranked[:k] if box_right_of(boxes[j], top)}
        ranked.remove(escaper)


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
    return EscapeChain(next(_escapes(live)))


def extraction_order(p: Packing) -> tuple[int, ...]:
    """Peel off an escaping rectangle until none are left.

    Each round's escape chain refers to the rectangles still present; the
    walk resumes it after each escaper leaves rather than climbing afresh.
    In the returned order, no later entry is over or right of an earlier
    one; each escaper is audited for that as it leaves. Raises
    InfeasiblePackingError on overlapping or protruding input.
    """
    if not is_feasible(p):
        raise InfeasiblePackingError("extraction order requires a feasible packing")
    return tuple(chain[-1] for chain in _escapes(p.boxes()))


@dataclass(frozen=True)
class PlacementOrder:
    """An order in which a packing is rebuilt by corner placements.

    ``actions`` is the build order: one corner-occupying action per placed
    rectangle, and :attr:`order` reads off the rectangles they place.
    Each action places its rectangle at its final coordinates and
    orientation, checked at construction, onto a corner formed only by
    earlier actions and the borders, checked by :meth:`replay`.
    """

    packing: Packing
    actions: tuple[CornerAction, ...]

    def __post_init__(self):
        if sorted(self.order) != sorted(self.packing.placed_indices()):
            raise ValueError("order must be a permutation of the placed indices")
        placements, n = self.packing.placements, self.packing.instance.n
        for action in self.actions:
            i = action.rect_index
            pl = placements[_rect_index(i, n)]
            if action.corner.position != (pl.x, pl.y, pl.rotated):
                raise ValueError(f"action for rectangle {i} does not rebuild its placement")

    @property
    def order(self) -> tuple[int, ...]:
        """The rectangles in the order the actions place them."""
        return tuple(a.rect_index for a in self.actions)

    def replay(self) -> list[Packing]:
        """Rebuild the packing step by step, validating every action.

        Returns the intermediate packings from empty to complete; the last
        one equals the source packing on the placed indices. Each action
        is checked as :func:`apply_action` checks it, against one box map
        of the prefix built so far, kept across the steps. Raises
        StaleCornerError if some action is not corner-occupying for that
        prefix.
        """
        instance = self.packing.instance
        placements: list[Placement | None] = [None] * instance.n
        boxes: dict[int, Box] = {}
        states = [Packing(instance, tuple(placements))]
        for action in self.actions:
            i = action.rect_index
            boxes[i] = _action_box(boxes, instance, action)
            placements[i] = self.packing.placements[i]
            states.append(Packing(instance, tuple(placements)))
        return states


def placement_order(p: Packing) -> PlacementOrder:
    """Derive a corner-realizable build order for a stable packing.

    The reverse of the extraction order works: whatever was extracted
    later gets placed earlier. The packing's boxes are derived once.
    Each action names its supports with :func:`_supports`, from two
    indices of the boxes placed so far, by right and by top edge: on each
    side, the lowest index whose box touches it, else the border. The
    feasibility check keeps every box inside the container and off the
    others, so a box with both sides blocked is on a corner. The
    extraction order's audit puts each box before any box over or right
    of it, so every box touching a side is placed earlier: the lowest
    earlier index is the lowest of all, and a side off the border that
    none touches can slide (the stability check).

    Raises InfeasiblePackingError on infeasible input and
    NotBottomLeftStableError when some rectangle could still slide down
    or left (run compact() first in that case).
    """
    if not is_feasible(p):
        raise InfeasiblePackingError("cannot order an infeasible packing")
    boxes = p.boxes()
    rights: dict[int, list[int]] = defaultdict(list)
    tops: dict[int, list[int]] = defaultdict(list)
    actions = []
    for i in reversed([chain[-1] for chain in _escapes(boxes)]):
        box = x, y, x2, y2 = boxes[i]
        left, bottom = _supports(boxes, rights[x], tops[y], box)
        if (x and left is LEFT_BORDER) or (y and bottom is BOTTOM_BORDER):
            raise NotBottomLeftStableError(
                "packing is not bottom-left stable; compact() it before ordering"
            )
        rights[x2].append(i)
        tops[y2].append(i)
        actions.append(CornerAction(i, Corner(x, y, p.placements[i].rotated, left, bottom)))
    return PlacementOrder(p, tuple(actions))
