"""Bottom-left corner enumeration and corner-occupying actions.

A bottom-left corner is relative to a concrete shape: it is a position and
orientation at which the shape fits inside the container, overlaps
nothing, and is bottom-left stable the moment it is placed. Placing a
rectangle onto such a corner is the only move the exact solver performs.

One bitboard scan, :func:`_corner_scan`, decides that test, on the grid
of the placed boxes' distinct edges (:func:`_grid`), so its cost follows
the number of rectangles, not the container's size. The search builds
that grid once per node from its mutable :class:`_Board`; enumeration
and action validation build it from a :class:`Packing` and then name the
supports from the boxes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .geometry import Box, Container, Instance, Packing, Placement, RectDims, box_touches


class Border(Enum):
    """Container borders that can support a corner in place of a rectangle."""

    LEFT = "left-border"
    BOTTOM = "bottom-border"


LEFT_BORDER = Border.LEFT
BOTTOM_BORDER = Border.BOTTOM

# A corner support is either the index of a placed rectangle or a border.
Support = int | Border

# Edge coordinates ``xs`` and ``ys`` and one occupancy int per row; see _grid.
Grid = tuple[list[int], list[int], list[int]]


class StaleCornerError(ValueError):
    """A corner action no longer valid for the current partial packing."""


@dataclass(frozen=True)
class Corner:
    """A bottom-left corner for one shape.

    ``left_support`` and ``bottom_support`` name what blocks the shape
    from sliding: the left/bottom border, or a placed rectangle whose
    right/top edge the shape rests against.
    """

    x: int
    y: int
    rotated: bool
    left_support: Support
    bottom_support: Support

    @property
    def position(self) -> tuple[int, int, bool]:
        return (self.x, self.y, self.rotated)


@dataclass(frozen=True)
class CornerAction:
    """Place rectangle ``rect_index`` onto ``corner``."""

    rect_index: int
    corner: Corner


def _grid(boxes: list[Box], width: int, height: int) -> Grid:
    """The occupancy of ``boxes`` on the grid of their distinct edges.

    ``xs``/``ys`` are the sorted edge coordinates, the container's included;
    grid cell (j, k) spans [xs[j], xs[j+1]) x [ys[k], ys[k+1]), and bit j of
    ``rows[k]`` is set when a box covers it. No box edge crosses a cell, so
    the grid answers every cell question exactly, with its size bounded by
    the number of boxes rather than by the container's sides.
    """
    xs = sorted({0, width, *(b[0] for b in boxes), *(b[2] for b in boxes)})
    ys = sorted({0, height, *(b[1] for b in boxes), *(b[3] for b in boxes)})
    rows = [0] * (len(ys) - 1)
    for x1, y1, x2, y2 in boxes:
        bits = (1 << bisect_left(xs, x2)) - (1 << bisect_left(xs, x1))
        for k in range(bisect_left(ys, y1), bisect_left(ys, y2)):
            rows[k] |= bits
    return xs, ys, rows


def _corner_scan(grid: Grid, c: Container, ew: int, eh: int) -> list[Box]:
    """The boxes at which an ew x eh shape sits on a corner of ``grid``.

    A corner is a position where the shape fits in the container, covers
    no occupied cell, and is blocked leftward (x == 0, or an occupied cell
    just left of it) and downward (y == 0, or one just below it). Such a
    cell belongs to a box whose edge is the shape's edge, so this is the
    box-contact test. Hits are sorted by (y, x).
    """
    xs, ys, rows = grid
    out = []
    for k, y in enumerate(ys):
        y2 = y + eh
        if y2 > c.height:
            break
        if k and not rows[k - 1] & ~rows[k]:
            continue  # no covered cell under a free one: nothing to rest on
        band = 0  # the grid rows the shape spans, OR-ed: its cells must be clear here
        for row in rows[k : bisect_left(ys, y2)]:
            band |= row
        below = rows[k - 1] & ~band if k else -1
        # Free cells just right of the border or of an occupied cell.
        starts = ((band << 1) | 1) & ~band if below else 0
        while starts:
            low = starts & -starts
            starts ^= low
            x = xs[low.bit_length() - 1]
            if x + ew > c.width:
                break
            span = (1 << bisect_left(xs, x + ew)) - low
            if not band & span and below & span:
                out.append((x, y, x + ew, y2))
    return out


def _positions(grid: Grid, c: Container, shape: RectDims) -> list[tuple[Box, bool]]:
    """Every corner of ``shape`` as ``(box, rotated)``, sorted by (y, x, rotated).

    A square is scanned in one orientation, since rotating it changes nothing.
    """
    found = []
    for rotated in (False,) if shape.is_square else (False, True):
        ew, eh = (shape.height, shape.width) if rotated else (shape.width, shape.height)
        found += [(box, rotated) for box in _corner_scan(grid, c, ew, eh)]
    return sorted(found, key=lambda hit: (hit[0][1], hit[0][0], hit[1]))


def _support_names(boxes: dict[int, Box], target: Box) -> tuple[Support, Support]:
    """The supports of a corner at ``target``: on each side the lowest-indexed
    box touching it, whatever the map's order, or the border where none can
    (at coordinate zero)."""
    left = [j for j, b in boxes.items() if box_touches(b, target, True)]
    bottom = [j for j, b in boxes.items() if box_touches(b, target, False)]
    return min(left, default=LEFT_BORDER), min(bottom, default=BOTTOM_BORDER)


def _corner_blockers(boxes: dict[int, Box], c: Container, target: Box) -> dict[int, Box] | None:
    """The boxes that can overlap or block ``target`` (those meeting it grown
    by one cell leftward and downward) when it sits on a corner, else None."""
    x, y, x2, y2 = target
    near = {j: b for j, b in boxes.items() if b[0] < x2 and b[2] >= x and b[1] < y2 and b[3] >= y}
    grid = _grid(list(near.values()), c.width, c.height)
    return near if target in _corner_scan(grid, c, x2 - x, y2 - y) else None


def _supports(boxes: dict[int, Box], c: Container, target: Box) -> tuple[Support, Support]:
    """The left and bottom supports of a shape placed at ``target`` among ``boxes``.

    Raises StaleCornerError when ``target`` is not a corner of ``boxes`` in ``c``.
    """
    near = _corner_blockers(boxes, c, target)
    if near is None:
        raise StaleCornerError(f"position ({target[0]}, {target[1]}) is not a corner")
    return _support_names(near, target)


def enumerate_corners(p: Packing, shape: RectDims) -> list[Corner]:
    """All bottom-left corners of the partial packing ``p`` for ``shape``.

    Sorted by (y, x, rotated), with duplicates impossible by construction.
    """
    boxes = p.boxes()
    c = p.instance.container
    grid = _grid(list(boxes.values()), c.width, c.height)
    return [
        Corner(b[0], b[1], rotated, *_support_names(boxes, b))
        for b, rotated in _positions(grid, c, shape)
    ]


def _check_action(p: Packing, a: CornerAction) -> None:
    """Validate that an action still denotes a corner of ``p``."""
    i = a.rect_index
    if i < 0 or i >= p.instance.n:
        raise StaleCornerError(f"rectangle index {i} out of range")
    if p.placements[i] is not None:
        raise StaleCornerError(f"rectangle {i} is already placed")
    corner = a.corner
    shape = p.instance.rects[i]
    ew, eh = (shape.height, shape.width) if corner.rotated else (shape.width, shape.height)
    x, y = corner.x, corner.y
    boxes = p.boxes()
    target = (x, y, x + ew, y + eh)
    if _corner_blockers(boxes, p.instance.container, target) is None:
        raise StaleCornerError(f"({x}, {y}) is not a corner for rectangle {i}")
    for side, support, border, at_zero in (
        ("left", corner.left_support, LEFT_BORDER, x == 0),
        ("bottom", corner.bottom_support, BOTTOM_BORDER, y == 0),
    ):
        if isinstance(support, Border):
            if support is not border or not at_zero:
                raise StaleCornerError(f"{support.value} cannot support the {side} at ({x}, {y})")
        elif support not in boxes:
            raise StaleCornerError(f"{side} support {support} is not a placed rectangle")
        elif not box_touches(boxes[support], target, side == "left"):
            raise StaleCornerError(f"rectangle {support} no longer supports ({x}, {y})")


def apply_action(p: Packing, a: CornerAction) -> Packing:
    """Execute a corner-occupying action on a partial packing.

    The action is re-validated against ``p`` first; a corner computed for
    an earlier state of the search raises :class:`StaleCornerError`
    instead of silently producing a broken packing.
    """
    _check_action(p, a)
    return p.with_placement(a.rect_index, Placement(a.corner.x, a.corner.y, a.corner.rotated))


def supporting_rects(p: Packing, i: int) -> set[int]:
    """Placed rectangles forming the corner that rectangle ``i`` occupies.

    These are the rectangles touching ``i`` along a boundary segment of
    positive length that lie under it or to its left. Borders are not
    reported; a rectangle resting only on borders has no supporters.
    """
    target = p.placed_rect(i).box
    return {
        j
        for j, box in p.boxes().items()
        if j != i and (box_touches(box, target, True) or box_touches(box, target, False))
    }


class _Board:
    """The exact search's one mutable state.

    ``boxes[i]`` is rectangle i's box, None while unplaced. Rectangles of one
    shape up to rotation form a class, ``members[shape]`` in index order, and
    ``cursor[shape]`` counts its placed members: the search only places a
    class's lowest unplaced member, so the count points at the next one.
    :meth:`place` and :meth:`unplace` are exact inverses.
    """

    def __init__(self, instance: Instance) -> None:
        self.container, self.rects = instance.container, instance.rects
        self.boxes: list[Box | None] = [None] * instance.n
        self.members: dict[tuple[int, int], list[int]] = {}
        for i, r in enumerate(instance.rects):
            self.members.setdefault(r.canonical(), []).append(i)
        self.cursor = dict.fromkeys(self.members, 0)

    def place(self, i: int, box: Box) -> None:
        self.boxes[i] = box
        self.cursor[self.rects[i].canonical()] += 1

    def unplace(self, i: int) -> None:
        self.boxes[i] = None
        self.cursor[self.rects[i].canonical()] -= 1

    def moves(self, key) -> Iterator[tuple[int, Box, bool]]:
        """The corner placements ``(i, box, rotated)`` out of the current state, lazily.

        The grid of the placed boxes is built once. Each class's next
        member, in ``key`` order, goes onto each of its corners in
        (y, x, rotated) order; permuting identical shapes never gives a
        new packing. Resume only in the state the iterator began in.
        """
        c = self.container
        grid = _grid([b for b in self.boxes if b is not None], c.width, c.height)
        nexts = [m[k] for m, k in zip(self.members.values(), self.cursor.values()) if k < len(m)]
        for i in sorted(nexts, key=key):
            for box, rotated in _positions(grid, c, self.rects[i]):
                yield i, box, rotated
