"""Bottom-left corner enumeration and corner-occupying actions.

A bottom-left corner is relative to a concrete shape: it is a position and
orientation at which the shape fits inside the container, overlaps
nothing, and is bottom-left stable the moment it is placed. Placing a
rectangle onto such a corner is the only move the exact solver performs.

One scan, :func:`_corner_scan`, decides that test and names the supports
in the same pass over the placed rectangles; enumeration runs it over all
candidate edges, action validation over the one position named.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .geometry import Box, Container, Packing, Placement, RectDims, box_touches, boxes_overlap


class Border(Enum):
    """Container borders that can support a corner in place of a rectangle."""

    LEFT = "left-border"
    BOTTOM = "bottom-border"


LEFT_BORDER = Border.LEFT
BOTTOM_BORDER = Border.BOTTOM

# A corner support is either the index of a placed rectangle or a border.
Support = int | Border


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


def _corner_scan(
    boxes: dict[int, Box], c: Container, ew: int, eh: int, xs: list[int], ys: list[int]
) -> list[tuple[int, int, Support, Support]]:
    """The candidates (x, y) at which an ew x eh shape sits on a corner.

    A corner is a position where the shape fits in the container,
    overlaps no box, and is blocked both leftward and downward. Each hit
    comes as ``(x, y, left_support, bottom_support)``: a border wins at
    coordinate zero, otherwise the lowest-indexed box touching that side,
    found in the same pass over the boxes as the overlap test. ``xs`` and
    ``ys`` must be ascending; hits come out sorted by (y, x).
    """
    placed = list(boxes.items())
    out = []
    for y in ys:
        y2 = y + eh
        if y2 > c.height:
            break
        for x in xs:
            x2 = x + ew
            if x2 > c.width:
                break
            target = (x, y, x2, y2)
            left = LEFT_BORDER if x == 0 else None
            bottom = BOTTOM_BORDER if y == 0 else None
            for j, box in placed:
                if boxes_overlap(box, target):
                    break
                if bottom is None and box_touches(box, target, False):
                    bottom = j
                if left is None and box_touches(box, target, True):
                    left = j
            else:
                if left is not None and bottom is not None:
                    out.append((x, y, left, bottom))
    return out


def _supports(p: Packing, x: int, y: int, ew: int, eh: int) -> tuple[Support, Support]:
    """The left and bottom supports of an ew x eh shape placed at (x, y).

    Raises StaleCornerError when (x, y) is not a corner of ``p``.
    """
    found = _corner_scan(p.boxes(), p.instance.container, ew, eh, [x], [y])
    if not found:
        raise StaleCornerError(f"position ({x}, {y}) is not a corner")
    return found[0][2], found[0][3]


def enumerate_corners(p: Packing, shape: RectDims) -> list[Corner]:
    """All bottom-left corners of the partial packing ``p`` for ``shape``.

    Candidates are the borders (coordinate 0) and the right/top edges of
    placed rectangles: with integral geometry, a shape blocked from
    sliding left or down needs a border or a blocker edge exactly at its
    own left or bottom edge, so no other coordinate can be a corner. One
    scan per orientation tests every candidate and names its supports.
    Both orientations are scanned unless the shape is square, for which
    the rotated placement would duplicate the unrotated one. The result is
    sorted by (y, x, rotated) with duplicates impossible by construction.
    """
    boxes = p.boxes()
    xs = sorted({0, *(b[2] for b in boxes.values())})
    ys = sorted({0, *(b[3] for b in boxes.values())})
    c = p.instance.container
    found = []
    orientations = (False,) if shape.is_square else (False, True)
    for rotated in orientations:
        ew = shape.height if rotated else shape.width
        eh = shape.width if rotated else shape.height
        for x, y, left, bottom in _corner_scan(boxes, c, ew, eh, xs, ys):
            found.append(Corner(x, y, rotated, left, bottom))
    found.sort(key=lambda corner: (corner.y, corner.x, corner.rotated))
    return found


def _check_action(p: Packing, a: CornerAction) -> None:
    """Validate that an action still denotes a corner of ``p``."""
    i = a.rect_index
    if i < 0 or i >= p.instance.n:
        raise StaleCornerError(f"rectangle index {i} out of range")
    if p.placements[i] is not None:
        raise StaleCornerError(f"rectangle {i} is already placed")
    corner = a.corner
    shape = p.instance.rects[i]
    ew = shape.height if corner.rotated else shape.width
    eh = shape.width if corner.rotated else shape.height
    x, y = corner.x, corner.y
    boxes = p.boxes()
    if not _corner_scan(boxes, p.instance.container, ew, eh, [x], [y]):
        raise StaleCornerError(f"({x}, {y}) is not a corner for rectangle {i}")
    target = (x, y, x + ew, y + eh)
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
