"""Bottom-left corner enumeration and corner-occupying actions.

A bottom-left corner is relative to a concrete shape: it is a position and
orientation at which the shape fits inside the container, overlaps
nothing, and is bottom-left stable the moment it is placed. Placing a
rectangle onto such a corner is the only move the exact solver performs.

One bitboard scan, :func:`_corner_scan`, enumerates the corners as boxes
on the grid of the placed boxes' distinct edges, so its cost follows the
number of rectangles, not the container's size; a box and its shape's
sides (:func:`_orientations`) fix the orientation. Every grid starts
empty (:func:`_empty_grid`) and grows by one box at a time
(:func:`_grow`). :func:`enumerate_corners` grows one from a
:class:`Packing`'s boxes and reads the sides off the shape. The search's
:class:`_Board` owns the depth-first walk and reads the sides from a
table built once per solve. In plain mode it grows each node's grid from
its parent's by one box. Enhanced mode keeps a skyline of column heights
instead. At zero slack a box goes only at the lowest, then leftmost, free
cell, so each column is covered from the bottom up. With slack the
placed and dead cells form a staircase, which each box climbs; the
corners are its concave corners, where a box is never dominated, and
each node carries its remaining dead-area budget. The scan alone sums a
box's dead area off the steps, stopping once past the budget, and hands
each corner on with the budget its child keeps. :func:`_supports` only
names a corner's supports, and an action is checked against the
supports it names (:func:`_action_box`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterator

from .geometry import Box, Container, Instance, Packing, Placement, RectDims, _box
from .geometry import box_touches, boxes_overlap


class Border(Enum):
    """Container borders that can support a corner in place of a rectangle."""

    LEFT = "left-border"
    BOTTOM = "bottom-border"


LEFT_BORDER = Border.LEFT
BOTTOM_BORDER = Border.BOTTOM

# A corner support is either the index of a placed rectangle or a border.
Support = int | Border

# The occupancy of placed boxes on the grid of their distinct edges: ``xs``
# and ``ys`` are the sorted edge coordinates, the container's included; cell
# (j, k) spans [xs[j], xs[j+1]) x [ys[k], ys[k+1]), and bit j of ``rows[k]``
# is set when a box covers it. No box edge crosses a cell, so the grid answers
# every cell question exactly, with its size bounded by the number of boxes
# rather than by the container's sides.
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


def _empty_grid(c: Container) -> Grid:
    """The grid of the empty container ``c``: one free cell."""
    return [0, c.width], [0, c.height], [0]


def _grow(grid: Grid, box: Box) -> Grid:
    """``grid`` with ``box`` added, as a new grid; ``grid`` is left as it was.

    A new x edge splits a column, so every row repeats that column's bit; a
    new y edge splits a row, which is repeated. Then the box's cells are set.
    """
    xs, ys, rows = grid
    x1, y1, x2, y2 = box
    for x in (x1, x2):
        j = bisect_left(xs, x)
        if xs[j] != x:
            xs = [*xs[:j], x, *xs[j:]]
            low = (1 << j) - 1
            rows = [r & low | (r >> (j - 1)) << j for r in rows]
    rows = list(rows)
    for y in (y1, y2):
        k = bisect_left(ys, y)
        if ys[k] != y:
            ys = [*ys[:k], y, *ys[k:]]
            rows.insert(k, rows[k - 1])
    bits = (1 << bisect_left(xs, x2)) - (1 << bisect_left(xs, x1))
    for k in range(bisect_left(ys, y1), bisect_left(ys, y2)):
        rows[k] |= bits
    return xs, ys, rows


def _corner_scan(grid: Grid, c: Container, ew: int, eh: int) -> list[Box]:
    """The boxes at which an ew x eh shape sits on a corner of ``grid``,
    sorted by (y, x).

    A corner is a position where the shape fits in the container, covers
    no occupied cell, and is blocked leftward (x == 0, or an occupied cell
    just left of it) and downward (y == 0, or one just below it). Such a
    cell belongs to a box whose edge is the shape's edge, so this is the
    box-contact test.
    """
    xs, ys, rows = grid
    width, height = c.width, c.height
    out = []
    end = 0  # the first grid row at or above the shape's top; it only rises with y
    for k, y in enumerate(ys):
        y2 = y + eh
        if y2 > height:
            break
        if k and not rows[k - 1] & ~rows[k]:
            continue  # no covered cell under a free one: nothing to rest on
        while ys[end] < y2:
            end += 1
        band = 0  # the grid rows the shape spans, OR-ed: its cells must be clear here
        for row in rows[k:end]:
            band |= row
        below = rows[k - 1] & ~band if k else -1
        # Free cells just right of the border or of an occupied cell.
        starts = ((band << 1) | 1) & ~band if below else 0
        while starts:
            low = starts & -starts
            starts ^= low
            x = xs[low.bit_length() - 1]
            x2 = x + ew
            if x2 > width:
                break
            span = (1 << bisect_left(xs, x2)) - low
            if band & span or not below & span:
                continue
            out.append((x, y, x2, y2))
    return out


def _orientations(shape: RectDims) -> tuple[tuple[int, int], ...]:
    """The sides ``(ew, eh)`` of each orientation, unrotated first; one for a square."""
    w, h = shape.width, shape.height
    return ((w, h),) if w == h else ((w, h), (h, w))


def _positions(grid: Grid, c: Container, dims: tuple[tuple[int, int], ...]) -> list[Box]:
    """Every corner of the shape with orientations ``dims`` as a box,
    sorted by (y, x, rotated); a box is rotated when its width is not dims[0]'s."""
    found = _corner_scan(grid, c, *dims[0])
    if len(dims) == 1:
        return found
    turned = _corner_scan(grid, c, *dims[1])
    if not (found and turned):
        return found or turned
    # The sort is stable, so at one (y, x) the unrotated box, listed first, stays first.
    return sorted(found + turned, key=itemgetter(1, 0))


def _supports(
    boxes: dict[int, Box], lefts: list[int], bottoms: list[int], target: Box
) -> tuple[Support, Support]:
    """The left and bottom supports of a shape at ``target``: on each side the
    lowest index touching it, else the border. ``lefts`` (``bottoms``) holds
    the indices in ``boxes`` whose right (top) edge is at ``target``'s left
    (bottom), the only ones that can touch it. It makes no corner check."""
    left = min((j for j in lefts if box_touches(boxes[j], target, True)), default=LEFT_BORDER)
    bottom = min((j for j in bottoms if box_touches(boxes[j], target, False)), default=BOTTOM_BORDER)
    return left, bottom


def enumerate_corners(p: Packing, shape: RectDims) -> list[Corner]:
    """All bottom-left corners of the partial packing ``p`` for ``shape``.

    Sorted by (y, x, rotated), with duplicates impossible by construction.
    The scan proves each corner; one index by right and top edge names its supports.
    """
    boxes = p.boxes()
    c = p.instance.container
    rights, tops = defaultdict(list), defaultdict(list)
    grid = _empty_grid(c)
    for j, box in boxes.items():
        rights[box[2]].append(j)
        tops[box[3]].append(j)
        grid = _grow(grid, box)
    return [
        Corner(b[0], b[1], b[2] - b[0] != shape.width, *_supports(boxes, rights[b[0]], tops[b[1]], b))
        for b in _positions(grid, c, _orientations(shape))
    ]


def _action_box(boxes: dict[int, Box], instance: Instance, a: CornerAction) -> Box:
    """The box action ``a`` fills among the placed ``boxes``, once checked.

    Raises StaleCornerError unless ``a`` places an unplaced rectangle inside
    the container, off every placed box, and names on each side the border at
    coordinate 0 or a placed box touching it, which blocks that side's slide.
    Rectangles are named by ``int`` index only; a bool is not an index.
    """
    i = a.rect_index
    if type(i) is not int or not 0 <= i < instance.n:
        raise StaleCornerError(f"rectangle index {i} out of range")
    if i in boxes:
        raise StaleCornerError(f"rectangle {i} is already placed")
    corner = a.corner
    x, y, x2, y2 = target = _box(instance.rects[i], corner)
    inside = 0 <= x and 0 <= y and x2 <= instance.container.width and y2 <= instance.container.height
    if not inside or any(boxes_overlap(b, target) for b in boxes.values()):
        raise StaleCornerError(f"position ({x}, {y}) is not a corner")
    for side, support, border, at_zero in (
        ("left", corner.left_support, LEFT_BORDER, x == 0),
        ("bottom", corner.bottom_support, BOTTOM_BORDER, y == 0),
    ):
        if isinstance(support, Border):
            if support is not border or not at_zero:
                raise StaleCornerError(f"{support.value} cannot support the {side} at ({x}, {y})")
        elif type(support) is not int or support not in boxes:
            raise StaleCornerError(f"{side} support {support} is not a placed rectangle")
        elif not box_touches(boxes[support], target, side == "left"):
            raise StaleCornerError(f"rectangle {support} no longer supports ({x}, {y})")
    return target


def apply_action(p: Packing, a: CornerAction) -> Packing:
    """Execute a corner-occupying action on a partial packing.

    The action is re-validated against ``p`` first; a corner computed for
    an earlier state of the search raises :class:`StaleCornerError`
    instead of silently producing a broken packing.
    """
    _action_box(p.boxes(), p.instance, a)
    corner = a.corner
    return p.with_placement(a.rect_index, Placement(corner.x, corner.y, corner.rotated))


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
    """The exact search's one mutable state, which walks the tree depth first.

    ``boxes[i]`` is rectangle i's box, None while unplaced; ``path`` lists
    the placed indices from the root down; ``order`` is the solve's fixed
    branching order; ``dims[i]`` is rectangle i's :func:`_orientations`.
    Rectangles of one shape up to rotation form a class and ``prev[i]`` is
    the previous member of i's class, or None. Members are placed in index
    order, so i is its class's next one exactly when it is unplaced and
    ``prev[i]`` is None or placed. ``nodes`` holds a ``[state, moves,
    budget]`` record per node on the path, the root's first: the node's
    state, its move iterator once :meth:`descend` has expanded it (else
    None), and its dead-area budget. :meth:`place` and :meth:`unplace` are
    exact inverses; :meth:`unplace` reads the mode off the record it pops.

    The ``slack`` (container area minus rectangle area, or None) picks the
    move rule. Without one (``plain``) the state is the grid of the node's
    boxes, grown from its parent's by the last box, and the budget is None.
    With one the state is a skyline ``(xs, hs)``: step j spans [xs[j],
    xs[j+1]) up to hs[j], and ``xs`` ends with the width. At a slack of 0
    every cell gets covered, so the box that covers the lowest, then
    leftmost, free cell has its bottom-left there; the moves put boxes only
    there, each a plain-mode corner, so every column is covered from the
    bottom up to its step's height (equal steps stay unmerged), and the
    budget is None. A positive ``slack`` turns on the staircase: no box goes
    under or left of a placed one, so a free cell with a placed box over it
    or right of it stays free (it is dead). The placed and dead cells are
    then closed downward and leftward, the skyline is their staircase, and
    ``hs`` falls strictly. The budget is the slack less the dead area: the
    parent's, less the box's kill, which :meth:`_stair_corners` sums once
    and :meth:`moves` hands on with the box. ``rights`` and ``tops`` index
    the placed boxes by right and by top edge.
    """

    def __init__(self, instance: Instance, order: list[int], slack: int | None) -> None:
        self.container, self.order = instance.container, order
        self.boxes: list[Box | None] = [None] * instance.n
        self.path: list[int] = []
        self.dims: list[tuple[tuple[int, int], ...]] = []
        self.prev: list[int | None] = []
        last: dict[tuple[int, int], int] = {}
        for i, r in enumerate(instance.rects):
            self.dims.append(dims := _orientations(r))
            self.prev.append(last.get(shape := min(dims)))  # the smaller side first
            last[shape] = i
        self.plain = slack is None
        if self.plain:
            root: tuple = _empty_grid(self.container)
        else:
            root = ([0, self.container.width], [0])
            self.rights: dict[int, list[Box]] = {}
            self.tops: dict[int, list[Box]] = {}
        # At zero slack no box kills any cell, so no node carries a budget.
        self.nodes: list[list] = [[root, None, slack or None]]

    def place(self, i: int, box: Box, budget: int | None) -> None:
        """Enter the child placing rectangle i at ``box``, whose dead-area
        ``budget`` is the one :meth:`moves` gave with it (None in plain mode)."""
        state = self.nodes[-1][0]
        self.boxes[i] = box
        self.path.append(i)
        if self.plain:
            state = _grow(state, box)
        else:
            # The box's columns rise to its top: keep the steps left of it,
            # add one at the top to its right edge, keep the rest. On the
            # staircase the columns left of it rise too, up to a higher step.
            (xs, hs), (x, y, x2, y2) = state, box
            a = bisect_left(xs, x)
            if budget is not None:
                while a and hs[a - 1] <= y2:
                    a -= 1
                self.rights.setdefault(x2, []).append(box)
                self.tops.setdefault(y2, []).append(box)
            c = bisect_right(xs, x2)
            state = [*xs[: a + 1], x2, *xs[c:]], [*hs[:a], y2, *hs[c - 1 :]]
        self.nodes.append([state, None, budget])

    def unplace(self) -> None:
        """Leave the current node for its parent, taking off the last box."""
        i = self.path.pop()
        if self.nodes.pop()[2] is not None:  # the staircase
            _, _, x2, y2 = self.boxes[i]
            self.rights[x2].pop()
            self.tops[y2].pop()
        self.boxes[i] = None

    def moves(self) -> Iterator[tuple[int, Box, int | None]]:
        """The corner placements ``(i, box, budget)`` out of the current node,
        lazily, each with the child's dead-area budget (None in plain mode).

        Each class's next member, in ``order``, goes onto each of its
        corners in (y, x, rotated) order; permuting identical shapes never
        gives a new packing. At zero slack its corners are the boxes that
        fit with their bottom-left at the lowest, then leftmost, free cell:
        the left end of the skyline's leftmost lowest step. Its free run
        ends at the first higher step to its right, and nothing is placed
        above the skyline, so a box within the run and the container covers
        no placed cell.
        With a positive ``slack``, they are the staircase's
        (:meth:`_stair_corners`), less those that would leave more dead
        area than the node's budget, since no completion covers a dead
        cell. Resume only in the node the iterator began in.
        """
        c, boxes, prev, dims = self.container, self.boxes, self.prev, self.dims
        state, _, budget = self.nodes[-1]
        hole = not self.plain and budget is None
        if hole:
            # The one cell to fill: the leftmost lowest step, free up to the next higher one.
            xs, hs = state
            y = min(hs)
            j = end = hs.index(y)
            while end < len(hs) and hs[end] == y:
                end += 1
            x, end = xs[j], xs[end]
        for i in self.order:
            if boxes[i] is None and (prev[i] is None or boxes[prev[i]] is not None):
                if hole:
                    for ew, eh in dims[i]:
                        if x + ew <= end and y + eh <= c.height:
                            yield i, (x, y, x + ew, y + eh), None
                elif budget is None:
                    for box in _positions(state, c, dims[i]):
                        yield i, box, None
                else:
                    for box, left in self._stair_corners(state, dims[i], budget):
                        yield i, box, left

    def _stair_corners(
        self, stair: tuple, dims: tuple[tuple[int, int], ...], budget: int
    ) -> list[tuple[Box, int]]:
        """The corners of the shape with orientations ``dims`` on ``stair``
        whose box kills at most ``budget`` free area, sorted by (y, x, rotated),
        each as ``(box, budget - kill)``: the box and the child's budget.

        Each is a concave corner (xs[j], hs[j]) where the box fits, touches
        the border or a placed box on its left and below, and so covers no
        placed or dead cell and has no placed box over it or right of it.
        Its kill is the area by which it raises every column left of its
        right edge to its top, less its own: the cells left of and below it.
        Every step adds area to it, so each sum stops once past the budget.
        """
        xs, hs = stair
        rights, tops = self.rights, self.tops
        width, height = self.container.width, self.container.height
        out = []
        for j in range(len(hs) - 1, -1, -1):  # rising y, since the heights fall
            x, y = xs[j], hs[j]
            for ew, eh in dims:
                x2, y2 = x + ew, y + eh
                if x2 > width or y2 > height:
                    continue
                kill, m = 0, j
                while kill <= budget and m and hs[m - 1] < y2:
                    m -= 1
                    kill += (xs[m + 1] - xs[m]) * (y2 - hs[m])
                m = j + 1
                while kill <= budget and xs[m] < x2:
                    kill += (min(xs[m + 1], x2) - xs[m]) * (y - hs[m])
                    m += 1
                if kill > budget:
                    continue  # first: arithmetic on the steps, cheaper than the contact scans
                if x:
                    for b in rights[x]:
                        if b[1] < y2 and b[3] > y:
                            break
                    else:
                        continue  # no placed box touches the left
                if y:
                    for b in tops[y]:
                        if b[0] < x2 and b[2] > x:
                            break
                    else:
                        continue  # no placed box touches the bottom
                out.append(((x, y, x2, y2), budget - kill))
        return out

    def descend(self) -> bool:
        """Expand the current node and enter its next child in depth-first
        order, backing out of exhausted nodes; False once the root is exhausted."""
        self.nodes[-1][1] = self.moves()
        while True:
            for i, box, budget in self.nodes[-1][1]:
                self.place(i, box, budget)
                return True
            if not self.path:
                return False
            self.unplace()
