"""Integral rectangle geometry: overlap arithmetic and directional relations.

All coordinates and extents are integers. A placed rectangle occupies the
half-open box ``[x, x + w) x [y, y + h)``, so rectangles that merely share
an edge or a corner have zero overlap area and all computations are exact.

Only this module turns placements into boxes ``(x1, y1, x2, y2)``
(:meth:`Packing.boxes`) and relates two boxes: overlap, over, right of,
and edge contact. Other layers call these box predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

UP = "up"
RIGHT = "right"


@dataclass(frozen=True)
class RectDims:
    """Dimensions of an unplaced rectangle, in grid units."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"rectangle sides must be >= 1, got {self.width}x{self.height}")

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def perimeter(self) -> int:
        return 2 * (self.width + self.height)

    @property
    def is_square(self) -> bool:
        return self.width == self.height

    def canonical(self) -> tuple[int, int]:
        """Orientation-independent shape key (smaller side first)."""
        return (self.width, self.height) if self.width <= self.height else (self.height, self.width)


@dataclass(frozen=True)
class Container:
    """The rectangular container, with its bottom-left corner at the origin."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"container sides must be >= 1, got {self.width}x{self.height}")

    @property
    def area(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class Placement:
    """Position and orientation of one rectangle.

    ``(x, y)`` is the bottom-left corner point of the placed rectangle.
    ``rotated`` means the rectangle stands vertically: its effective width
    is the height of its dimensions and vice versa.
    """

    x: int
    y: int
    rotated: bool = False

    def __post_init__(self) -> None:
        if self.x < 0 or self.y < 0:
            raise ValueError(f"placement coordinates must be >= 0, got ({self.x}, {self.y})")


# A placed rectangle as the half-open box (x1, y1, x2, y2).
Box = tuple[int, int, int, int]


def _box(dims: RectDims, pl: Placement) -> Box:
    """The box ``dims`` covers at ``pl``; a rotated rectangle swaps its sides."""
    if pl.rotated:
        return (pl.x, pl.y, pl.x + dims.height, pl.y + dims.width)
    return (pl.x, pl.y, pl.x + dims.width, pl.y + dims.height)


@dataclass(frozen=True)
class PlacedRect:
    """A rectangle bound to a placement; the unit all geometry operates on."""

    dims: RectDims
    placement: Placement

    @property
    def box(self) -> Box:
        """The half-open box ``(x, y, x2, y2)`` the rectangle covers."""
        return _box(self.dims, self.placement)

    @property
    def width(self) -> int:
        """Effective width (sides swapped when rotated)."""
        return self.x2 - self.x

    @property
    def height(self) -> int:
        """Effective height (sides swapped when rotated)."""
        return self.y2 - self.y

    @property
    def x(self) -> int:
        return self.placement.x

    @property
    def y(self) -> int:
        return self.placement.y

    @property
    def x2(self) -> int:
        """Right edge (exclusive)."""
        return self.box[2]

    @property
    def y2(self) -> int:
        """Top edge (exclusive)."""
        return self.box[3]

    @property
    def area(self) -> int:
        return self.dims.area


@dataclass(frozen=True)
class Instance:
    """A packing problem: a container and the rectangles to place in it."""

    container: Container
    rects: tuple[RectDims, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rects", tuple(self.rects))

    @property
    def n(self) -> int:
        return len(self.rects)

    @property
    def total_rect_area(self) -> int:
        return sum(r.area for r in self.rects)


@dataclass(frozen=True)
class Packing:
    """An assignment of placements to an instance's rectangles.

    ``placements[i]`` pairs with ``instance.rects[i]``. An entry may be
    ``None``, which marks rectangle ``i`` as not (yet) placed; this is how
    partial packings are represented during search and decomposition.
    """

    instance: Instance
    placements: tuple[Placement | None, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "placements", tuple(self.placements))
        if len(self.placements) != self.instance.n:
            raise ValueError(
                f"expected {self.instance.n} placements, got {len(self.placements)}"
            )

    @classmethod
    def empty(cls, instance: Instance) -> "Packing":
        """A packing with every rectangle unplaced."""
        return cls(instance, (None,) * instance.n)

    @property
    def is_complete(self) -> bool:
        return all(pl is not None for pl in self.placements)

    def placed_indices(self) -> list[int]:
        return [i for i, pl in enumerate(self.placements) if pl is not None]

    def unplaced_indices(self) -> list[int]:
        return [i for i, pl in enumerate(self.placements) if pl is None]

    def placed_rect(self, i: int) -> PlacedRect:
        pl = self.placements[i]
        if pl is None:
            raise ValueError(f"rectangle {i} is not placed")
        return PlacedRect(self.instance.rects[i], pl)

    def boxes(self) -> dict[int, Box]:
        """The placed rectangles as boxes, by index, built afresh on each call."""
        rects = self.instance.rects
        return {i: _box(rects[i], pl) for i, pl in enumerate(self.placements) if pl is not None}

    def iter_placed(self) -> Iterator[tuple[int, PlacedRect]]:
        for i, pl in enumerate(self.placements):
            if pl is not None:
                yield i, PlacedRect(self.instance.rects[i], pl)

    def with_placement(self, i: int, placement: Placement | None) -> "Packing":
        """A copy of this packing with rectangle ``i`` (re)placed or removed."""
        updated = list(self.placements)
        updated[i] = placement
        return Packing(self.instance, tuple(updated))


def _interval_overlap(a1: int, a2: int, b1: int, b2: int) -> int:
    """Length of the intersection of half-open intervals [a1,a2) and [b1,b2)."""
    lo = a1 if a1 > b1 else b1
    hi = a2 if a2 < b2 else b2
    return hi - lo if hi > lo else 0


def boxes_overlap(a: Box, b: Box) -> bool:
    """True when the boxes share positive area; touching edges do not count."""
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


def box_over(a: Box, b: Box) -> bool:
    """True when ``a`` starts at or above ``b``'s top and their x-intervals meet."""
    return a[1] >= b[3] and a[0] < b[2] and b[0] < a[2]


def box_right_of(a: Box, b: Box) -> bool:
    """Mirror of :func:`box_over`: ``a`` starts at or beyond ``b``'s right edge."""
    return a[0] >= b[2] and a[1] < b[3] and b[1] < a[3]


def box_touches(a: Box, b: Box, left: bool) -> bool:
    """True when ``a`` borders ``b`` on ``b``'s left (else bottom) side.

    The shared segment must have positive length: a point blocks no slide.
    """
    if left:
        return a[2] == b[0] and a[1] < b[3] and b[1] < a[3]
    return a[3] == b[1] and a[0] < b[2] and b[0] < a[2]


def overlap_area(a: PlacedRect, b: PlacedRect) -> int:
    """Area of the intersection of two placed rectangles.

    Zero when the rectangles only touch along an edge or at a corner.
    Symmetric in its arguments.
    """
    ax1, ay1, ax2, ay2 = a.box
    bx1, by1, bx2, by2 = b.box
    return _interval_overlap(ax1, ax2, bx1, bx2) * _interval_overlap(ay1, ay2, by1, by2)


def outside_area(r: PlacedRect, c: Container) -> int:
    """Area of ``r`` protruding beyond the container's borders."""
    x1, y1, x2, y2 = r.box
    return r.area - _interval_overlap(x1, x2, 0, c.width) * _interval_overlap(y1, y2, 0, c.height)


def total_overlap(p: Packing) -> int:
    """Sum of all pairwise overlap areas plus each rectangle's outside area.

    Zero exactly when the placed rectangles form a feasible packing:
    pairwise non-overlapping and none overstepping a container border.
    Unplaced rectangles contribute nothing.
    """
    placed = [rect for _, rect in p.iter_placed()]
    total = 0
    for rect in placed:
        total += outside_area(rect, p.instance.container)
    for i in range(len(placed)):
        for j in range(i + 1, len(placed)):
            total += overlap_area(placed[i], placed[j])
    return total


def is_feasible(p: Packing) -> bool:
    """True when no two placed rectangles overlap and all lie in the container."""
    c = p.instance.container
    placed = list(p.boxes().values())
    for k, a in enumerate(placed):
        if a[2] > c.width or a[3] > c.height:
            return False
        for b in placed[k + 1 :]:
            if boxes_overlap(a, b):
                return False
    return True


def _require_disjoint(a: Box, b: Box) -> None:
    if boxes_overlap(a, b):
        raise ValueError("directional relations are defined only for non-overlapping rectangles")


def is_over(a: PlacedRect, b: PlacedRect) -> bool:
    """True when ``a`` lies over ``b``.

    ``a`` is over ``b`` when some upward displacement of ``b`` would make
    the two rectangles overlap: their x-intervals intersect with positive
    length and ``a`` starts at or above ``b``'s top edge. The rectangles
    must not overlap.
    """
    ab, bb = a.box, b.box
    _require_disjoint(ab, bb)
    return box_over(ab, bb)


def is_right_of(a: PlacedRect, b: PlacedRect) -> bool:
    """True when ``a`` lies to the right of ``b``.

    Mirror of :func:`is_over`: positive y-interval intersection and ``a``
    starts at or beyond ``b``'s right edge.
    """
    ab, bb = a.box, b.box
    _require_disjoint(ab, bb)
    return box_right_of(ab, bb)


def free_directions(i: int, p: Packing) -> frozenset[str]:
    """The subset of {up, right} in which rectangle ``i`` is unobstructed.

    Contains ``up`` when no other placed rectangle is over ``i`` and
    ``right`` when none is to its right. Container borders are ignored:
    this is freedom relative to the other rectangles only. Raises
    ValueError when any other placed rectangle overlaps ``i``.
    """
    target = p.placed_rect(i).box
    others = [b for j, b in p.boxes().items() if j != i]
    for b in others:
        _require_disjoint(b, target)
    blocking = {UP: box_over, RIGHT: box_right_of}
    return frozenset(d for d, rel in blocking.items() if not any(rel(b, target) for b in others))


def l_value(p: Packing) -> int:
    """Sum of all placement coordinates; decreases under down/left moves."""
    return sum(pl.x + pl.y for pl in p.placements if pl is not None)
