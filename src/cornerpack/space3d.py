"""Three-dimensional packing relations and a fixed counterexample.

In 2D, every feasible packing contains a rectangle free to move both up
and to the right. The four-box packing built by :func:`table1_packing`
shows the 3D analogue is false: each box is blocked in at least one of
the positive axis directions, and the blocking relation is cyclic, so no
box can escape. Only the relations needed to certify that configuration
live here; there is no 3D solver.

Axis convention: width extends along x, depth along y, height along z.
Boxes occupy half-open regions [x, x+w) x [y, y+d) x [z, z+h).
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import _interval_overlap

POS_X = "+x"
POS_Y = "+y"
POS_Z = "+z"


@dataclass(frozen=True)
class BoxDims:
    """Axis-aligned box extents; no rotation is modeled in 3D."""

    width: int
    depth: int
    height: int

    def __post_init__(self):
        for name in ("width", "depth", "height"):
            v = getattr(self, name)
            if v < 1:
                raise ValueError(f"{name} must be at least 1, got {v}")

    @property
    def volume(self) -> int:
        return self.width * self.depth * self.height


@dataclass(frozen=True)
class Container3:
    width: int
    depth: int
    height: int

    def __post_init__(self):
        for name in ("width", "depth", "height"):
            v = getattr(self, name)
            if v < 1:
                raise ValueError(f"{name} must be at least 1, got {v}")

    @property
    def volume(self) -> int:
        return self.width * self.depth * self.height


@dataclass(frozen=True)
class PlacedBox3:
    """A box anchored at its bottom-left-behind corner (x, y, z)."""

    dims: BoxDims
    x: int
    y: int
    z: int

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"{name} must be non-negative, got {v}")

    @property
    def x2(self) -> int:
        return self.x + self.dims.width

    @property
    def y2(self) -> int:
        return self.y + self.dims.depth

    @property
    def z2(self) -> int:
        return self.z + self.dims.height


@dataclass(frozen=True)
class Packing3:
    container: Container3
    boxes: tuple[PlacedBox3, ...] = ()


def overlap_volume(a: PlacedBox3, b: PlacedBox3) -> int:
    """Volume of the intersection of two placed boxes; symmetric."""
    return (
        _interval_overlap(a.x, a.x2, b.x, b.x2)
        * _interval_overlap(a.y, a.y2, b.y, b.y2)
        * _interval_overlap(a.z, a.z2, b.z, b.z2)
    )


def _inside(box: PlacedBox3, c: Container3) -> bool:
    return box.x2 <= c.width and box.y2 <= c.depth and box.z2 <= c.height


def is_feasible3(p: Packing3) -> bool:
    """Every box inside the container, all pairwise overlap volumes zero."""
    boxes = p.boxes
    if not all(_inside(b, p.container) for b in boxes):
        return False
    return all(
        overlap_volume(boxes[i], boxes[j]) == 0
        for i in range(len(boxes))
        for j in range(i + 1, len(boxes))
    )


def blocked_directions3(i: int, p: Packing3) -> frozenset[str]:
    """Positive axis directions box ``i`` cannot move along freely.

    A direction is blocked when some other box sits entirely beyond the
    moving face with positive cross-section overlap in the other two
    axes; as in 2D, any displacement counts and container borders are
    ignored.
    """
    a = p.boxes[i]
    blocked = set()
    for j, b in enumerate(p.boxes):
        if j == i:
            continue
        x_over = _interval_overlap(a.x, a.x2, b.x, b.x2) > 0
        y_over = _interval_overlap(a.y, a.y2, b.y, b.y2) > 0
        z_over = _interval_overlap(a.z, a.z2, b.z, b.z2) > 0
        if y_over and z_over and b.x >= a.x2:
            blocked.add(POS_X)
        if x_over and z_over and b.y >= a.y2:
            blocked.add(POS_Y)
        if x_over and y_over and b.z >= a.z2:
            blocked.add(POS_Z)
    return frozenset(blocked)


def find_escaper3(p: Packing3) -> int | None:
    """Lowest index of a box free in all three positive directions.

    None certifies that the packing has no escaping box at all, which is
    exactly what cannot happen in two dimensions.
    """
    for i in range(len(p.boxes)):
        if not blocked_directions3(i, p):
            return i
    return None


def table1_packing() -> Packing3:
    """The four-box configuration in which no box can escape.

    Box 0 is blocked only by box 1 (above it), box 1 only by box 2, box
    2 only by box 3 (to its right), and box 3 by boxes 0 and 1. The
    blocking graph is cyclic, which is what lets every box be stuck at
    once. The 3x2x3 container is the configuration's bounding box.
    """
    return Packing3(
        container=Container3(3, 2, 3),
        boxes=(
            PlacedBox3(BoxDims(1, 2, 1), 2, 0, 0),
            PlacedBox3(BoxDims(3, 1, 1), 0, 1, 1),
            PlacedBox3(BoxDims(1, 2, 1), 0, 0, 2),
            PlacedBox3(BoxDims(1, 1, 3), 1, 0, 0),
        ),
    )
