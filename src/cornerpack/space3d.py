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

POS_X = "+x"
POS_Y = "+y"
POS_Z = "+z"


def _meets(a1: int, a2: int, b1: int, b2: int) -> bool:
    """Whether half-open intervals [a1,a2) and [b1,b2) share a point."""
    return a1 < b2 and b1 < a2


@dataclass(frozen=True)
class _Extents:
    """Three validated extents."""

    width: int
    depth: int
    height: int

    def __post_init__(self):
        for name in ("width", "depth", "height"):
            v = getattr(self, name)
            if not (type(v) is int and v >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")


class BoxDims(_Extents):
    """Axis-aligned box extents; no rotation is modeled in 3D."""


class Container3(_Extents):
    """The container's extents; a box never equals a container of its size."""


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
            if not (type(v) is int and v >= 0):
                raise ValueError(f"{name} must be an integer >= 0, got {v!r}")

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


def _inside(box: PlacedBox3, c: Container3) -> bool:
    return box.x2 <= c.width and box.y2 <= c.depth and box.z2 <= c.height


def is_feasible3(p: Packing3) -> bool:
    """Every box inside the container, and no pair meets on all three axes."""
    boxes = p.boxes
    if not all(_inside(b, p.container) for b in boxes):
        return False
    return not any(
        _meets(a.x, a.x2, b.x, b.x2) and _meets(a.y, a.y2, b.y, b.y2) and _meets(a.z, a.z2, b.z, b.z2)
        for i, a in enumerate(boxes)
        for b in boxes[i + 1 :]
    )


def blocked_directions3(i: int, p: Packing3) -> frozenset[str]:
    """Positive axis directions box ``i`` cannot move along freely.

    A direction is blocked when some other box sits entirely beyond the moving
    face and meets it on the other two axes; as in 2D, any displacement counts
    and container borders are ignored. IndexError unless ``i`` is an int from 0 to n - 1.
    """
    if not (type(i) is int and 0 <= i < len(p.boxes)):
        raise IndexError(f"box index {i!r} out of range")
    a = p.boxes[i]
    blocked = set()
    for j, b in enumerate(p.boxes):
        if j == i:
            continue
        x_over = _meets(a.x, a.x2, b.x, b.x2)
        y_over = _meets(a.y, a.y2, b.y, b.y2)
        z_over = _meets(a.z, a.z2, b.z, b.z2)
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
