"""Random generators for known-feasible instances and packings.

Two strategies: guillotine generation recursively slices the container
into exactly ``count`` rectangular leaves, so the resulting instance is
feasible by construction and comes with a witness packing; corner-walk
generation grows a packing by repeatedly placing a random shape onto a
random bottom-left corner. Both are deterministic for a fixed Random.
"""

from __future__ import annotations

import random

from .corners import enumerate_corners
from .geometry import Container, Instance, Packing, Placement, RectDims


def _split(x: int, y: int, w: int, h: int, k: int, rng: random.Random, out: list) -> None:
    """Cut a w x h region at (x, y) into k leaf rectangles."""
    if k == 1:
        out.append((x, y, w, h))
        return
    # Every (axis, cut, k1) with both sides able to host their share of
    # leaves; non-empty whenever k <= w*h, since area splits additively.
    # They are counted per cut, not listed: randrange(total) draws the rank
    # in (axis, cut, k1) order that choice() would draw on the list.
    ranges = []
    for axis, side, other in (("v", w, h), ("h", h, w)):
        for cut in range(1, side):
            lo = max(1, k - (side - cut) * other)
            if (size := min(k - 1, cut * other) - lo + 1) > 0:
                ranges.append((axis, cut, lo, size))
    rank = rng.randrange(sum(r[3] for r in ranges))
    for axis, cut, lo, size in ranges:
        if rank < size:
            break
        rank -= size
    k1 = lo + rank
    if axis == "v":
        _split(x, y, cut, h, k1, rng, out)
        _split(x + cut, y, w - cut, h, k - k1, rng, out)
    else:
        _split(x, y, w, cut, k1, rng, out)
        _split(x, y + cut, w, h - cut, k - k1, rng, out)


def guillotine_layout(container: Container, count: int, rng: random.Random) -> Packing:
    """A complete feasible packing of ``count`` rectangles tiling nothing
    outside the cut structure.

    Leaf order is shuffled and non-square leaves are stored in a random
    orientation, so neither index order nor rotation flags betray the cut
    tree. Raises ValueError when count exceeds the container area.
    """
    if count > container.area:
        raise ValueError(
            f"cannot cut {count} rectangles out of area {container.area}"
        )
    leaves: list[tuple[int, int, int, int]] = []
    if count > 0:
        _split(0, 0, container.width, container.height, count, rng, leaves)
    rng.shuffle(leaves)
    dims = []
    placements = []
    for x, y, w, h in leaves:
        if w != h and rng.random() < 0.5:
            dims.append(RectDims(h, w))
            placements.append(Placement(x, y, True))
        else:
            dims.append(RectDims(w, h))
            placements.append(Placement(x, y, False))
    return Packing(Instance(container, tuple(dims)), tuple(placements))


def corner_walk_packing(container: Container, count: int, rng: random.Random) -> Packing:
    """Grow a packing by ``count`` random corner placements.

    Shapes are sampled small but each may consume at most the free area
    minus one cell per rectangle still owed, so the 1x1 fallback always
    has room (and, while any cell is free, a corner) and the walk always
    delivers exactly ``count`` rectangles. Raises ValueError when count
    exceeds the container area.
    """
    if count > container.area:
        raise ValueError(
            f"cannot place {count} rectangles in area {container.area}"
        )
    dims: list[RectDims] = []
    placements: list[Placement] = []
    used = 0
    for step in range(count):
        budget = container.area - used - (count - step - 1)
        p = Packing(Instance(container, tuple(dims)), tuple(placements))
        chosen = None
        for _attempt in range(10):
            shape = RectDims(
                rng.randint(1, min(5, container.width)),
                rng.randint(1, min(5, container.height)),
            )
            if shape.area > budget:
                continue
            corners = enumerate_corners(p, shape)
            if corners:
                chosen = (shape, rng.choice(corners))
                break
        if chosen is None:
            shape = RectDims(1, 1)
            chosen = (shape, rng.choice(enumerate_corners(p, shape)))
        shape, corner = chosen
        dims.append(shape)
        placements.append(Placement(corner.x, corner.y, corner.rotated))
        used += shape.area
    return Packing(Instance(container, tuple(dims)), tuple(placements))
