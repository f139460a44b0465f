"""Random generators for known-feasible instances and packings.

Two strategies: guillotine generation recursively slices the container
into exactly ``count`` rectangular leaves, so the resulting instance is
feasible by construction and comes with a witness packing; corner-walk
generation grows a packing by repeatedly placing a random shape onto a
random bottom-left corner. Both are deterministic for a fixed Random.
"""

from __future__ import annotations

import random

from .corners import _empty_grid, _grow, _orientations, _positions
from .geometry import Container, Instance, Packing, Placement, RectDims


def _split(x: int, y: int, w: int, h: int, k: int, rng: random.Random, out: list) -> None:
    """Cut a w x h region at (x, y) into k leaf rectangles."""
    if k == 1:
        out.append((x, y, w, h))
        return
    # Every (axis, cut, k1) with both sides able to host their share of
    # leaves: k1 runs from k - (side - cut) * other, at least 1, to
    # cut * other, at most k - 1, and no cut is empty since 2 <= k <= w*h.
    # They are counted per cut, vertical cuts first, not listed:
    # randrange(total) draws the rank in (axis, cut, k1) order that
    # choice() would draw on the list.
    sizes = []
    for side, other in ((w, h), (h, w)):
        for cut in range(1, side):
            lo = k - (side - cut) * other
            hi = cut * other
            sizes.append((hi if hi < k else k - 1) - (lo if lo > 1 else 1) + 1)
    rank = rng.randrange(sum(sizes))
    for cut, size in enumerate(sizes, 1):
        if rank < size:
            break
        rank -= size
    if cut < w:
        lo = k - (w - cut) * h
        k1 = (lo if lo > 1 else 1) + rank
        _split(x, y, cut, h, k1, rng, out)
        _split(x + cut, y, w - cut, h, k - k1, rng, out)
    else:
        cut -= w - 1
        lo = k - (h - cut) * w
        k1 = (lo if lo > 1 else 1) + rank
        _split(x, y, w, cut, k1, rng, out)
        _split(x, y + cut, w, h - cut, k - k1, rng, out)


def guillotine_layout(container: Container, count: int, rng: random.Random) -> Packing:
    """A complete feasible packing of ``count`` rectangles tiling nothing
    outside the cut structure.

    Leaf order is shuffled and non-square leaves are stored in a random
    orientation, so neither index order nor rotation flags betray the cut
    tree. Raises ValueError unless count is an int from 0 to the
    container area.
    """
    if type(count) is not int or not 0 <= count <= container.area:
        raise ValueError(f"cannot cut {count!r} rectangles out of area {container.area}")
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
    delivers exactly ``count`` rectangles. Raises ValueError unless count
    is an int from 0 to the container area.
    """
    if type(count) is not int or not 0 <= count <= container.area:
        raise ValueError(f"cannot place {count!r} rectangles in area {container.area}")
    dims: list[RectDims] = []
    placements: list[Placement] = []
    grid = _empty_grid(container)
    used = 0
    for step in range(count):
        budget = container.area - used - (count - step - 1)
        for _attempt in range(10):
            shape = RectDims(
                rng.randint(1, min(5, container.width)),
                rng.randint(1, min(5, container.height)),
            )
            boxes = _positions(grid, container, _orientations(shape)) if shape.area <= budget else []
            if boxes:
                break
        else:
            shape = RectDims(1, 1)
            boxes = _positions(grid, container, _orientations(shape))
        box = rng.choice(boxes)
        grid = _grow(grid, box)
        dims.append(shape)
        placements.append(Placement(box[0], box[1], box[2] - box[0] != shape.width))
        used += shape.area
    return Packing(Instance(container, tuple(dims)), tuple(placements))
