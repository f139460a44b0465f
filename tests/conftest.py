"""Shared builders and random generators for the test suite."""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from cornerpack import (
    Container,
    Instance,
    Packing,
    Placement,
    RectDims,
    guillotine_layout,
    is_feasible,
)


def make_packing(width: int, height: int, *rects) -> Packing:
    """Packing literal: each rect is (w, h, x, y) or (w, h, x, y, rotated).

    Pass None for x to leave the rectangle unplaced: (w, h, None, None).
    """
    dims = []
    placements = []
    for entry in rects:
        w, h, x, y = entry[:4]
        rotated = entry[4] if len(entry) > 4 else False
        dims.append(RectDims(w, h))
        placements.append(None if x is None else Placement(x, y, rotated))
    return Packing(Instance(Container(width, height), tuple(dims)), tuple(placements))


def random_complete_packing(rng: random.Random, max_side: int = 20, max_n: int = 12) -> Packing:
    """A guillotine tiling: complete, feasible, usually already stable."""
    width = rng.randint(1, max_side)
    height = rng.randint(1, max_side)
    n = rng.randint(1, min(max_n, width * height))
    return guillotine_layout(Container(width, height), n, rng)


def random_loose_packing(rng: random.Random, max_side: int = 20, max_n: int = 12) -> Packing:
    """A feasible packing with slack: dropped guillotine leaves, jittered.

    Dropping leaves opens holes and the random up/right translations
    un-stabilize rectangles, so compaction has real work to do.
    """
    width = rng.randint(2, max_side)
    height = rng.randint(2, max_side)
    total = rng.randint(2, min(max_n + 6, width * height))
    layout = guillotine_layout(Container(width, height), total, rng)
    keep = sorted(rng.sample(range(total), rng.randint(1, min(max_n, total))))
    dims = tuple(layout.instance.rects[i] for i in keep)
    placements = tuple(layout.placements[i] for i in keep)
    p = Packing(Instance(layout.instance.container, dims), placements)
    for i in range(p.instance.n):
        if rng.random() < 0.5:
            continue
        pl = p.placements[i]
        trial = p.with_placement(
            i, Placement(pl.x + rng.randint(0, 3), pl.y + rng.randint(0, 3), pl.rotated)
        )
        if is_feasible(trial):
            p = trial
    return p


def doubled_tiling(rng: random.Random, side: int, n: int) -> Packing:
    """A side x side guillotine tiling of n rectangles with every coordinate
    doubled in a doubled container: every rectangle floats, so compaction
    moves nearly all of them."""
    layout = guillotine_layout(Container(side, side), n, rng)
    return Packing(
        Instance(Container(2 * side, 2 * side), layout.instance.rects),
        tuple(Placement(2 * pl.x, 2 * pl.y, pl.rotated) for pl in layout.placements),
    )


def random_partial_packing(rng: random.Random, max_side: int = 8, max_n: int = 10) -> Packing:
    """A feasible packing with some rectangles left unplaced (None slots)."""
    width = rng.randint(1, max_side)
    height = rng.randint(1, max_side)
    total = rng.randint(1, min(max_n, width * height))
    layout = guillotine_layout(Container(width, height), total, rng)
    placements = [
        None if rng.random() < 0.4 else pl for pl in layout.placements
    ]
    return Packing(layout.instance, tuple(placements))


def random_shape(rng: random.Random, max_w: int, max_h: int) -> RectDims:
    return RectDims(rng.randint(1, max_w), rng.randint(1, max_h))


def load_perfbench(name: str):
    """The benchmark's ``perfbench/<name>.py``, loaded read-only from its file
    (once per session), so tests can run its workloads and checkers."""
    module_name = f"perfbench_{name}"
    if module_name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(module_name, path)
        module = importlib.util.module_from_spec(spec)
        # Dataclasses resolve their string annotations through sys.modules.
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
    return sys.modules[module_name]
