"""
Deciding feasibility exactly, with and without pruning
======================================================

The solver's only move is placing a rectangle onto a bottom-left corner,
which is enough to find a packing whenever one exists. The enhanced mode
additionally skips placements that leave the new rectangle under or left
of an existing one, and placements after which the free area that can no
longer be covered exceeds the container's spare area. When the rectangles
fill the container exactly, every cell gets covered, so the enhanced mode
instead branches only on what fills the lowest, then leftmost, free cell.
Either way its search tree is a subset of the plain one, so it is never
larger and the verdict never changes. The search stops at the first
packing it finds, though, so on a feasible instance the pruned search can
expand more nodes than the plain one.
"""

from cornerpack import (
    Container,
    Instance,
    RectDims,
    SolverConfig,
    SolveStatus,
    oracle_feasible,
    solve,
)


def report(instance, label):
    plain = solve(instance, SolverConfig(enhanced_pruning=False))
    enhanced = solve(instance, SolverConfig(enhanced_pruning=True))
    witness = oracle_feasible(instance)
    agree = (plain.status is SolveStatus.FEASIBLE) == (witness is not None)
    print(f"{label}:")
    print(f"  verdict {plain.status.value}, oracle agrees: {agree}")
    print(f"  nodes expanded: plain {plain.stats.nodes_expanded}, "
          f"enhanced {enhanced.stats.nodes_expanded}")
    if plain.packing is not None:
        for i, r in plain.packing.iter_placed():
            rot = " rotated" if plain.packing.placements[i].rotated else ""
            print(f"  rectangle {i + 1} at ({r.x}, {r.y}){rot}")
    print()


# A perfect split: two tall halves fill the container exactly.
report(Instance(Container(4, 4), (RectDims(2, 4), RectDims(2, 4))), "perfect split")

# Two 2x2 blocks cannot share a 3x3 container; the search proves it.
report(Instance(Container(3, 3), (RectDims(2, 2), RectDims(2, 2))), "provably impossible")

# Here pruning costs one extra node: the plain search stumbles into a
# solution inside a subtree the enhanced search refuses to enter.
report(
    Instance(Container(5, 4), (RectDims(1, 1), RectDims(2, 3), RectDims(2, 3), RectDims(2, 3))),
    "pruning is not a free lunch",
)

# With a 1x2 in place of the 1x1 the rectangles fill the container exactly.
# The enhanced search then tries only the rectangles that fit at the
# lowest, then leftmost, free cell, and here finds a packing a node sooner.
print("with zero slack, enhanced mode fills the lowest, then leftmost, free cell:")
report(
    Instance(Container(5, 4), (RectDims(1, 2), RectDims(2, 3), RectDims(2, 3), RectDims(2, 3))),
    "a perfect tiling",
)
