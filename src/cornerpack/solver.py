"""Exact feasibility solver whose only move is the corner-occupying action.

Depth-first search over partial packings: every branch places one
unplaced rectangle onto one of its bottom-left corners. Restricting moves
to corners loses nothing, because any stable feasible packing can be
rebuilt as a sequence of corner placements, and compaction turns any
feasible packing into a stable one.

The search runs on an explicit stack, so Python's recursion limit does
not bound its depth, over one mutable board (:class:`corners._Board`).
Each node scans its corners once, on a bitboard of the placed boxes'
distinct edges; a child is placed on the board and later taken off,
never re-validated. Frozen packings and validated actions stay at the
API boundary: the result packing is built once, from the path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from .corners import _Board
# Unused here: the benchmark's tracer patches these two names on this
# module until its solver patch points become optional (ROADMAP item 1).
from .corners import apply_action, enumerate_corners  # noqa: F401
from .geometry import Box, Instance, Packing, Placement, box_over, box_right_of, is_feasible
from .stability import is_bottom_left_stable

RECT_ORDERS = ("input", "area", "perimeter")


class SolveStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SolverConfig:
    """Search knobs.

    ``rect_order`` picks which unplaced rectangle branches first: input
    order, largest area first, or largest perimeter first (ties always by
    index). ``enhanced_pruning`` skips placements that would leave the new
    rectangle under, or to the left of, an already placed one; the search
    stays complete because every stable packing admits a build order in
    which that never happens. Pruning only removes branches, so the pruned
    search tree is a subset of the plain one: never larger, and with the
    same verdict. The search stops at its first solution, though, so on a
    feasible instance the pruned search can expand more nodes than the
    plain one, which may find a packing inside a pruned subtree. Limits,
    when hit, yield status UNKNOWN.
    """

    enhanced_pruning: bool = True
    node_limit: int | None = None
    time_limit: float | None = None
    rect_order: str = "area"

    def __post_init__(self):
        if self.rect_order not in RECT_ORDERS:
            raise ValueError(f"rect_order must be one of {RECT_ORDERS}, got {self.rect_order!r}")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError(f"node_limit must be positive, got {self.node_limit}")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError(f"time_limit must be positive, got {self.time_limit}")


@dataclass(frozen=True)
class SolveStats:
    nodes_expanded: int
    max_depth: int
    elapsed_seconds: float

    def __post_init__(self):
        if self.nodes_expanded < 0 or self.max_depth < 0 or self.elapsed_seconds < 0:
            raise ValueError("solve statistics cannot be negative")


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    packing: Packing | None
    stats: SolveStats

    def __post_init__(self):
        if (self.packing is not None) != (self.status is SolveStatus.FEASIBLE):
            raise ValueError("a packing is present exactly on FEASIBLE results")


def quick_reject(instance: Instance) -> str | None:
    """Cheap certificates of infeasibility, or None.

    None implies nothing; the search must still decide.
    """
    c = instance.container
    if instance.total_rect_area > c.area:
        return (
            f"total rectangle area {instance.total_rect_area} exceeds "
            f"container area {c.area}"
        )
    cw, ch = min(c.width, c.height), max(c.width, c.height)
    for i, shape in enumerate(instance.rects):
        lo, hi = shape.canonical()
        if lo > cw or hi > ch:
            return f"rectangle {i} ({shape.width}x{shape.height}) fits in neither orientation"
    return None


def _order_key(config: SolverConfig, instance: Instance):
    if config.rect_order == "area":
        return lambda i: (-instance.rects[i].area, i)
    if config.rect_order == "perimeter":
        return lambda i: (-instance.rects[i].perimeter, i)
    return lambda i: i


def _dominated(boxes: list[Box | None], new: Box) -> bool:
    """True when some placed box is over or right of the box ``new``."""
    return any(b is not None and (box_over(b, new) or box_right_of(b, new)) for b in boxes)


def _advance(board: _Board, frames: list, path: list, enhanced: bool) -> bool:
    """Place the next unpruned child in depth-first order; False once the root is exhausted.

    ``frames`` holds one move iterator per node on ``path``; an exhausted
    node is popped and the move that reached it is taken off the board.
    """
    while frames:
        for i, box, rotated in frames[-1]:
            if enhanced and _dominated(board.boxes, box):
                continue
            board.place(i, box)
            path.append((i, box, rotated))
            return True
        frames.pop()
        if path:
            board.unplace(path.pop()[0])
    return False


def solve(instance: Instance, config: SolverConfig | None = None) -> SolveResult:
    """Decide whether the instance admits a feasible packing.

    FEASIBLE comes with a bottom-left stable packing, INFEASIBLE only
    after the corner-action search space is exhausted, and UNKNOWN only
    when a configured limit fired first. Runs are deterministic: the
    same instance and config give the same status, packing and node
    count (elapsed time aside).
    """
    config = config or SolverConfig()
    start = time.perf_counter()
    nodes = 0
    max_depth = 0

    if quick_reject(instance) is not None:
        return SolveResult(
            SolveStatus.INFEASIBLE, None, SolveStats(0, 0, time.perf_counter() - start)
        )

    key = _order_key(config, instance)
    board = _Board(instance)
    path: list[tuple[int, Box, bool]] = []  # (i, box, rotated) from the root down
    frames: list = []
    while True:
        # Node entry: the board holds the node's packing, at depth len(path).
        if (config.node_limit is not None and nodes >= config.node_limit) or (
            config.time_limit is not None and time.perf_counter() - start > config.time_limit
        ):
            status = SolveStatus.UNKNOWN
            break
        nodes += 1
        max_depth = max(max_depth, len(path))
        if len(path) == instance.n:
            status = SolveStatus.FEASIBLE
            break
        frames.append(board.moves(key))
        if not _advance(board, frames, path, config.enhanced_pruning):
            status = SolveStatus.INFEASIBLE
            break
    stats = SolveStats(nodes, max_depth, time.perf_counter() - start)
    if status is not SolveStatus.FEASIBLE:
        return SolveResult(status, None, stats)
    placements: list[Placement | None] = [None] * instance.n
    for i, box, rotated in path:
        placements[i] = Placement(box[0], box[1], rotated)
    return SolveResult(status, Packing(instance, tuple(placements)), stats)


def certify(instance: Instance, result: SolveResult) -> bool:
    """Re-check a result against the definitions it claims to satisfy.

    FEASIBLE results must carry a complete, feasible, bottom-left stable
    packing of this instance; INFEASIBLE and UNKNOWN have nothing to
    check and certify trivially.
    """
    if result.status is not SolveStatus.FEASIBLE:
        return True
    p = result.packing
    return (
        p.instance == instance
        and p.is_complete
        and is_feasible(p)
        and is_bottom_left_stable(p)
    )
