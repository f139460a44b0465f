"""Exact feasibility solver whose only move is the corner-occupying action.

Depth-first search over partial packings: every branch places one
unplaced rectangle onto one of its bottom-left corners. Restricting moves
to corners loses nothing, because any stable feasible packing can be
rebuilt as a sequence of corner placements, and compaction turns any
feasible packing into a stable one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from .corners import CornerAction, apply_action, enumerate_corners
from .geometry import Instance, Packing, box_over, box_right_of, is_feasible
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


class _LimitHit(Exception):
    """Internal: unwind the search when a node or time limit fires."""


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


def _dominated(p: Packing, i: int) -> bool:
    """True when some other placed rectangle is over or right of rect ``i``."""
    new = p.placed_rect(i).box
    return any(
        j != i and (box_over(box, new) or box_right_of(box, new)) for j, box in p.boxes().items()
    )


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
    shapes = instance.rects
    key = _order_key(config, instance)

    if quick_reject(instance) is not None:
        return SolveResult(
            SolveStatus.INFEASIBLE, None, SolveStats(0, 0, time.perf_counter() - start)
        )

    def dfs(p: Packing, depth: int) -> Packing | None:
        nonlocal nodes, max_depth
        if config.node_limit is not None and nodes >= config.node_limit:
            raise _LimitHit
        if config.time_limit is not None and time.perf_counter() - start > config.time_limit:
            raise _LimitHit
        nodes += 1
        max_depth = max(max_depth, depth)
        if p.is_complete:
            return p
        unplaced = p.unplaced_indices()
        # Among identical shapes (up to rotation) only the lowest unplaced
        # index branches; permuting equals never produces a new packing.
        firsts = {}
        for i in unplaced:
            firsts.setdefault(shapes[i].canonical(), i)
        candidates = sorted(firsts.values(), key=key)
        for i in candidates:
            for corner in enumerate_corners(p, shapes[i]):
                child = apply_action(p, CornerAction(i, corner))
                if config.enhanced_pruning and _dominated(child, i):
                    continue
                found = dfs(child, depth + 1)
                if found is not None:
                    return found
        return None

    try:
        packing = dfs(Packing.empty(instance), 0)
    except _LimitHit:
        return SolveResult(
            SolveStatus.UNKNOWN, None, SolveStats(nodes, max_depth, time.perf_counter() - start)
        )
    elapsed = time.perf_counter() - start
    if packing is None:
        return SolveResult(SolveStatus.INFEASIBLE, None, SolveStats(nodes, max_depth, elapsed))
    return SolveResult(SolveStatus.FEASIBLE, packing, SolveStats(nodes, max_depth, elapsed))


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
