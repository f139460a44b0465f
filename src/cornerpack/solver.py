"""Exact feasibility solver whose only move is the corner-occupying action.

Depth-first search over partial packings: every branch places one
unplaced rectangle onto one of its bottom-left corners. Restricting moves
to corners loses nothing, because any stable feasible packing can be
rebuilt as a sequence of corner placements, and compaction turns any
feasible packing into a stable one.

The walk itself belongs to one mutable board (:class:`corners._Board`),
which keeps the depth-first stack, one record per node on its path, so
Python's recursion limit does not bound the depth. :func:`solve` keeps
only the policy: the limit checks at node entry, the node and depth
counts, and the result. Plain mode scans each node's corners on a
bitboard of the placed boxes' distinct edges, grown by one box per
placement. Enhanced mode keeps a skyline of column heights instead. With
slack it is the staircase of the placed and dead cells: its corners are
the staircase's concave corners, which need no overlap or dominance
test, and a box's dead area is arithmetic on the steps, each node
carrying its remaining dead-area budget. The corner scan sums it once
per box and hands the child its budget with the box; the sum stops once
it passes the budget. At zero slack it tests one position, the lowest,
then leftmost, free cell, which every packing must fill with a box's
bottom-left, and raises only the box's own columns. The board picks the
rule from the slack it is given, and reads the rectangles' sides from a
table built once per solve. A child is placed on the board and later
taken off, never re-validated.
Frozen packings and validated actions stay at the API boundary: the
result packing is built once, from the board's boxes, each box's
orientation read off its width.
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
    which that never happens. Under that rule a free cell with a placed
    rectangle over it or right of it can never be covered, so enhanced
    pruning also skips placements after which such dead area exceeds the
    slack (container area minus rectangle area). The placed and dead cells
    then form a staircase, whose concave corners the search branches on.
    At zero slack, where every cell gets covered, enhanced pruning instead
    branches only on the rectangles that fit with their bottom-left at the
    lowest, then leftmost, free cell, since the packing's box covering that
    cell must start there. Each such placement is a plain-mode corner.
    Pruning only removes branches, so the pruned search tree is a subset
    of the plain one: never larger, and with the same verdict. The search
    stops at its first solution, though, so on a
    feasible instance the pruned search can expand more nodes than the
    plain one, which may find a packing inside a pruned subtree. Limits,
    when hit, yield status UNKNOWN.
    """

    enhanced_pruning: bool = True
    node_limit: int | None = None
    time_limit: float | None = None
    rect_order: str = "area"

    def __post_init__(self):
        if type(self.enhanced_pruning) is not bool:
            raise ValueError(f"enhanced_pruning must be a bool, got {self.enhanced_pruning!r}")
        if self.rect_order not in RECT_ORDERS:
            raise ValueError(f"rect_order must be one of {RECT_ORDERS}, got {self.rect_order!r}")
        n, t = self.node_limit, self.time_limit
        if n is not None and not (type(n) is int and n >= 1):
            raise ValueError(f"node_limit must be a positive integer, got {n!r}")
        if t is not None and (isinstance(t, bool) or not isinstance(t, (int, float)) or not t > 0):
            raise ValueError(f"time_limit must be a positive number, got {t!r}")


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
    cw, ch = c.width, c.height
    for i, shape in enumerate(instance.rects):
        w, h = shape.width, shape.height
        if (w > cw or h > ch) and (h > cw or w > ch):
            return f"rectangle {i} ({w}x{h}) fits in neither orientation"
    return None


def _order_key(config: SolverConfig, instance: Instance):
    """A sort key for the indices; the sort is stable, so ties stay in index order."""
    if config.rect_order == "area":
        return [-r.width * r.height for r in instance.rects].__getitem__
    if config.rect_order == "perimeter":  # half the perimeter orders alike
        return [-r.width - r.height for r in instance.rects].__getitem__
    return None


def _dominated(boxes: list[Box | None], new: Box) -> bool:
    """True when some placed box is over or right of the box ``new``.

    The reference definition of enhanced pruning's dominance half; the
    other half is the dead-area bound. The search never calls it: it
    branches on the concave corners of the staircase of the placed and
    dead cells (``corners._Board._stair_corners``), where no box is ever
    dominated. Tests compare those corners with this function, and the
    benchmark's tracer patches it here.
    """
    return any(b is not None and (box_over(b, new) or box_right_of(b, new)) for b in boxes)


def solve(instance: Instance, config: SolverConfig | None = None) -> SolveResult:
    """Decide whether the instance admits a feasible packing.

    FEASIBLE comes with a bottom-left stable packing, INFEASIBLE only
    after the corner-action search space is exhausted, and UNKNOWN only
    when a configured limit fired first. Runs are deterministic: the
    same instance and config give the same status, packing and node
    count (elapsed time aside). The board walks the tree
    (:meth:`corners._Board.descend`); this function checks the limits as
    each node is entered, counts nodes and depth, and builds the result.
    """
    config = config or SolverConfig()
    start = time.perf_counter()
    nodes = 0
    max_depth = 0

    if quick_reject(instance) is not None:
        return SolveResult(
            SolveStatus.INFEASIBLE, None, SolveStats(0, 0, time.perf_counter() - start)
        )

    slack = instance.container.area - instance.total_rect_area if config.enhanced_pruning else None
    board = _Board(instance, sorted(range(instance.n), key=_order_key(config, instance)), slack)
    node_limit, time_limit, clock = config.node_limit, config.time_limit, time.perf_counter
    path, n, descend = board.path, instance.n, board.descend
    while True:
        # Node entry: the board holds the node's packing, at depth len(path).
        if (node_limit is not None and nodes >= node_limit) or (
            time_limit is not None and clock() - start > time_limit
        ):
            status = SolveStatus.UNKNOWN
            break
        nodes += 1
        depth = len(path)
        if depth > max_depth:
            max_depth = depth
        if depth == n:
            status = SolveStatus.FEASIBLE
            break
        if not descend():
            status = SolveStatus.INFEASIBLE
            break
    stats = SolveStats(nodes, max_depth, time.perf_counter() - start)
    if status is not SolveStatus.FEASIBLE:
        return SolveResult(status, None, stats)
    placements = tuple(
        Placement(b[0], b[1], b[2] - b[0] != r.width) for b, r in zip(board.boxes, instance.rects)
    )
    return SolveResult(status, Packing(instance, placements), stats)


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
