"""Seeded workloads for the cornerpack benchmark.

Each workload turns a seed into a fixed list of items (its set-up), runs
one public library operation per item (the timed part), and checks every
answer. Items are processed as a closed loop: one call at a time, the
next only after the previous returned.

- ``tiling``: zero-slack guillotine tilings solved to a first packing in
  both pruning modes under a per-solve node budget. Measures the cost of
  *finding* a packing; the work is the solver's DFS and corner scans.
- ``nearmiss``: parity near-misses, infeasible by construction yet past
  ``quick_reject``, solved in both modes until the tree is exhausted.
  Measures the cost of *refuting* an instance.
- ``explain``: compaction, build-order derivation, replay, document
  round trip and SVG rendering of large loose packings. No solver call.
- ``crosscheck``: the tiny criterion-1 family, solved in both modes and
  compared with the brute-force oracle. The only workload where the
  oracle and the solver's fixed per-call cost dominate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import cornerpack as cp
from cornerpack import (
    Container,
    Instance,
    Packing,
    Placement,
    RectDims,
    SolverConfig,
    SolveStatus,
)

# Every tiling solve stops after this many expanded nodes and then counts
# as undecided. Node counts are deterministic, so the set of decided
# solves is the same on every run of a seed, whatever the machine's
# speed. The budget admits a search that backtracks a little (a
# 24x24/18 tiling needs 19 nodes without backtracking) and is small so
# that the suite can be large.
NODE_BUDGET = 20
# Near-miss and tiny instances are searched to exhaustion; this budget
# only caps a runaway tree, and no instance here comes near it.
EXHAUST_NODE_BUDGET = 20_000
# Far above what NODE_BUDGET nodes cost; a solve stopped by this clock is
# a runaway and counts as failed, never as undecided.
RUNAWAY_SECONDS = 60.0

MODES = (("enhanced", True), ("plain", False))
ORDERS = ("input", "area", "perimeter")

# (width, height, rectangles, items) per size class. An item's time
# varies tenfold within a class, so the suite needs hundreds of items
# for its percentiles to hold steady from seed to seed. The counts put
# the median inside the 16x16 class and the 90th percentile inside the
# 24x24 class, not on a boundary between classes.
TILING_SIZES = ((12, 8, 7, 175), (16, 16, 10, 175), (20, 20, 14, 50), (24, 24, 18, 100))

# Base tilings doubled by the parity construction. The two pruning modes
# together exhaust these trees in 100 to 350 nodes. Five-rectangle bases
# need 500 to 4,500, and a suite of them large enough to be steady from
# seed to seed does not fit in one run.
NEARMISS_SIZES = ((4, 4, 4, 120), (5, 4, 4, 120), (5, 5, 4, 120))

# Loose packings of 30, 60 and 120 rectangles. Most items are small so
# the median is a 30-rectangle item, and a fifth are larger so the 90th
# percentile is a 60-rectangle item.
EXPLAIN_SIZES = ((10, 10, 30, 32), (14, 14, 60, 8), (20, 20, 120, 1))

CROSSCHECK_COUNT = 4000


@dataclass(frozen=True)
class Outcome:
    """Result of checking one operation.

    ``decided`` counts the definite answers the operation returned within
    its budget; ``ok`` is False when any answer was wrong.
    """

    decided: int
    ok: bool


@dataclass(frozen=True)
class Workload:
    """How to build a workload's items, run one item, and check its answer.

    ``feasible`` is the verdict every solver input has by construction, or
    None where it varies or nothing is solved.
    """

    name: str
    setup: Callable[[int], list]
    run: Callable[[object], object]
    check: Callable[[object, object], Outcome]
    feasible: bool | None = None


def solver_config(enhanced: bool, budget: int, order: str = "area") -> SolverConfig:
    return SolverConfig(
        enhanced_pruning=enhanced,
        node_limit=budget,
        time_limit=RUNAWAY_SECONDS,
        rect_order=order,
    )


def hit_runaway_guard(result: cp.SolveResult, config: SolverConfig) -> bool:
    return (
        result.status is SolveStatus.UNKNOWN
        and result.stats.nodes_expanded < config.node_limit
    )


def _rng(*parts) -> random.Random:
    # String seeds hash through SHA-512, so they are stable across runs
    # and interpreter processes (unlike hash()).
    return random.Random(":".join(str(p) for p in parts))


@dataclass(frozen=True)
class SolveItem:
    """One instance, solved once in each pruning mode under ``budget`` nodes."""

    instance: Instance
    budget: int


def run_solve(item: SolveItem) -> tuple[cp.SolveResult, ...]:
    return tuple(
        cp.solve(item.instance, solver_config(enhanced, item.budget)) for _, enhanced in MODES
    )


def check_solves(item: SolveItem, results: tuple, feasible: bool) -> Outcome:
    """Decided answers must match ``feasible``; FEASIBLE ones must certify.

    A solve stopped by the runaway clock rather than the node budget is a
    failure, not an undecided answer.
    """
    decided = 0
    ok = True
    for (_, enhanced), result in zip(MODES, results):
        if hit_runaway_guard(result, solver_config(enhanced, item.budget)):
            ok = False
        elif result.status is SolveStatus.FEASIBLE:
            decided += 1
            ok = ok and feasible and cp.certify(item.instance, result)
        elif result.status is SolveStatus.INFEASIBLE:
            decided += 1
            ok = ok and not feasible
    return Outcome(decided, ok)


# --- tiling ---------------------------------------------------------------


def make_tiling(seed: int) -> list[SolveItem]:
    return [
        SolveItem(
            cp.guillotine_layout(Container(w, h), n, _rng("tiling", seed, w, h, n, k)).instance,
            NODE_BUDGET,
        )
        for w, h, n, count in TILING_SIZES
        for k in range(count)
    ]


def check_tiling(item: SolveItem, results: tuple) -> Outcome:
    # A tiling is feasible by construction: INFEASIBLE is a wrong answer.
    return check_solves(item, results, feasible=True)


# --- nearmiss -------------------------------------------------------------


def parity_near_miss(width: int, height: int, count: int, rng: random.Random) -> Instance:
    """An infeasible instance that ``quick_reject`` cannot refute.

    Construction: cut a ``width`` x ``height`` guillotine tiling into
    ``count`` rectangles and double every side, so the rectangles tile a
    2W x 2H box exactly. The container is (2W+1) x 2H, which leaves 2H
    cells of slack. One rectangle then grows by 2 along one side; the
    grown instance is kept only if ``quick_reject`` passes, that is, the
    total area still fits the container and every rectangle fits in some
    orientation. Tilings are redrawn until some growth qualifies.

    Proof of infeasibility. Every rectangle side is even. Suppose a
    feasible packing exists; compacting it gives a bottom-left stable
    one. In a stable packing each rectangle has x = 0 or rests against a
    rectangle whose right edge is exactly x. Taking the rectangles by
    increasing x, the supporter starts further left, so by induction its
    x is even, and its right edge (even x plus even width) is even. Hence
    every x and every right edge is even, and a right edge at most 2W+1
    is at most 2W. The same holds for y within 2H. So the whole packing
    lies inside the 2W x 2H box of area 4WH, but the rectangles' area is
    4WH plus twice the grown rectangle's other side. Contradiction.
    """
    container = Container(2 * width + 1, 2 * height)
    for _ in range(100):
        base = cp.guillotine_layout(Container(width, height), count, rng).instance
        rects = [RectDims(2 * r.width, 2 * r.height) for r in base.rects]
        growths = []
        for i, r in enumerate(rects):
            growths.append((i, RectDims(r.width + 2, r.height)))
            growths.append((i, RectDims(r.width, r.height + 2)))
        rng.shuffle(growths)
        for i, grown in growths:
            candidate = Instance(container, tuple(rects[:i] + [grown] + rects[i + 1 :]))
            if cp.quick_reject(candidate) is None:
                return candidate
    raise ValueError(f"no parity near-miss found for {width}x{height}/{count}")


def make_nearmiss(seed: int) -> list[SolveItem]:
    return [
        SolveItem(parity_near_miss(w, h, n, _rng("nearmiss", seed, w, h, n, k)), EXHAUST_NODE_BUDGET)
        for w, h, n, count in NEARMISS_SIZES
        for k in range(count)
    ]


def check_nearmiss(item: SolveItem, results: tuple) -> Outcome:
    return check_solves(item, results, feasible=False)


# --- explain --------------------------------------------------------------


@dataclass(frozen=True)
class ExplainItem:
    instance_doc: str
    solution_doc: str


@dataclass(frozen=True)
class Explained:
    loose: Packing
    compacted: Packing
    trace: cp.CompactionTrace
    states: list
    document: str
    svg: str


def loose_tiling(width: int, height: int, count: int, rng: random.Random) -> Packing:
    """A guillotine tiling with every coordinate doubled in a doubled container.

    The rectangles keep their size, so each one floats with gaps below
    and to its left, and compaction has to move nearly all of them.
    """
    layout = cp.guillotine_layout(Container(width, height), count, rng)
    placements = tuple(Placement(2 * pl.x, 2 * pl.y, pl.rotated) for pl in layout.placements)
    instance = Instance(Container(2 * width, 2 * height), layout.instance.rects)
    return Packing(instance, placements)


def make_explain(seed: int) -> list[ExplainItem]:
    items = []
    for w, h, n, count in EXPLAIN_SIZES:
        for k in range(count):
            packing = loose_tiling(w, h, n, _rng("explain", seed, w, h, n, k))
            items.append(
                ExplainItem(cp.emit_instance(packing.instance), cp.emit_solution(packing))
            )
    return items


def run_explain(item: ExplainItem) -> Explained:
    instance = cp.parse_instance(item.instance_doc)
    loose = cp.parse_solution(item.solution_doc, instance)
    compacted, trace = cp.compact(loose)
    order = cp.placement_order(compacted)
    states = order.replay()
    return Explained(
        loose, compacted, trace, states, cp.emit_solution(compacted), cp.render_svg(compacted)
    )


def check_explain(item: ExplainItem, result: Explained) -> Outcome:
    reparsed = cp.parse_solution(result.document, result.compacted.instance)
    ok = (
        cp.apply_trace(result.loose, result.trace) == result.compacted
        and result.states[-1] == result.compacted
        and reparsed == result.compacted
        and cp.emit_solution(reparsed) == result.document
        and result.svg.startswith("<svg")
    )
    return Outcome(1, ok)


# --- crosscheck -----------------------------------------------------------


def make_crosscheck(seed: int) -> list[SolveItem]:
    """The criterion-1 family: container sides 1..5, 1..4 rectangles of sides 1..3."""
    rng = _rng("crosscheck", seed)
    items = []
    for _ in range(CROSSCHECK_COUNT):
        container = Container(rng.randint(1, 5), rng.randint(1, 5))
        rects = tuple(
            RectDims(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))
        )
        items.append(SolveItem(Instance(container, rects), EXHAUST_NODE_BUDGET))
    return items


def run_crosscheck(item: SolveItem) -> tuple:
    return run_solve(item), cp.oracle_feasible(item.instance)


def check_crosscheck(item: SolveItem, outcome: tuple) -> Outcome:
    results, witness = outcome
    checked = check_solves(item, results, feasible=witness is not None)
    # Tiny instances must always be decided: an undecided one disagrees too.
    return Outcome(checked.decided, checked.ok and checked.decided == len(MODES))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tiling", make_tiling, run_solve, check_tiling, feasible=True),
        Workload("nearmiss", make_nearmiss, run_solve, check_nearmiss, feasible=False),
        Workload("explain", make_explain, run_explain, check_explain),
        Workload("crosscheck", make_crosscheck, run_crosscheck, check_crosscheck),
    )
}
