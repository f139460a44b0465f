"""Benchmark runner for cornerpack.

Usage, from the repository root:

    python3 perfbench/run.py --workload tiling --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed or built. One process, one thread, one call at a time.

``--trace 0`` measures the end-to-end metrics with tracing off: it sets
the workload up several times (``setup_s`` is the median), then repeats
passes over the workload's items until the next pass would overrun
``--seconds``, always at least one. A reference loop of fixed
pure-Python work is timed between items, and each item's time is
divided by it: an item's cost is the median of these ratios over the
passes, in units of one reference loop ("ref"). ``p50_ref`` and
``p90_ref`` are percentiles of item cost, ``total_ref`` their sum (one
pass over the suite), and ``decided`` the number of definite answers
returned within the node budget. The fastest pass in seconds is printed
with the metadata.

``--trace 1`` ignores ``--seconds``. It runs two untraced passes for
reference, one traced pass (set-up included) for the per-layer metrics,
and, for solver workloads, a sweep over every rectangle order and
pruning mode.

Every answer is checked. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it list every metric with its unit and
the run's metadata. Exit status 0 means the run completed, whatever its
checks found; any other status means it could not run, and then no
result line is printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up is timed this many times per run and reported as the median.
SETUP_REPEATS = 9
# Item time between two runs of the reference loop.
REFERENCE_EVERY_S = 0.005


def import_package():
    """Put ``src/`` first on the path and import cornerpack from there only."""
    init = SRC / "cornerpack" / "__init__.py"
    if not init.is_file():
        print(f"run.py: cornerpack sources not found at {init}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cornerpack

    if Path(cornerpack.__file__).resolve() != init.resolve():
        print(f"run.py: imported cornerpack from {cornerpack.__file__}, not {init}", file=sys.stderr)
        sys.exit(2)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def reference_loop() -> float:
    """Seconds taken by a fixed slice of pure-Python work (under 1 ms).

    It does dictionary and tuple work like the package's own inner loops,
    so other tenants of a shared core slow it about as much as they slow
    the package.
    """
    start = time.perf_counter()
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def run_pass(workload, items) -> tuple[list[float], list[float], list]:
    """Run and check every item once.

    Returns each item's seconds, the reference loop's seconds around it,
    and each item's outcome. The reference loop runs between items once
    at least REFERENCE_EVERY_S of item time has passed since it last ran;
    every item in that stretch gets the mean of the two runs flanking it.
    Only the library call is timed. An exception, in the call or in its
    check, fails that item and is reported on standard error.
    """
    from workloads import Outcome

    gc.collect()
    clock = time.perf_counter
    times = []
    refs = []
    outcomes = []
    before = reference_loop()
    stretch = 0.0
    for item in items:
        start = clock()
        try:
            result = workload.run(item)
            times.append(clock() - start)
            outcomes.append(workload.check(item, result))
        except Exception:
            if len(times) == len(outcomes):
                times.append(clock() - start)
            traceback.print_exc()
            outcomes.append(Outcome(0, False))
        stretch += times[-1]
        if stretch >= REFERENCE_EVERY_S or len(times) == len(items):
            after = reference_loop()
            refs.extend([(before + after) / 2] * (len(times) - len(refs)))
            before = after
            stretch = 0.0
    return times, refs, outcomes


def measure(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics, tracing off."""
    setups = []
    items = None
    setup_same = True
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        built = workload.setup(seed)
        setups.append(time.perf_counter() - start)
        setup_same = setup_same and (items is None or built == items)
        items = built

    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        passes.append(run_pass(workload, items))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break

    decided = [[o.decided for o in outcomes] for _, _, outcomes in passes]
    # On a shared core the same deterministic work runs up to twice as
    # slow from one moment to the next, and the quiet speed itself drifts
    # by a sixth over minutes. Dividing each item's time by the reference
    # loop timed beside it cancels most of both; an item's cost is the
    # median of these ratios over the passes, in units of one reference
    # loop ("ref"). The median, not the minimum: a ratio is also low when
    # only the reference run was slowed.
    per_item = [
        statistics.median(t / r for t, r in zip(ts, rs))
        for ts, rs in zip(
            zip(*(times for times, _, _ in passes)), zip(*(refs for _, refs, _ in passes))
        )
    ]
    p90 = statistics.quantiles(per_item, n=10)[-1]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "decided": (sum(decided[0]), "count"),
        "p50_ref": (statistics.median(per_item), "ref"),
        "p90_ref": (p90, "ref"),
        "total_ref": (sum(per_item), "ref"),
    }
    failed = sum(not o.ok for _, _, outcomes in passes for o in outcomes)
    all_refs = [r for _, refs, _ in passes for r in refs]
    notes = {
        "items": len(items),
        "passes": len(passes),
        "items_beyond_p90": sum(t > p90 for t in per_item),
        "fastest_pass_s": min(sum(times) for times, _, _ in passes),
        "reference_loop_ms_median": statistics.median(all_refs) * 1e3,
        "reference_loop_ms_min": min(all_refs) * 1e3,
        "setup_same_every_time": setup_same,
        "decided_same_every_pass": all(d == decided[0] for d in decided),
    }
    return {
        "correct": failed == 0
        and notes["setup_same_every_time"]
        and notes["decided_same_every_pass"],
        "attempted": len(items) * len(passes),
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }


def sweep(workload, items) -> tuple[dict, int, int]:
    """Solve every instance under each rectangle order and pruning mode.

    Only solver items are swept; the other workloads report zeros.

    Returns per-config decided and node counts, instances attempted, and
    instances failed: a runaway, an uncertified FEASIBLE, a verdict that
    contradicts the workload's construction, or a split where one config
    certifies FEASIBLE and another answers INFEASIBLE.
    """
    import cornerpack as cp
    from workloads import MODES, ORDERS, SolveItem, hit_runaway_guard, solver_config

    metrics = {}
    for mode, _ in MODES:
        for order in ORDERS:
            metrics[f"solver.decided.{mode}.{order}"] = 0
            metrics[f"solver.nodes.{mode}.{order}"] = 0
    failed = 0
    solves = [item for item in items if isinstance(item, SolveItem)]
    for item in solves:
        verdicts = set()
        ok = True
        for mode, enhanced in MODES:
            for order in ORDERS:
                config = solver_config(enhanced, item.budget, order)
                result = cp.solve(item.instance, config)
                metrics[f"solver.nodes.{mode}.{order}"] += result.stats.nodes_expanded
                if hit_runaway_guard(result, config) or not cp.certify(item.instance, result):
                    ok = False
                if result.status is not cp.SolveStatus.UNKNOWN:
                    metrics[f"solver.decided.{mode}.{order}"] += 1
                    verdicts.add(result.status is cp.SolveStatus.FEASIBLE)
        if workload.feasible is not None:
            verdicts.add(workload.feasible)
        failed += not ok or len(verdicts) > 1
    return {k: (v, "count") for k, v in metrics.items()}, len(solves), failed


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def trace_run(workload, seed: int) -> dict:
    """Per-layer metrics from one traced pass, set-up included."""
    from tracer import LAYERS, Tracer

    def timed_pass():
        start = time.perf_counter()
        items = workload.setup(seed)
        _, _, outcomes = run_pass(workload, items)
        return time.perf_counter() - start, items, outcomes

    # The faster of two untraced passes is the reference for the overhead.
    reference = [timed_pass() for _ in range(2)]
    plain_wall = min(wall for wall, _, _ in reference)
    items = reference[0][1]
    plain_outcomes = [o for _, _, outcomes in reference for o in outcomes]
    with Tracer() as tr:
        wall, _, outcomes = timed_pass()

    layer_self = tr.layer_self_s()
    own_s = wall - tr.root_s
    accounted = sum(layer_self.values()) + own_s
    balanced = own_s >= 0 and abs(accounted - wall) <= 1e-6 * wall

    calls, self_s, counts = tr.calls, tr.self_s, tr.counts
    enum_calls = calls["corners.enumerate_corners"]
    m = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
    m.update(
        {
            "benchmark.self_s": (own_s, "s"),
            "trace.wall_s": (wall, "s"),
            "trace.overhead": (_ratio(wall, plain_wall), "ratio"),
            "solver.nodes": (counts["solver.nodes"], "count"),
            "solver.nodes_per_s": (_ratio(counts["solver.nodes"], tr.total_s["solver.solve"]), "1/s"),
            "solver.children": (counts["solver.children"], "count"),
            "solver.pruned": (counts["solver.pruned"], "count"),
            "solver.child_yield": (_ratio(counts["solver.nodes"], counts["solver.children"]), "ratio"),
            "solver._dominated.calls": (calls["solver._dominated"], "count"),
            "solver._dominated.self_s": (self_s["solver._dominated"], "s"),
            "solver.quick_reject.self_s": (self_s["solver.quick_reject"], "s"),
            "solver.certify.self_s": (self_s["solver.certify"], "s"),
            "corners.enumerate_corners.calls": (enum_calls, "count"),
            "corners.enumerate_corners.self_s": (self_s["corners.enumerate_corners"], "s"),
            "corners.enumerate_corners.us_per_call": (
                _ratio(self_s["corners.enumerate_corners"] * 1e6, enum_calls),
                "us",
            ),
            "corners.enumerate_corners.corners_per_call": (
                _ratio(counts["corners.enumerate_corners.corners"], enum_calls),
                "ratio",
            ),
            "corners.apply_action.calls": (calls["corners.apply_action"], "count"),
            "corners.apply_action.self_s": (self_s["corners.apply_action"], "s"),
            "stability.compact.calls": (calls["stability.compact"], "count"),
            "stability.compact.self_s": (self_s["stability.compact"], "s"),
            "stability.compact.moves": (counts["stability.compact.moves"], "count"),
            "stability.is_bottom_left_stable.calls": (calls["stability.is_bottom_left_stable"], "count"),
            "stability.is_bottom_left_stable.self_s": (self_s["stability.is_bottom_left_stable"], "s"),
            "decompose.placement_order.self_s": (self_s["decompose.placement_order"], "s"),
            "decompose.find_escaper.calls": (calls["decompose.find_escaper"], "count"),
            "decompose.find_escaper.self_s": (self_s["decompose.find_escaper"], "s"),
            "decompose.chain_len": (
                _ratio(counts["decompose.find_escaper.chain_len"], calls["decompose.find_escaper"]),
                "ratio",
            ),
            "decompose.replay.self_s": (self_s["decompose.replay"], "s"),
            "geometry.is_feasible.calls": (calls["geometry.is_feasible"], "count"),
            "geometry.is_feasible.self_s": (self_s["geometry.is_feasible"], "s"),
            "oracle.oracle_feasible.calls": (calls["oracle.oracle_feasible"], "count"),
            "oracle.oracle_feasible.self_s": (self_s["oracle.oracle_feasible"], "s"),
            "oracle.oracle_feasible.share": (_ratio(self_s["oracle.oracle_feasible"], wall), "ratio"),
            "files.parse.self_s": (self_s["files.parse"], "s"),
            "files.emit.self_s": (self_s["files.emit"], "s"),
            "render.render_svg.self_s": (self_s["render.render_svg"], "s"),
        }
    )

    attempted = len(plain_outcomes) + len(outcomes)
    failed = sum(not o.ok for o in plain_outcomes + outcomes)
    sweep_metrics, swept, sweep_failed = sweep(workload, items)
    m.update(sweep_metrics)
    return {
        "correct": failed == 0 and sweep_failed == 0 and balanced,
        "attempted": attempted + swept,
        "failed": failed + sweep_failed,
        "metrics": m,
        "notes": {
            "items": len(items),
            "untraced_wall_s": plain_wall,
            "self_time_accounted_s": accounted,
            "self_times_add_up": balanced,
            "sweep_instances": swept,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    start = time.perf_counter()
    out = trace_run(workload, args.seed) if args.trace else measure(workload, args.seed, args.seconds)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "node_budget": workloads.NODE_BUDGET,
        "exhaust_node_budget": workloads.EXHAUST_NODE_BUDGET,
        "runaway_seconds": workloads.RUNAWAY_SECONDS,
        "run_wall_s": time.perf_counter() - start,
        **out["notes"],
    }
    for name, (value, unit) in out["metrics"].items():
        print(f"{name:48} {value:>16.6g} {unit}")
    print(json.dumps({"meta": meta}))
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
