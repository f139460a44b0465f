"""Slices of the benchmark's solver suites, checked item by item.

``crosscheck`` solves tiny instances in both pruning modes and compares
each verdict with the brute-force oracle; ``nearmiss`` exhausts parity
near-misses, infeasible by construction yet past ``quick_reject``, in
both modes and under every rectangle order; ``tiling`` solves zero-slack
tilings, feasible by construction, under the benchmark's node budget in
both modes and under every rectangle order. All run here through the
benchmark's own configs and check functions (``perfbench/workloads.py``,
loaded read-only from its file), so every exhausted refutation in the
slices, pruned or plain, is held against the oracle or the construction
in the test suite, not only in the benchmark, and a pruning rule that
refutes a tiling fails here.
"""

from conftest import load_perfbench
from cornerpack import SolveStatus, solve
from cornerpack.solver import RECT_ORDERS


def test_seed_0_crosscheck_slice_agrees_with_the_oracle():
    workloads = load_perfbench("workloads")
    items = workloads.make_crosscheck(0)[:200]
    refuted = 0
    for k, item in enumerate(items):
        outcome = workloads.run_crosscheck(item)
        checked = workloads.check_crosscheck(item, outcome)
        assert checked.ok and checked.decided == len(workloads.MODES), f"crosscheck item {k}"
        results, _ = outcome
        refuted += any(
            r.status is SolveStatus.INFEASIBLE and r.stats.nodes_expanded for r in results
        )
    # The slice must reach searches that are exhausted, not only quick rejections.
    assert refuted > 0


def test_seed_0_nearmiss_slice_is_refuted_in_both_modes():
    workloads = load_perfbench("workloads")
    items = workloads.make_nearmiss(0)[::9]
    assert len(items) == 40
    for k, item in enumerate(items):
        for order in RECT_ORDERS:
            results = tuple(
                solve(item.instance, workloads.solver_config(enhanced, item.budget, order))
                for _, enhanced in workloads.MODES
            )
            outcome = workloads.check_nearmiss(item, results)
            assert outcome.ok and outcome.decided == len(workloads.MODES), (
                f"nearmiss item {9 * k}, {order} order"
            )


def test_seed_0_tiling_slice_is_never_refuted():
    workloads = load_perfbench("workloads")
    items = workloads.make_tiling(0)[::10]
    assert len(items) == 50
    decided = 0
    for k, item in enumerate(items):
        for order in RECT_ORDERS:
            results = tuple(
                solve(item.instance, workloads.solver_config(enhanced, item.budget, order))
                for _, enhanced in workloads.MODES
            )
            outcome = workloads.check_tiling(item, results)
            assert outcome.ok, f"tiling item {10 * k}, {order} order"
            decided += outcome.decided
    # The budget must let some searches reach a packing, or nothing is checked.
    assert decided > 0


# Per (mode, order): total nodes_expanded and total max_depth over the
# tiling and nearmiss slices above, each written as the tiling slice's sum
# plus the nearmiss slice's. A speed change to the search must keep
# every tree, so these sums must not move; a change that alters the trees
# on purpose re-pins them and says why.
PINNED_TREES = {
    ("enhanced", "input"): (950 + 2052, 448 + 118),
    ("plain", "input"): (959 + 4070, 492 + 120),
    ("enhanced", "area"): (735 + 2052, 495 + 118),
    ("plain", "area"): (737 + 4070, 517 + 120),
    ("enhanced", "perimeter"): (700 + 2052, 499 + 118),
    ("plain", "perimeter"): (728 + 4070, 516 + 120),
}


def test_seed_0_tiling_and_nearmiss_slices_keep_their_search_trees():
    workloads = load_perfbench("workloads")
    items = workloads.make_tiling(0)[::10] + workloads.make_nearmiss(0)[::9]
    sums = {}
    for mode, enhanced in workloads.MODES:
        for order in RECT_ORDERS:
            results = [
                solve(item.instance, workloads.solver_config(enhanced, item.budget, order))
                for item in items
            ]
            sums[mode, order] = (
                sum(r.stats.nodes_expanded for r in results),
                sum(r.stats.max_depth for r in results),
            )
    assert sums == PINNED_TREES


def test_exhausted_searches_expand_one_tree_under_every_order():
    # moves() yields each shape class's next member by index, whatever the
    # rectangle order, so the order only changes how an exhausted tree is
    # walked: its verdict, node count and depth stay the same.
    workloads = load_perfbench("workloads")
    items = workloads.make_crosscheck(0)[:2000] + workloads.make_nearmiss(0)[::3]
    exhausted = searched = 0
    for k, item in enumerate(items):
        for mode, enhanced in workloads.MODES:
            results = [
                solve(item.instance, workloads.solver_config(enhanced, item.budget, order))
                for order in RECT_ORDERS
            ]
            if all(r.status is not SolveStatus.INFEASIBLE for r in results):
                continue
            trees = {(r.status, r.stats.nodes_expanded, r.stats.max_depth) for r in results}
            assert len(trees) == 1, f"item {k}, {mode} mode: {trees}"
            exhausted += 1
            searched += results[0].stats.nodes_expanded > 0
    assert exhausted == 2510 and searched > 0
