"""Tests of the benchmark's own generators and tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import random

import pytest

import cornerpack
from cornerpack import Container, guillotine_layout, oracle_feasible, quick_reject

from tracer import PATCH_POINTS, Tracer
from workloads import (
    WORKLOADS,
    ExplainItem,
    SolveItem,
    loose_tiling,
    parity_near_miss,
    run_explain,
    run_solve,
)


@pytest.mark.parametrize("size", [(3, 2, 3), (3, 3, 3), (4, 3, 3), (3, 3, 4), (4, 2, 4)])
def test_parity_near_miss_is_infeasible_yet_passes_quick_reject(size):
    width, height, count = size
    for k in range(4):
        instance = parity_near_miss(width, height, count, random.Random(k))
        assert instance.container == Container(2 * width + 1, 2 * height)
        assert instance.n == count
        assert all(r.width % 2 == 0 and r.height % 2 == 0 for r in instance.rects)
        assert quick_reject(instance) is None
        assert oracle_feasible(instance) is None


def test_parity_near_miss_is_deterministic():
    a = parity_near_miss(5, 4, 5, random.Random("x"))
    b = parity_near_miss(5, 4, 5, random.Random("x"))
    assert a == b


def test_loose_tiling_needs_compaction():
    p = loose_tiling(6, 5, 8, random.Random(1))
    assert cornerpack.is_feasible(p)
    compacted, trace = cornerpack.compact(p)
    assert trace.steps
    assert compacted != p


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_setup_depends_only_on_seed(name):
    setup = WORKLOADS[name].setup
    assert setup(3) == setup(3)
    assert setup(3) != setup(4)


def test_tracer_self_times_add_up_and_patches_are_restored():
    originals = [owner.__dict__[attr] for owner, attr, _ in PATCH_POINTS]
    layout = guillotine_layout(Container(8, 6), 6, random.Random(2))
    item = SolveItem(layout.instance, 200)
    doc = loose_tiling(6, 5, 8, random.Random(1))
    with Tracer() as tr:
        results = run_solve(item)
        cornerpack.certify(item.instance, results[0])
        explained = run_explain(
            ExplainItem(cornerpack.emit_instance(doc.instance), cornerpack.emit_solution(doc))
        )
    assert [owner.__dict__[attr] for owner, attr, _ in PATCH_POINTS] == originals
    assert explained.states[-1] == explained.compacted
    assert tr.counts["solver.nodes"] == sum(r.stats.nodes_expanded for r in results)
    assert tr.calls["corners.enumerate_corners"] > 0
    assert tr.calls["decompose.find_escaper"] == doc.instance.n
    assert sum(tr.layer_self_s().values()) == pytest.approx(tr.root_s, rel=1e-9)
    assert all(v >= 0 for v in tr.self_s.values())
