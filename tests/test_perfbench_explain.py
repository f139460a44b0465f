"""The benchmark's ``explain`` suite, checked item by item.

``perfbench/workloads.py`` builds loose packings and runs compaction,
build-order derivation, replay, the document round trip and SVG
rendering on each; its checker verifies every answer. Running seed 0's
items here keeps that end-to-end path in the test suite, not only in the
benchmark. The module is loaded read-only from its file.
"""

from conftest import load_perfbench


def test_every_seed_0_explain_item_checks_out():
    workloads = load_perfbench("workloads")
    items = workloads.make_explain(0)
    assert len(items) == sum(count for *_, count in workloads.EXPLAIN_SIZES)
    for k, item in enumerate(items):
        outcome = workloads.check_explain(item, workloads.run_explain(item))
        assert outcome.ok and outcome.decided == 1, f"explain item {k}"
