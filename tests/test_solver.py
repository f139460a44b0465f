"""The corner-action feasibility solver."""

import random

import pytest

from cornerpack import (
    Container,
    Instance,
    Placement,
    RectDims,
    SolveStatus,
    SolverConfig,
    certify,
    guillotine_layout,
    is_bottom_left_stable,
    is_feasible,
    quick_reject,
    solve,
)


def inst(w, h, *sides):
    return Instance(Container(w, h), tuple(RectDims(a, b) for a, b in sides))


def test_perfect_split_is_feasible():
    result = solve(inst(4, 4, (2, 4), (2, 4)))
    assert result.status is SolveStatus.FEASIBLE
    assert is_feasible(result.packing)
    assert is_bottom_left_stable(result.packing)


def test_two_squares_in_three_by_three_infeasible():
    result = solve(inst(3, 3, (2, 2), (2, 2)))
    assert result.status is SolveStatus.INFEASIBLE
    assert result.packing is None


def test_rotation_makes_it_fit():
    result = solve(inst(2, 2, (2, 1), (2, 1)))
    assert result.status is SolveStatus.FEASIBLE


def test_empty_instance_is_feasible():
    result = solve(inst(3, 3))
    assert result.status is SolveStatus.FEASIBLE
    assert result.packing.is_complete
    assert result.stats.nodes_expanded == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rect_order="biggest")
    with pytest.raises(ValueError):
        SolverConfig(node_limit=0)
    with pytest.raises(ValueError):
        SolverConfig(time_limit=0.0)


def test_quick_reject_area():
    reason = quick_reject(inst(4, 4, (4, 4), (1, 1)))
    assert reason is not None and "area" in reason


def test_quick_reject_dimensions():
    reason = quick_reject(inst(4, 4, (5, 1)))
    assert reason is not None and "neither orientation" in reason


def test_quick_reject_rotated_fit_is_not_rejected():
    assert quick_reject(inst(4, 2, (1, 4))) is None


def test_quick_reject_inconclusive_case():
    assert quick_reject(inst(3, 3, (2, 2), (2, 2))) is None


def test_node_limit_yields_unknown():
    result = solve(inst(5, 5, (2, 2), (2, 3), (3, 2)), SolverConfig(node_limit=2))
    assert result.status is SolveStatus.UNKNOWN
    assert result.packing is None
    assert result.stats.nodes_expanded <= 2


def test_determinism_including_stats():
    instance = inst(6, 6, (2, 3), (3, 2), (2, 2), (4, 1))
    a = solve(instance)
    b = solve(instance)
    assert a.status == b.status
    assert a.packing == b.packing
    assert a.stats.nodes_expanded == b.stats.nodes_expanded
    assert a.stats.max_depth == b.stats.max_depth


def test_rect_orders_agree_on_the_verdict():
    rng = random.Random(271828)
    for _ in range(100):
        w, h = rng.randint(1, 5), rng.randint(1, 5)
        sides = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
        verdicts = {
            solve(inst(w, h, *sides), SolverConfig(rect_order=order)).status
            for order in ("input", "area", "perimeter")
        }
        assert len(verdicts) == 1


def test_solver_is_sound_on_random_instances():
    rng = random.Random(31415)
    feasible_seen = 0
    for _ in range(500):
        w, h = rng.randint(1, 6), rng.randint(1, 6)
        sides = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))]
        instance = inst(w, h, *sides)
        result = solve(instance)
        assert result.status in (SolveStatus.FEASIBLE, SolveStatus.INFEASIBLE)
        assert certify(instance, result)
        if result.status is SolveStatus.FEASIBLE:
            feasible_seen += 1
    assert feasible_seen > 0


def test_certify_rejects_tampered_packing():
    instance = inst(4, 4, (2, 4), (2, 4))
    result = solve(instance)
    tampered = result.packing.with_placement(1, Placement(0, 0))
    forged = type(result)(result.status, tampered, result.stats)
    assert not certify(instance, forged)


def test_certify_trivial_on_non_feasible_statuses():
    instance = inst(3, 3, (2, 2), (2, 2))
    assert certify(instance, solve(instance))
    limited = solve(inst(5, 5, (2, 2), (2, 3), (3, 2)), SolverConfig(node_limit=2))
    assert certify(inst(5, 5, (2, 2), (2, 3), (3, 2)), limited)


def test_pruning_never_changes_verdicts():
    rng = random.Random(161803)
    for _ in range(150):
        w, h = rng.randint(1, 5), rng.randint(1, 5)
        sides = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
        instance = inst(w, h, *sides)
        plain = solve(instance, SolverConfig(enhanced_pruning=False))
        enhanced = solve(instance, SolverConfig(enhanced_pruning=True))
        assert plain.status == enhanced.status
        if plain.status is SolveStatus.INFEASIBLE:
            # Both modes exhaust the tree here, and the pruned tree is a
            # subset of the plain one, so the inequality is guaranteed.
            assert enhanced.stats.nodes_expanded <= plain.stats.nodes_expanded


def test_pruning_can_cost_nodes_on_feasible_instances():
    # Early-exit search breaks the naive "fewer branches, fewer nodes"
    # intuition: the plain search may hit its first solution inside a
    # subtree the pruned search skips, then the pruned search pays for
    # backtracking elsewhere.  Exact counts pin determinism of both modes.
    instance = inst(4, 3, (2, 1), (2, 2), (3, 1), (2, 1))
    plain = solve(instance, SolverConfig(enhanced_pruning=False))
    enhanced = solve(instance, SolverConfig(enhanced_pruning=True))
    assert plain.status is SolveStatus.FEASIBLE
    assert enhanced.status is SolveStatus.FEASIBLE
    assert plain.stats.nodes_expanded == 5
    assert enhanced.stats.nodes_expanded == 8
    assert certify(instance, plain) and certify(instance, enhanced)


def test_duplicate_shapes_collapse_branches():
    # Four interchangeable rectangles: symmetry breaking must keep the
    # search tiny even in plain mode.
    result = solve(inst(4, 4, (2, 2), (2, 2), (2, 2), (2, 2)))
    assert result.status is SolveStatus.FEASIBLE
    assert result.stats.nodes_expanded < 50


def test_rotated_duplicates_also_collapse():
    # 2x3 and 3x2 are the same shape once rotation is allowed.
    a = solve(inst(6, 6, (2, 3), (3, 2)))
    b = solve(inst(6, 6, (2, 3), (2, 3)))
    assert a.status is SolveStatus.FEASIBLE
    assert a.stats.nodes_expanded == b.stats.nodes_expanded


def test_deep_search_does_not_hit_the_recursion_limit():
    # One node per placed rectangle on the path: 1,000 levels, far past
    # Python's default recursion limit.
    instance = inst(1100, 1, *[(1, 1)] * 1000)
    result = solve(instance)
    assert result.status is SolveStatus.FEASIBLE
    assert result.stats.max_depth == 1000
    assert certify(instance, result)


def test_search_cost_does_not_grow_with_coordinates():
    # Scaling every side by 10**5 must not change the search: the same
    # status, node count and depth, and the packing scaled. One rectangle
    # filling a 10**6 x 10**6 container is decided at once.
    k = 10**5
    for seed in range(6):
        small = guillotine_layout(Container(16, 16), 10, random.Random(seed)).instance
        big = Instance(
            Container(16 * k, 16 * k), tuple(RectDims(r.width * k, r.height * k) for r in small.rects)
        )
        for enhanced in (False, True):
            config = SolverConfig(enhanced_pruning=enhanced, node_limit=200)
            a, b = solve(small, config), solve(big, config)
            assert (a.status, a.stats.nodes_expanded, a.stats.max_depth) == (
                b.status, b.stats.nodes_expanded, b.stats.max_depth
            )
            if a.packing is not None:
                assert [(pl.x * k, pl.y * k, pl.rotated) for pl in a.packing.placements] == [
                    (pl.x, pl.y, pl.rotated) for pl in b.packing.placements
                ]
    whole = inst(10**6, 10**6, (10**6, 10**6))
    result = solve(whole)
    assert result.status is SolveStatus.FEASIBLE and certify(whole, result)
