"""Brute-force reference implementations."""

import random
import sys

import pytest

from conftest import make_packing, random_partial_packing, random_shape
from cornerpack import (
    Container,
    Instance,
    OracleCapacityError,
    OracleLimits,
    RectDims,
    enumerate_corners,
    is_feasible,
    oracle_corners,
    oracle_feasible,
)


def inst(w, h, *sides):
    return Instance(Container(w, h), tuple(RectDims(a, b) for a, b in sides))


def test_oracle_finds_perfect_split():
    packing = oracle_feasible(inst(4, 4, (2, 4), (2, 4)))
    assert packing is not None
    assert packing.is_complete
    assert is_feasible(packing)


def test_oracle_proves_two_squares_impossible_in_three_by_three():
    assert oracle_feasible(inst(3, 3, (2, 2), (2, 2))) is None


def test_oracle_uses_rotation():
    packing = oracle_feasible(inst(2, 2, (2, 1), (2, 1)))
    assert packing is not None
    assert is_feasible(packing)


def test_oracle_empty_instance():
    packing = oracle_feasible(inst(5, 3))
    assert packing is not None
    assert packing.is_complete


def test_oracle_single_oversized_rect():
    assert oracle_feasible(inst(3, 3, (4, 1))) is None


def test_oracle_decision_is_permutation_invariant():
    rng = random.Random(404)
    for _ in range(100):
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        sides = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
        base = oracle_feasible(inst(w, h, *sides)) is not None
        rng.shuffle(sides)
        assert (oracle_feasible(inst(w, h, *sides)) is not None) == base


def test_oracle_limits_validation():
    for bad in (0, float("nan"), -1.0, float("-inf"), 2.5, 3.0, True):
        with pytest.raises(ValueError):
            OracleLimits(max_states=bad)


def test_oracle_capacity_error_instead_of_wrong_answer():
    # Deciding this feasible instance needs at least three states (root
    # plus two placements); a budget of one must abort, not answer.
    with pytest.raises(OracleCapacityError):
        oracle_feasible(inst(4, 4, (2, 4), (2, 4)), OracleLimits(max_states=1))


def test_oracle_depth_is_not_bounded_by_the_recursion_limit():
    # 200 rectangles in a row need 200 nested states; with the recursion
    # limit only 100 frames above this test, a search that recursed once
    # per rectangle would raise RecursionError.
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    n = 200
    instance = inst(n + 20, 1, *[(1, 1)] * n)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        packing = oracle_feasible(instance)
    finally:
        sys.setrecursionlimit(old_limit)
    assert packing is not None and is_feasible(packing)
    assert [(pl.x, pl.y) for pl in packing.placements] == [(x, 0) for x in range(n)]
    # Exactly one state per placed prefix: n + 1 states, so n must abort.
    with pytest.raises(OracleCapacityError):
        oracle_feasible(instance, OracleLimits(max_states=n))
    assert oracle_feasible(instance, OracleLimits(max_states=n + 1)) == packing


def test_oracle_corners_empty_container_both_orientations():
    p = make_packing(4, 4)
    assert oracle_corners(p, RectDims(2, 3)) == [(0, 0, False), (0, 0, True)]


def test_oracle_corners_full_container():
    p = make_packing(2, 2, (2, 2, 0, 0))
    assert oracle_corners(p, RectDims(1, 1)) == []


def test_oracle_corners_match_enumeration_on_random_prefixes():
    rng = random.Random(55)
    for _ in range(1_000):
        p = random_partial_packing(rng)
        shape = random_shape(rng, 5, 5)
        fast = [(c.x, c.y, c.rotated) for c in enumerate_corners(p, shape)]
        assert fast == oracle_corners(p, shape)
