"""The brute-force oracle's row scan: same boxes, work bounded by the boxes, not the rows."""

import random

import pytest

from conftest import random_partial_packing, random_shape
from cornerpack import Container, Instance, OracleCapacityError, OracleLimits, RectDims
from cornerpack import oracle
from cornerpack.oracle import _disjoint, _free_boxes, _orientations, oracle_feasible


def every_cell_scan(shape, width, height, placed):
    """The definition: every in-container box, tested against every placed box."""
    return [
        ((x, y, x + ew, y + eh), rotated)
        for ew, eh, rotated in _orientations(shape)
        for y in range(height - eh + 1)
        for x in range(width - ew + 1)
        if all(_disjoint((x, y, x + ew, y + eh), other) for other in placed)
    ]


def test_free_boxes_are_every_free_position_in_scan_order():
    rng = random.Random(2024)
    for _ in range(1_000):
        p = random_partial_packing(rng)
        c = p.instance.container
        placed = list(p.boxes().values())
        if rng.random() < 0.3:
            # Overlapping placed boxes must not change the answer either.
            placed.append((rng.randint(0, 3), rng.randint(0, 3), rng.randint(4, 9), rng.randint(4, 9)))
        shape = random_shape(rng, 5, 5)
        assert list(_free_boxes(_orientations(shape), c.width, c.height, placed)) == every_cell_scan(
            shape, c.width, c.height, placed
        )


def test_oracle_budget_bounds_box_tests_by_rows(monkeypatch):
    # Two 200x200 squares never fit in 300x300. Every state scans the
    # second square's 101 rows against the first square, which covers more
    # than half of each row, so a scan that skips past the blocking box
    # tests each row once or twice, not once per cell.
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return _disjoint(a, b)

    monkeypatch.setattr(oracle, "_disjoint", counted)
    instance = Instance(Container(300, 300), (RectDims(200, 200), RectDims(200, 200)))
    max_states, height, n = 50, 300, 2
    with pytest.raises(OracleCapacityError):
        oracle_feasible(instance, OracleLimits(max_states=max_states))
    assert 0 < calls <= max_states * (height + 1) * n


def test_oracle_budget_bounds_box_tests_by_boxes_not_rows(monkeypatch):
    # A 4xH container holding a 4x(H-1) and a 2x2 rectangle: the 2x2 never
    # fits, and each of its rows meets the tall one, so its scan jumps from
    # the first row to the tall one's top. The box tests must not grow with H.
    def box_tests(height):
        calls = 0

        def counted(a, b):
            nonlocal calls
            calls += 1
            return _disjoint(a, b)

        monkeypatch.setattr(oracle, "_disjoint", counted)
        instance = Instance(Container(4, height), (RectDims(4, height - 1), RectDims(2, 2)))
        assert oracle_feasible(instance, OracleLimits(max_states=10)) is None
        return calls

    assert 0 < box_tests(10**3) == box_tests(10**6)
