"""Slide computations, stability predicates, and compaction."""

import random

import pytest

from conftest import (
    doubled_tiling,
    make_packing,
    random_complete_packing,
    random_loose_packing,
    random_partial_packing,
)
from cornerpack import (
    CompactionTrace,
    InfeasiblePackingError,
    Packing,
    Placement,
    PlacementOrder,
    apply_trace,
    compact,
    is_bottom_left_stable,
    is_bottom_left_stable_rect,
    is_feasible,
    l_value,
    max_down_slide,
    max_left_slide,
    placement_order,
)
from cornerpack.geometry import box_over, box_right_of


# --- slides ---


def test_down_slide_to_floor():
    p = make_packing(6, 8, (2, 2, 0, 5))
    assert max_down_slide(0, p) == 5


def test_down_slide_onto_blocker():
    p = make_packing(6, 8, (2, 2, 0, 4), (2, 2, 0, 0))
    assert max_down_slide(0, p) == 2


def test_down_slide_zero_on_floor():
    p = make_packing(6, 8, (2, 2, 3, 0))
    assert max_down_slide(0, p) == 0


def test_left_slide_to_border():
    p = make_packing(8, 6, (2, 2, 5, 0))
    assert max_left_slide(0, p) == 5


def test_left_slide_onto_blocker():
    p = make_packing(8, 6, (2, 2, 4, 0), (2, 2, 0, 0))
    assert max_left_slide(0, p) == 2


def test_left_slide_zero_at_border():
    p = make_packing(8, 6, (2, 2, 0, 3))
    assert max_left_slide(0, p) == 0


def test_slides_ignore_non_overlapping_neighbors():
    # Rect 1 misses rect 0's x-interval, so it cannot block the fall, and
    # its y-interval misses too, so it cannot block the slide either.
    p = make_packing(8, 8, (2, 2, 4, 4), (2, 2, 0, 0))
    assert max_down_slide(0, p) == 4
    assert max_left_slide(0, p) == 4
    # After falling, rect 1 is in the slide path.
    fallen = p.with_placement(0, Placement(4, 0))
    assert max_left_slide(0, fallen) == 2


# --- stability predicates ---


def test_stable_at_container_corner():
    p = make_packing(4, 4, (2, 2, 0, 0))
    assert is_bottom_left_stable_rect(0, p)


def test_stable_against_floor_and_neighbor():
    p = make_packing(6, 4, (2, 2, 2, 0), (2, 2, 0, 0))
    assert is_bottom_left_stable_rect(0, p)


def test_floating_rect_is_unstable():
    p = make_packing(4, 4, (1, 1, 1, 1))
    assert not is_bottom_left_stable_rect(0, p)


def test_empty_packing_is_stable():
    p = make_packing(4, 4)
    assert is_bottom_left_stable(p)


def test_stable_four_rect_layout():
    # Staircase: every rectangle rests on the floor or a neighbor's top,
    # and against the left border or a neighbor's right edge.
    p = make_packing(
        8,
        6,
        (3, 2, 0, 0),
        (2, 3, 3, 0),
        (3, 1, 0, 2),
        (2, 2, 5, 0),
    )
    assert is_feasible(p)
    assert is_bottom_left_stable(p)


def test_one_floater_spoils_stability():
    p = make_packing(8, 6, (3, 2, 0, 0), (2, 2, 4, 1))
    assert not is_bottom_left_stable(p)


# --- compaction ---


def test_compact_single_rect_to_origin():
    p = make_packing(6, 6, (2, 2, 3, 2))
    out, trace = compact(p)
    assert out.placements[0] == Placement(0, 0)
    assert trace.total_distance == 5
    assert apply_trace(p, trace) == out


def test_compact_two_rect_fixpoint():
    # Sweep order is by increasing (y, x): the floor rectangle settles
    # first and ends up blocking the other one's column.
    p = make_packing(6, 6, (2, 2, 1, 3), (2, 2, 4, 0))
    out, trace = compact(p)
    assert out.placements[1] == Placement(0, 0)
    assert out.placements[0] == Placement(0, 2)
    assert is_bottom_left_stable(out)
    assert l_value(out) == 2
    assert apply_trace(p, trace) == out


def test_compact_stable_input_is_identity():
    p = make_packing(6, 4, (2, 2, 0, 0), (2, 2, 2, 0))
    out, trace = compact(p)
    assert out == p
    assert trace.steps == ()
    assert trace.initial_l == trace.final_l


def test_compact_rejects_infeasible_input():
    with pytest.raises(InfeasiblePackingError):
        compact(make_packing(4, 4, (2, 2, 0, 0), (2, 2, 1, 1)))
    with pytest.raises(InfeasiblePackingError):
        compact(make_packing(4, 4, (2, 2, 3, 3)))


def test_compact_handles_partial_packings():
    p = make_packing(6, 6, (2, 2, 3, 3), (1, 1, None, None))
    out, _ = compact(p)
    assert out.placements[0] == Placement(0, 0)
    assert out.placements[1] is None


def test_compaction_trace_validates_accounting():
    with pytest.raises(ValueError):
        CompactionTrace(((0, "down", 2),), initial_l=5, final_l=4)
    with pytest.raises(ValueError):
        CompactionTrace((), initial_l=3, final_l=-1)
    with pytest.raises(ValueError, match="coordinate sum cannot be negative"):
        CompactionTrace((), -1, -1)
    # Each step is a compaction move: down or left by a positive distance,
    # even when the distances still account for the coordinate-sum change.
    for step, l_values in (((0, "down", 0), (4, 4)), ((0, "down", -2), (2, 4))):
        with pytest.raises(ValueError, match="distance must be positive"):
            CompactionTrace((step,), *l_values)
    with pytest.raises(ValueError, match="unknown trace direction"):
        CompactionTrace(((0, "up", 1),), 4, 3)


def test_apply_trace_rejects_steps_it_cannot_replay():
    # An index that is not an int from 0 to n-1 raises IndexError, as
    # Packing.placed_rect does: neither -1, wrapping around, nor True,
    # taken for 1, may move the last rectangle.
    p = make_packing(6, 6, (2, 2, 0, 3), (2, 2, 3, 3))

    def steps(i, direction="down"):
        return CompactionTrace(((i, direction, 1),), 6, 5)

    assert apply_trace(p, steps(1)).placements == (Placement(0, 3), Placement(3, 2))
    for i in (-1, -2, 2, True, 1.0):
        with pytest.raises(IndexError):
            apply_trace(p, steps(i))
    with pytest.raises(ValueError, match="unknown trace direction"):
        apply_trace(p, steps(0, "up"))
    partial = make_packing(6, 6, (2, 2, 3, 3), (1, 1, None, None))
    with pytest.raises(ValueError, match="unplaced rectangle 1"):
        apply_trace(partial, CompactionTrace(((1, "left", 1),), 6, 5))


def test_compact_properties_on_random_packings():
    rng = random.Random(6174)
    for _ in range(1_000):
        p = random_loose_packing(rng, max_side=12, max_n=8)
        out, trace = compact(p)
        assert is_feasible(out)
        assert is_bottom_left_stable(out)
        # L never increases; equality happens exactly for stable input.
        assert l_value(out) <= l_value(p)
        assert (l_value(out) == l_value(p)) == is_bottom_left_stable(p)
        assert trace.total_distance == l_value(p) - l_value(out)
        # Per-rectangle monotonicity and frozen orientations.
        for i in p.placed_indices():
            before = p.placements[i]
            after = out.placements[i]
            assert after.x <= before.x and after.y <= before.y
            assert after.rotated == before.rotated
        # Idempotence and trace replay.
        again, second = compact(out)
        assert again == out
        assert second.steps == ()
        assert apply_trace(p, trace) == out


# --- one box map: same answers as slide-by-slide, a fixed number of box derivations ---


def _reference_slide(p, i, direction):
    """How far rectangle ``i`` can move down or left, by a scan of every other box."""
    boxes = p.boxes()
    rel, low, high = (box_over, 1, 3) if direction == "down" else (box_right_of, 0, 2)
    blocks = [b[high] for j, b in boxes.items() if j != i and rel(boxes[i], b)]
    return boxes[i][low] - max(blocks, default=0)


def _reference_compact(p):
    """Compaction spelled out slide by slide, independent of the edge lists.

    Same sweep as :func:`compact` (increasing (y, x), down then left, until
    a sweep moves nothing), but every slide is measured on a fresh packing
    by :func:`_reference_slide`.
    """
    initial, current, steps = l_value(p), p, []
    moved = True
    while moved:
        moved = False
        pls = current.placements
        for i in sorted(current.placed_indices(), key=lambda i: (pls[i].y, pls[i].x)):
            for direction in ("down", "left"):
                d = _reference_slide(current, i, direction)
                if d > 0:
                    pl = current.placements[i]
                    dx, dy = (0, d) if direction == "down" else (d, 0)
                    current = current.with_placement(i, Placement(pl.x - dx, pl.y - dy, pl.rotated))
                    steps.append((i, direction, d))
                    moved = True
    return current, CompactionTrace(tuple(steps), initial, l_value(current))


def _differential_packings():
    rng = random.Random(8128)
    for _ in range(280):
        yield random_loose_packing(rng, max_side=14, max_n=10)
    for _ in range(20):
        yield random_partial_packing(rng)
    for side, n, count in ((10, 30, 12), (14, 60, 6), (20, 120, 2)):
        for _ in range(count):
            yield doubled_tiling(rng, side, n)


def test_compact_matches_slide_by_slide_reference():
    rotated = moving = 0
    for p in _differential_packings():
        rotated += any(pl.rotated for pl in p.placements if pl is not None)
        assert compact(p) == _reference_compact(p)
        for i in p.placed_indices():
            down, left = max_down_slide(i, p), max_left_slide(i, p)
            assert (down, left) == (_reference_slide(p, i, "down"), _reference_slide(p, i, "left"))
            moving += down > 0 or left > 0
    assert rotated > 100 and moving > 1_000


def test_packing_stability_is_every_rectangle_stable():
    rng = random.Random(2718)
    stable = unstable = 0
    for _ in range(300):
        make = random_loose_packing if rng.random() < 0.5 else random_complete_packing
        p = make(rng, max_side=12, max_n=9)
        for q in (p, compact(p)[0]):
            verdict = is_bottom_left_stable(q)
            assert verdict == all(is_bottom_left_stable_rect(i, q) for i in q.placed_indices())
            stable += verdict
            unstable += not verdict
    assert stable > 100 and unstable > 100


def test_box_derivations_do_not_grow_with_the_packing(monkeypatch):
    derived = []
    boxes = Packing.boxes

    def counted(self):
        derived.append(self)
        return boxes(self)

    monkeypatch.setattr(Packing, "boxes", counted)

    def count(fn, p):
        derived.clear()
        fn(p)
        return len(derived)

    counts = []
    for side, n in ((10, 30), (20, 120)):
        loose = doubled_tiling(random.Random(n), side, n)
        stable, _ = compact(loose)
        counts.append(
            [count(compact, loose), count(placement_order, stable)]
            + [count(is_bottom_left_stable, q) for q in (loose, stable)]
            + [count(PlacementOrder.replay, placement_order(stable))]
        )
    assert counts[0] == counts[1]
