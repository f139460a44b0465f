"""Geometry primitives: overlap arithmetic, directional relations, L."""

import random

import pytest
from hypothesis import given, strategies as st

from conftest import make_packing, random_partial_packing
from cornerpack import (
    RIGHT,
    UP,
    Container,
    Instance,
    Packing,
    PlacedRect,
    Placement,
    RectDims,
    free_directions,
    is_feasible,
    is_over,
    is_right_of,
    l_value,
    outside_area,
    overlap_area,
    total_overlap,
)
from cornerpack.geometry import box_over, box_right_of, box_touches, boxes_overlap


def placed(w, h, x, y, rotated=False):
    return PlacedRect(RectDims(w, h), Placement(x, y, rotated))


# --- type validation ---


def test_rect_dims_rejects_non_positive_sides():
    with pytest.raises(ValueError):
        RectDims(0, 1)
    with pytest.raises(ValueError):
        RectDims(3, -2)


def test_container_rejects_non_positive_sides():
    with pytest.raises(ValueError):
        Container(0, 4)


def test_placement_rejects_negative_coordinates():
    with pytest.raises(ValueError):
        Placement(-1, 0)
    with pytest.raises(ValueError):
        Placement(0, -3)


def test_packing_length_must_match_instance():
    inst = Instance(Container(4, 4), (RectDims(1, 1),))
    with pytest.raises(ValueError):
        Packing(inst, ())


def test_rotation_swaps_effective_sides():
    r = placed(3, 2, 0, 0, rotated=True)
    assert (r.width, r.height) == (2, 3)
    assert (r.x2, r.y2) == (2, 3)
    assert r.box == (0, 0, 2, 3)
    p = make_packing(5, 5, (3, 2, 1, 1, True), (1, 1, None, None), (3, 2, 2, 0))
    assert p.boxes() == {0: (1, 1, 3, 4), 2: (2, 0, 5, 2)}


# --- overlap_area ---


def test_overlap_identical_unit_squares():
    assert overlap_area(placed(1, 1, 0, 0), placed(1, 1, 0, 0)) == 1


def test_overlap_edge_contact_is_zero():
    assert overlap_area(placed(2, 2, 0, 0), placed(2, 2, 2, 0)) == 0


def test_overlap_partial_corner():
    # Intersection is x in [2,3), y in [1,2): one unit cell.
    assert overlap_area(placed(3, 2, 0, 0), placed(2, 2, 2, 1)) == 1


@given(
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 6), st.integers(1, 6)),
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 6), st.integers(1, 6)),
)
def test_overlap_symmetric_and_bounded(a, b):
    ra = placed(a[2], a[3], a[0], a[1])
    rb = placed(b[2], b[3], b[0], b[1])
    v = overlap_area(ra, rb)
    assert v == overlap_area(rb, ra)
    assert 0 <= v <= min(ra.area, rb.area)


# --- outside_area ---


def test_outside_area_fully_inside():
    assert outside_area(placed(2, 2, 0, 0), Container(4, 4)) == 0


def test_outside_area_protruding_column():
    assert outside_area(placed(2, 2, 3, 0), Container(4, 4)) == 2


def test_outside_area_fully_outside():
    assert outside_area(placed(1, 1, 5, 5), Container(4, 4)) == 1


# --- total_overlap / is_feasible ---


def test_total_overlap_empty_packing():
    p = Packing(Instance(Container(4, 4), ()), ())
    assert total_overlap(p) == 0
    assert is_feasible(p)


def test_total_overlap_single_pairwise_term():
    p = make_packing(4, 4, (2, 2, 0, 0), (2, 2, 1, 1))
    assert total_overlap(p) == 1
    assert not is_feasible(p)


def test_feasible_perfect_split():
    p = make_packing(4, 4, (2, 4, 0, 0), (2, 4, 2, 0))
    assert is_feasible(p)


def test_infeasible_border_overstep():
    p = make_packing(4, 4, (1, 1, 4, 0))
    assert not is_feasible(p)
    assert total_overlap(p) == 1


def test_total_overlap_zero_iff_feasible_fuzz():
    rng = random.Random(90125)
    agree = 0
    for _ in range(10_000):
        width = rng.randint(1, 6)
        height = rng.randint(1, 6)
        n = rng.randint(0, 4)
        dims = tuple(RectDims(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(n))
        placements = tuple(
            Placement(rng.randint(0, 6), rng.randint(0, 6), rng.random() < 0.5)
            for _ in range(n)
        )
        p = Packing(Instance(Container(width, height), dims), placements)
        assert (total_overlap(p) == 0) == is_feasible(p)
        # The box view is the PlacedRect view, rotated rectangles included,
        # and the box overlap predicate agrees with the overlap area.
        rects = dict(p.iter_placed())
        boxes = p.boxes()
        assert boxes == {i: (r.x, r.y, r.x2, r.y2) for i, r in rects.items()}
        for i in rects:
            for j in rects:
                assert boxes_overlap(boxes[i], boxes[j]) == (overlap_area(rects[i], rects[j]) > 0)
        agree += 1
    assert agree == 10_000


# --- is_over / is_right_of ---


def test_is_over_with_positive_x_overlap():
    below = placed(2, 1, 0, 0)
    above = placed(2, 1, 1, 2)
    assert is_over(above, below)
    assert not is_over(below, above)


def test_is_over_requires_x_overlap():
    assert not is_over(placed(1, 1, 3, 2), placed(2, 1, 0, 0))


def test_is_over_false_when_strictly_below():
    assert not is_over(placed(2, 1, 0, 0), placed(2, 1, 0, 2))


def test_is_right_of_with_positive_y_overlap():
    left = placed(1, 2, 0, 0)
    right = placed(1, 2, 2, 1)
    assert is_right_of(right, left)
    assert not is_right_of(left, right)


def test_is_right_of_requires_y_overlap():
    assert not is_right_of(placed(1, 1, 2, 3), placed(1, 2, 0, 0))


def test_is_right_of_false_when_on_the_left():
    assert not is_right_of(placed(1, 2, 0, 0), placed(1, 2, 2, 0))


def test_directional_relations_reject_overlapping_pairs():
    a = placed(2, 2, 0, 0)
    b = placed(2, 2, 1, 1)
    with pytest.raises(ValueError):
        is_over(a, b)
    with pytest.raises(ValueError):
        is_right_of(a, b)


def _shifted(r: PlacedRect, dx: int, dy: int) -> PlacedRect:
    return PlacedRect(r.dims, Placement(r.x + dx, r.y + dy, r.placement.rotated))


def test_is_over_matches_displacement_search():
    # The closed form must agree with "some upward shift of the lower
    # rectangle creates overlap" on small coordinates.
    rng = random.Random(8128)
    checked = 0
    while checked < 2_000:
        a = placed(rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 10), rng.randint(0, 10))
        b = placed(rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 10), rng.randint(0, 10))
        if overlap_area(a, b) > 0:
            continue
        by_shift = any(overlap_area(a, _shifted(b, 0, d)) > 0 for d in range(1, 30))
        assert is_over(a, b) == by_shift
        by_shift_right = any(overlap_area(a, _shifted(b, d, 0)) > 0 for d in range(1, 30))
        assert is_right_of(a, b) == by_shift_right
        assert box_over(a.box, b.box) == is_over(a, b)
        assert box_right_of(a.box, b.box) == is_right_of(a, b)
        # b touches a's left (bottom) side exactly when b ends at or before
        # a starts and a unit shift of b right (up) makes them overlap.
        for left, dx, dy, ends_before in ((True, 1, 0, b.x2 <= a.x), (False, 0, 1, b.y2 <= a.y)):
            by_unit_shift = ends_before and overlap_area(a, _shifted(b, dx, dy)) > 0
            assert box_touches(b.box, a.box, left) == by_unit_shift
        checked += 1


def test_over_is_antisymmetric_in_feasible_packings():
    rng = random.Random(1729)
    for _ in range(300):
        p = random_partial_packing(rng)
        rects = dict(p.iter_placed())
        boxes = p.boxes()
        for i in rects:
            for j in rects:
                if i >= j:
                    continue
                assert not (is_over(rects[i], rects[j]) and is_over(rects[j], rects[i]))
                assert not (
                    is_right_of(rects[i], rects[j]) and is_right_of(rects[j], rects[i])
                )
                for a, b in ((i, j), (j, i)):
                    assert box_over(boxes[a], boxes[b]) == is_over(rects[a], rects[b])
                    assert box_right_of(boxes[a], boxes[b]) == is_right_of(rects[a], rects[b])
                # Over forces a strictly higher bottom edge, so chains of
                # the relation climb and can never revisit a rectangle.
                if is_over(rects[i], rects[j]):
                    assert rects[i].y > rects[j].y


# --- free_directions ---


def test_free_directions_single_rect():
    p = make_packing(6, 6, (2, 2, 2, 2))
    assert free_directions(0, p) == {UP, RIGHT}


def test_free_directions_vertical_stack():
    p = make_packing(4, 6, (2, 2, 0, 0), (2, 2, 0, 2))
    assert free_directions(0, p) == {RIGHT}
    assert free_directions(1, p) == {UP, RIGHT}


def test_free_directions_ignores_borders():
    # Flush against the container's top-right corner, still "free".
    p = make_packing(4, 4, (2, 2, 2, 2))
    assert free_directions(0, p) == {UP, RIGHT}


@pytest.mark.parametrize("overlapping_index", [1, 3])
def test_free_directions_rejects_overlap_whatever_the_index(overlapping_index):
    # Rect 0 is blocked up and right by two disjoint neighbours, so its
    # answer is settled before an index-order scan reaches index 3; the
    # overlapping neighbour must be rejected in either position.
    others = [(2, 2, 0, 3), (2, 2, 3, 0)]
    others.insert(overlapping_index - 1, (2, 2, 1, 1))
    p = make_packing(6, 6, (2, 2, 0, 0), *others)
    with pytest.raises(ValueError):
        free_directions(0, p)


# --- l_value ---


def test_l_value_origin_is_zero():
    p = make_packing(4, 4, (1, 1, 0, 0), (1, 1, None, None))
    assert l_value(p) == 0


def test_l_value_sums_coordinates():
    p = make_packing(8, 8, (1, 1, 0, 0), (2, 2, 2, 3))
    assert l_value(p) == 5
