"""Geometry primitives: boxes, overlap and feasibility checked against the
unit cells each box covers, directional relations, L."""

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
    guillotine_layout,
    is_bottom_left_stable_rect,
    is_feasible,
    is_over,
    is_right_of,
    l_value,
    max_down_slide,
    max_left_slide,
    supporting_rects,
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


NON_INTEGERS = [float("nan"), 1.5, 2.0, True, False]


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_sides_must_be_integers(bad):
    # NaN passes a bare ``< 1`` test; a bool is an int subclass.
    for cls, noun in ((RectDims, "rectangle"), (Container, "container")):
        for sides in ((bad, 1), (1, bad)):
            with pytest.raises(ValueError, match=f"^{noun} sides must be integers"):
                cls(*sides)


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_placement_coordinates_must_be_integers(bad):
    for coords in ((bad, 0), (0, bad)):
        with pytest.raises(ValueError, match="^placement coordinates must be integers"):
            Placement(*coords)


@pytest.mark.parametrize("bad", ["no", 1, 0, None])
def test_placement_rotated_must_be_a_bool(bad):
    # A truthy string or int would otherwise be read as rotated.
    with pytest.raises(ValueError, match="^placement coordinates must be integers >= 0 and rotated a bool"):
        Placement(0, 0, bad)


def test_nan_wide_rectangle_is_rejected_before_any_solve():
    with pytest.raises(ValueError):
        Instance(Container(2, 2), (RectDims(float("nan"), 1),))


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


# --- boxes_overlap / is_feasible, against the cells ---


def cells(box):
    """The unit cells ``[x, x2) x [y, y2)`` that a box covers."""
    x, y, x2, y2 = box
    return {(i, j) for i in range(x, x2) for j in range(y, y2)}


def feasible_by_cells(p):
    """No cell is covered twice and no covered cell lies outside the container."""
    c = p.instance.container
    inside = cells((0, 0, c.width, c.height))
    covered = set()
    for _, r in p.iter_placed():
        mine = cells(r.box)
        if mine & covered or not mine <= inside:
            return False
        covered |= mine
    return True


def test_overlap_identical_unit_squares():
    a = b = placed(1, 1, 0, 0).box
    assert cells(a) & cells(b) == {(0, 0)}
    assert boxes_overlap(a, b)


def test_overlap_edge_contact_is_zero():
    a, b = placed(2, 2, 0, 0).box, placed(2, 2, 2, 0).box
    assert not cells(a) & cells(b)
    assert not boxes_overlap(a, b) and not boxes_overlap(b, a)


def test_overlap_partial_corner():
    a, b = placed(3, 2, 0, 0).box, placed(2, 2, 2, 1).box
    assert cells(a) & cells(b) == {(2, 1)}
    assert boxes_overlap(a, b) and boxes_overlap(b, a)


@given(
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 6), st.integers(1, 6)),
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 6), st.integers(1, 6)),
)
def test_overlap_symmetric_and_matches_cells(a, b):
    ab = placed(a[2], a[3], a[0], a[1]).box
    bb = placed(b[2], b[3], b[0], b[1]).box
    shared = bool(cells(ab) & cells(bb))
    assert boxes_overlap(ab, bb) == boxes_overlap(bb, ab) == shared


@pytest.mark.parametrize(
    "x, y, w, h, inside",
    [(0, 0, 2, 2, True), (3, 0, 2, 2, False), (5, 5, 1, 1, False)],
    ids=["fully_inside", "protruding_column", "fully_outside"],
)
def test_feasible_only_inside_the_container(x, y, w, h, inside):
    p = make_packing(4, 4, (w, h, x, y))
    assert is_feasible(p) == feasible_by_cells(p) == inside


def test_feasible_empty_packing():
    p = Packing(Instance(Container(4, 4), ()), ())
    assert is_feasible(p) and feasible_by_cells(p)


def test_infeasible_single_overlapping_pair():
    p = make_packing(4, 4, (2, 2, 0, 0), (2, 2, 1, 1))
    a, b = p.boxes().values()
    assert cells(a) & cells(b) == {(1, 1)}
    assert not is_feasible(p)


def test_feasible_perfect_split():
    p = make_packing(4, 4, (2, 4, 0, 0), (2, 4, 2, 0))
    assert is_feasible(p)


def test_infeasible_border_overstep():
    p = make_packing(4, 4, (1, 1, 4, 0))
    assert not is_feasible(p)
    assert not feasible_by_cells(p)


def test_is_feasible_matches_cells_fuzz():
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
        assert is_feasible(p) == feasible_by_cells(p)
        # The box view is the PlacedRect view, rotated rectangles included,
        # and the box overlap predicate agrees with the shared cells.
        rects = dict(p.iter_placed())
        boxes = p.boxes()
        assert boxes == {i: (r.x, r.y, r.x2, r.y2) for i, r in rects.items()}
        for i in boxes:
            for j in boxes:
                assert boxes_overlap(boxes[i], boxes[j]) == bool(cells(boxes[i]) & cells(boxes[j]))
        agree += 1
    assert agree == 10_000
    # Up to 15 rectangles in containers up to 12x12: guillotine tilings,
    # with up to two rectangles nudged or turned, reach the left-edge
    # sweep's early stop and its ties on the left edge.
    verdicts = []
    for _ in range(4_000):
        container = Container(rng.randint(1, 12), rng.randint(1, 12))
        n = rng.randint(1, min(15, container.area))
        layout = guillotine_layout(container, n, rng)
        placements = list(layout.placements)
        for i in rng.sample(range(n), min(n, rng.randint(0, 2))):
            pl = placements[i]
            placements[i] = Placement(
                max(0, pl.x + rng.randint(-2, 2)),
                max(0, pl.y + rng.randint(-2, 2)),
                pl.rotated != (rng.random() < 0.3),
            )
        p = Packing(layout.instance, placements)
        assert is_feasible(p) == feasible_by_cells(p)
        verdicts.append(is_feasible(p))
    assert 1_000 < sum(verdicts) < 3_000


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


def _shares_cell(a: PlacedRect, b: PlacedRect) -> bool:
    return bool(cells(a.box) & cells(b.box))


def test_is_over_matches_displacement_search():
    # The closed form must agree with "the lower rectangle shares a cell
    # with the upper one after some upward shift" on small coordinates.
    rng = random.Random(8128)
    checked = 0
    while checked < 2_000:
        a = placed(rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 10), rng.randint(0, 10))
        b = placed(rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 10), rng.randint(0, 10))
        if _shares_cell(a, b):
            continue
        by_shift = any(_shares_cell(a, _shifted(b, 0, d)) for d in range(1, 30))
        assert is_over(a, b) == by_shift
        by_shift_right = any(_shares_cell(a, _shifted(b, d, 0)) for d in range(1, 30))
        assert is_right_of(a, b) == by_shift_right
        assert box_over(a.box, b.box) == is_over(a, b)
        assert box_right_of(a.box, b.box) == is_right_of(a, b)
        # b touches a's left (bottom) side exactly when b ends at or before
        # a starts and b shares a cell with a after a unit shift right (up).
        for left, dx, dy, ends_before in ((True, 1, 0, b.x2 <= a.x), (False, 0, 1, b.y2 <= a.y)):
            by_unit_shift = ends_before and _shares_cell(a, _shifted(b, dx, dy))
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


@pytest.mark.parametrize(
    "call",
    [
        lambda i, p: p.placed_rect(i),
        lambda i, p: max_down_slide(i, p),
        lambda i, p: max_left_slide(i, p),
        lambda i, p: is_bottom_left_stable_rect(i, p),
        lambda i, p: supporting_rects(p, i),
        lambda i, p: free_directions(i, p),
        lambda i, p: p.with_placement(i, Placement(3, 3)),
    ],
    ids=[
        "placed_rect",
        "max_down_slide",
        "max_left_slide",
        "is_bottom_left_stable_rect",
        "supporting_rects",
        "free_directions",
        "with_placement",
    ],
)
@pytest.mark.parametrize("i", [-1, -2, 2, True, False, 1.0, None])
def test_out_of_range_index_raises_index_error(call, i):
    # Rect 1 floats one unit above the floor, so a -1 wrapped around to it,
    # or a True taken for 1, would get a down slide of 1 instead of an error.
    p = make_packing(4, 4, (1, 1, 0, 0), (1, 1, 2, 1))
    with pytest.raises(IndexError):
        call(i, p)


@pytest.mark.parametrize(
    "call",
    [lambda i, p: p.placed_rect(i), lambda i, p: max_down_slide(i, p)],
    ids=["placed_rect", "max_down_slide"],
)
def test_unplaced_rectangle_raises_value_error(call):
    p = make_packing(4, 4, (1, 1, 0, 0), (1, 1, None, None))
    with pytest.raises(ValueError, match="rectangle 1 is not placed"):
        call(1, p)


# --- l_value ---


def test_l_value_origin_is_zero():
    p = make_packing(4, 4, (1, 1, 0, 0), (1, 1, None, None))
    assert l_value(p) == 0


def test_l_value_sums_coordinates():
    p = make_packing(8, 8, (1, 1, 0, 0), (2, 2, 2, 3))
    assert l_value(p) == 5
