"""Corner enumeration and corner-occupying actions."""

import random

import pytest

from conftest import make_packing, random_partial_packing, random_shape
from cornerpack import (
    BOTTOM_BORDER,
    LEFT_BORDER,
    Container,
    Corner,
    CornerAction,
    Instance,
    Packing,
    Placement,
    RectDims,
    StaleCornerError,
    apply_action,
    enumerate_corners,
    is_bottom_left_stable_rect,
    is_feasible,
    oracle_corners,
    supporting_rects,
)
from cornerpack.corners import _Board, _grid, _positions


def test_empty_container_offers_origin_in_both_orientations():
    p = make_packing(4, 4, (2, 3, None, None))
    corners = enumerate_corners(p, RectDims(2, 3))
    assert [(c.x, c.y, c.rotated) for c in corners] == [(0, 0, False), (0, 0, True)]
    assert all(c.left_support is LEFT_BORDER for c in corners)
    assert all(c.bottom_support is BOTTOM_BORDER for c in corners)


def test_square_shape_emits_single_orientation():
    p = make_packing(4, 4, (2, 2, None, None))
    corners = enumerate_corners(p, RectDims(2, 2))
    assert [(c.x, c.y, c.rotated) for c in corners] == [(0, 0, False)]


def test_corners_beside_and_atop_a_placed_square():
    # All nine candidate positions checked by hand: only the spot to the
    # right of the placed square and the spot on top of it are stable.
    p = make_packing(4, 4, (2, 2, 0, 0), (2, 2, None, None))
    corners = enumerate_corners(p, RectDims(2, 2))
    assert [(c.x, c.y) for c in corners] == [(2, 0), (0, 2)]
    beside, atop = corners
    assert beside.left_support == 0 and beside.bottom_support is BOTTOM_BORDER
    assert atop.left_support is LEFT_BORDER and atop.bottom_support == 0


def test_oversized_shape_has_no_corners():
    p = make_packing(4, 4)
    assert enumerate_corners(p, RectDims(5, 1)) == []
    assert enumerate_corners(p, RectDims(5, 5)) == []


def test_full_container_has_no_corners():
    p = make_packing(2, 2, (2, 2, 0, 0))
    assert enumerate_corners(p, RectDims(1, 1)) == []


def test_corner_output_is_sorted_and_duplicate_free():
    rng = random.Random(31337)
    for _ in range(200):
        p = random_partial_packing(rng)
        shape = random_shape(rng, 4, 4)
        corners = enumerate_corners(p, shape)
        keys = [(c.y, c.x, c.rotated) for c in corners]
        assert keys == sorted(keys)
        assert len(set((c.x, c.y, c.rotated) for c in corners)) == len(corners)


def test_every_corner_yields_a_stable_placement():
    rng = random.Random(2718)
    for _ in range(300):
        p = random_partial_packing(rng)
        unplaced = p.unplaced_indices()
        if not unplaced:
            continue
        i = unplaced[0]
        for corner in enumerate_corners(p, p.instance.rects[i]):
            q = apply_action(p, CornerAction(i, corner))
            assert is_feasible(q)
            assert is_bottom_left_stable_rect(i, q)


def test_apply_action_places_first_rect_at_container_corner():
    p = make_packing(5, 5, (3, 2, None, None))
    [corner, _rot] = enumerate_corners(p, RectDims(3, 2))
    q = apply_action(p, CornerAction(0, corner))
    assert q.placed_rect(0).x == 0 and q.placed_rect(0).y == 0


def test_apply_action_twice_is_stale():
    p = make_packing(4, 4, (2, 2, None, None), (2, 2, 0, 0))
    corner = enumerate_corners(p, RectDims(2, 2))[0]
    action = CornerAction(0, corner)
    q = apply_action(p, action)
    with pytest.raises(StaleCornerError):
        apply_action(q, action)


def test_apply_action_rejects_corner_from_older_state():
    p = make_packing(6, 4, (2, 2, None, None), (2, 2, None, None))
    first = enumerate_corners(p, RectDims(2, 2))[0]
    q = apply_action(p, CornerAction(0, first))
    # The origin corner was consumed by rect 0; replaying it for rect 1
    # must fail rather than produce an overlap.
    with pytest.raises(StaleCornerError):
        apply_action(q, CornerAction(1, first))


def test_apply_action_rejects_unstable_fabricated_corner():
    p = make_packing(6, 6, (2, 2, None, None))
    fake = Corner(3, 0, False, LEFT_BORDER, BOTTOM_BORDER)
    with pytest.raises(StaleCornerError):
        apply_action(p, CornerAction(0, fake))


def test_apply_action_rejects_out_of_range_support_index():
    # Rect 2 at (2, 0) rests against rect 0; only the index 0 names it.
    p = make_packing(6, 2, (2, 2, 0, 0), (2, 2, None, None), (2, 2, None, None))
    apply_action(p, CornerAction(2, Corner(2, 0, False, 0, BOTTOM_BORDER)))
    for bad in (-3, -1, 3, 10):
        with pytest.raises(StaleCornerError):
            apply_action(p, CornerAction(2, Corner(2, 0, False, bad, BOTTOM_BORDER)))


def test_apply_action_agrees_with_oracle_corners():
    # Positions the brute-force oracle does not list are rejected whatever
    # supports are named; listed ones are accepted with the enumerated
    # supports.
    rng = random.Random(4242)
    for _ in range(200):
        p = random_partial_packing(rng, max_side=5, max_n=5)
        c = p.instance.container
        choices = [LEFT_BORDER, BOTTOM_BORDER, *p.placed_indices()]
        for i in p.unplaced_indices():
            shape = p.instance.rects[i]
            listed = set(oracle_corners(p, shape))
            enumerated = {corner.position: corner for corner in enumerate_corners(p, shape)}
            assert set(enumerated) == listed
            for x in range(c.width):
                for y in range(c.height):
                    for rotated in (False,) if shape.is_square else (False, True):
                        if (x, y, rotated) in listed:
                            apply_action(p, CornerAction(i, enumerated[x, y, rotated]))
                            continue
                        for left in choices:
                            for bottom in choices:
                                corner = Corner(x, y, rotated, left, bottom)
                                with pytest.raises(StaleCornerError):
                                    apply_action(p, CornerAction(i, corner))


def test_supporting_rects_border_only():
    p = make_packing(4, 4, (2, 2, 0, 0))
    assert supporting_rects(p, 0) == set()


def test_supporting_rects_left_neighbor():
    p = make_packing(6, 4, (2, 2, 0, 0), (2, 2, 2, 0))
    assert supporting_rects(p, 1) == {0}


def test_supporting_rects_floor_and_one_left_rect():
    p = make_packing(8, 6, (2, 4, 0, 0), (3, 2, 2, 0))
    assert supporting_rects(p, 1) == {0}


def test_supporting_rects_ignores_corner_contact():
    # Rect 0 touches rect 1 only at the point (2, 2): no positive-length
    # shared segment, so it does not support it.
    p = make_packing(6, 6, (2, 2, 0, 0), (2, 2, 2, 2), (2, 2, 2, 0), (2, 2, 0, 2))
    assert supporting_rects(p, 1) == {2, 3}


def test_corner_set_shrinks_consistently_as_prefix_grows():
    # Whatever corner gets occupied disappears from the next enumeration.
    rng = random.Random(1123)
    for _ in range(100):
        p = random_partial_packing(rng, max_side=6, max_n=6)
        unplaced = p.unplaced_indices()
        if not unplaced:
            continue
        i = unplaced[0]
        shape = p.instance.rects[i]
        corners = enumerate_corners(p, shape)
        if not corners:
            continue
        chosen = rng.choice(corners)
        q = apply_action(p, CornerAction(i, chosen))
        after = {(c.x, c.y, c.rotated) for c in enumerate_corners(q, shape)}
        assert (chosen.x, chosen.y, chosen.rotated) not in after


def test_board_place_and_unplace_are_inverses_and_match_enumeration():
    # Place a random partial packing's rectangles one by one in random
    # order, then take them off in reverse. At every step the board's boxes
    # are those of the equivalent Packing, the corners its grid gives a
    # random shape are enumerate_corners' and the brute-force oracle's, in
    # the same order, and each unplace restores boxes and shape cursors.
    rng = random.Random(9091)
    for _ in range(300):
        p = random_partial_packing(rng)
        c = p.instance.container
        board = _Board(p.instance)
        order = p.placed_indices()
        rng.shuffle(order)
        current = Packing.empty(p.instance)
        saved = []
        for step in range(len(order) + 1):
            assert board.boxes == [current.boxes().get(i) for i in range(p.instance.n)]
            shape = random_shape(rng, 4, 4)
            grid = _grid([b for b in board.boxes if b is not None], c.width, c.height)
            on_board = [(box[0], box[1], rot) for box, rot in _positions(grid, c, shape)]
            assert on_board == [corner.position for corner in enumerate_corners(current, shape)]
            assert on_board == oracle_corners(current, shape)
            if step == len(order):
                break
            i = order[step]
            saved.append((list(board.boxes), dict(board.cursor)))
            board.place(i, p.placed_rect(i).box)
            current = current.with_placement(i, p.placements[i])
        for i in reversed(order):
            board.unplace(i)
            assert (board.boxes, board.cursor) == saved.pop()
        assert not any(board.cursor.values())


def test_corner_cost_does_not_grow_with_the_container():
    # The grid has one cell per pair of distinct box edges, so scaling every
    # coordinate by 10**5 scales the corners and nothing else, and a
    # container of about 10**6 per side is answered as fast as a small one.
    rng = random.Random(404)
    k = 10**5
    for _ in range(50):
        p = random_partial_packing(rng, max_side=10)
        c = p.instance.container
        rects = tuple(RectDims(r.width * k, r.height * k) for r in p.instance.rects)
        big = Packing(
            Instance(Container(c.width * k, c.height * k), rects),
            tuple(pl and Placement(pl.x * k, pl.y * k, pl.rotated) for pl in p.placements),
        )
        shape = random_shape(rng, 4, 4)
        small_corners = enumerate_corners(p, shape)
        big_corners = enumerate_corners(big, RectDims(shape.width * k, shape.height * k))
        assert [(x * k, y * k, r) for x, y, r in (cr.position for cr in small_corners)] == [
            cr.position for cr in big_corners
        ]
        for i in p.placed_indices():
            assert supporting_rects(big, i) == supporting_rects(p, i)
    whole = Packing.empty(Instance(Container(10**6, 10**6), (RectDims(10**6, 10**6),)))
    corner = enumerate_corners(whole, RectDims(10**6, 10**6))[0]
    full = apply_action(whole, CornerAction(0, corner))
    assert full.is_complete and enumerate_corners(full, RectDims(1, 1)) == []
