"""Escape chains, extraction orders, and corner build orders."""

import random

import pytest

from conftest import make_packing, random_complete_packing, random_loose_packing
from cornerpack import (
    RIGHT,
    UP,
    Container,
    CornerAction,
    EscapeChain,
    InfeasiblePackingError,
    Instance,
    NotBottomLeftStableError,
    Packing,
    Placement,
    PlacementOrder,
    StaleCornerError,
    apply_trace,
    compact,
    extraction_order,
    find_escaper,
    free_directions,
    guillotine_layout,
    placement_order,
)


# --- find_escaper ---


def test_single_rect_escapes_immediately():
    p = make_packing(4, 4, (2, 2, 1, 1))
    chain = find_escaper(p)
    assert chain.visited == (0,)
    assert chain.escaper == 0


def test_stack_top_escapes():
    p = make_packing(4, 6, (2, 2, 0, 0), (2, 2, 0, 2))
    chain = find_escaper(p)
    assert chain.escaper == 1
    assert free_directions(1, p) == {UP, RIGHT}


def test_multi_step_chain_climbs_to_the_escaper():
    # Rect 0 owns the largest top-right corner but rect 1 hangs over it;
    # rect 2 in turn hangs over rect 1. The trail is 0 -> 1 -> 2.
    p = make_packing(
        10,
        9,
        (6, 3, 4, 0),
        (4, 3, 3, 3),
        (3, 3, 1, 6),
    )
    chain = find_escaper(p)
    assert chain.visited == (0, 1, 2)
    assert free_directions(chain.escaper, p) == {UP, RIGHT}


def test_escaper_on_empty_packing_is_an_error():
    with pytest.raises(ValueError):
        find_escaper(make_packing(4, 4))


def test_escaper_requires_feasible_input():
    with pytest.raises(InfeasiblePackingError):
        find_escaper(make_packing(4, 4, (2, 2, 0, 0), (2, 2, 1, 1)))


def test_escape_chain_validation():
    with pytest.raises(ValueError):
        EscapeChain(())
    with pytest.raises(ValueError):
        EscapeChain((1, 2, 1))


def test_escaper_properties_on_random_packings():
    rng = random.Random(9001)
    for _ in range(500):
        p = random_complete_packing(rng, max_side=14, max_n=9)
        chain = find_escaper(p)
        assert len(chain) <= p.instance.n
        ys = [p.placed_rect(i).y for i in chain.visited]
        assert all(a < b for a, b in zip(ys, ys[1:]))
        assert free_directions(chain.escaper, p) == {UP, RIGHT}


# --- extraction_order ---


def test_extraction_order_empty():
    assert extraction_order(make_packing(4, 4)) == ()


def test_extraction_order_stack():
    p = make_packing(4, 6, (2, 2, 0, 0), (2, 2, 0, 2))
    assert extraction_order(p) == (1, 0)


def test_extraction_order_requires_feasible_input():
    with pytest.raises(InfeasiblePackingError):
        extraction_order(make_packing(4, 4, (2, 2, 0, 0), (2, 2, 1, 1)))


def test_extraction_order_respects_restriction_to_residue():
    rng = random.Random(77)
    for _ in range(200):
        p = random_loose_packing(rng, max_side=10, max_n=7)
        order = extraction_order(p)
        assert sorted(order) == sorted(p.placed_indices())


# --- placement_order ---


def test_single_rect_order_and_action():
    p = make_packing(4, 4, (2, 2, 0, 0))
    po = placement_order(p)
    assert po.order == (0,)
    assert po.actions[0].corner.x == 0 and po.actions[0].corner.y == 0


def test_two_rect_row_places_left_first():
    p = make_packing(6, 4, (2, 2, 0, 0), (2, 2, 2, 0))
    po = placement_order(p)
    assert po.order == (0, 1)
    assert po.actions[1].corner.left_support == 0


def test_placement_order_requires_stability():
    p = make_packing(6, 6, (2, 2, 3, 3))
    with pytest.raises(NotBottomLeftStableError):
        placement_order(p)


def test_placement_order_requires_feasibility():
    p = make_packing(4, 4, (2, 2, 0, 0), (2, 2, 1, 1))
    with pytest.raises(InfeasiblePackingError):
        placement_order(p)


def test_placement_order_validation():
    p = make_packing(4, 4, (2, 2, 0, 0))
    good = placement_order(p)
    with pytest.raises(ValueError):
        PlacementOrder(p, (0, 1), good.actions)
    with pytest.raises(ValueError):
        PlacementOrder(p, (0,), ())
    bad_action = CornerAction(5, good.actions[0].corner)
    with pytest.raises(ValueError):
        PlacementOrder(p, (0,), (bad_action,))


def test_replay_round_trip_on_random_packings():
    rng = random.Random(424242)
    for _ in range(400):
        p = random_loose_packing(rng, max_side=12, max_n=8)
        stable, _ = compact(p)
        po = placement_order(stable)
        states = po.replay()
        assert len(states) == len(po.order) + 1
        assert states[-1] == stable
        # At every prefix the fresh rectangle is under and left of nothing.
        for step, i in enumerate(po.order, start=1):
            assert free_directions(i, states[step]) == {UP, RIGHT}


@pytest.mark.parametrize("side, n", [(14, 60), (20, 120)])
def test_round_trip_on_large_loose_packings(side, n):
    # Guillotine tilings with every coordinate doubled in a doubled
    # container: every rectangle floats, so compaction moves nearly all.
    rng = random.Random(side * 1000 + n)
    for _ in range(3):
        layout = guillotine_layout(Container(side, side), n, rng)
        loose = Packing(
            Instance(Container(2 * side, 2 * side), layout.instance.rects),
            tuple(Placement(2 * pl.x, 2 * pl.y, pl.rotated) for pl in layout.placements),
        )
        stable, trace = compact(loose)
        assert apply_trace(loose, trace) == stable
        assert placement_order(stable).replay()[-1] == stable


def test_replay_validates_each_action():
    p = make_packing(6, 4, (2, 2, 0, 0), (2, 2, 2, 0))
    po = placement_order(p)
    # Swapping the actions makes the second rectangle's support vanish.
    swapped = PlacementOrder(p, tuple(reversed(po.order)), tuple(reversed(po.actions)))
    with pytest.raises(StaleCornerError):
        swapped.replay()
