"""Escape chains, extraction orders, and corner build orders."""

import random
from dataclasses import replace

import pytest

from conftest import doubled_tiling, make_packing, random_complete_packing, random_loose_packing
from cornerpack import (
    BOTTOM_BORDER,
    LEFT_BORDER,
    RIGHT,
    UP,
    Corner,
    CornerAction,
    EscapeChain,
    InfeasiblePackingError,
    NotBottomLeftStableError,
    Packing,
    PlacementOrder,
    StaleCornerError,
    apply_action,
    apply_trace,
    compact,
    extraction_order,
    find_escaper,
    free_directions,
    is_bottom_left_stable,
    placement_order,
)
from cornerpack.decompose import _escapes
from cornerpack.geometry import box_over, box_touches


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


def _reference_chain(live):
    """The escape chain by its linear-scan definition: start at the box with
    the highest rank (top-right corner, then lower index), then step to the
    highest-ranked box over the current one until none is."""
    rank = lambda i: (live[i][2], live[i][3], -i)
    chain = [max(live, key=rank)]
    while over := [i for i, b in live.items() if box_over(b, live[chain[-1]])]:
        chain.append(max(over, key=rank))
    return tuple(chain)


def _reference_extraction(boxes):
    """The extraction order by the same definition, and how many of its
    chains took at least one step."""
    live, order, climbs = dict(boxes), [], 0
    while live:
        chain = _reference_chain(live)
        climbs += len(chain) > 1
        order.append(chain[-1])
        del live[chain[-1]]
    return tuple(order), climbs


def test_escape_climb_and_extraction_match_the_linear_scan_definition():
    rng = random.Random(31337)
    packings = [random_complete_packing(rng, max_side=14, max_n=12) for _ in range(300)]
    packings += [random_loose_packing(rng, max_side=14, max_n=12) for _ in range(300)]
    for n, side in ((30, 10), (60, 14), (120, 20)):
        packings += [doubled_tiling(rng, side, n) for _ in range(3)]
    climbs = rotated = 0
    for p in packings:
        rotated += any(pl.rotated for pl in p.placements if pl is not None)
        boxes = p.boxes()
        assert find_escaper(p).visited == _reference_chain(boxes)
        order, steps = _reference_extraction(boxes)
        assert extraction_order(p) == order
        climbs += steps
    assert climbs > 500 and rotated > 100


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


@pytest.mark.parametrize(
    "boxes, later, earlier",
    [
        ({0: (4, 1, 5, 4), 1: (3, 2, 6, 3), 2: (3, 3, 4, 5)}, 0, 2),
        ({0: (2, 1, 3, 2), 1: (2, 0, 5, 1), 2: (3, 0, 4, 3)}, 2, 0),
    ],
)
def test_escape_walk_audits_each_escaper_as_it_leaves(boxes, later, earlier):
    # Overlapping boxes, which no feasible packing reaches: some box left
    # behind lies right of an escaper, and the walk names that pair.
    message = f"extraction order leaves rectangle {later} over or right of rectangle {earlier}$"
    with pytest.raises(RuntimeError, match=message):
        list(_escapes(boxes))


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


def test_action_names_the_lower_indexed_of_two_supporters():
    # Rectangle 2 rests on rectangles 0 and 1. Rectangle 1 sits left of 0,
    # so it is placed first, yet the action names the lower index.
    p = make_packing(4, 2, (2, 1, 2, 0), (2, 1, 0, 0), (4, 1, 0, 1))
    po = placement_order(p)
    assert po.order == (1, 0, 2)
    assert po.actions[2].corner.bottom_support == 0
    assert po.actions[1].corner.left_support == 1
    # The mirror image: rectangle 2 rests against 0 and 1 on its left.
    p = make_packing(2, 4, (1, 2, 0, 2), (1, 2, 0, 0), (1, 4, 1, 0))
    po = placement_order(p)
    assert po.order == (1, 0, 2)
    assert po.actions[2].corner.left_support == 0
    assert po.actions[1].corner.bottom_support == 1


def test_placement_order_requires_stability():
    p = make_packing(6, 6, (2, 2, 3, 3))
    with pytest.raises(NotBottomLeftStableError):
        placement_order(p)


def test_placement_order_names_the_lowest_touching_box_and_checks_stability():
    # The naming loop is the stability check: it raises exactly when some
    # placed box can slide, and otherwise names on each side the lowest
    # index among all placed boxes touching it, placed before the box.
    rng = random.Random(2604)

    def partly(p):
        if rng.random() < 0.5:
            return p
        keep = set(rng.sample(range(p.instance.n), rng.randint(0, p.instance.n)))
        return Packing(p.instance, tuple(pl if i in keep else None for i, pl in enumerate(p.placements)))

    unstable = named = 0
    for _ in range(300):
        loose = random_loose_packing(rng, max_side=12, max_n=9)
        for p in map(partly, (loose, compact(loose)[0], random_complete_packing(rng, max_side=12, max_n=9))):
            if not is_bottom_left_stable(p):
                unstable += 1
                with pytest.raises(NotBottomLeftStableError, match=r"compact\(\) it before ordering"):
                    placement_order(p)
                continue
            po = placement_order(p)
            boxes = p.boxes()
            for k, (i, action) in enumerate(zip(po.order, po.actions)):
                corner = action.corner
                for support, border, left in (
                    (corner.left_support, LEFT_BORDER, True),
                    (corner.bottom_support, BOTTOM_BORDER, False),
                ):
                    touching = (j for j in boxes if box_touches(boxes[j], boxes[i], left))
                    assert support == min(touching, default=border)
                    if support is not border:
                        named += 1
                        assert support in po.order[:k]
    assert unstable > 100 and named > 1000


def test_placement_order_requires_feasibility():
    p = make_packing(4, 4, (2, 2, 0, 0), (2, 2, 1, 1))
    with pytest.raises(InfeasiblePackingError):
        placement_order(p)


def test_placement_order_validation():
    p = make_packing(4, 4, (2, 2, 0, 0))
    good = placement_order(p)
    with pytest.raises(ValueError):
        PlacementOrder(p, ())
    bad_action = CornerAction(5, good.actions[0].corner)
    with pytest.raises(ValueError):
        PlacementOrder(p, (bad_action,))
    # Each action must rebuild its rectangle's placement, or replay() ends
    # on another packing: a 2x1 rectangle turned, and a second 2x1 moved
    # off its place onto another corner beside the first.
    p = make_packing(4, 4, (2, 1, 0, 0))
    turned = replace(placement_order(p).actions[0].corner, rotated=True)
    assert apply_action(Packing.empty(p.instance), CornerAction(0, turned)) != p
    with pytest.raises(ValueError, match="does not rebuild its placement"):
        PlacementOrder(p, (CornerAction(0, turned),))
    p = make_packing(4, 4, (2, 1, 0, 0), (2, 1, 0, 1))
    good = placement_order(p)
    assert good.order == (0, 1)
    moved = CornerAction(1, Corner(2, 0, False, 0, BOTTOM_BORDER))
    assert apply_action(good.replay()[1], moved) != p
    with pytest.raises(ValueError, match="does not rebuild its placement"):
        PlacementOrder(p, (good.actions[0], moved))
    a0 = good.actions[0]
    with pytest.raises(ValueError, match="permutation of the placed indices"):
        PlacementOrder(p, (a0, a0))
    # True equals 1, so it passes the permutation check, yet names no rectangle.
    with pytest.raises(IndexError, match="rectangle index True out of range"):
        PlacementOrder(p, (a0, CornerAction(True, good.actions[1].corner)))


def chained(po):
    """What replay() must return or raise: public apply_action calls, one per action."""
    states = [Packing.empty(po.packing.instance)]
    try:
        for action in po.actions:
            states.append(apply_action(states[-1], action))
    except Exception as e:
        return type(e), str(e)
    return states


def replayed(po):
    try:
        return po.replay()
    except Exception as e:
        return type(e), str(e)


def test_replay_round_trip_on_random_packings():
    rng = random.Random(424242)
    for _ in range(400):
        p = random_loose_packing(rng, max_side=12, max_n=8)
        stable, _ = compact(p)
        po = placement_order(stable)
        states = po.replay()
        assert states == chained(po)
        assert len(states) == len(po.order) + 1
        assert states[-1] == stable
        # At every prefix the fresh rectangle is under and left of nothing.
        for step, i in enumerate(po.order, start=1):
            assert free_directions(i, states[step]) == {UP, RIGHT}


@pytest.mark.parametrize("side, n", [(14, 60), (20, 120)])
def test_round_trip_on_large_loose_packings(side, n):
    rng = random.Random(side * 1000 + n)
    for _ in range(3):
        loose = doubled_tiling(rng, side, n)
        stable, trace = compact(loose)
        assert apply_trace(loose, trace) == stable
        assert placement_order(stable).replay()[-1] == stable


def test_replay_validates_each_action():
    p = make_packing(6, 4, (2, 2, 0, 0), (2, 2, 2, 0))
    po = placement_order(p)
    # Swapping the actions makes the second rectangle's support vanish.
    swapped = PlacementOrder(p, tuple(reversed(po.actions)))
    with pytest.raises(StaleCornerError):
        swapped.replay()


def test_replay_rejects_what_apply_action_rejects():
    # Tampered orders, each stale at its last action: replay() must raise
    # the exception type and message a chain of apply_action calls raises.
    # A box off the container or on a placed one is not a corner; a box that
    # fits gets the message of the first named support that fails.
    def order(p, *corners):
        actions = tuple(CornerAction(i, c) for i, c in enumerate(corners))
        return PlacementOrder(p, actions)

    origin = Corner(0, 0, False, LEFT_BORDER, BOTTOM_BORDER)
    beside = make_packing(6, 4, (2, 2, 0, 0), (2, 2, 2, 0))
    stacked = make_packing(6, 4, (2, 2, 0, 0), (2, 2, 0, 2), (2, 2, 2, 0))
    on_top = Corner(0, 2, False, LEFT_BORDER, 0)
    tampered = {
        "support not yet placed": (
            order(beside, origin, Corner(2, 0, False, 1, BOTTOM_BORDER)),
            "left support 1 is not a placed rectangle",
        ),
        "support not touching": (
            order(stacked, origin, on_top, Corner(2, 0, False, 1, BOTTOM_BORDER)),
            "rectangle 1 no longer supports (2, 0)",
        ),
        "off a corner": (
            order(
                make_packing(6, 4, (2, 2, 0, 0), (2, 2, 4, 0)), origin, Corner(4, 0, False, 0, BOTTOM_BORDER)
            ),
            "rectangle 0 no longer supports (4, 0)",
        ),
        "left neighbour named below": (
            order(beside, origin, Corner(2, 0, False, 0, 0)),
            "rectangle 0 no longer supports (2, 0)",
        ),
        "overlapping packing": (
            order(
                make_packing(6, 4, (2, 2, 0, 0), (2, 2, 1, 0)), origin, Corner(1, 0, False, 0, BOTTOM_BORDER)
            ),
            "position (1, 0) is not a corner",
        ),
        "protruding box": (
            order(
                make_packing(3, 4, (2, 2, 0, 0), (2, 2, 2, 0)), origin, Corner(2, 0, False, 0, BOTTOM_BORDER)
            ),
            "position (2, 0) is not a corner",
        ),
        "border named off zero": (
            order(beside, origin, Corner(2, 0, False, LEFT_BORDER, BOTTOM_BORDER)),
            "left-border cannot support the left at (2, 0)",
        ),
        "wrong border": (
            order(beside, origin, Corner(2, 0, False, 0, LEFT_BORDER)),
            "left-border cannot support the bottom at (2, 0)",
        ),
    }
    for name, (po, message) in tampered.items():
        expected = chained(po)
        assert expected == (StaleCornerError, message), name
        assert replayed(po) == expected, name
