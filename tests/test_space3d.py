import random

import pytest

from cornerpack import (
    POS_X,
    POS_Y,
    POS_Z,
    UP,
    RIGHT,
    BoxDims,
    Container3,
    Packing3,
    PlacedBox3,
    blocked_directions3,
    find_escaper3,
    free_directions,
    is_feasible3,
    table1_packing,
)

from conftest import random_partial_packing


def box(w, d, h, x, y, z):
    return PlacedBox3(BoxDims(w, d, h), x, y, z)


def _shifted(b, dx, dy, dz):
    return PlacedBox3(b.dims, b.x + dx, b.y + dy, b.z + dz)


def cells(b):
    """The unit cells ``[x, x2) x [y, y2) x [z, z2)`` that a box covers."""
    return {
        (i, j, k)
        for i in range(b.x, b.x2)
        for j in range(b.y, b.y2)
        for k in range(b.z, b.z2)
    }


def _shares_cell(a, b):
    return bool(cells(a) & cells(b))


def test_dims_and_container_reject_non_positive_extents():
    for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0), (1, -2, 1)):
        with pytest.raises(ValueError):
            BoxDims(*bad)
        with pytest.raises(ValueError):
            Container3(*bad)


def test_placed_box_rejects_negative_coordinates():
    with pytest.raises(ValueError):
        PlacedBox3(BoxDims(1, 1, 1), -1, 0, 0)
    with pytest.raises(ValueError):
        PlacedBox3(BoxDims(1, 1, 1), 0, 0, -3)


NON_INTEGERS = [float("nan"), 1.5, 2.0, True, False]


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_extents_must_be_integers(bad):
    # NaN passes a bare ``< 1`` test; a bool is an int subclass.
    for cls in (BoxDims, Container3):
        for extents in ((bad, 1, 1), (1, bad, 1), (1, 1, bad)):
            with pytest.raises(ValueError, match="must be an integer >= 1"):
                cls(*extents)


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_placed_box_coordinates_must_be_integers(bad):
    for coords in ((bad, 0, 0), (0, bad, 0), (0, 0, bad)):
        with pytest.raises(ValueError, match="must be an integer >= 0"):
            PlacedBox3(BoxDims(1, 1, 1), *coords)


def test_far_corner():
    b = box(2, 3, 4, 1, 0, 5)
    assert (b.x2, b.y2, b.z2) == (3, 3, 9)
    assert len(cells(b)) == 24


def _pair_feasible(a, b):
    return is_feasible3(Packing3(Container3(8, 8, 8), (a, b)))


@pytest.mark.parametrize(
    "b, shared",
    [
        (box(2, 2, 2, 2, 0, 0), set()),
        (box(2, 2, 2, 1, 1, 1), {(1, 1, 1)}),
        (box(2, 2, 2, 0, 0, 0), cells(box(2, 2, 2, 0, 0, 0))),
        (box(1, 1, 1, 0, 0, 5), set()),
    ],
    ids=["face_contact", "corner_cube", "identical", "far_above"],
)
def test_pair_feasibility_matches_cells(b, shared):
    a = box(2, 2, 2, 0, 0, 0)
    assert cells(a) & cells(b) == shared
    assert _pair_feasible(a, b) == (not shared)


def test_pair_feasibility_is_symmetric_and_matches_cells():
    rng = random.Random(741)
    for _ in range(300):
        a = box(*(rng.randint(1, 3) for _ in range(3)), *(rng.randint(0, 4) for _ in range(3)))
        b = box(*(rng.randint(1, 3) for _ in range(3)), *(rng.randint(0, 4) for _ in range(3)))
        assert _pair_feasible(a, b) == _pair_feasible(b, a) == (not _shares_cell(a, b))


def test_feasibility_checks_borders_and_pairs():
    c = Container3(3, 3, 3)
    assert is_feasible3(Packing3(c))
    assert is_feasible3(Packing3(c, (box(1, 1, 1, 0, 0, 0), box(1, 1, 1, 1, 0, 0))))
    assert not is_feasible3(Packing3(c, (box(2, 2, 2, 2, 0, 0),)))  # pokes out
    assert not is_feasible3(Packing3(c, (box(2, 2, 2, 0, 0, 0), box(2, 2, 2, 1, 1, 1))))


def test_single_box_is_free_everywhere():
    p = Packing3(Container3(5, 5, 5), (box(2, 2, 2, 1, 1, 1),))
    assert blocked_directions3(0, p) == frozenset()
    assert find_escaper3(p) == 0


def test_stacked_pair_blocks_only_upward():
    p = Packing3(
        Container3(2, 2, 4),
        (box(2, 2, 1, 0, 0, 0), box(2, 2, 1, 0, 0, 3)),
    )
    # Any gap still blocks: the relation ignores distances and borders.
    assert blocked_directions3(0, p) == frozenset({POS_Z})
    assert blocked_directions3(1, p) == frozenset()
    assert find_escaper3(p) == 1


def test_blocking_requires_positive_cross_section():
    # Boxes that merely touch along an edge never block each other.
    p = Packing3(
        Container3(4, 4, 4),
        (box(2, 2, 2, 0, 0, 0), box(2, 2, 2, 2, 2, 0)),
    )
    assert blocked_directions3(0, p) == frozenset()
    assert blocked_directions3(1, p) == frozenset()


def test_blocked_matches_displacement_search():
    rng = random.Random(8282)
    checked = 0
    while checked < 500:
        boxes = tuple(
            box(*(rng.randint(1, 3) for _ in range(3)), *(rng.randint(0, 5) for _ in range(3)))
            for _ in range(3)
        )
        if any(_shares_cell(boxes[i], boxes[j]) for i in range(3) for j in range(i + 1, 3)):
            continue
        p = Packing3(Container3(20, 20, 20), boxes)
        for i in range(3):
            blocked = blocked_directions3(i, p)
            for direction, step in ((POS_X, (1, 0, 0)), (POS_Y, (0, 1, 0)), (POS_Z, (0, 0, 1))):
                by_shift = any(
                    _shares_cell(_shifted(boxes[i], d * step[0], d * step[1], d * step[2]), boxes[j])
                    for d in range(1, 12)
                    for j in range(3)
                    if j != i
                )
                assert (direction in blocked) == by_shift
        checked += 1


def test_flat_packings_reduce_to_the_planar_relations():
    # Depth-1 boxes at y = 0 form a 2D packing seen from above; the x/z
    # relations must then agree with the planar up/right freedoms.
    rng = random.Random(905)
    for _ in range(200):
        p2 = random_partial_packing(rng)
        placed = list(p2.iter_placed())
        boxes = tuple(box(r.width, 1, r.height, r.x, 0, r.y) for _, r in placed)
        p3 = Packing3(Container3(p2.instance.container.width, 1, p2.instance.container.height), boxes)
        for flat_index, (i, _) in enumerate(placed):
            free2 = free_directions(i, p2)
            blocked3 = blocked_directions3(flat_index, p3)
            assert (POS_Z in blocked3) == (UP not in free2)
            assert (POS_X in blocked3) == (RIGHT not in free2)
            assert POS_Y not in blocked3


def test_fixed_configuration_geometry():
    p = table1_packing()
    assert p.container == Container3(3, 2, 3)
    assert [b.dims for b in p.boxes] == [
        BoxDims(1, 2, 1),
        BoxDims(3, 1, 1),
        BoxDims(1, 2, 1),
        BoxDims(1, 1, 3),
    ]
    assert [(b.x, b.y, b.z) for b in p.boxes] == [(2, 0, 0), (0, 1, 1), (0, 0, 2), (1, 0, 0)]
    assert is_feasible3(p)
    assert sum(len(cells(b)) for b in p.boxes) == 10


def test_fixed_configuration_blocked_sets():
    p = table1_packing()
    assert [blocked_directions3(i, p) for i in range(4)] == [
        frozenset({POS_Z}),
        frozenset({POS_Z}),
        frozenset({POS_X}),
        frozenset({POS_X, POS_Y}),
    ]
    assert find_escaper3(p) is None


@pytest.mark.parametrize("i", [-1, -4, 4, True, False, 1.0, None])
def test_blocked_directions3_rejects_an_out_of_range_index(i):
    # A -1 wrapped around to box 3 would answer {+x, +y}, and a True taken
    # for box 1 {+z}, instead of an error.
    with pytest.raises(IndexError):
        blocked_directions3(i, table1_packing())


def test_fixed_configuration_blocking_is_cyclic():
    # Each blocker sits one step along the cycle 0 <- 1 <- 2 <- 3 <- 0;
    # box 3 is additionally pinned sideways by box 1.
    p = table1_packing()

    def without(k):
        kept = tuple(b for i, b in enumerate(p.boxes) if i != k)
        return Packing3(p.container, kept)

    # Dropping a box frees exactly the one it was blocking, except that
    # dropping box 0 leaves the residual 3-cycle 1 <- 2 <- 3 <- 1 stuck.
    freed = {}
    for k in range(4):
        q = without(k)
        freed[k] = [i for i in range(3) if not blocked_directions3(i, q)]
    assert freed[1] == [0]  # box 0 escapes once box 1 is gone
    assert freed[2] == [1]  # box 1 (still index 1) escapes once box 2 is gone
    assert freed[3] == [2]  # box 2 (still index 2) escapes once box 3 is gone
    assert freed[0] == []
