import random

import pytest

from cornerpack import (
    Container,
    Packing,
    corner_walk_packing,
    guillotine_layout,
    is_bottom_left_stable,
    is_feasible,
)
from cornerpack import generate


def test_guillotine_count_zero_gives_empty_packing():
    p = guillotine_layout(Container(5, 5), 0, random.Random(1))
    assert p.instance.n == 0
    assert is_feasible(p)


def test_guillotine_single_leaf_is_whole_container():
    p = guillotine_layout(Container(7, 4), 1, random.Random(2))
    (rect,) = [r for _, r in p.iter_placed()]
    assert (rect.x, rect.y, rect.x2, rect.y2) == (0, 0, 7, 4)


def test_guillotine_rejects_more_leaves_than_cells():
    with pytest.raises(ValueError, match="area"):
        guillotine_layout(Container(2, 3), 7, random.Random(3))


def test_guillotine_exact_capacity_yields_unit_cells():
    p = guillotine_layout(Container(2, 3), 6, random.Random(4))
    assert all(r.dims.area == 1 for _, r in p.iter_placed())
    assert is_feasible(p)


def test_guillotine_layouts_tile_the_container():
    rng = random.Random(99)
    for _ in range(300):
        container = Container(rng.randint(1, 12), rng.randint(1, 12))
        count = rng.randint(0, min(10, container.area))
        p = guillotine_layout(container, count, rng)
        assert p.instance.n == count
        assert is_feasible(p)
        if count > 0:
            assert p.instance.total_rect_area == container.area
            # A tiling leaves no room to slide anything down or left.
            assert is_bottom_left_stable(p)


def test_guillotine_is_deterministic_per_seed():
    a = guillotine_layout(Container(10, 8), 7, random.Random(123))
    b = guillotine_layout(Container(10, 8), 7, random.Random(123))
    c = guillotine_layout(Container(10, 8), 7, random.Random(124))
    assert a == b
    assert a != c


def test_corner_walk_grows_stable_feasible_packings():
    rng = random.Random(77)
    for _ in range(100):
        container = Container(rng.randint(2, 10), rng.randint(2, 10))
        count = rng.randint(0, 4)
        p = corner_walk_packing(container, count, rng)
        assert p.instance.n == count
        assert p.is_complete
        assert is_feasible(p)
        assert is_bottom_left_stable(p)


def test_corner_walk_exact_capacity_forces_unit_cells():
    # The per-step area budget reserves one cell per rectangle still
    # owed, so asking for area-many rectangles yields all 1x1.
    for seed in range(20):
        p = corner_walk_packing(Container(2, 2), 4, random.Random(seed))
        assert p.instance.total_rect_area == 4
        assert all(r.area == 1 for r in p.instance.rects)
        assert is_feasible(p)


def test_corner_walk_raises_only_on_impossible_counts():
    with pytest.raises(ValueError, match="area"):
        corner_walk_packing(Container(2, 2), 5, random.Random(6))


def test_corner_walk_is_deterministic_per_seed():
    a = corner_walk_packing(Container(9, 9), 6, random.Random(42))
    b = corner_walk_packing(Container(9, 9), 6, random.Random(42))
    assert a == b


def test_corner_walk_output_is_pinned_for_a_fixed_seed():
    # `cornerpack gen --mode corner-walk --seed` prints this walk's
    # documents, so how the walk builds its corner grid must not move it.
    p = corner_walk_packing(Container(9, 9), 12, random.Random(42))
    assert [(r.width, r.height) for r in p.instance.rects] == [
        (1, 1), (2, 2), (1, 5), (5, 4), (1, 1), (2, 5), (5, 2), (2, 4), (3, 1), (4, 3), (3, 1), (1, 1),
    ]
    assert [(pl.x, pl.y, pl.rotated) for pl in p.placements] == [
        (0, 0, False), (1, 0, False), (3, 0, False), (4, 0, False), (0, 1, False), (0, 2, False),
        (0, 7, False), (2, 5, True), (4, 4, False), (6, 5, True), (2, 2, True), (7, 4, False),
    ]


@pytest.mark.parametrize("generator", [guillotine_layout, corner_walk_packing])
@pytest.mark.parametrize("count", [-1, -3, True, False, 2.0, None])
def test_generators_reject_a_count_that_is_not_an_int_from_zero(generator, count):
    # A negative count gave an empty packing, and a bool or a float was
    # taken for a number of rectangles.
    with pytest.raises(ValueError, match="area"):
        generator(Container(2, 2), count, random.Random(0))


def test_corner_walk_derives_no_box_map(monkeypatch):
    # The walk grows one occupancy grid box by box; it never rebuilds the
    # packing so far to derive its boxes afresh at each step.
    derived = []
    boxes = Packing.boxes

    def counted(self):
        derived.append(self)
        return boxes(self)

    monkeypatch.setattr(Packing, "boxes", counted)
    p = corner_walk_packing(Container(12, 12), 40, random.Random(1))
    assert p.instance.n == 40
    assert derived == []


def _listed_split(x, y, w, h, k, rng, out):
    """Reference cut rule: list every (axis, cut, k1) and let choice() pick."""
    if k == 1:
        out.append((x, y, w, h))
        return
    options = []
    for cx in range(1, w):
        for k1 in range(max(1, k - (w - cx) * h), min(k - 1, cx * h) + 1):
            options.append(("v", cx, k1))
    for cy in range(1, h):
        for k1 in range(max(1, k - w * (h - cy)), min(k - 1, w * cy) + 1):
            options.append(("h", cy, k1))
    axis, cut, k1 = rng.choice(options)
    if axis == "v":
        _listed_split(x, y, cut, h, k1, rng, out)
        _listed_split(x + cut, y, w - cut, h, k - k1, rng, out)
    else:
        _listed_split(x, y, w, cut, k1, rng, out)
        _listed_split(x, y + cut, w, h - cut, k - k1, rng, out)


def test_guillotine_layout_matches_the_listed_cut_rule(monkeypatch):
    # The counted draw must pick the same cut and consume the same random
    # bits as choice() over the full option list, so every seeded layout
    # stays byte-identical. The benchmark's tiling and explain sizes come
    # first, then random sizes.
    rng = random.Random(5150)
    sizes = [(12, 8, 7), (16, 16, 10), (20, 20, 14), (24, 24, 18)]
    sizes += [(10, 10, 30), (14, 14, 60), (20, 20, 120)]
    while len(sizes) < 300:
        w, h = rng.randint(1, 24), rng.randint(1, 24)
        sizes.append((w, h, rng.randint(1, min(40, w * h))))
    for seed, (w, h, count) in enumerate(sizes):
        counted = random.Random(seed)
        fast = guillotine_layout(Container(w, h), count, counted)
        listed = random.Random(seed)
        with monkeypatch.context() as m:
            m.setattr(generate, "_split", _listed_split)
            reference = guillotine_layout(Container(w, h), count, listed)
        assert fast == reference, (w, h, count, seed)
        assert counted.getstate() == listed.getstate()


def _ranged_split(x, y, w, h, k, rng, out):
    """Reference cut rule: the (axis, cut, first k1, count) range of every
    cut, listed, then one randrange over their total."""
    if k == 1:
        out.append((x, y, w, h))
        return
    ranges = []
    for axis, side, other in (("v", w, h), ("h", h, w)):
        for cut in range(1, side):
            lo = max(1, k - (side - cut) * other)
            if (size := min(k - 1, cut * other) - lo + 1) > 0:
                ranges.append((axis, cut, lo, size))
    rank = rng.randrange(sum(r[3] for r in ranges))
    for axis, cut, lo, size in ranges:
        if rank < size:
            break
        rank -= size
    k1 = lo + rank
    if axis == "v":
        _ranged_split(x, y, cut, h, k1, rng, out)
        _ranged_split(x + cut, y, w - cut, h, k - k1, rng, out)
    else:
        _ranged_split(x, y, w, cut, k1, rng, out)
        _ranged_split(x, y + cut, w, h - cut, k - k1, rng, out)


def test_guillotine_layout_matches_the_ranged_cut_rule(monkeypatch):
    # The listed rule above is too slow for many large draws; the ranged
    # rule, checked against it there, stands in for it here. Seeded draws
    # of every shape, 120-rectangle cuts and counts equal to the area
    # included, must give the same layouts and leave the same random state.
    rng = random.Random(8128)
    sizes = [(20, 20, 120), (24, 24, 120), (11, 11, 121), (1, 30, 30), (30, 1, 7)]
    while len(sizes) < 2000:
        w, h = rng.randint(1, 24), rng.randint(1, 24)
        count = rng.choice([min(w * h, 120), rng.randint(1, min(120, w * h))])
        sizes.append((w, h, count))
    for seed, (w, h, count) in enumerate(sizes):
        counted = random.Random(seed)
        fast = guillotine_layout(Container(w, h), count, counted)
        ranged = random.Random(seed)
        with monkeypatch.context() as m:
            m.setattr(generate, "_split", _ranged_split)
            reference = guillotine_layout(Container(w, h), count, ranged)
        assert fast == reference, (w, h, count, seed)
        assert counted.getstate() == ranged.getstate()
