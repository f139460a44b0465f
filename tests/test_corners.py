"""Corner enumeration and corner-occupying actions."""

import random
from bisect import bisect_right
from functools import reduce

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
    guillotine_layout,
    is_bottom_left_stable_rect,
    is_feasible,
    oracle_corners,
    supporting_rects,
)
from cornerpack.corners import _Board, _empty_grid, _grow, _orientations, _positions
from cornerpack.geometry import box_touches
from cornerpack.solver import _dominated, quick_reject


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
    # Rect 2 at (2, 0) rests against rect 0; only the int index 0 names it,
    # not False, though False == 0, nor a float or None.
    p = make_packing(6, 2, (2, 2, 0, 0), (2, 2, None, None), (2, 2, None, None))
    apply_action(p, CornerAction(2, Corner(2, 0, False, 0, BOTTOM_BORDER)))
    for bad in (-3, -1, 3, 10, True, False, 1.0, None):
        with pytest.raises(StaleCornerError):
            apply_action(p, CornerAction(2, Corner(2, 0, False, bad, BOTTOM_BORDER)))
    # So must the rectangle index: -1 must not wrap around to rect 2, nor
    # True stand for rect 1.
    for bad in (-1, 3, True, False, 1.0, None):
        with pytest.raises(StaleCornerError, match=f"rectangle index {bad} out of range"):
            apply_action(p, CornerAction(bad, Corner(2, 0, False, 0, BOTTOM_BORDER)))


def test_apply_action_agrees_with_oracle_corners():
    # Positions the brute-force oracle does not list, out to one cell past
    # every border, are rejected by apply_action whatever supports are
    # named; listed ones are accepted with the enumerated supports. Those
    # name, on each side, the lowest-indexed box touching the corner, else
    # the border.
    rng = random.Random(4242)
    for _ in range(200):
        p = random_partial_packing(rng, max_side=5, max_n=5)
        c = p.instance.container
        boxes = p.boxes()
        choices = [LEFT_BORDER, BOTTOM_BORDER, *p.placed_indices()]
        for i in p.unplaced_indices():
            shape = p.instance.rects[i]
            dims = {False: (shape.width, shape.height), True: (shape.height, shape.width)}
            listed = set(oracle_corners(p, shape))
            enumerated = {corner.position: corner for corner in enumerate_corners(p, shape)}
            assert set(enumerated) == listed
            for x in range(-1, c.width + 1):
                for y in range(-1, c.height + 1):
                    for rotated in (False,) if shape.is_square else (False, True):
                        ew, eh = dims[rotated]
                        box = (x, y, x + ew, y + eh)
                        if (x, y, rotated) in listed:
                            corner = enumerated[x, y, rotated]
                            lefts = [j for j, b in boxes.items() if box_touches(b, box, True)]
                            bottoms = [j for j, b in boxes.items() if box_touches(b, box, False)]
                            assert corner.left_support == min(lefts, default=LEFT_BORDER)
                            assert corner.bottom_support == min(bottoms, default=BOTTOM_BORDER)
                            apply_action(p, CornerAction(i, corner))
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


def scaled(p: Packing, k: int) -> Packing:
    """``p`` with every side and coordinate multiplied by ``k``."""
    c = p.instance.container
    rects = tuple(RectDims(r.width * k, r.height * k) for r in p.instance.rects)
    return Packing(
        Instance(Container(c.width * k, c.height * k), rects),
        tuple(pl and Placement(pl.x * k, pl.y * k, pl.rotated) for pl in p.placements),
    )


def point_grid(boxes: list, c: Container) -> tuple:
    """The grid of ``boxes``, found point by point: ``xs`` and ``ys`` are
    the sorted distinct box edges with 0 and the container's sides, and bit
    j of ``rows[k]`` is set exactly when the point (xs[j], ys[k]) lies in
    some half-open box. It never lists unit cells, so it holds at any scale."""
    xs = sorted({0, c.width, *(b[0] for b in boxes), *(b[2] for b in boxes)})
    ys = sorted({0, c.height, *(b[1] for b in boxes), *(b[3] for b in boxes)})
    inside = [[any(x1 <= x < x2 and y1 <= y < y2 for x1, y1, x2, y2 in boxes) for x in xs] for y in ys[:-1]]
    return xs, ys, [sum(1 << j for j, hit in enumerate(row) if hit) for row in inside]


def test_board_place_and_unplace_are_inverses_and_match_enumeration():
    # Place a random partial packing's rectangles one by one in random
    # order on a plain board, then take them off in reverse. At every step
    # the board's boxes are those of the equivalent Packing and its path
    # the indices placed so far, it keeps one node record per placed box
    # and one for the root, none of them expanded, the top record's grid,
    # grown one box at a time, is the grid of those boxes found point by
    # point (point_grid: same edges, same rows; a full board keeps none),
    # the corners that grid gives a random shape, with the orientation read
    # off each box, are enumerate_corners' and the brute-force oracle's, in
    # the same order, and each unplace restores boxes, path and records.
    # The board keeps the order it is given, and prev[i] names the previous
    # index of rectangle i's shape up to rotation. Scaled by 10**5 the grid
    # stays as small (the oracle, which scans every integral position, is
    # left out there).
    rng = random.Random(9091)
    for k in (1, 10**5):
        for _ in range(300):
            p = scaled(random_partial_packing(rng), k)
            c = p.instance.container
            rects = p.instance.rects
            given = rng.sample(range(p.instance.n), p.instance.n)
            board = _Board(p.instance, given, None)
            assert board.order == given
            for i, j in enumerate(board.prev):
                same = [h for h in range(i) if rects[h].canonical() == rects[i].canonical()]
                assert j == max(same, default=None)
            order = p.placed_indices()
            rng.shuffle(order)
            current = Packing.empty(p.instance)
            saved = []
            for step in range(len(order) + 1):
                assert board.boxes == [current.boxes().get(i) for i in range(p.instance.n)]
                assert board.path == order[:step]
                grid = board.nodes[-1][0]
                placed = [b for b in board.boxes if b is not None]
                assert [node[1] for node in board.nodes] == [None] * (step + 1)
                assert grid == point_grid(placed, c)
                assert len(grid[0]) <= 2 * len(placed) + 2
                small = random_shape(rng, 4, 4)
                shape = RectDims(small.width * k, small.height * k)
                scanned = _positions(grid, c, _orientations(shape))
                on_board = [(b[0], b[1], b[2] - b[0] != shape.width) for b in scanned]
                assert on_board == [corner.position for corner in enumerate_corners(current, shape)]
                if k == 1:
                    assert on_board == oracle_corners(current, shape)
                if step == len(order):
                    break
                i = order[step]
                nodes = [list(node) for node in board.nodes]
                saved.append((list(board.boxes), list(board.path), nodes))
                board.place(i, p.placed_rect(i).box, None)
                current = current.with_placement(i, p.placements[i])
            for _ in order:
                board.unplace()
                boxes, path, nodes = saved.pop()
                assert (board.boxes, board.path, board.nodes) == (boxes, path, nodes)
                placed = [b for b in boxes if b is not None]
                assert nodes[-1][0] == point_grid(placed, c)
            assert not any(board.boxes) and board.path == [] and len(board.nodes) == 1
            assert board.order == given


def dead_cells(boxes: list, c: Container) -> set:
    """Free unit cells with a covered cell above them in their column or
    right of them in their row, found cell by cell."""
    covered = covered_cells(boxes)
    # The highest covered cell of each column and the rightmost of each row.
    tops = [max((y for y in range(c.height) if (x, y) in covered), default=-1) for x in range(c.width)]
    ends = [max((x for x in range(c.width) if (x, y) in covered), default=-1) for y in range(c.height)]
    return {
        (x, y)
        for x in range(c.width)
        for y in range(c.height)
        if (x, y) not in covered and (y < tops[x] or x < ends[y])
    }


def covered_cells(boxes: list) -> set:
    return {(x, y) for x1, y1, x2, y2 in boxes for x in range(x1, x2) for y in range(y1, y2)}


def hole_moves(board: _Board, instance: Instance) -> list:
    """The zero-slack moves out of the board's node, found cell by cell:
    each class's next member, in the board's order, in each orientation
    that fits with its bottom-left at the lowest, then leftmost, free unit
    cell, unrotated first; none when every cell is covered."""
    c, rects, boxes = instance.container, instance.rects, board.boxes
    covered = covered_cells([b for b in boxes if b is not None])
    free = [(x, y) for y in range(c.height) for x in range(c.width) if (x, y) not in covered]
    out = []
    if not free:
        return out
    for i in board.order:
        shape = rects[i].canonical()
        if boxes[i] is not None or any(
            boxes[h] is None and rects[h].canonical() == shape for h in range(i)
        ):
            continue  # placed, or not its class's next member
        (x, y), w, h = free[0], rects[i].width, rects[i].height
        for ew, eh in dict.fromkeys([(w, h), (h, w)]):
            cells = {(x + a, y + b) for a in range(ew) for b in range(eh)}
            if x + ew <= c.width and y + eh <= c.height and not cells & covered:
                out.append((i, (x, y, x + ew, y + eh), None))
    return out


def column_steps(cells: set, c: Container) -> tuple:
    """The heights of the columns of ``cells``, each counted cell by cell,
    as a staircase ``(xs, hs)``: one step per run of equal heights."""
    xs, hs = [], []
    for x in range(c.width):
        height = sum((x, y) in cells for y in range(c.height))
        if not hs or height != hs[-1]:
            xs.append(x)
            hs.append(height)
    return [*xs, c.width], hs


def test_board_descend_walks_the_whole_tree_depth_first():
    # Drive descend alone until the root is exhausted, on small instances
    # in both modes. Each call enters the next move of the deepest node
    # with moves left, as listed by moves() when that node was entered;
    # after it the board's path, boxes and node records agree (every node
    # but the new one expanded; its budget the one its move carried; in
    # plain mode its grid the placed boxes', None when full; in enhanced
    # mode its staircase the columns of the placed and dead cells, whose
    # dead area stays within the slack, and its budget the slack less the
    # dead cells, counted cell by cell; None in plain mode), and it returns
    # False exactly when no node has moves left, with the board back at the
    # empty root. At zero slack the state is a skyline of column heights,
    # each column's covered cells, counted cell by cell, running from 0 up
    # to its height, with no budget, and every node's moves are those found
    # cell by cell at the lowest, then leftmost, free cell (hole_moves).
    rng = random.Random(6061)
    entered = holes = 0
    for _ in range(60):
        c = Container(rng.randint(1, 5), rng.randint(1, 5))
        rects = guillotine_layout(c, rng.randint(1, min(6, c.area)), rng).instance.rects
        instance = Instance(c, rects[: rng.randint(1, len(rects))])  # zero slack or not
        for slack in (None, c.area - instance.total_rect_area):
            board = _Board(instance, rng.sample(range(instance.n), instance.n), slack)
            assert board.nodes[0][2] == (None if slack == 0 else slack)
            pending = []  # per node on the path, its moves not yet entered
            while True:
                pending.append(list(board.moves()))
                if slack == 0:
                    assert pending[-1] == hole_moves(board, instance)
                    holes += 1
                while pending and not pending[-1]:
                    pending.pop()
                if not board.descend():
                    break
                i, box, budget = pending[-1].pop(0)
                entered += 1
                assert board.path[-1] == i and len(board.path) == len(pending)
                assert board.nodes[-1][2] == budget
                placed = {j: board.boxes[j] for j in board.path}
                assert placed[i] == box and sum(b is not None for b in board.boxes) == len(placed)
                assert [node[1] is None for node in board.nodes] == [False] * len(pending) + [True]
                boxes = list(placed.values())
                if slack is None:
                    assert board.nodes[-1][0] == point_grid(boxes, c)
                    assert board.nodes[-1][2] is None
                elif slack == 0:
                    xs, hs = board.nodes[-1][0]
                    assert xs[0] == 0 and xs[-1] == c.width and len(xs) == len(hs) + 1
                    assert all(a < b for a, b in zip(xs, xs[1:]))
                    covered = covered_cells(boxes)
                    for x in range(c.width):
                        h = hs[bisect_right(xs, x) - 1]
                        assert {y for y in range(c.height) if (x, y) in covered} == set(range(h))
                    assert board.nodes[-1][2] is None
                else:
                    dead = dead_cells(boxes, c)
                    assert len(dead) <= slack
                    assert board.nodes[-1][0] == column_steps(covered_cells(boxes) | dead, c)
                    assert board.nodes[-1][2] == slack - len(dead)
            assert pending == [] and board.path == [] and not any(board.boxes)
            assert len(board.nodes) == 1
    assert entered > 1_000 and holes > 500


def test_staircase_corners_are_the_undominated_scan_corners_within_the_budget():
    # Walk random enhanced boards, rotations included, placing rectangle
    # len(path) on a random kept corner and now and then taking the last
    # box off again. At every step, for a random budget, the staircase's
    # corners of the next rectangle are the plain scan's corners of the
    # placed boxes that no placed box is over or right of
    # (solver._dominated, the reference definition) and whose kill, the
    # dead cells the box adds counted cell by cell, is within the budget,
    # each paired with the budget less its kill. A box is kept at a budget
    # of exactly its kill, with 0 left, and dropped one below, so the kill
    # is that count. The board's moves use its slack less the dead cells of
    # its boxes as the budget and carry that budget less each box's kill,
    # and the walk places each box with that budget less its kill. A board
    # with zero slack keeps a skyline with no dead cells, which is not a
    # staircase: its moves for the next rectangle are those found cell by
    # cell at the lowest, then leftmost, free cell (hole_moves), and the
    # walk places one of them.
    rng = random.Random(5150)
    kept = dominated = over = killed = turned = backed = holes = 0
    for _ in range(300):
        c = Container(rng.randint(1, 9), rng.randint(1, 9))
        instance = Instance(c, tuple(random_shape(rng, 4, 4) for _ in range(rng.randint(1, 12))))
        slack = rng.randint(0, 8)
        board = _Board(instance, list(range(instance.n)), slack)
        while len(board.path) < instance.n:
            i = len(board.path)
            if slack == 0:
                children = [move for move in hole_moves(board, instance) if move[0] == i]
                assert [move for move in board.moves() if move[0] == i] == children
                holes += len(children)
                if board.path and rng.random() < 0.2:
                    board.unplace()
                elif children:
                    board.place(*rng.choice(children))
                else:
                    break
                continue
            shape = instance.rects[i]
            stair = board.nodes[-1][0]
            placed = [b for b in board.boxes if b is not None]
            dead = len(dead_cells(placed, c))
            scanned = _positions(reduce(_grow, placed, _empty_grid(c)), c, _orientations(shape))
            kills = {
                box: len(dead_cells([*placed, box], c)) - dead
                for box in scanned
                if not _dominated(board.boxes, box)
            }
            budget = rng.choice([0, 0, rng.randint(1, 8)])
            children = [(box, budget - kill) for box, kill in kills.items() if kill <= budget]
            assert board._stair_corners(stair, _orientations(shape), budget) == children
            left = slack - dead
            assert [move for move in board.moves() if move[0] == i] == [
                (i, box, left - kill) for box, kill in kills.items() if kill <= left
            ]
            for box, kill in kills.items():
                assert (box, 0) in board._stair_corners(stair, _orientations(shape), kill)
                below = board._stair_corners(stair, _orientations(shape), kill - 1)
                assert box not in [b for b, _ in below]
            kept += len(children)
            dominated += len(scanned) - len(kills)
            over += len(kills) - len(children)
            killed += sum(kill > 0 for kill in kills.values())
            turned += sum(box[2] - box[0] != shape.width for box, _ in children)
            if board.path and rng.random() < 0.2:
                board.unplace()
                backed += 1
            elif children:
                box, _ = rng.choice(children)
                board.place(i, box, left - kills[box])
            else:
                break
    assert min(kept, dominated, over, killed, turned, backed, holes) > 0


def test_staircase_is_the_closed_set_of_placed_and_dead_cells():
    # Walk random instances by the enhanced board's own moves, now and then
    # backing out. The placed and dead cells, counted cell by cell from the
    # boxes, stay closed downward and leftward, so they form a staircase,
    # and every node record holds exactly that staircase, its heights
    # strictly falling, and as its budget the slack less the dead cells;
    # each unplace restores the boxes, path, records and the contact
    # indices by right and top edge.
    rng = random.Random(2718)
    states = 0
    for _ in range(300):
        c = Container(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            rects = guillotine_layout(c, rng.randint(1, min(10, c.area)), rng).instance.rects
        else:
            rects = tuple(random_shape(rng, 4, 4) for _ in range(rng.randint(1, 10)))
        instance = Instance(c, rects)
        board = _Board(instance, rng.sample(range(instance.n), instance.n), c.area)
        saved = []
        for _ in range(3 * instance.n):
            boxes = [b for b in board.boxes if b is not None]
            dead = dead_cells(boxes, c)
            cells = covered_cells(boxes) | dead
            assert all((x == 0 or (x - 1, y) in cells) and (y == 0 or (x, y - 1) in cells) for x, y in cells)
            assert board.nodes[-1][2] == c.area - len(dead)
            xs, hs = board.nodes[-1][0]
            assert (xs, hs) == column_steps(cells, c)
            assert all(a > b for a, b in zip(hs, hs[1:]))
            states += 1
            moves = list(board.moves())
            if saved and (not moves or rng.random() < 0.25):
                board.unplace()
                assert snapshot(board) == saved.pop()
            elif moves:
                saved.append(snapshot(board))
                board.place(*rng.choice(moves))
    assert states > 3_000


def snapshot(board: _Board) -> tuple:
    """Copies of the board's boxes, path, node records and contact indices."""
    index = [{edge: list(v) for edge, v in side.items() if v} for side in (board.rights, board.tops)]
    return list(board.boxes), list(board.path), [list(node) for node in board.nodes], index


def test_corner_cost_does_not_grow_with_the_container():
    # The grid has one cell per pair of distinct box edges, so scaling every
    # coordinate by 10**5 scales the corners and nothing else, and a
    # container of about 10**6 per side is answered as fast as a small one.
    rng = random.Random(404)
    k = 10**5
    for _ in range(50):
        p = random_partial_packing(rng, max_side=10)
        c = p.instance.container
        big = scaled(p, k)
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


def _subtree_size(board, instance=None):
    """The nodes under and including the board's current node; given the
    ``instance``, each node's moves must be those of hole_moves."""
    size = 1
    moves = list(board.moves())
    if instance is not None:
        assert moves == hole_moves(board, instance)
    for i, box, budget in moves:
        board.place(i, box, budget)
        size += _subtree_size(board, instance)
        board.unplace()
    return size


def test_mirrored_root_boxes_in_a_square_container_have_subtrees_of_one_size():
    # In a W x W container the corner rule and the dead-cell rule are both
    # symmetric under (x, y) -> (y, x), so the subtree under a non-square
    # class-first box at the origin mirrors the one under it rotated. At
    # zero slack the board branches on the lowest, then leftmost, free
    # cell, which the transposition does not keep, so there every node's
    # moves in the whole tree are checked cell by cell instead.
    rng = random.Random(11)
    pairs = holes = 0
    for _ in range(300):
        w = rng.randint(3, 6)
        rects = tuple(RectDims(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(2, 5)))
        instance = Instance(Container(w, w), rects)
        if quick_reject(instance) is not None:
            continue
        for slack in (None, w * w - instance.total_rect_area):
            board = _Board(instance, list(range(instance.n)), slack)
            if slack == 0:
                holes += _subtree_size(board, instance)
                continue
            sizes = {}
            for i, box, budget in list(board.moves()):
                assert box[:2] == (0, 0)
                if not rects[i].is_square:
                    board.place(i, box, budget)
                    sizes.setdefault(i, []).append(_subtree_size(board))
                    board.unplace()
            for i, (unrotated, rotated) in sizes.items():
                assert unrotated == rotated, (instance, slack, i)
                pairs += 1
    assert pairs == 595 and holes == 111
