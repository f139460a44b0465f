"""The consecutive squares and rectangles ladders (Korf, ICAPS 2003).

The N-squares ladder packs the squares 1x1 to NxN; the N-rectangles
ladder packs the rectangles kx(k+1) for k = 1..N, rotation allowed. A
ladder decides the containers W x H with N <= W <= H and W*H at least
the total area, in order of area and then W, up to the first FEASIBLE
one; transposing a container changes no verdict. Most squares rungs
are refutations with slack, which the cumulative dead-area budget
prunes; every rung of the 7- and 8-rectangles ladders has zero slack,
where the search branches only on the lowest, then leftmost, free cell.
The node sums below pin both rules' search trees.
"""

from math import isqrt

import pytest

from cornerpack import Container, Instance, RectDims, SolverConfig, SolveStatus, oracle_feasible, solve


def squares(n):
    return tuple(RectDims(k, k) for k in range(1, n + 1))


def rectangles(n):
    return tuple(RectDims(k, k + 1) for k in range(1, n + 1))


def rungs(rects, n):
    """Each rung's instance in ladder order, without end: the caller stops."""
    size = sum(r.width * r.height for r in rects)
    while True:
        for w in range(n, isqrt(size) + 1):
            if size % w == 0:
                yield Instance(Container(w, size // w), rects)
        size += 1


def climb(rects, n, config=None):
    """Solve each rung up to the first FEASIBLE one: the verdicts and the
    sums of ``nodes_expanded`` and ``max_depth``."""
    verdicts, nodes, depth = [], 0, 0
    for instance in rungs(rects, n):
        result = solve(instance, config)
        c = instance.container
        verdicts.append((c.width, c.height, result.status))
        nodes += result.stats.nodes_expanded
        depth += result.stats.max_depth
        if result.status is not SolveStatus.INFEASIBLE:
            return verdicts, nodes, depth


# N: (rungs, first FEASIBLE container, nodes_expanded sum, max_depth sum)
SQUARES = {
    2: (1, (2, 3), 3, 2),
    3: (1, (3, 5), 4, 3),
    4: (3, (5, 7), 59, 10),
    5: (3, (5, 12), 184, 13),
    6: (5, (9, 11), 4_279, 26),
    7: (11, (7, 22), 84_621, 65),
}
RECTANGLES = {
    2: (1, (2, 4), 3),
    3: (1, (4, 5), 6),
    4: (1, (4, 10), 7),
    5: (1, (5, 14), 8),
    6: (3, (6, 19), 970),
    7: (3, (12, 14), 2_151),
}
PLAIN_SQUARES_NODES = {2: 3, 3: 4, 4: 119, 5: 826, 6: 16_845}


@pytest.mark.parametrize("n", sorted(SQUARES))
def test_squares_ladder(n):
    verdicts, nodes, depth = climb(squares(n), n)
    count, first, want_nodes, want_depth = SQUARES[n]
    assert len(verdicts) == count
    assert verdicts[-1] == (*first, SolveStatus.FEASIBLE)
    assert (nodes, depth) == (want_nodes, want_depth)


@pytest.mark.parametrize("n", sorted(RECTANGLES))
def test_rectangles_ladder(n):
    verdicts, nodes, _ = climb(rectangles(n), n)
    count, first, want_nodes = RECTANGLES[n]
    assert len(verdicts) == count
    assert verdicts[-1] == (*first, SolveStatus.FEASIBLE)
    assert nodes == want_nodes


def test_eight_rectangles_ladder_agrees_with_the_cell_search():
    # Enhanced mode only: plain mode takes 619,584 nodes on this ladder.
    from test_acceptance import cells_feasible  # that module imports this one

    verdicts, nodes, _ = climb(rectangles(8), 8)
    assert [(w, h) for w, h, _ in verdicts] == [(8, 30), (10, 24), (12, 20), (15, 16)]
    assert nodes == 14_362
    for w, h, status in verdicts:
        feasible = cells_feasible(Instance(Container(w, h), rectangles(8)))
        assert (status is SolveStatus.FEASIBLE) == feasible, (w, h)


def test_zero_slack_solve_builds_no_grid(monkeypatch):
    # At zero slack enhanced mode keeps only the skyline: no node grows
    # plain mode's grid, which plain mode grows at every node. Every grid
    # is grown from the empty one, so counting _grow counts them all.
    from cornerpack import corners

    calls = [0]
    grow = corners._grow

    def counted(*args):
        calls[0] += 1
        return grow(*args)

    monkeypatch.setattr(corners, "_grow", counted)
    instance = Instance(Container(15, 16), rectangles(8))
    assert solve(instance).status is SolveStatus.FEASIBLE
    assert calls[0] == 0
    solve(instance, SolverConfig(enhanced_pruning=False, node_limit=1_000))
    assert calls[0] > 0


@pytest.mark.parametrize("n", sorted(PLAIN_SQUARES_NODES))
def test_plain_mode_agrees_on_the_squares_ladder(n):
    enhanced, _, _ = climb(squares(n), n)
    plain, nodes, _ = climb(squares(n), n, SolverConfig(enhanced_pruning=False))
    assert plain == enhanced
    assert nodes == PLAIN_SQUARES_NODES[n]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_agrees_on_the_squares_ladder(n):
    verdicts, _, _ = climb(squares(n), n)
    for w, h, status in verdicts:
        found = oracle_feasible(Instance(Container(w, h), squares(n)))
        assert (found is not None) == (status is SolveStatus.FEASIBLE), (w, h)
