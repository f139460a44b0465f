"""Acceptance gate: eight numbered end-to-end criteria.

Each test prints one ``criterion N: PASS/FAIL`` line outside pytest's
capture so a full run leaves a readable scoreboard, then asserts. The
criteria pin the load-bearing promises of the package: solver
completeness against the brute-force oracle, the compaction and
escape-chain guarantees, corner-order round-trips, the corner oracle,
the fixed 3D no-escaper configuration, that pruning never changes a
verdict and never enlarges the search tree, and the CLI contract.
"""

from __future__ import annotations

import itertools
import json
import random
import time
import xml.etree.ElementTree as ET

import pytest

from cornerpack import (
    POS_X,
    POS_Y,
    POS_Z,
    RIGHT,
    UP,
    Container,
    CornerAction,
    Instance,
    Packing,
    RectDims,
    SolverConfig,
    SolveStatus,
    apply_action,
    blocked_directions3,
    compact,
    emit_instance,
    emit_solution,
    enumerate_corners,
    find_escaper,
    find_escaper3,
    free_directions,
    guillotine_layout,
    is_bottom_left_stable,
    is_feasible,
    is_feasible3,
    is_over,
    is_right_of,
    l_value,
    oracle_corners,
    oracle_feasible,
    parse_instance,
    parse_solution,
    placement_order,
    quick_reject,
    solve,
    table1_packing,
)
from cornerpack.cli import main

from conftest import (
    make_packing,
    random_complete_packing,
    random_loose_packing,
    random_partial_packing,
    random_shape,
)

BOTH_FREE = frozenset({UP, RIGHT})


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print("\n" + line)


@pytest.fixture(scope="module")
def completeness_suite():
    """Shared by criteria 1 and 7: tiny instances solved three ways.

    Criterion 1 checks both modes against the oracle; criterion 7 pins
    that pruning never changes a verdict and never enlarges the search
    tree.

    The exhaustive family {container sides 1..5, up to 4 rectangles with
    sides 1..3} has 17,875 distinct instances counted as multisets of
    (width, height) pairs; 2,000 are sampled plus 500 fully random
    draws. Each entry carries both solver modes and the oracle verdict.
    """
    rng = random.Random(20260814)
    shapes = [(w, h) for w in range(1, 4) for h in range(1, 4)]
    family = [
        (W, H, combo)
        for W in range(1, 6)
        for H in range(1, 6)
        for n in range(5)
        for combo in itertools.combinations_with_replacement(shapes, n)
    ]
    picked = rng.sample(family, 2000)
    for _ in range(500):
        W, H = rng.randint(1, 5), rng.randint(1, 5)
        combo = tuple(
            (rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))
        )
        picked.append((W, H, combo))
    t0 = time.time()
    rows = []
    for W, H, combo in picked:
        instance = Instance(Container(W, H), tuple(RectDims(w, h) for w, h in combo))
        plain = solve(instance, SolverConfig(enhanced_pruning=False))
        enhanced = solve(instance, SolverConfig(enhanced_pruning=True))
        witness = oracle_feasible(instance)
        rows.append((instance, plain, enhanced, witness))
    return rows, time.time() - t0


@pytest.fixture(scope="module")
def thousand_tilings():
    """Shared by criteria 2 and 3: feasible guillotine packings."""
    rng = random.Random(77001)
    return [random_complete_packing(rng) for _ in range(1000)]


def test_criterion_1_solver_agrees_with_oracle(completeness_suite, capsys):
    rows, elapsed = completeness_suite
    bad = []
    for instance, plain, enhanced, witness in rows:
        expected = witness is not None
        for result in (plain, enhanced):
            if result.status is SolveStatus.UNKNOWN:
                bad.append((instance, "unknown without a limit"))
            elif (result.status is SolveStatus.FEASIBLE) != expected:
                bad.append((instance, result.status))
    ok = not bad and elapsed < 300
    announce(
        capsys,
        f"criterion 1: {'PASS' if ok else 'FAIL'} "
        f"({len(rows)} instances, {len(bad)} oracle disagreements, {elapsed:.1f}s)",
    )
    assert ok, f"{len(bad)} disagreements, first: {bad[:1]}, elapsed {elapsed:.1f}s"


def test_criterion_2_corner_order_round_trip(thousand_tilings, capsys):
    t0 = time.time()
    failures = []
    for p in thousand_tilings:
        compacted, _ = compact(p)
        order = placement_order(compacted)
        states = order.replay()
        if states[-1] != compacted:
            failures.append((p.instance, "replay mismatch"))
            continue
        for step, i in enumerate(order.order, start=1):
            if free_directions(i, states[step]) != BOTH_FREE:
                failures.append((p.instance, f"step {step} not free up/right"))
                break
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60
    announce(
        capsys,
        f"criterion 2: {'PASS' if ok else 'FAIL'} "
        f"(1000 packings, {len(failures)} failures, {elapsed:.1f}s)",
    )
    assert ok, f"{len(failures)} failures, first: {failures[:1]}, elapsed {elapsed:.1f}s"


def test_criterion_3_escape_chains(thousand_tilings, capsys):
    failures = []
    for p in thousand_tilings:
        chain = find_escaper(p)
        ys = [p.placed_rect(i).y for i in chain.visited]
        if free_directions(chain.escaper, p) != BOTH_FREE:
            failures.append((p.instance, "escaper not free"))
        elif len(chain) > p.instance.n:
            failures.append((p.instance, "chain too long"))
        elif any(a >= b for a, b in zip(ys, ys[1:])):
            failures.append((p.instance, "chain y not increasing"))
    ok = not failures
    announce(
        capsys,
        f"criterion 3: {'PASS' if ok else 'FAIL'} "
        f"(1000 packings, {len(failures)} failures)",
    )
    assert ok, f"{len(failures)} failures, first: {failures[:1]}"


def test_criterion_4_compaction_properties(capsys):
    rng = random.Random(44044)
    failures = []
    for _ in range(1000):
        p = random_loose_packing(rng)
        q, _ = compact(p)
        again, second = compact(q)
        coords_ok = all(
            q.placed_rect(i).x <= p.placed_rect(i).x
            and q.placed_rect(i).y <= p.placed_rect(i).y
            for i in range(p.instance.n)
        )
        if not is_feasible(q):
            failures.append((p.instance, "infeasible output"))
        elif not is_bottom_left_stable(q):
            failures.append((p.instance, "unstable output"))
        elif again != q or second.steps:
            failures.append((p.instance, "not idempotent"))
        elif l_value(q) > l_value(p) or not coords_ok:
            failures.append((p.instance, "coordinates increased"))
    ok = not failures
    announce(
        capsys,
        f"criterion 4: {'PASS' if ok else 'FAIL'} "
        f"(1000 packings, {len(failures)} failures)",
    )
    assert ok, f"{len(failures)} failures, first: {failures[:1]}"


def test_criterion_5_no_escaper_configuration(capsys):
    t0 = time.time()
    code = main(["check3d"])
    out, _ = capsys.readouterr()
    elapsed = time.time() - t0
    p = table1_packing()
    blocked = [blocked_directions3(i, p) for i in range(4)]
    expected = [
        frozenset({POS_Z}),
        frozenset({POS_Z}),
        frozenset({POS_X}),
        frozenset({POS_X, POS_Y}),
    ]
    ok = (
        code == 0
        and is_feasible3(p)
        and blocked == expected
        and find_escaper3(p) is None
        and "feasible: true" in out
        and "no escaper exists: true" in out
        and elapsed < 1.0
    )
    announce(
        capsys,
        f"criterion 5: {'PASS' if ok else 'FAIL'} "
        f"(exit {code}, blocked sets {'match' if blocked == expected else 'differ'}, {elapsed:.2f}s)",
    )
    assert ok, f"exit={code} blocked={blocked} elapsed={elapsed:.2f}s\n{out}"


def test_criterion_6_corner_enumeration_matches_brute_force(capsys):
    rng = random.Random(66066)
    mismatches = []
    for _ in range(1000):
        p = random_partial_packing(rng)
        shape = random_shape(rng, 4, 4)
        fast = {(c.x, c.y, c.rotated) for c in enumerate_corners(p, shape)}
        brute = set(oracle_corners(p, shape))
        if fast != brute:
            mismatches.append((p.instance, shape, fast ^ brute))
    ok = not mismatches
    announce(
        capsys,
        f"criterion 6: {'PASS' if ok else 'FAIL'} "
        f"(1000 partial packings, {len(mismatches)} mismatches)",
    )
    assert ok, f"{len(mismatches)} mismatches, first: {mismatches[:1]}"


def corner_tree_size(instance: Instance, enhanced: bool) -> int:
    """Nodes in the full corner-action search tree of ``instance``.

    The tree ``solve`` walks when it never stops early: every partial
    packing reached by corner placements counts once, complete ones
    included. As in ``solve``, only the lowest unplaced index of each
    shape (up to rotation) branches, and an enhanced child is dropped
    when a placed rectangle lies over or right of the new one. Children
    are all visited, so the size does not depend on ``rect_order``.
    Instances that ``quick_reject`` refuses have an empty tree.
    """
    if quick_reject(instance) is not None:
        return 0
    shapes = instance.rects

    def size(p: Packing) -> int:
        total = 1
        if p.is_complete:
            return total
        firsts = {}
        for i in p.unplaced_indices():
            firsts.setdefault(shapes[i].canonical(), i)
        for i in firsts.values():
            for corner in enumerate_corners(p, shapes[i]):
                child = apply_action(p, CornerAction(i, corner))
                new = child.placed_rect(i)
                if enhanced and any(
                    j != i and (is_over(other, new) or is_right_of(other, new))
                    for j, other in child.iter_placed()
                ):
                    continue
                total += size(child)
        return total

    return size(Packing.empty(instance))


def reference_solve(instance: Instance, config: SolverConfig):
    """First-solution corner search through the public API only.

    Returns ``(status, nodes, max_depth, packing)`` as ``solve`` should:
    the node limit is checked on entering a node, only the lowest
    unplaced index of each shape branches, candidates come in
    ``rect_order`` (ties by index) and corners in ``enumerate_corners``
    order, and an enhanced child is dropped when a placed rectangle lies
    over or right of the new one.
    """
    if quick_reject(instance) is not None:
        return SolveStatus.INFEASIBLE, 0, 0, None
    shapes = instance.rects
    key = {
        "input": lambda i: i,
        "area": lambda i: (-shapes[i].area, i),
        "perimeter": lambda i: (-shapes[i].perimeter, i),
    }[config.rect_order]
    nodes = max_depth = 0

    class LimitHit(Exception):
        pass

    def search(p: Packing, depth: int) -> Packing | None:
        nonlocal nodes, max_depth
        if config.node_limit is not None and nodes >= config.node_limit:
            raise LimitHit
        nodes += 1
        max_depth = max(max_depth, depth)
        if p.is_complete:
            return p
        firsts = {}
        for i in p.unplaced_indices():
            firsts.setdefault(shapes[i].canonical(), i)
        for i in sorted(firsts.values(), key=key):
            for corner in enumerate_corners(p, shapes[i]):
                child = apply_action(p, CornerAction(i, corner))
                new = child.placed_rect(i)
                if config.enhanced_pruning and any(
                    j != i and (is_over(other, new) or is_right_of(other, new))
                    for j, other in child.iter_placed()
                ):
                    continue
                found = search(child, depth + 1)
                if found is not None:
                    return found
        return None

    try:
        packing = search(Packing.empty(instance), 0)
    except LimitHit:
        return SolveStatus.UNKNOWN, nodes, max_depth, None
    status = SolveStatus.INFEASIBLE if packing is None else SolveStatus.FEASIBLE
    return status, nodes, max_depth, packing


def test_solve_walks_the_reference_search_on_budgeted_tilings():
    # Criterion 7 ties exhausted searches to the public-API tree; this
    # pins the order of the walk too, so first-solution paths and
    # budget cut-offs must match node for node.
    rng = random.Random(7007)
    instances = [
        guillotine_layout(Container(w, h), n, rng).instance
        for w, h, n in [(12, 8, 7), (16, 16, 10)] * 30
    ]
    statuses = set()
    for instance in instances:
        for order in ("input", "area", "perimeter"):
            for enhanced in (True, False):
                config = SolverConfig(enhanced_pruning=enhanced, node_limit=20, rect_order=order)
                result = solve(instance, config)
                got = (
                    result.status,
                    result.stats.nodes_expanded,
                    result.stats.max_depth,
                    result.packing,
                )
                assert got == reference_solve(instance, config), (instance, order, enhanced)
                statuses.add(result.status)
    assert statuses == {SolveStatus.FEASIBLE, SolveStatus.UNKNOWN}


def test_criterion_7_pruning_node_counts(completeness_suite, capsys):
    # Pruning only removes branches, so the enhanced tree is a subset of
    # the plain one: it is never larger and the verdict never changes.
    # First-solution node counts promise less: the plain search may find
    # a packing inside a subtree that pruning removes, so per-instance
    # ``enhanced <= plain`` is false on some feasible instances. Those
    # are counted for the scoreboard, not asserted.
    rows, _ = completeness_suite
    verdict_splits = []
    tree_violations = []
    tie_violations = []
    plain_total = enhanced_total = 0
    costlier_first_solution = 0
    for instance, plain, enhanced, _ in rows:
        if plain.status != enhanced.status:
            verdict_splits.append(instance)
        plain_tree = corner_tree_size(instance, enhanced=False)
        enhanced_tree = corner_tree_size(instance, enhanced=True)
        plain_total += plain_tree
        enhanced_total += enhanced_tree
        if enhanced_tree > plain_tree:
            tree_violations.append((instance, plain_tree, enhanced_tree))
        for mode, result, tree in (
            ("plain", plain, plain_tree),
            ("enhanced", enhanced, enhanced_tree),
        ):
            nodes = result.stats.nodes_expanded
            if nodes > tree or (result.status is SolveStatus.INFEASIBLE and nodes != tree):
                tie_violations.append((instance, mode, result.status, nodes, tree))
        if (
            plain.status is SolveStatus.FEASIBLE
            and enhanced.stats.nodes_expanded > plain.stats.nodes_expanded
        ):
            costlier_first_solution += 1
    ok = not verdict_splits and not tree_violations and not tie_violations
    announce(
        capsys,
        f"criterion 7: {'PASS' if ok else 'FAIL'} "
        f"({len(rows)} instances, {len(verdict_splits)} verdict splits, "
        f"{len(tree_violations)} tree-size violations, "
        f"{len(tie_violations)} node/tree tie violations; "
        f"tree nodes plain {plain_total}, enhanced {enhanced_total}; "
        f"{costlier_first_solution} feasible instances cost more nodes "
        f"to a first solution with pruning)",
    )
    assert ok, (
        f"{len(verdict_splits)} verdict splits, first: {verdict_splits[:1]}; "
        f"{len(tree_violations)} instances where the pruned tree is larger, "
        f"first: {tree_violations[:1]}; "
        f"{len(tie_violations)} solves whose node count does not match the "
        f"tree, first: {tie_violations[:1]}"
    )


def test_criterion_8_cli_contract(tmp_path, capsys):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    feasible = write(
        "feasible.json",
        '{"container": {"width": 4, "height": 4}, "rectangles": '
        '[{"width": 2, "height": 4}, {"width": 2, "height": 4}]}',
    )
    infeasible = write(
        "infeasible.json",
        '{"container": {"width": 3, "height": 3}, "rectangles": '
        '[{"width": 2, "height": 2}, {"width": 2, "height": 2}]}',
    )
    slow = write(
        "slow.json",
        '{"container": {"width": 5, "height": 5}, "rectangles": '
        '[{"width": 2, "height": 2}, {"width": 2, "height": 3}, {"width": 3, "height": 2}]}',
    )
    overlap_packing = make_packing(4, 4, (3, 3, 0, 0), (3, 3, 1, 1))
    overlap_inst = write("overlap_inst.json", emit_instance(overlap_packing.instance))
    overlap_sol = write("overlap_sol.json", emit_solution(overlap_packing))
    stable = make_packing(4, 4, (2, 4, 0, 0), (2, 4, 2, 0))
    stable_inst = write("stable_inst.json", emit_instance(stable.instance))
    stable_sol = write("stable_sol.json", emit_solution(stable))
    marker = write("marker.json", '{"feasible": false}\n')

    golden = [
        (["solve", feasible], 0),
        (["solve", infeasible], 1),
        (["solve", "--node-limit", "1", slow], 2),
        (["solve", str(tmp_path / "absent.json")], 3),
        (["solve", write("syntax.json", "{oops")], 3),
        (["solve", write("unknown.json", '{"container": {"width": 4, "height": 4, "depth": 4}, "rectangles": []}')], 3),
        (["solve", write("boolean.json", '{"container": {"width": true, "height": 4}, "rectangles": []}')], 3),
        (["oracle", feasible], 0),
        (["oracle", infeasible], 1),
        (["oracle", "--max-states", "1", feasible], 2),
        (["oracle", str(tmp_path / "absent.json")], 3),
        (["compact", stable_inst, stable_sol], 0),
        (["compact", overlap_inst, overlap_sol], 3),
        (["decompose", stable_inst, stable_sol], 0),
        (["decompose", stable_inst, marker], 3),
        (["gen", "--container", "6x4", "--count", "3", "--seed", "1"], 0),
        (["gen", "--container", "6by4", "--count", "3"], 3),
        (["gen", "--container", "2x2", "--count", "99"], 3),
        (["render", stable_inst, stable_sol], 0),
        (["check3d"], 0),
    ]
    assert len(golden) == 20
    wrong = []
    svg_ok = True
    for argv, expected in golden:
        code = main(argv)
        out, _ = capsys.readouterr()
        if code != expected:
            wrong.append((argv, expected, code))
        if argv[0] == "render" and code == 0:
            try:
                ET.fromstring(out)
            except ET.ParseError:
                svg_ok = False

    # Solution documents round-trip byte-identically through parse/emit.
    main(["solve", feasible])
    solved, _ = capsys.readouterr()
    instance = parse_instance(open(feasible, encoding="utf-8").read())
    round_trip = emit_solution(parse_solution(solved, instance)) == solved
    marker_trip = emit_solution(parse_solution('{\n  "feasible": false\n}\n', instance)) == '{\n  "feasible": false\n}\n'

    ok = not wrong and svg_ok and round_trip and marker_trip
    announce(
        capsys,
        f"criterion 8: {'PASS' if ok else 'FAIL'} "
        f"(20 golden cases, {len(wrong)} wrong exit codes, "
        f"svg {'well-formed' if svg_ok else 'malformed'}, "
        f"round-trip {'exact' if round_trip and marker_trip else 'broken'})",
    )
    assert ok, f"wrong={wrong} svg_ok={svg_ok} round_trip={round_trip} marker={marker_trip}"
