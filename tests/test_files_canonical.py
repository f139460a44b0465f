"""Pinned document bytes and parse error messages.

Emission must give exactly ``json.dumps(doc, indent=2)`` and a newline of
the documented dicts, and every malformed entry must be reported with the
same message, in the same check order, wherever it sits in its list.
"""

import json
import random

import pytest

from cornerpack import (
    Container,
    FileFormatError,
    Instance,
    Packing,
    Placement,
    RectDims,
    emit_instance,
    emit_solution,
    parse_instance,
    parse_solution,
)

from conftest import random_complete_packing


def instance_dict(instance):
    return {
        "container": {"width": instance.container.width, "height": instance.container.height},
        "rectangles": [{"width": r.width, "height": r.height} for r in instance.rects],
    }


def solution_dict(packing):
    if packing is None:
        return {"feasible": False}
    return {
        "feasible": True,
        "placements": [
            {"index": i + 1, "x": pl.x, "y": pl.y, "rotated": pl.rotated}
            for i, pl in enumerate(packing.placements)
            if pl is not None
        ],
    }


def canonical(doc):
    return json.dumps(doc, indent=2) + "\n"


def random_packing(rng, keep, big):
    """Random sides and coordinates, not necessarily feasible; each
    rectangle is placed with probability ``keep``."""
    rects = tuple(RectDims(rng.randint(1, big), rng.randint(1, 9)) for _ in range(rng.randint(0, 9)))
    placements = tuple(
        Placement(rng.randint(0, big), rng.randint(0, big), rng.random() < 0.5)
        if rng.random() < keep
        else None
        for _ in rects
    )
    return Packing(Instance(Container(rng.randint(1, big), rng.randint(1, big)), rects), placements)


def pinned(packing):
    assert emit_instance(packing.instance) == canonical(instance_dict(packing.instance))
    assert emit_solution(packing) == canonical(solution_dict(packing))


def test_emitted_documents_are_json_dumps_with_a_two_space_indent():
    rng = random.Random(77)
    for _ in range(100):
        pinned(random_complete_packing(rng))
    for keep in (1.0, 0.5, 0.0):
        for big in (9, 2**64 + 1, 2**70):
            for _ in range(50):
                pinned(random_packing(rng, keep, big))


def test_emitted_edge_documents():
    assert emit_solution(None) == canonical({"feasible": False}) == '{\n  "feasible": false\n}\n'
    empty = Instance(Container(2, 3), ())
    assert emit_instance(empty) == canonical(instance_dict(empty))
    assert '"rectangles": []' in emit_instance(empty)
    unplaced = Packing(Instance(Container(2, 3), (RectDims(1, 1),)), (None,))
    assert emit_solution(unplaced) == canonical(solution_dict(unplaced))
    assert '"placements": []' in emit_solution(unplaced)
    huge = 2**64 + 7
    p = Packing(
        Instance(Container(huge, huge), (RectDims(huge, 1), RectDims(1, 2))),
        (Placement(huge - 1, 2**65, True), Placement(0, huge, False)),
    )
    pinned(p)
    assert parse_solution(emit_solution(p), parse_instance(emit_instance(p.instance))) == p


RECTS = [{"width": 3, "height": 1}, {"width": 2, "height": 2}, {"width": 1, "height": 4}]
SOLUTION_INSTANCE = Instance(Container(9, 9), tuple(RectDims(r["width"], r["height"]) for r in RECTS))
PLACEMENTS = [
    {"index": 3, "x": 0, "y": 0, "rotated": False},
    {"index": 1, "x": 1, "y": 0, "rotated": True},
    {"index": 2, "x": 4, "y": 0, "rotated": False},
]


def replaced(entry, **fields):
    return {**entry, **fields}


def without(entry, key):
    return {k: v for k, v in entry.items() if k != key}


# (fault, entry -> malformed entry, the message after the entry's path)
RECTANGLE_FAULTS = [
    ("not an object", lambda e: [e["width"], e["height"]], ": expected an object"),
    ("null entry", lambda e: None, ": expected an object"),
    ("unknown field", lambda e: replaced(e, color=1), ": unknown field 'color'"),
    ("missing field", lambda e: without(e, "height"), ": missing field 'height'"),
    ("unknown before missing", lambda e: {"width": 1, "depth": 1}, ": unknown field 'depth'"),
    ("width type", lambda e: replaced(e, width="2"), ".width: expected an integer"),
    ("height type", lambda e: replaced(e, height=2.0), ".height: expected an integer"),
    ("bool width", lambda e: replaced(e, width=True), ".width: expected an integer"),
    ("width minimum", lambda e: replaced(e, width=0), ".width: must be at least 1, got 0"),
    ("height minimum", lambda e: replaced(e, height=-3), ".height: must be at least 1, got -3"),
    ("width before height", lambda e: replaced(e, width=0, height=None), ".width: must be at least 1, got 0"),
]

PLACEMENT_FAULTS = [
    ("not an object", lambda e: 5, ": expected an object"),
    ("unknown field", lambda e: replaced(e, z=0), ": unknown field 'z'"),
    ("missing field", lambda e: without(e, "rotated"), ": missing field 'rotated'"),
    ("missing index", lambda e: without(e, "index"), ": missing field 'index'"),
    ("index type", lambda e: replaced(e, index="1"), ".index: expected an integer"),
    ("bool index", lambda e: replaced(e, index=True), ".index: expected an integer"),
    ("index minimum", lambda e: replaced(e, index=0), ".index: must be at least 1, got 0"),
    ("index past n", lambda e: replaced(e, index=4), ".index: instance has 3 rectangles, got index 4"),
    ("x type", lambda e: replaced(e, x=1.5), ".x: expected an integer"),
    ("bool x", lambda e: replaced(e, x=False), ".x: expected an integer"),
    ("x minimum", lambda e: replaced(e, x=-1), ".x: must be at least 0, got -1"),
    ("y type", lambda e: replaced(e, y=None), ".y: expected an integer"),
    ("bool y", lambda e: replaced(e, y=True), ".y: expected an integer"),
    ("y minimum", lambda e: replaced(e, y=-2), ".y: must be at least 0, got -2"),
    ("rotated type", lambda e: replaced(e, rotated=1), ".rotated: expected true or false"),
    ("rotated string", lambda e: replaced(e, rotated="true"), ".rotated: expected true or false"),
    ("index before x", lambda e: replaced(e, index=9, x="a"), ".index: instance has 3 rectangles, got index 9"),
    ("x before y", lambda e: replaced(e, x=-1, y=-1), ".x: must be at least 0, got -1"),
    ("y before rotated", lambda e: replaced(e, y="0", rotated=0), ".y: expected an integer"),
]

POSITIONS = (0, 1, 2)  # the first, a middle and the last entry


def instance_text(rects):
    return json.dumps({"container": {"width": 9, "height": 9}, "rectangles": rects})


def solution_text(placements):
    return json.dumps({"feasible": True, "placements": placements})


def error(parse, *args):
    with pytest.raises(FileFormatError) as info:
        parse(*args)
    return str(info.value)


def test_well_formed_tables_parse():
    assert parse_instance(instance_text(RECTS)) == SOLUTION_INSTANCE
    packing = parse_solution(solution_text(PLACEMENTS), SOLUTION_INSTANCE)
    assert packing.placements == (Placement(1, 0, True), Placement(4, 0, False), Placement(0, 0, False))


@pytest.mark.parametrize("fault, spoil, message", RECTANGLE_FAULTS, ids=[f[0] for f in RECTANGLE_FAULTS])
def test_rectangle_entry_errors_name_the_entry(fault, spoil, message):
    for k in POSITIONS:
        rects = [dict(r) for r in RECTS]
        rects[k] = spoil(rects[k])
        assert error(parse_instance, instance_text(rects)) == f"rectangles[{k}]{message}"


@pytest.mark.parametrize("fault, spoil, message", PLACEMENT_FAULTS, ids=[f[0] for f in PLACEMENT_FAULTS])
def test_placement_entry_errors_name_the_entry(fault, spoil, message):
    for k in POSITIONS:
        placements = [dict(p) for p in PLACEMENTS]
        placements[k] = spoil(placements[k])
        got = error(parse_solution, solution_text(placements), SOLUTION_INSTANCE)
        assert got == f"placements[{k}]{message}"


def test_duplicate_index_is_reported_at_the_later_entry():
    cases = [
        # (position to spoil, the index it copies, the message)
        (0, 1, "placements[1].index: duplicate index 1"),
        (1, 3, "placements[1].index: duplicate index 3"),
        (2, 1, "placements[2].index: duplicate index 1"),
    ]
    for k, index, message in cases:
        placements = [dict(p) for p in PLACEMENTS]
        placements[k]["index"] = index
        assert error(parse_solution, solution_text(placements), SOLUTION_INSTANCE) == message


def test_the_first_faulty_entry_is_reported():
    rects = [dict(r) for r in RECTS]
    rects[1]["height"] = 0
    rects[2]["width"] = "x"
    assert error(parse_instance, instance_text(rects)) == "rectangles[1].height: must be at least 1, got 0"
    placements = [dict(p) for p in PLACEMENTS]
    placements[1]["rotated"] = None
    placements[2] = 0
    assert (
        error(parse_solution, solution_text(placements), SOLUTION_INSTANCE)
        == "placements[1].rotated: expected true or false"
    )
