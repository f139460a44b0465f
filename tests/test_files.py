import json
import random

import pytest

from cornerpack import (
    Container,
    FileFormatError,
    Instance,
    Placement,
    RectDims,
    emit_instance,
    emit_solution,
    parse_instance,
    parse_solution,
)

from conftest import make_packing, random_complete_packing

INSTANCE_TEXT = """\
{
  "container": {
    "width": 4,
    "height": 3
  },
  "rectangles": [
    {
      "width": 2,
      "height": 1
    }
  ]
}
"""


def test_parse_instance_happy_path():
    instance = parse_instance(INSTANCE_TEXT)
    assert instance.container == Container(4, 3)
    assert instance.rects == (RectDims(2, 1),)


def test_instance_round_trip_is_byte_identical():
    instance = parse_instance(INSTANCE_TEXT)
    assert emit_instance(instance) == INSTANCE_TEXT
    rich = Instance(Container(9, 7), (RectDims(1, 1), RectDims(3, 2)))
    assert parse_instance(emit_instance(rich)) == rich


def test_parse_instance_rejects_malformed_json():
    with pytest.raises(FileFormatError, match="invalid JSON"):
        parse_instance("{not json")


def test_deeply_nested_json_is_a_format_error():
    # The JSON decoder recurses once per nesting level; hitting the
    # recursion limit there is malformed input like any other.
    instance = parse_instance(INSTANCE_TEXT)
    for text in ("[" * 100_000, '{"a": ' * 100_000):
        with pytest.raises(FileFormatError, match="invalid JSON"):
            parse_instance(text)
        with pytest.raises(FileFormatError, match="invalid JSON"):
            parse_solution(text, instance)


# One digit past the interpreter's default limit on int-from-string conversion.
HUGE_INT = "1" + "0" * 4_300


def test_integer_literal_past_the_digit_limit_is_a_format_error():
    # json.loads raises a plain ValueError here, not a JSONDecodeError.
    instance = parse_instance(INSTANCE_TEXT)
    with pytest.raises(FileFormatError, match="invalid JSON"):
        parse_instance(INSTANCE_TEXT.replace('"width": 4', f'"width": {HUGE_INT}'))
    solution = emit_solution(make_packing(4, 3, (2, 1, 0, 0)))
    assert '"x": 0' in solution
    with pytest.raises(FileFormatError, match="invalid JSON"):
        parse_solution(solution.replace('"x": 0', f'"x": {HUGE_INT}'), instance)


def test_parse_instance_names_offending_fields():
    with pytest.raises(FileFormatError, match="container.width"):
        parse_instance('{"container": {"width": 0, "height": 3}, "rectangles": []}')
    with pytest.raises(FileFormatError, match=r"rectangles\[1\].height"):
        parse_instance(
            '{"container": {"width": 4, "height": 3},'
            ' "rectangles": [{"width": 1, "height": 1}, {"width": 1, "height": "2"}]}'
        )
    with pytest.raises(FileFormatError, match="'color'"):
        parse_instance('{"container": {"width": 4, "height": 3, "color": 1}, "rectangles": []}')
    with pytest.raises(FileFormatError, match="missing field 'height'"):
        parse_instance('{"container": {"width": 4}, "rectangles": []}')


def test_parse_instance_rejects_non_object_shapes():
    with pytest.raises(FileFormatError, match="document"):
        parse_instance("[1, 2]")
    with pytest.raises(FileFormatError, match="rectangles: expected an array"):
        parse_instance('{"container": {"width": 4, "height": 3}, "rectangles": {}}')
    instance = parse_instance(INSTANCE_TEXT)
    for text in ("[]", "1"):
        with pytest.raises(FileFormatError, match="document: expected an object"):
            parse_solution(text, instance)
    with pytest.raises(FileFormatError, match="placements: expected an array"):
        parse_solution('{"feasible": true, "placements": {}}', instance)


def test_booleans_are_not_integers():
    with pytest.raises(FileFormatError, match="expected an integer"):
        parse_instance('{"container": {"width": true, "height": 3}, "rectangles": []}')


def test_parse_solution_infeasible_document():
    instance = parse_instance(INSTANCE_TEXT)
    assert parse_solution('{"feasible": false}\n', instance) is None
    with pytest.raises(FileFormatError, match="must be omitted"):
        parse_solution('{"feasible": false, "placements": []}', instance)


def test_parse_solution_requires_placements_when_feasible():
    instance = parse_instance(INSTANCE_TEXT)
    with pytest.raises(FileFormatError, match="placements"):
        parse_solution('{"feasible": true}', instance)
    with pytest.raises(FileFormatError, match="feasible: expected true or false"):
        parse_solution('{"feasible": 1, "placements": []}', instance)


def test_parse_solution_happy_path_and_partial():
    instance = Instance(Container(4, 3), (RectDims(2, 1), RectDims(1, 1)))
    text = (
        '{"feasible": true, "placements":'
        ' [{"index": 2, "x": 3, "y": 0, "rotated": false}]}'
    )
    packing = parse_solution(text, instance)
    assert packing.placements == (None, Placement(3, 0, False))
    assert not packing.is_complete


def test_parse_solution_index_validation():
    instance = Instance(Container(4, 3), (RectDims(2, 1), RectDims(1, 1)))
    entry = '{"index": %s, "x": 0, "y": 0, "rotated": false}'
    with pytest.raises(FileFormatError, match="instance has 2 rectangles"):
        parse_solution('{"feasible": true, "placements": [%s]}' % (entry % 3), instance)
    with pytest.raises(FileFormatError, match="at least 1"):
        parse_solution('{"feasible": true, "placements": [%s]}' % (entry % 0), instance)
    doubled = "%s, %s" % (entry % 1, entry % 1)
    with pytest.raises(FileFormatError, match="duplicate index 1"):
        parse_solution('{"feasible": true, "placements": [%s]}' % doubled, instance)


def test_parse_solution_rejects_unknown_placement_fields():
    instance = parse_instance(INSTANCE_TEXT)
    text = '{"feasible": true, "placements": [{"index": 1, "x": 0, "y": 0, "rotated": false, "z": 0}]}'
    with pytest.raises(FileFormatError, match="'z'"):
        parse_solution(text, instance)


def test_emit_solution_is_canonical():
    instance = Instance(Container(4, 3), (RectDims(2, 1), RectDims(1, 1)))
    packing = make_packing(4, 3, (2, 1, 0, 0), (1, 1, 2, 0))
    text = emit_solution(packing)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["feasible"] is True
    assert [p["index"] for p in doc["placements"]] == [1, 2]
    assert emit_solution(None) == '{\n  "feasible": false\n}\n'
    # Round trip through parse keeps the exact bytes.
    assert emit_solution(parse_solution(text, instance)) == text


def test_random_packings_round_trip():
    rng = random.Random(321)
    for _ in range(200):
        packing = random_complete_packing(rng)
        instance = parse_instance(emit_instance(packing.instance))
        assert instance == packing.instance
        again = parse_solution(emit_solution(packing), instance)
        assert again.placements == packing.placements
