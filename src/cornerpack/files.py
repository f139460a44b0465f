"""Strict JSON file formats for instances and solutions.

Instance files describe a container and rectangle list; solution files
carry a feasibility flag and, when feasible, one placement per rectangle
with 1-based indices. Parsing is strict: unknown fields, wrong types and
out-of-range values are rejected with the offending field named. Each
field is checked once, by plain comparisons, and its path is formatted
only for an error. Emission is canonical (two-space indent, placements sorted
by index, trailing newline) so emit and parse round-trip byte-identically.
It is written as text, the exact bytes of ``json.dumps(doc, indent=2)``
and a newline: every value is an integer or a boolean.
"""

from __future__ import annotations

import json

from .geometry import Container, Instance, Packing, Placement, RectDims


class FileFormatError(ValueError):
    """A document failed strict parsing; the message names the field."""


# Each object's fields, in the order a missing one is named. Each check below
# takes its field's path as a template, filled with ``k``, the entry's array
# index (None outside an array), only to report an error.
_DOCUMENT = dict.fromkeys(("container", "rectangles")).keys()
_SIDES = dict.fromkeys(("width", "height")).keys()
_VERDICT = dict.fromkeys(("feasible",)).keys()
_SOLUTION = dict.fromkeys(("feasible", "placements")).keys()
_PLACEMENT = dict.fromkeys(("index", "x", "y", "rotated")).keys()


def _object(value, keys, path: str, k: int | None) -> dict:
    if type(value) is dict and value.keys() == keys:
        return value
    path = path.format(k)
    if type(value) is not dict:
        raise FileFormatError(f"{path}: expected an object")
    unknown = value.keys() - keys
    if unknown:
        raise FileFormatError(f"{path}: unknown field {min(unknown)!r}")
    missing = next(name for name in keys if name not in value)
    raise FileFormatError(f"{path}: missing field {missing!r}")


def _int(value, minimum: int, path: str, k: int | None) -> int:
    # bool is an int subclass; a bare true/false is still a type error here.
    if type(value) is int and value >= minimum:
        return value
    path = path.format(k)
    if type(value) is not int:
        raise FileFormatError(f"{path}: expected an integer")
    raise FileFormatError(f"{path}: must be at least {minimum}, got {value}")


def _bool(value, path: str, k: int | None) -> bool:
    if type(value) is bool:
        return value
    raise FileFormatError(f"{path.format(k)}: expected true or false")


def _load(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"invalid JSON: {e}") from e
    except RecursionError as e:  # the decoder recurses once per nesting level
        raise FileFormatError("invalid JSON: nested too deeply") from e
    except ValueError as e:  # an integer literal past the interpreter's digit limit
        raise FileFormatError("invalid JSON: integer literal has too many digits") from e


def parse_instance(text: str) -> Instance:
    doc = _object(_load(text), _DOCUMENT, "document", None)
    cont = _object(doc["container"], _SIDES, "container", None)
    width = _int(cont["width"], 1, "container.width", None)
    container = Container(width, _int(cont["height"], 1, "container.height", None))
    if type(doc["rectangles"]) is not list:
        raise FileFormatError("rectangles: expected an array")
    rects = []
    for k, entry in enumerate(doc["rectangles"]):
        obj = _object(entry, _SIDES, "rectangles[{}]", k)
        width = _int(obj["width"], 1, "rectangles[{}].width", k)
        rects.append(RectDims(width, _int(obj["height"], 1, "rectangles[{}].height", k)))
    return Instance(container, tuple(rects))


def _array(entries: list[str]) -> str:
    """A list at the top level of a document, as ``json.dumps(indent=2)`` writes it."""
    return "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"


def emit_instance(instance: Instance) -> str:
    c = instance.container
    rects = [
        f'    {{\n      "width": {r.width},\n      "height": {r.height}\n    }}'
        for r in instance.rects
    ]
    return (
        f'{{\n  "container": {{\n    "width": {c.width},\n    "height": {c.height}\n  }},\n'
        f'  "rectangles": {_array(rects)}\n}}\n'
    )


def parse_solution(text: str, instance: Instance) -> Packing | None:
    """Read a solution file against its instance.

    Returns None for an infeasible document (which must omit placements)
    and a Packing otherwise; the packing may be partial. Geometric
    validity is not checked here - callers decide what to do with an
    overlapping or protruding solution.
    """
    raw = _load(text)
    placed = type(raw) is dict and "placements" in raw
    doc = _object(raw, _SOLUTION if placed else _VERDICT, "document", None)
    if not _bool(doc["feasible"], "feasible", None):
        if placed:
            raise FileFormatError("placements: must be omitted when feasible is false")
        return None
    # Only an infeasible document may leave its placements out.
    entries = _object(doc, _SOLUTION, "document", None)["placements"]
    if type(entries) is not list:
        raise FileFormatError("placements: expected an array")
    n = instance.n
    placements: list[Placement | None] = [None] * n
    for k, entry in enumerate(entries):
        obj = _object(entry, _PLACEMENT, "placements[{}]", k)
        index = _int(obj["index"], 1, "placements[{}].index", k)
        if index > n:
            raise FileFormatError(
                f"placements[{k}].index: instance has {n} rectangles, got index {index}"
            )
        if placements[index - 1] is not None:
            raise FileFormatError(f"placements[{k}].index: duplicate index {index}")
        placements[index - 1] = Placement(
            _int(obj["x"], 0, "placements[{}].x", k),
            _int(obj["y"], 0, "placements[{}].y", k),
            _bool(obj["rotated"], "placements[{}].rotated", k),
        )
    return Packing(instance, placements)


def emit_solution(packing: Packing | None) -> str:
    """Canonical solution document; None means infeasible."""
    if packing is None:
        return '{\n  "feasible": false\n}\n'
    placements = [
        f'    {{\n      "index": {i + 1},\n      "x": {pl.x},\n      "y": {pl.y},\n'
        f'      "rotated": {"true" if pl.rotated else "false"}\n    }}'
        for i, pl in enumerate(packing.placements)
        if pl is not None
    ]
    return f'{{\n  "feasible": true,\n  "placements": {_array(placements)}\n}}\n'
