"""Strict JSON file formats for instances and solutions.

Instance files describe a container and rectangle list; solution files
carry a feasibility flag and, when feasible, one placement per rectangle
with 1-based indices. Parsing is strict: unknown fields, wrong types and
out-of-range values are rejected with the offending field named; each
entry is checked by plain comparisons, and a field path is formatted only
for the error. Emission is canonical (two-space indent, placements sorted
by index, trailing newline) so emit and parse round-trip byte-identically.
It is written as text, the exact bytes of ``json.dumps(doc, indent=2)``
and a newline: every value is an integer or a boolean.
"""

from __future__ import annotations

import json

from .geometry import Container, Instance, Packing, Placement, RectDims


class FileFormatError(ValueError):
    """A document failed strict parsing; the message names the field."""


def _object(value, path: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(value, dict):
        raise FileFormatError(f"{path}: expected an object")
    unknown = set(value) - set(keys)
    if unknown:
        raise FileFormatError(f"{path}: unknown field {sorted(unknown)[0]!r}")
    missing = [k for k in keys if k not in value]
    if missing:
        raise FileFormatError(f"{path}: missing field {missing[0]!r}")
    return value


def _int(value, path: str, minimum: int) -> int:
    # bool is an int subclass; a bare true/false is still a type error here.
    if not isinstance(value, int) or isinstance(value, bool):
        raise FileFormatError(f"{path}: expected an integer")
    if value < minimum:
        raise FileFormatError(f"{path}: must be at least {minimum}, got {value}")
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise FileFormatError(f"{path}: expected true or false")
    return value


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
    doc = _object(_load(text), "document", ("container", "rectangles"))
    cont = _object(doc["container"], "container", ("width", "height"))
    container = Container(
        _int(cont["width"], "container.width", 1),
        _int(cont["height"], "container.height", 1),
    )
    if not isinstance(doc["rectangles"], list):
        raise FileFormatError("rectangles: expected an array")
    rects = []
    for k, entry in enumerate(doc["rectangles"]):
        if type(entry) is dict and len(entry) == 2:
            w, h = entry.get("width"), entry.get("height")
            if type(w) is int and w >= 1 and type(h) is int and h >= 1:
                rects.append(RectDims(w, h))
                continue
        path = f"rectangles[{k}]"
        obj = _object(entry, path, ("width", "height"))
        rects.append(
            RectDims(_int(obj["width"], f"{path}.width", 1), _int(obj["height"], f"{path}.height", 1))
        )
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
    if not isinstance(raw, dict):
        raise FileFormatError("document: expected an object")
    if "placements" in raw:
        doc = _object(raw, "document", ("feasible", "placements"))
    else:
        doc = _object(raw, "document", ("feasible",))
    feasible = _bool(doc["feasible"], "feasible")
    if not feasible:
        if "placements" in doc:
            raise FileFormatError("placements: must be omitted when feasible is false")
        return None
    if "placements" not in doc:
        raise FileFormatError("document: missing field 'placements'")
    if not isinstance(doc["placements"], list):
        raise FileFormatError("placements: expected an array")
    n = instance.n
    placements: list[Placement | None] = [None] * n
    for k, entry in enumerate(doc["placements"]):
        if type(entry) is dict and len(entry) == 4:
            index, x, y, rotated = map(entry.get, ("index", "x", "y", "rotated"))
            fresh = type(index) is int and 1 <= index <= n and placements[index - 1] is None
            if fresh and type(x) is int and x >= 0 and type(y) is int and y >= 0 and type(rotated) is bool:
                placements[index - 1] = Placement(x, y, rotated)
                continue
        path = f"placements[{k}]"
        obj = _object(entry, path, ("index", "x", "y", "rotated"))
        index = _int(obj["index"], f"{path}.index", 1)
        if index > n:
            raise FileFormatError(f"{path}.index: instance has {n} rectangles, got index {index}")
        if placements[index - 1] is not None:
            raise FileFormatError(f"{path}.index: duplicate index {index}")
        placements[index - 1] = Placement(
            _int(obj["x"], f"{path}.x", 0),
            _int(obj["y"], f"{path}.y", 0),
            _bool(obj["rotated"], f"{path}.rotated"),
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
