"""The benchmark's tracer must find every function it wraps.

``perfbench/tracer.py`` wraps library functions by looking each one up
by name on the module (or class) that calls it. A refactor that renames
or stops importing one of them would break ``run.py --trace 1`` without
failing any other test, so this checks every patch point resolves. Some
modules import a name only so that the tracer can patch it there; those
imports must be exactly the tracer's, so none outlives its patch point
and no other unused import hides among them.
"""

import ast
from pathlib import Path

import cornerpack
from conftest import load_perfbench


def test_every_tracer_patch_point_resolves():
    tracer = load_perfbench("tracer")
    for owner, attr, span in tracer.PATCH_POINTS:
        # The tracer reads ``owner.__dict__[attr]``, so inherited or
        # lazily resolved attributes would not do.
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr} ({span}) is missing"
        assert span.split(".", 1)[0] in tracer.LAYERS, span


def test_unused_imports_are_tracer_patch_points():
    tracer = load_perfbench("tracer")
    patched = {(owner.__name__, attr) for owner, attr, _ in tracer.PATCH_POINTS}
    for path in sorted(Path(cornerpack.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        lines = source.splitlines()
        module = f"cornerpack.{path.stem}"
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name in read:
                    continue
                where = f"{module}.{name} ({path.name}:{node.lineno})"
                assert (module, name) in patched, f"{where} is imported but never read"
                assert "# noqa: F401" in lines[node.end_lineno - 1], f"{where} lacks '# noqa: F401'"
