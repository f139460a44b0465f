"""The benchmark's tracer must find every function it wraps.

``perfbench/tracer.py`` wraps library functions by looking each one up
by name on the module (or class) that calls it. A refactor that renames
or stops importing one of them would break ``run.py --trace 1`` without
failing any other test, so this checks every patch point resolves.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_patch_point_resolves():
    tracer = _load_tracer()
    for owner, attr, span in tracer.PATCH_POINTS:
        # The tracer reads ``owner.__dict__[attr]``, so inherited or
        # lazily resolved attributes would not do.
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr} ({span}) is missing"
        assert span.split(".", 1)[0] in tracer.LAYERS, span
