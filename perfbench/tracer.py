"""Per-layer tracing of cornerpack from outside the package.

The tracer wraps library functions by replacing the attribute on the
module that *calls* them, for example ``cornerpack.solver.enumerate_corners``
(what ``solve`` looks up) or ``cornerpack.solve`` (what the benchmark
calls), so the package's own files stay untouched. Each wrapped call is a
span; a span's self time is its duration minus the durations of the
wrapped spans nested in it. Spans are aggregated per name as they close
rather than stored one by one: a traced pass makes hundreds of thousands
of them.

The layers are the package modules. Time spent in no span at all is the
benchmark's own time, so per traced pass

    sum of every layer's self time + benchmark's own time == traced wall time,

which ``run.py --trace 1`` checks.
"""

from __future__ import annotations

import time
from collections import defaultdict

import cornerpack
from cornerpack import decompose, render, solver, stability

LAYERS = (
    "solver",
    "corners",
    "stability",
    "decompose",
    "geometry",
    "oracle",
    "files",
    "render",
    "generate",
)

# (owner, attribute, span name). The owner is the module or class whose
# attribute the caller looks up at call time; a span name starts with
# the layer that defines the function.
PATCH_POINTS = (
    # Entry points the benchmark calls through the package namespace.
    (cornerpack, "solve", "solver.solve"),
    (cornerpack, "certify", "solver.certify"),
    (cornerpack, "quick_reject", "solver.quick_reject"),
    (cornerpack, "compact", "stability.compact"),
    (cornerpack, "apply_trace", "stability.apply_trace"),
    (cornerpack, "placement_order", "decompose.placement_order"),
    (cornerpack.PlacementOrder, "replay", "decompose.replay"),
    (cornerpack, "parse_instance", "files.parse"),
    (cornerpack, "parse_solution", "files.parse"),
    (cornerpack, "emit_instance", "files.emit"),
    (cornerpack, "emit_solution", "files.emit"),
    (cornerpack, "render_svg", "render.render_svg"),
    (cornerpack, "oracle_feasible", "oracle.oracle_feasible"),
    (cornerpack, "guillotine_layout", "generate.guillotine_layout"),
    # Calls between layers, patched where the calling module looks them up.
    (solver, "enumerate_corners", "corners.enumerate_corners"),
    (solver, "apply_action", "corners.apply_action"),
    (solver, "_dominated", "solver._dominated"),
    (solver, "quick_reject", "solver.quick_reject"),
    (solver, "is_feasible", "geometry.is_feasible"),
    (solver, "is_bottom_left_stable", "stability.is_bottom_left_stable"),
    (stability, "is_feasible", "geometry.is_feasible"),
    (decompose, "is_feasible", "geometry.is_feasible"),
    (decompose, "is_bottom_left_stable", "stability.is_bottom_left_stable"),
    (decompose, "extraction_order", "decompose.extraction_order"),
    (decompose, "find_escaper", "decompose.find_escaper"),
    (decompose, "apply_action", "corners.apply_action"),
    (decompose, "_supports", "corners._supports"),
    (decompose, "free_directions", "geometry.free_directions"),
    (render, "is_feasible", "geometry.is_feasible"),
)


class Tracer:
    """Wraps the patch points while installed; accumulates spans and counts.

    Use as a context manager around the traced region. Not re-entrant and
    not thread-safe: the benchmark is single-threaded.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.root_s = 0.0
        # One [name, child time] entry per open span.
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name in PATCH_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        stack = self._stack
        clock = time.perf_counter
        count = self._count

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if parent is None:
                    self.root_s += elapsed
                else:
                    parent[1] += elapsed
            count(name, result, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, result, parent: list | None) -> None:
        """Work counts taken at the span boundary from the call's result."""
        c = self.counts
        if name == "corners.apply_action":
            if parent is not None and parent[0] == "solver.solve":
                c["solver.children"] += 1
        elif name == "solver.solve":
            c["solver.nodes"] += result.stats.nodes_expanded
        elif name == "corners.enumerate_corners":
            c["corners.enumerate_corners.corners"] += len(result)
        elif name == "solver._dominated":
            c["solver.pruned"] += bool(result)
        elif name == "stability.compact":
            c["stability.compact.moves"] += len(result[1].steps)
        elif name == "decompose.find_escaper":
            c["decompose.find_escaper.chain_len"] += len(result)

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out
