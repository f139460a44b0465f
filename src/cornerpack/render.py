"""SVG rendering of packings.

Geometry uses a bottom-left origin, SVG a top-left one; coordinates are
flipped on the y-axis at emission so drawings read the same way as the
coordinate system. Each placed rectangle becomes one filled rect plus a
centered 1-based index label; the container is an outline behind them.
The markup is written as text: every value is an integer or a fixed
palette colour, so nothing needs escaping.
"""

from __future__ import annotations

from .geometry import Packing, is_feasible
from .stability import InfeasiblePackingError

SCALE = 20

_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#b07aa1",
    "#76b7b2",
    "#edc948",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
)


def render_svg(p: Packing) -> str:
    """Serialize a feasible (possibly partial) packing as an SVG document.

    Raises InfeasiblePackingError on overlap or protrusion: a drawing of
    an infeasible packing would be quietly misleading.
    """
    if not is_feasible(p):
        raise InfeasiblePackingError("refusing to render an infeasible packing")
    c = p.instance.container
    width = c.width * SCALE
    height = c.height * SCALE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff" '
        'stroke="#000000" stroke-width="2" />'
    ]
    for i, (x1, y1, x2, y2) in p.boxes().items():
        x = x1 * SCALE
        y = (c.height - y2) * SCALE
        w = (x2 - x1) * SCALE
        h = (y2 - y1) * SCALE
        parts.append(
            f'<rect x="{x}" y="{y}" width="{w}" height="{h}" '
            f'fill="{_PALETTE[i % len(_PALETTE)]}" fill-opacity="0.85" '
            'stroke="#222222" stroke-width="1" />'
            f'<text x="{x + w // 2}" y="{y + h // 2}" text-anchor="middle" '
            'dominant-baseline="central" font-family="sans-serif" font-size="12" '
            f'fill="#000000">{i + 1}</text>'
        )
    parts.append("</svg>\n")
    return "".join(parts)
