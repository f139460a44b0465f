import random
import xml.etree.ElementTree as ET

import pytest

from cornerpack import InfeasiblePackingError, render_svg
from cornerpack.render import _PALETTE, SCALE

from conftest import make_packing, random_complete_packing

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg_text):
    return ET.fromstring(svg_text)


def element_tree_svg(p):
    """The document as ElementTree serializes it, which render_svg must match byte for byte."""
    c = p.instance.container
    width, height = c.width * SCALE, c.height * SCALE
    size = {"width": str(width), "height": str(height)}
    svg = ET.Element(
        "svg", {"xmlns": "http://www.w3.org/2000/svg", **size, "viewBox": f"0 0 {width} {height}"}
    )
    outline = {"fill": "#ffffff", "stroke": "#000000", "stroke-width": "2"}
    ET.SubElement(svg, "rect", {"x": "0", "y": "0", **size, **outline})
    for i, r in p.iter_placed():
        x, y = r.x * SCALE, (c.height - r.y2) * SCALE
        w, h = r.width * SCALE, r.height * SCALE
        body = {
            "x": str(x),
            "y": str(y),
            "width": str(w),
            "height": str(h),
            "fill": _PALETTE[i % len(_PALETTE)],
            "fill-opacity": "0.85",
            "stroke": "#222222",
            "stroke-width": "1",
        }
        ET.SubElement(svg, "rect", body)
        label = {
            "x": str(x + w // 2),
            "y": str(y + h // 2),
            "text-anchor": "middle",
            "dominant-baseline": "central",
            "font-family": "sans-serif",
            "font-size": "12",
            "fill": "#000000",
        }
        ET.SubElement(svg, "text", label).text = str(i + 1)
    return ET.tostring(svg, encoding="unicode") + "\n"


def test_empty_packing_renders_outline_only():
    text = render_svg(make_packing(4, 3))
    assert text == element_tree_svg(make_packing(4, 3))
    svg = parse(text)
    rects = svg.findall(f"{SVG_NS}rect")
    assert len(rects) == 1
    assert rects[0].get("width") == str(4 * SCALE)
    assert rects[0].get("height") == str(3 * SCALE)
    assert svg.findall(f"{SVG_NS}text") == []


def test_two_rect_packing_has_three_rect_elements():
    p = make_packing(4, 4, (2, 4, 0, 0), (2, 4, 2, 0))
    svg = parse(render_svg(p))
    assert len(svg.findall(f"{SVG_NS}rect")) == 3
    labels = [t.text for t in svg.findall(f"{SVG_NS}text")]
    assert labels == ["1", "2"]


def test_y_axis_is_flipped():
    # A rect resting on the floor must be drawn at the document bottom.
    p = make_packing(3, 5, (3, 1, 0, 0))
    svg = parse(render_svg(p))
    outline, body = svg.findall(f"{SVG_NS}rect")
    assert body.get("y") == str((5 - 1) * SCALE)
    assert body.get("x") == "0"
    assert body.get("height") == str(1 * SCALE)


def test_rotation_swaps_drawn_extents():
    p = make_packing(5, 5, (2, 3, 1, 1, True))  # stored 2x3, placed 3x2
    svg = parse(render_svg(p))
    body = svg.findall(f"{SVG_NS}rect")[1]
    assert body.get("width") == str(3 * SCALE)
    assert body.get("height") == str(2 * SCALE)


def test_unplaced_rects_are_simply_absent():
    p = make_packing(4, 4, (2, 2, 0, 0), (1, 1, None, None))
    svg = parse(render_svg(p))
    assert len(svg.findall(f"{SVG_NS}rect")) == 2
    assert [t.text for t in svg.findall(f"{SVG_NS}text")] == ["1"]


def test_refuses_infeasible_packings():
    with pytest.raises(InfeasiblePackingError):
        render_svg(make_packing(4, 4, (3, 3, 0, 0), (3, 3, 1, 1)))
    with pytest.raises(InfeasiblePackingError):
        render_svg(make_packing(2, 2, (2, 2, 1, 0)))


def test_random_packings_always_produce_well_formed_xml():
    rng = random.Random(2024)
    for _ in range(100):
        p = random_complete_packing(rng)
        text = render_svg(p)
        assert text == element_tree_svg(p)
        svg = parse(text)  # ET.fromstring raises if malformed
        assert svg.tag == f"{SVG_NS}svg"
        assert len(svg.findall(f"{SVG_NS}rect")) == p.instance.n + 1
