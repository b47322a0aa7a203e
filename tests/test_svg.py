import dataclasses
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rit_layout import (
    LayoutConfig,
    RenderStyle,
    compute_layout,
    demo_tree,
    layout_icicle,
    layout_rit,
    layout_sunburst,
    normalize,
    path_area,
    render_svg,
)
from rit_layout.geometry import Path, SectorGeometry
from rit_layout.layout import Layout, PlacedNode
from rit_layout.svg import HALF_PI, _extent, _loop_to_d, _split_arc, _Transform
from rit_layout.tree import TreeNode

from oracles import path_boundary_points, path_segments, seg_end, seg_span, seg_start
from test_geometry import BELOW_PI, SubSeg, hand_loops
from test_golden import QUARTER
from test_relax import flanked_thin_run

SVG_NS = "{http://www.w3.org/2000/svg}"


def svg_paths(svg: bytes):
    root = ET.fromstring(svg.decode())
    return [el for el in root.iter(f"{SVG_NS}path") if el.get("id")]


def parse_transform(svg: bytes):
    m = re.search(rb"scale=([0-9.e+-]+) cx=([0-9.e+-]+) cy=([0-9.e+-]+)", svg)
    assert m, "transform echo missing"
    return tuple(float(g) for g in m.groups())


def parse_d(d: str):
    """Subpaths as lists of (cmd, args) with absolute coordinates."""
    tokens = re.findall(r"[MLAZ]|-?\d+\.?\d*(?:e-?\d+)?", d)
    subpaths, current = [], []
    i = 0
    while i < len(tokens):
        cmd = tokens[i]
        if cmd == "M":
            if current:
                subpaths.append(current)
            current = [("M", [float(tokens[i + 1]), float(tokens[i + 2])])]
            i += 3
        elif cmd == "L":
            current.append(("L", [float(tokens[i + 1]), float(tokens[i + 2])]))
            i += 3
        elif cmd == "A":
            current.append(("A", [float(t) for t in tokens[i + 1 : i + 8]]))
            i += 8
        elif cmd == "Z":
            current.append(("Z", []))
            i += 1
        else:
            raise AssertionError(f"unexpected token {cmd!r}")
    if current:
        subpaths.append(current)
    return subpaths


def arc_center_parameterization(x1, y1, x2, y2, r, large, sweep):
    """Endpoint to center conversion for circular SVG arcs."""
    xp, yp = (x1 - x2) / 2.0, (y1 - y2) / 2.0
    d2 = xp * xp + yp * yp
    lam = d2 / (r * r)
    if lam > 1.0:
        r *= math.sqrt(lam)
    num = max(0.0, r * r - d2)
    coef = math.sqrt(num / d2) if d2 > 0 else 0.0
    if large == sweep:
        coef = -coef
    cxp, cyp = coef * yp, -coef * xp
    cx, cy = cxp + (x1 + x2) / 2.0, cyp + (y1 + y2) / 2.0
    theta1 = math.atan2(y1 - cy, x1 - cx)
    theta2 = math.atan2(y2 - cy, x2 - cx)
    delta = theta2 - theta1
    if sweep == 0 and delta > 0:
        delta -= 2 * math.pi
    elif sweep == 1 and delta < 0:
        delta += 2 * math.pi
    return cx, cy, r, theta1, delta


def polygonize_subpath(subpath, samples_per_arc=64):
    pts = []
    pos = None
    for cmd, args in subpath:
        if cmd == "M":
            pos = args
            pts.append(pos)
        elif cmd == "L":
            pos = args
            pts.append(pos)
        elif cmd == "A":
            r, _, _, large, sweep, x2, y2 = args
            cx, cy, r, t1, dt = arc_center_parameterization(
                pos[0], pos[1], x2, y2, r, int(large), int(sweep)
            )
            for k in range(1, samples_per_arc + 1):
                a = t1 + dt * k / samples_per_arc
                pts.append([cx + r * math.cos(a), cy + r * math.sin(a)])
            pos = [x2, y2]
    return np.array(pts)


def shoelace(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


@pytest.fixture(scope="module")
def demo_layout():
    return layout_rit(normalize(demo_tree(), "strict"), LayoutConfig(r0=8, h0=2))


class TestRendering:
    def test_path_count_equals_node_count(self, demo_layout):
        svg = render_svg(demo_layout)
        assert len(svg_paths(svg)) == len(demo_layout.nodes)

    def test_byte_identical_rendering(self, demo_layout):
        assert render_svg(demo_layout) == render_svg(demo_layout)

    def test_single_node_circle_single_path(self):
        tree = normalize(TreeNode("x", "x", 1.0), "strict")
        layout = layout_rit(tree, LayoutConfig(r0=0.0, h0=2.0))
        paths = svg_paths(render_svg(layout))
        assert len(paths) == 1
        assert paths[0].get("d").count("M") == 1

    def test_full_annulus_has_two_subpaths(self, demo_layout):
        root_el = next(p for p in svg_paths(render_svg(demo_layout)) if p.get("id") == "root")
        assert root_el.get("d").count("M") == 2
        assert root_el.get("fill-rule") == "evenodd"

    def test_depth_major_order(self, demo_layout):
        svg = render_svg(demo_layout)
        ids = [p.get("id") for p in svg_paths(svg)]
        depths = {n.id: n.depth for n in demo_layout.nodes}
        rendered = [depths[i] for i in ids]
        assert rendered == sorted(rendered)

    def test_relaxed_nodes_dashed(self):
        cfg = LayoutConfig(r0=4.0, h0=2.0, relax_enabled=True, relax_threshold=0.01)
        layout = layout_rit(normalize(flanked_thin_run([3.0, 3.0, 3.0]), "strict"), cfg)
        svg = render_svg(layout)
        for el in svg_paths(svg):
            if el.get("id") in {"t0", "t1", "t2"}:
                assert el.get("stroke-dasharray") == "5 4"
                assert float(el.get("fill-opacity")) < 1.0
            else:
                assert el.get("stroke-dasharray") is None

    @pytest.mark.parametrize("enabled", [False, True])
    def test_comment_describes_relaxation(self, enabled):
        cfg = LayoutConfig(relax_enabled=enabled, relax_threshold=0.05)
        layout = layout_rit(normalize(demo_tree(), "strict"), cfg)
        assert any(n.relaxed for n in layout.nodes) == enabled
        comment = render_svg(layout).decode().splitlines()[2]
        assert f" relax={enabled} relax_threshold=0.05 " in comment

    def test_no_arc_command_spans_half_turn(self, demo_layout):
        svg = render_svg(demo_layout)
        scale, cx, cy = parse_transform(svg)
        for el in svg_paths(svg):
            for sub in parse_d(el.get("d")):
                pos = None
                for cmd, args in sub:
                    if cmd in ("M", "L"):
                        pos = args
                    elif cmd == "A":
                        r, _, _, large, sweep, x2, y2 = args
                        _, _, _, _, dt = arc_center_parameterization(
                            pos[0], pos[1], x2, y2, r, int(large), int(sweep)
                        )
                        assert abs(dt) <= math.pi + 1e-6
                        pos = [x2, y2]

    def test_labels_optional_and_bounded(self, demo_layout):
        style = RenderStyle(draw_labels=True)
        svg = render_svg(demo_layout, style)
        root = ET.fromstring(svg.decode())
        texts = list(root.iter(f"{SVG_NS}text"))
        assert 0 < len(texts) <= len(demo_layout.nodes)
        plain = render_svg(demo_layout)
        assert b"<text" not in plain

    def test_xml_metacharacters_in_ids_and_labels(self):
        names = ['a"x', "b'y", "c<z", "d&w", """all "'<&>"""]
        tree = TreeNode("root", "root", 5.0, children=[
            TreeNode(name, name, 1.0) for name in names
        ])
        layout = layout_rit(normalize(tree, "strict"), LayoutConfig(r0=4.0, h0=2.0))
        svg = render_svg(layout, RenderStyle(draw_labels=True))
        root = ET.fromstring(svg.decode())
        paths = [el for el in root.iter(f"{SVG_NS}path") if el.get("id")]
        assert len(paths) == len(layout.nodes) == 1 + len(names)
        assert {el.get("id") for el in paths} == {"root", *names}
        assert {el.text for el in root.iter(f"{SVG_NS}text")} <= {"root", *names}

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_hand_built_color_and_id_read_back_exactly(self, demo_layout, relaxed):
        # Attribute values: metacharacters, and tab, newline and carriage
        # return, which a parser would read back, raw, as spaces.
        odd = '/><x"\'&\t\n\r'
        nodes = list(demo_layout.nodes)
        # A leaf, so no child's parent names the old id.
        nodes[5] = dataclasses.replace(nodes[5], id=f"id{odd}", color=odd, relaxed=relaxed)
        layout = dataclasses.replace(demo_layout, nodes=tuple(nodes))
        el = next(el for el in svg_paths(render_svg(layout)) if el.get("id") == f"id{odd}")
        assert el.get("fill") == odd
        assert el.get("stroke") == (odd if relaxed else "none")

    def test_label_text_keeps_tab_and_newline(self):
        # Tab and newline stay raw; a raw carriage return would read back
        # as a newline, so it is written as a reference.
        tree = TreeNode("r", "a\tb\nc\rd\r\ne", 1.0)
        layout = layout_rit(normalize(tree, "strict"))
        svg = render_svg(layout, RenderStyle(draw_labels=True))
        assert b">a\tb\nc&#13;d&#13;\ne</text>" in svg
        assert next(ET.fromstring(svg).iter(f"{SVG_NS}text")).text == "a\tb\nc\rd\r\ne"

    @pytest.mark.parametrize("field", ["id", "label", "color"])
    @pytest.mark.parametrize("char", ["\x01", "\ud800", "\uffff"])
    def test_text_xml_cannot_hold_is_a_value_error(self, demo_layout, field, char):
        nodes = list(demo_layout.nodes)
        node = nodes[5] = dataclasses.replace(nodes[5], **{field: f"x{char}"})
        layout = dataclasses.replace(demo_layout, nodes=tuple(nodes))
        with pytest.raises(ValueError) as info:
            render_svg(layout, RenderStyle(draw_labels=True))
        assert type(info.value) is ValueError
        assert str(info.value) == (
            f"node {node.id!r}: {field} holds {char!r}, a character XML 1.0 cannot hold")
        if field == "label":
            # A label that is not drawn is not written.
            ET.fromstring(render_svg(layout))

    def test_non_str_color_is_a_value_error(self, demo_layout):
        nodes = list(demo_layout.nodes)
        node = nodes[3] = dataclasses.replace(nodes[3], color=["#112233"])
        layout = dataclasses.replace(demo_layout, nodes=tuple(nodes))
        with pytest.raises(ValueError) as info:
            render_svg(layout)
        assert type(info.value) is ValueError
        assert str(info.value) == f"node {node.id!r}: color ['#112233'] is not str"

    @pytest.mark.parametrize("field, value", [("id", 5), ("label", ["a"])])
    def test_non_str_id_or_label_is_a_value_error(self, demo_layout, field, value):
        nodes = list(demo_layout.nodes)
        node = nodes[5] = dataclasses.replace(nodes[5], **{field: value})
        layout = dataclasses.replace(demo_layout, nodes=tuple(nodes))
        with pytest.raises(ValueError) as info:
            render_svg(layout, RenderStyle(draw_labels=True))
        assert type(info.value) is ValueError
        assert str(info.value) == f"node {node.id!r}: {field} {value!r} is not str"

    def test_background_and_canvas(self, demo_layout):
        svg = render_svg(demo_layout, RenderStyle(canvas=500))
        root = ET.fromstring(svg.decode())
        assert root.get("viewBox") == "0 0 500 500"
        rect = root.find(f"{SVG_NS}rect")
        assert (rect.get("width"), rect.get("height"), rect.get("fill")) == ("500", "500", "#ffffff")

    def test_invalid_style_rejected(self, demo_layout):
        with pytest.raises(ValueError):
            render_svg(demo_layout, RenderStyle(canvas=0))
        with pytest.raises(ValueError):
            render_svg(demo_layout, RenderStyle(margin=1000.0))

    @pytest.mark.parametrize("field", ["canvas", "margin"])
    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, pytest.param(10 ** 400, id="int-beyond-float")])
    def test_non_finite_style_rejected(self, field, value):
        # NaN fails every comparison, so a range test alone lets it through;
        # an int beyond float range has no float to test.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RenderStyle(**{field: value})


def _fmt_each(x: float) -> str:
    """One number as path data spells it: 6 decimals, never ``-0.000000``."""
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _reference_d(path, scale: float, cx: float, cy: float) -> str:
    """Path data rebuilt from the outline, formatting each number on its own."""
    loops = []
    for loop in path.loops:
        x, y = seg_start(loop[0])
        parts = [f"M {_fmt_each(cx + scale * x)} {_fmt_each(cy - scale * y)}"]
        for seg in loop:
            if len(seg) == 4:
                x, y = seg_end(seg)
                parts.append(f"L {_fmt_each(cx + scale * x)} {_fmt_each(cy - scale * y)}")
                continue
            r, start, _ = seg
            radius = _fmt_each(r * scale)
            sweep = 0 if seg_span(seg) > 0 else 1
            for _, a1 in _split_arc(start, seg_span(seg)):
                x = cx + scale * (r * math.cos(a1))
                y = cy - scale * (r * math.sin(a1))
                parts.append(f"A {radius} {radius} 0 0 {sweep} {_fmt_each(x)} {_fmt_each(y)}")
        parts.append("Z")
        loops.append(" ".join(parts))
    return " ".join(loops)


@pytest.mark.parametrize("style, cfg", [
    ("rit", LayoutConfig()),
    ("sunburst", LayoutConfig()),
    ("icicle", LayoutConfig()),
    ("rit", QUARTER),
], ids=["rit", "sunburst", "icicle", "quarter"])
def test_path_data_formats_each_number_without_negative_zero(style, cfg):
    # With no margin the outlines touch the canvas edge, where a coordinate
    # can round to -0.000000 (the quarter layout has one).
    layout = compute_layout(normalize(demo_tree(), "strict"), style, cfg)
    svg = render_svg(layout, RenderStyle(margin=0))
    scale, cx, cy = parse_transform(svg)
    by_id = {n.id: n for n in layout.nodes}
    for el in svg_paths(svg):
        d = el.get("d")
        assert d == _reference_d(by_id[el.get("id")].path, scale, cx, cy)
        assert "-0.000000" not in d.split()


@dataclass
class _GivenOutline(SectorGeometry):
    """Sector fields with an outline given by hand instead of derived."""

    given: Path | None = None

    def outline(self) -> Path:
        return self.given


def _hand_layout() -> Layout:
    """One node per hand-made outline of ``test_geometry.hand_loops``."""
    nodes = tuple(
        PlacedNode(name, name, "#123456", 0.5, 1, None,
                   _GivenOutline(0.0, 1.0, 0.0, 1.0, 1.0, given=Path(loops=loops)))
        for name, loops in hand_loops().items()
    )
    return Layout(style="rit", config=LayoutConfig(), a_std=1.0, nodes=nodes, visits=len(nodes))


def _reference_extent(layout: Layout) -> tuple[float, float, float, float]:
    """Bounding box from each segment's ``seg_start`` and ``seg_end``, plus the
    axis points (+-r, 0) / (0, +-r) at the multiples of pi/2 an arc sweeps."""
    xs, ys = [], []
    for node in layout.nodes:
        for seg in path_segments(node.path):
            for x, y in (seg_start(seg), seg_end(seg)):
                xs.append(x)
                ys.append(y)
            if len(seg) == 4:
                continue
            r, start, end = seg
            lo, hi = sorted((start, end))
            for k in range(math.floor(lo / HALF_PI) - 1, math.ceil(hi / HALF_PI) + 2):
                if lo <= k * HALF_PI <= hi:
                    ux, uy = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][k % 4]
                    xs.append(r * ux)
                    ys.append(r * uy)
    return min(xs), max(xs), min(ys), max(ys)


# Arc spans at and around +-pi and full turns, besides any in (-3*pi, 3*pi).
_EDGE_SPANS = (0.0, BELOW_PI, math.pi, math.nextafter(math.pi, 4.0), 2.0 * math.pi)


@st.composite
def _closed_loops(draw):
    """One loop of arcs and lines, plain tuples or a tuple subclass, closed
    exactly: a line joins each piece's start to the last end."""
    segs = []
    first = end = None
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            span = draw(st.sampled_from(_EDGE_SPANS + tuple(-s for s in _EDGE_SPANS))
                        | st.floats(-3.0 * math.pi, 3.0 * math.pi,
                                    exclude_min=True, exclude_max=True))
            # Starting at 0 keeps a drawn span exact through end - start.
            start = draw(st.just(0.0) | st.floats(-10.0, 10.0))
            arc = draw(st.sampled_from([tuple, SubSeg]))(
                (draw(st.floats(0.0, 100.0)), start, start + span))
            pieces = [arc]
            point, next_end = seg_start(arc), seg_end(arc)
        else:
            point = next_end = (draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0)))
            pieces = []
        if end is None:
            first = point
        else:
            segs.append(draw(st.sampled_from([tuple, SubSeg]))((*end, *point)))
        segs += pieces
        end = next_end
    segs.append(draw(st.sampled_from([tuple, SubSeg]))((*end, *first)))
    return tuple(segs)


class TestSegmentFastPaths:
    """Hand-made arcs on either side of pi, full and clockwise turns, a 1e-15
    sliver and subclass segments: the renderer's length-dispatched loops
    give what the rebuilds through the oracle endpoint helpers give."""

    @pytest.mark.parametrize("margin", [0.0, 20.0])
    def test_path_data_equals_reference(self, margin):
        layout = _hand_layout()
        svg = render_svg(layout, RenderStyle(margin=margin))
        scale, cx, cy = parse_transform(svg)
        by_id = {n.id: n for n in layout.nodes}
        elements = svg_paths(svg)
        assert len(elements) == len(by_id)
        for el in elements:
            assert el.get("d") == _reference_d(by_id[el.get("id")].path, scale, cx, cy)

    def test_extent_equals_reference(self):
        layout = _hand_layout()
        assert _extent(layout) == _reference_extent(layout)
        for node in layout.nodes:
            one = Layout("rit", layout.config, 1.0, (node,), 1)
            assert _extent(one) == _reference_extent(one), node.id

    @pytest.mark.parametrize("margin", [0.0, 20.0])
    @settings(max_examples=200, deadline=None)
    @given(loops=st.lists(_closed_loops(), min_size=1, max_size=3))
    def test_loop_to_d_equals_reference_on_drawn_loops(self, margin, loops):
        path = Path(loops=tuple(loops))
        node = PlacedNode("n", "n", "#123456", 0.5, 1, None,
                          _GivenOutline(0.0, 1.0, 0.0, 1.0, 1.0, given=path))
        layout = Layout(style="rit", config=LayoutConfig(), a_std=1.0, nodes=(node,), visits=1)
        tf = _Transform(layout, RenderStyle(margin=margin))
        for loop in path.loops:
            assert _loop_to_d(loop, tf) == _reference_d(Path((loop,)), tf.scale, tf.cx, tf.cy)

    def test_split_arc_matches_piece_count_rule(self):
        # Below pi the early return gives bit for bit the one piece the
        # general rule gives; pi and above split into at least two pieces.
        arcs = [seg for loops in hand_loops().values() for loop in loops for seg in loop
                if len(seg) == 3]
        spans = [seg_span(seg) for seg in arcs]
        assert BELOW_PI in spans and math.pi in spans and -2 * math.pi in spans
        assert min(spans) < -math.pi and 0 < min(map(abs, spans)) < 1e-14
        for seg in arcs:
            start, span = seg[1], seg_span(seg)
            pieces = max(1, math.ceil(abs(span) / math.pi - 1e-12))
            if abs(span) >= math.pi:
                pieces = max(pieces, 2)
            step = span / pieces
            expected = [(start + i * step, start + (i + 1) * step) for i in range(pieces)]
            assert _split_arc(start, span) == expected, seg


def test_ids_keep_negative_zero_text():
    tree = TreeNode("root", "root", 2.0, children=[
        TreeNode("x-0.000000", "x", 1.0), TreeNode("y", "y", 1.0)])
    svg = render_svg(layout_rit(normalize(tree, "strict")), RenderStyle(margin=0))
    assert {el.get("id") for el in svg_paths(svg)} == {"root", "x-0.000000", "y"}


class TestGeometricFidelity:
    @pytest.mark.parametrize("maker", [layout_rit, layout_sunburst, layout_icicle])
    def test_reparsed_paths_match_source(self, maker):
        layout = maker(normalize(demo_tree(), "strict"), LayoutConfig(r0=8, h0=2))
        svg = render_svg(layout)
        scale, cx, cy = parse_transform(svg)
        by_id = {n.id: n for n in layout.nodes}
        for el in svg_paths(svg):
            node = by_id[el.get("id")]
            source_area = path_area(node.path)
            total = 0.0
            for sub in parse_d(el.get("d")):
                pts = polygonize_subpath(sub)
                # Back to layout coordinates (y flip undone).
                xs = (pts[:, 0] - cx) / scale
                ys = (cy - pts[:, 1]) / scale
                total += shoelace(np.column_stack([xs, ys]))
            if source_area > 0:
                assert abs(total) == pytest.approx(source_area, rel=5e-3)

    def test_command_endpoints_match_source_vertices(self, demo_layout):
        svg = render_svg(demo_layout)
        scale, cx, cy = parse_transform(svg)

        def tf(p):
            return (cx + scale * p[0], cy - scale * p[1])

        by_id = {n.id: n for n in demo_layout.nodes}
        for el in svg_paths(svg):
            node = by_id[el.get("id")]
            expected = set()
            for loop in node.path.loops:
                for seg in loop:
                    expected.add(tf(seg_start(seg)))
                    expected.add(tf(seg_end(seg)))
            for sub in parse_d(el.get("d")):
                for cmd, args in sub:
                    if cmd in ("M", "L"):
                        px, py = args
                    elif cmd == "A":
                        px, py = args[5], args[6]
                    else:
                        continue
                    near = min(
                        math.hypot(px - ex, py - ey) for ex, ey in expected
                    )
                    # Arc split points are not segment endpoints; only demand
                    # that declared endpoints (non-split) land on a vertex.
                    if cmd != "A":
                        assert near < 1e-5


class TestExactFit:
    def test_full_annulus_fills_canvas_exactly(self):
        # Default config: one full annulus of outer radius r0 + h0 = 10, so the
        # 800 px drawable square maps +-10 to 40 px per unit, centred.
        layout = layout_rit(normalize(TreeNode("r", "r", 1.0), "strict"))
        scale, cx, cy = parse_transform(render_svg(layout))
        assert abs(scale - 40.0) <= 1e-12
        assert abs(cx - 420.0) <= 1e-12
        assert abs(cy - 420.0) <= 1e-12

    @pytest.mark.parametrize(
        "style, cfg",
        [
            ("rit", LayoutConfig()),
            ("sunburst", LayoutConfig()),
            ("rit", QUARTER),
            ("rit", LayoutConfig(relax_enabled=True, relax_threshold=0.05)),
        ],
        ids=["rit", "sunburst", "quarter", "relax-0.05"],
    )
    def test_outlines_stay_inside_margin(self, style, cfg):
        layout = compute_layout(normalize(demo_tree(), "strict"), style, cfg)
        render_style = RenderStyle()
        scale, cx, cy = parse_transform(render_svg(layout, render_style))
        lo = render_style.margin - 1e-9
        hi = render_style.canvas - render_style.margin + 1e-9
        for node in layout.nodes:
            pts = path_boundary_points(node.path, 20_000)
            px = cx + scale * pts[:, 0]
            py = cy - scale * pts[:, 1]
            assert px.min() >= lo and px.max() <= hi, node.id
            assert py.min() >= lo and py.max() <= hi, node.id


def test_icicle_root_renders_on_top():
    tree = TreeNode("r", "r", 4.0, children=[TreeNode("a", "a", 4.0)])
    layout = layout_icicle(normalize(tree, "strict"), LayoutConfig(r0=0, h0=2))
    svg = render_svg(layout)
    ys = {}
    for el in svg_paths(svg):
        sub = parse_d(el.get("d"))[0]
        ys[el.get("id")] = min(args[1] for cmd, args in sub if cmd in ("M", "L"))
    assert ys["r"] < ys["a"]
