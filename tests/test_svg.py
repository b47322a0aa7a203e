import dataclasses
import math
import re
import time
import tracemalloc
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rit_layout import (
    GeneratorSpec,
    LayoutConfig,
    RenderStyle,
    compute_layout,
    demo_tree,
    generate_tree,
    layout_icicle,
    layout_rit,
    layout_sunburst,
    normalize,
    path_area,
    render_svg,
)
from rit_layout import svg as svg_module
from rit_layout.geometry import MAX_SWEEP, Path, SectorGeometry
from rit_layout.layout import MAX_ANGLE, MAX_RADIUS, STYLES, Layout, PlacedNode
from rit_layout.svg import _ATTR_SPECIAL, _ESCAPE_ATTR, HALF_PI, _extent, _loop_to_d, _transform
from rit_layout.tree import _NON_XML_CHAR, TreeNode

from conftest import full_chain
from oracles import node_by_id, path_boundary_points, path_segments, seg_end, seg_span, seg_start
from test_geometry import BELOW_PI, SubSeg, hand_loops
from test_golden import QUARTER
from test_layout import _replaced
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

    # The layout refuses the next four when it is built (see
    # TestLayoutContract in test_layout), so render_svg never meets them.

    def test_non_str_color_is_a_value_error(self, demo_layout):
        nodes = list(demo_layout.nodes)
        node = nodes[3] = dataclasses.replace(nodes[3], color=["#112233"])
        with pytest.raises(ValueError) as info:
            dataclasses.replace(demo_layout, nodes=tuple(nodes))
        assert type(info.value) is ValueError
        assert str(info.value) == f"node {node.id!r}: color ['#112233'] is not str"

    @pytest.mark.parametrize("field, value", [("id", 5), ("label", ["a"])])
    def test_non_str_id_or_label_is_a_value_error(self, demo_layout, field, value):
        nodes = list(demo_layout.nodes)
        node = nodes[5] = dataclasses.replace(nodes[5], **{field: value})
        with pytest.raises(ValueError) as info:
            dataclasses.replace(demo_layout, nodes=tuple(nodes))
        assert type(info.value) is ValueError
        assert str(info.value) == f"node {node.id!r}: {field} {value!r} is not str"

    @pytest.mark.parametrize("style", ["a--b", "rit ", 5])
    def test_style_outside_styles_is_a_value_error(self, demo_layout, style):
        # A raw "--" in the leading comment would make the SVG ill-formed.
        with pytest.raises(ValueError) as info:
            dataclasses.replace(demo_layout, style=style)
        assert type(info.value) is ValueError
        assert str(info.value) == (
            f"layout: style {style!r} is not one of ('rit', 'sunburst', 'icicle')")

    def test_layout_without_nodes_is_a_value_error(self, demo_layout):
        with pytest.raises(ValueError) as info:
            dataclasses.replace(demo_layout, nodes=())
        assert type(info.value) is ValueError
        assert str(info.value) == "layout: no nodes to write"

    def test_attribute_pattern_finds_every_refused_or_escaped_character(self):
        # An id or colour without a hit is written unchecked and unescaped.
        every = "".join(map(chr, range(0x110000)))
        special = set(_ATTR_SPECIAL.findall(every))
        refused = set(_NON_XML_CHAR.findall(every))
        escaped = {c for c in every if c.translate(_ESCAPE_ATTR) != c}
        assert special == refused | escaped
        assert escaped == set("&<>\"'\r\t\n")

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


def _one_sector(*fields: float) -> Layout:
    """A rit layout of one node, ``root``, whose sector has ``fields``."""
    node = PlacedNode("root", "root", "#123456", 1.0, 0, None, SectorGeometry(*fields))
    return Layout("rit", LayoutConfig(), 1.0, (node,), 1)


def _path_numbers(path: Path) -> list[float]:
    return [c for loop in path.loops for seg in loop for c in seg]


class TestNonFiniteOutline:
    """An outline holding inf or NaN never reaches the writer: the sector
    field that would put it there is refused, naming the node and the
    field, when the layout is built.  So are radii past ``MAX_RADIUS``,
    which could scale to inf on the canvas; within it every drawn number
    is finite."""

    @pytest.mark.parametrize("field, value", [
        ("theta", math.inf), ("theta", -math.inf), ("theta", math.nan), ("beta", math.nan),
        ("r_in", math.inf), ("height", math.nan), ("alpha", math.nan),
        ("topup_height", -math.inf), ("topup_height", math.nan),
    ], ids=["angle-inf", "angle-neg-inf", "start-nan", "end-nan", "radius-inf",
            "radius-nan", "line-nan", "line-neg-inf", "line-start-nan"])
    def test_names_the_node(self, field, value):
        with pytest.raises(ValueError) as info:
            _replaced(sector={field: value})
        assert str(info.value) == f"node 'orange': {field} {value!r} is not a finite float"

    @pytest.mark.parametrize("style, field, value, held", [
        *[(style, "theta", math.nan, "nan") for style in STYLES],
        ("rit", "r_in", math.inf, "inf"),
        ("sunburst", "r_in", math.inf, "inf"),
        ("icicle", "r_in", math.inf, "-inf"),
        ("rit", "theta", math.inf, None),
        ("sunburst", "theta", math.inf, None),
        ("icicle", "theta", math.inf, "inf"),
    ])
    def test_names_the_node_of_a_laid_out_sector(self, style, field, value, held):
        # Built on its own, the sector's outline holds ``held``, or, at an
        # infinite angle, cannot be built: math.cos refuses it.
        base = compute_layout(normalize(demo_tree(), "strict"), style)
        sector = dataclasses.replace(node_by_id(base, "orange").sector, **{field: value})
        if held is None:
            with pytest.raises(ValueError, match="^math domain error$"):
                sector.outline()
        else:
            assert held in map(repr, _path_numbers(sector.outline()))
        with pytest.raises(ValueError) as info:
            _replaced(sector={field: value}, style=style)
        assert str(info.value) == f"node 'orange': {field} {value!r} is not a finite float"

    def test_finite_outlines_too_wide_to_scale(self):
        with pytest.raises(ValueError) as info:
            _replaced("root", sector={"r_in": 1e308, "height": 7e307})
        assert str(info.value) == (
            "node 'root': r_in + height + topup_height 1.7e+308 is not <= MAX_RADIUS")
        at_bound = _replaced("root", sector={"r_in": 0.5 * MAX_RADIUS, "height": 0.5 * MAX_RADIUS})
        svg = render_svg(at_bound, RenderStyle(canvas=2 ** 53))
        assert len(svg_paths(svg)) == len(at_bound.nodes)
        assert b"inf" not in svg and b"nan" not in svg

    def test_radius_too_large_to_scale_in_a_narrow_box(self):
        # One point at 45 degrees, with a 1e-12 wide box: at 2.5e293 the
        # arc radius would overflow to inf once scaled; at MAX_RADIUS it
        # is a finite number of 166 digits.
        with pytest.raises(ValueError, match="^node 'root': r_in [+] height [+] topup_height "):
            _one_sector(0.25 * math.pi, 5e-324, 0.0, 2.5e293, 1.0)
        svg = render_svg(_one_sector(0.25 * math.pi, 5e-324, 0.0, MAX_RADIUS, 1.0))
        d = svg_paths(svg)[0].get("d")
        assert "inf" not in d and "nan" not in d
        assert max(len(number) for number in re.findall(r"[0-9.]+", d)) == 166 + 7


def _fmt_each(x: float) -> str:
    """One number as path data spells it: 6 decimals, never ``-0.000000``."""
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _arc_ends(start: float, span: float) -> list[float]:
    """Where an arc's commands end: one command under pi, two halves from pi
    up to a full turn."""
    if abs(span) < math.pi:
        return [start + span]
    return [start + 0.5 * span, start + span]


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
            for a1 in _arc_ends(start, seg_span(seg)):
                x = cx + scale * (r * math.cos(a1))
                y = cy - scale * (r * math.sin(a1))
                parts.append(f"A {radius} {radius} 0 0 {sweep} {_fmt_each(x)} {_fmt_each(y)}")
        parts.append("Z")
        loops.append(" ".join(parts))
    return " ".join(loops)


# Trees for the per-number oracles besides the demo: a generated tree of
# wedge-cut sectors, and a 48-level chain of full annuli (two loops each).
_ORACLE_TREES = {
    "demo": demo_tree,
    "random-4-6-3": lambda: generate_tree(GeneratorSpec("random", 4, 6, seed=3)),
    "chain-48": lambda: full_chain(49),
}
_GENERATED = [(tree, style) for tree in ("random-4-6-3", "chain-48") for style in STYLES]


@pytest.mark.parametrize("tree, style, cfg", [
    ("demo", "rit", LayoutConfig()),
    ("demo", "sunburst", LayoutConfig()),
    ("demo", "icicle", LayoutConfig()),
    ("demo", "rit", QUARTER),
] + [(tree, style, LayoutConfig()) for tree, style in _GENERATED],
    ids=["rit", "sunburst", "icicle", "quarter"] + [f"{t}-{s}" for t, s in _GENERATED])
def test_path_data_formats_each_number_without_negative_zero(tree, style, cfg):
    # With no margin the outlines touch the canvas edge, where a coordinate
    # can round to -0.000000 (the quarter layout has one).
    layout = compute_layout(normalize(_ORACLE_TREES[tree](), "strict"), style, cfg)
    svg = render_svg(layout, RenderStyle(margin=0))
    scale, cx, cy = parse_transform(svg)
    by_id = {n.id: n for n in layout.nodes}
    for el in svg_paths(svg):
        d = el.get("d")
        assert d == _reference_d(by_id[el.get("id")].path, scale, cx, cy)
        assert "-0.000000" not in d.split()


def _hand_paths() -> dict[str, Path]:
    """Each hand-made outline of ``test_geometry.hand_loops`` as a ``Path``."""
    return {name: Path(loops=loops) for name, loops in hand_loops().items()}


def _drawn(paths: dict[str, Path], style: RenderStyle = RenderStyle()):
    """Each outline's path data as ``render_svg`` writes it, on the canvas
    that the outlines fill together, and that canvas's (scale, cx, cy)."""
    scale, cx, cy = _transform(_extent(paths.values()), style)
    return {name: " ".join(_loop_to_d(loop, scale, cx, cy) for loop in path.loops)
            for name, path in paths.items()}, (scale, cx, cy)


def _reference_extent(paths) -> tuple[float, float, float, float]:
    """Bounding box from each segment's ``seg_start`` and ``seg_end``, plus the
    axis points (+-r, 0) / (0, +-r) at every multiple of pi/2 an arc sweeps,
    with ``min`` and ``max`` taken once over all of them: the one reference
    for ``_extent``, which reads line endpoints first, folds in chunks and
    skips covered arcs."""
    xs, ys = [], []
    for path in paths:
        for seg in path_segments(path):
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


# Arc spans at and around +-pi and full turns, besides any within +-2*pi.
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
                        | st.floats(-2.0 * math.pi, 2.0 * math.pi))
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


# Line coordinates, and arc radii that reach past them or stay inside the
# box of their endpoints, negative or not; each may be 0.0 or -0.0.
_ZEROS = st.sampled_from([0.0, -0.0])
_LINE = st.tuples(*[_ZEROS | st.floats(-100.0, 100.0)] * 4)
_ARC = st.builds(lambda r, start, span: (r, start, start + span),
                 _ZEROS | st.floats(-150.0, 150.0), _ZEROS | st.floats(-10.0, 10.0),
                 st.sampled_from(_EDGE_SPANS + tuple(-s for s in _EDGE_SPANS))
                 | st.floats(-2.0 * math.pi, 2.0 * math.pi))


def _extent_loop():
    """A hand-made loop of lines and arcs, or of arcs alone; open or closed
    alike, since the extent reads each segment on its own."""
    return st.lists(_LINE | _ARC, min_size=1, max_size=6).map(tuple) | st.lists(
        _ARC, min_size=1, max_size=3).map(tuple)


class TestSegmentFastPaths:
    """Hand-made arcs on either side of pi, full and clockwise turns, a 1e-15
    sliver and subclass segments: the renderer's length-dispatched loops
    give what the rebuilds through the oracle endpoint helpers give."""

    @pytest.mark.parametrize("margin", [0.0, 20.0])
    def test_path_data_equals_reference(self, margin):
        paths = _hand_paths()
        drawn, transform = _drawn(paths, RenderStyle(margin=margin))
        for name, path in paths.items():
            assert drawn[name] == _reference_d(path, *transform), name

    def test_extent_equals_reference(self):
        paths = list(_hand_paths().values())
        assert _extent(paths) == _reference_extent(paths)
        for path in paths:
            assert _extent([path]) == _reference_extent([path]), path

    @pytest.mark.parametrize("tree", sorted(_ORACLE_TREES))
    @pytest.mark.parametrize("style", STYLES)
    def test_extent_equals_reference_on_laid_out_trees(self, tree, style):
        layout = compute_layout(normalize(_ORACLE_TREES[tree](), "strict"), style)
        paths = [node.path for node in layout.nodes]
        assert _extent(paths) == _reference_extent(paths)
        for path in paths:
            assert _extent([path]) == _reference_extent([path]), path

    @settings(max_examples=300, deadline=None)
    @given(outlines=st.lists(st.lists(_extent_loop(), min_size=1, max_size=3), min_size=1, max_size=4),
           chunk=st.sampled_from([1, 7, svg_module._CHUNK]))
    def test_extent_equals_all_points_on_hand_loops(self, outlines, chunk):
        # Any chunk size folds to the same box, as each fold is exact.
        paths = [Path(loops=tuple(loops)) for loops in outlines]
        with mock.patch.object(svg_module, "_CHUNK", chunk):
            assert _extent(iter(paths)) == _reference_extent(paths)

    @pytest.mark.parametrize("margin", [0.0, 20.0])
    @settings(max_examples=200, deadline=None)
    @given(loops=st.lists(_closed_loops(), min_size=1, max_size=3))
    def test_loop_to_d_equals_reference_on_drawn_loops(self, margin, loops):
        path = Path(loops=tuple(loops))
        scale, cx, cy = _transform(_extent([path]), RenderStyle(margin=margin))
        for loop in path.loops:
            assert _loop_to_d(loop, scale, cx, cy) == _reference_d(Path((loop,)), scale, cx, cy)

    def test_arc_command_count_rule(self):
        # One command below pi and two from pi to a full turn: the count the
        # former general splitter, max(2, ceil(|span|/pi - 1e-12)) pieces
        # from pi up, gives for every span up to a full turn.
        paths = _hand_paths()
        spans = [seg_span(seg) for path in paths.values() for seg in path_segments(path)
                 if len(seg) == 3]
        assert BELOW_PI in spans and math.pi in spans and -2 * math.pi in spans
        assert min(spans) < -math.pi and 0 < min(map(abs, spans)) < 1e-14
        drawn, _ = _drawn(paths)
        for name, path in paths.items():
            for sub, loop in zip(parse_d(drawn[name]), path.loops, strict=True):
                counts = [1 if abs(seg_span(seg)) < math.pi
                          else max(2, math.ceil(abs(seg_span(seg)) / math.pi - 1e-12))
                          for seg in loop if len(seg) == 3]
                assert max(counts, default=1) <= 2
                assert sum(cmd == "A" for cmd, _ in sub) == sum(counts), name


def _arc_path(arc) -> Path:
    return Path(((arc,),))


class TestWideArc:
    """An arc sweeping more than a full turn, which the even-odd fill rule
    cannot draw, never reaches the writer.  The layout refuses, naming the
    node, a ``beta`` past ``MAX_SWEEP`` and an angle past ``MAX_ANGLE``,
    where a full turn's rounded end could sweep past it; within the
    bounds every arc draws."""

    @settings(max_examples=100, deadline=None)
    @given(magnitude=st.floats(MAX_SWEEP, 3.0 * math.pi, exclude_min=True),
           sign=st.sampled_from([1.0, -1.0]),
           theta=st.floats(1e4, 1e17) | st.floats(-1e17, -1e4) | st.sampled_from([4e16, 3e15]))
    def test_wider_than_a_full_turn_names_the_node(self, magnitude, sign, theta):
        with pytest.raises(ValueError) as info:
            _replaced("root", sector={"beta": magnitude})
        assert str(info.value) == f"node 'root': beta {magnitude!r} is not <= MAX_SWEEP"
        with pytest.raises(ValueError) as info:
            _replaced("root", sector={"theta": sign * theta})
        assert str(info.value) == f"node 'root': theta {sign * theta!r} is not within 4096.0 of 0"

    def test_rounded_full_turn_names_the_node(self):
        # At 4e16 rad a full turn ends 8.0 rad on, once rounded.
        with pytest.raises(ValueError) as info:
            _replaced("root", sector={"theta": 4e16})
        assert type(info.value) is ValueError
        assert str(info.value) == "node 'root': theta 4e+16 is not within 4096.0 of 0"
        for theta in (-MAX_ANGLE, MAX_ANGLE - 2.0 * math.pi):
            layout = _replaced("root", sector={"theta": theta})
            arc = layout.nodes[0].path.loops[0][0]
            assert abs(seg_span(arc)) <= MAX_SWEEP
            assert len(svg_paths(render_svg(layout))) == len(layout.nodes)

    @pytest.mark.parametrize("span", [3.0 * math.pi, 1e6, 1e300, -1e300])
    def test_huge_spans_refused_at_once(self, span):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="^node 'root': (beta|alpha) "):
            _replaced("root", sector={"beta": span})
        assert time.perf_counter() - t0 < 1.0

    def test_refusal_starts_just_past_the_tolerance(self):
        past = math.nextafter(MAX_SWEEP, math.inf)
        with pytest.raises(ValueError, match=f"^node 'root': beta {past!r} is not <= MAX_SWEEP$"):
            _replaced("root", sector={"beta": past})
        assert _replaced("root", sector={"beta": MAX_SWEEP}).nodes[0].path.loops[0][0] == (
            10.0, 0.0, 2.0 * math.pi)
        for span in (MAX_SWEEP, -MAX_SWEEP):
            paths = {"arc": _arc_path((1.0, 0.0, span))}
            drawn, transform = _drawn(paths)
            assert drawn["arc"] == _reference_d(paths["arc"], *transform)
            assert drawn["arc"].count(" A ") == 2

    def test_huge_angle_of_a_narrow_arc_draws(self):
        # Up to MAX_ANGLE either way; past it, refused.
        beta = node_by_id(_replaced(), "orange").sector.beta
        for angle in (-MAX_ANGLE, MAX_ANGLE - beta):
            render_svg(_replaced(sector={"theta": angle}))
        for angle in (math.nextafter(-MAX_ANGLE, -math.inf), 1e20, 1e300, -1e300):
            with pytest.raises(ValueError, match="^node 'orange': theta "):
                _replaced(sector={"theta": angle})

    @pytest.mark.parametrize("arc", [
        (1.0, 0.0, 3.0 * math.pi),
        (1.0, 0.0, -1e300),
        (1.0, math.nan, 1.0),
        (1.0, 0.0, math.nan),
        (1.0, -math.inf, 0.0),
        (1.0, math.inf, math.inf),
    ], ids=["arc0-None", "arc1-None", "arc2-nan", "arc3-nan", "arc4--inf", "arc5-inf"])
    def test_arc_inside_the_box_is_checked_before_it_is_skipped(self, arc):
        # ``_extent`` skips an arc its box already covers, without looking
        # at its angles; the sector that would draw one too wide, or at a
        # NaN or infinite angle, is refused when the layout is built.
        r, start, end = arc
        with pytest.raises(ValueError, match="^node 'root': (theta|beta|alpha) "):
            _one_sector(start, end - start, 0.0, r, 1.0)


_TRAFFIC_CONFIGS = {
    "default": LayoutConfig(),
    "literal": LayoutConfig(mode="literal"),
    "relax-0.05": LayoutConfig(relax_enabled=True, relax_threshold=0.05),
    "quarter": QUARTER,
    "beta0-past-full-turn": LayoutConfig(beta0=2.0 * math.pi + 1e-12),
}


@pytest.mark.parametrize("cfg", _TRAFFIC_CONFIGS.values(), ids=_TRAFFIC_CONFIGS.keys())
@pytest.mark.parametrize("tree", sorted(_ORACLE_TREES))
@pytest.mark.parametrize("style", STYLES)
def test_laid_out_arcs_span_at_most_a_full_turn(tree, style, cfg):
    # The writer draws such arcs as one or two commands.
    layout = compute_layout(normalize(_ORACLE_TREES[tree](), "strict"), style, cfg)
    for node in layout.nodes:
        for seg in path_segments(node.path):
            if len(seg) == 3:
                assert abs(seg_span(seg)) <= MAX_SWEEP, (node.id, seg)
    render_svg(layout)


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


def test_render_holds_the_document_once():
    # With every outline built first, the writer's own peak is the
    # document, held once in one buffer, and little else.
    layout = layout_rit(normalize(generate_tree(GeneratorSpec("fixed", 2, 11)), "strict"))
    assert len(layout.nodes) == 4095
    for node in layout.nodes:
        node.path
    tracemalloc.start()
    try:
        svg = render_svg(layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * len(svg)
