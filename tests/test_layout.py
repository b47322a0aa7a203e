import dataclasses
import json
import math
import re
import xml.etree.ElementTree as ET

import numpy
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rit_layout import (
    GeneratorSpec,
    LayoutConfig,
    RenderStyle,
    assign_colors,
    compute_layout,
    demo_tree,
    diagnostics,
    generate_tree,
    layout_icicle,
    layout_rit,
    layout_sunburst,
    layout_to_json,
    normalize,
    parse_tree,
    path_area,
    render_svg,
    sector_area,
    serialize_tree,
)
from rit_layout.geometry import (
    FULL_TURN_TOL,
    MAX_SWEEP,
    BandGeometry,
    Path,
    SectorGeometry,
    build_node_path,
    rect_path,
)
from rit_layout.cli import main
from rit_layout.generate import KINDS
from rit_layout.layout import MAX_ANGLE, MAX_RADIUS, MODES, STYLES, Layout, PlacedNode
from rit_layout.tree import NormalizedNode, TreeNode

from conftest import TAU, full_chain, strict_json
from oracles import node_by_id, path_segments, single, wedge_bound_satisfied
from test_golden import QUARTER


@pytest.fixture(scope="module")
def layout():
    return layout_rit(normalize(demo_tree(), "strict"), LayoutConfig(r0=8, h0=2))


class TestRitDemoTree:

    def test_area_constancy(self, layout):
        for node in layout.nodes:
            area = path_area(node.path)
            assert area == pytest.approx(node.data * layout.a_std, rel=1e-6)

    def test_equal_values_get_equal_areas(self, layout):
        a = path_area(node_by_id(layout, "green-10-a").path)
        b = path_area(node_by_id(layout, "green-10-b").path)
        assert a == pytest.approx(b, rel=1e-6)
        assert node_by_id(layout, "green-10-a").depth != node_by_id(layout, "green-10-b").depth

    def test_sibling_separation(self, layout):
        for group in layout.sibling_groups():
            for left, right in zip(group, group[1:]):
                gap = right.sector.cut_start - left.sector.cut_end
                assert gap > 0.0
                assert gap == pytest.approx(
                    0.5 * (left.sector.alpha + right.sector.alpha), abs=1e-12
                )

    def test_containment_within_frames(self, layout):
        for node in layout.nodes:
            if node.parent is None:
                continue
            frame = node_by_id(layout, node.parent).sector
            assert node.sector.theta >= frame.cut_start - 1e-9
            assert node.sector.theta + node.sector.beta <= frame.cut_end + 1e-9

    def test_radial_nesting(self, layout):
        by_id = {n.id: n for n in layout.nodes}
        for node in layout.nodes:
            if node.parent is None:
                continue
            parent = by_id[node.parent]
            assert node.sector.r_in == parent.sector.total_radius
            assert node.sector.r_in > parent.sector.r_in

    def test_visit_accounting(self, layout):
        assert layout.visits == 3 * (len(layout.nodes) - 1) + 1

    def test_root_has_no_wedge(self, layout):
        root = layout.nodes[0]
        assert root.sector.alpha == 0.0 and root.sector.topup_height == 0.0

    def test_wedge_bounds_respected(self, layout):
        assert wedge_bound_satisfied(layout)

    def test_topup_iff_alpha(self, layout):
        for node in layout.nodes:
            assert (node.sector.topup_height == 0.0) == (node.sector.alpha == 0.0)


class TestRitSpecialShapes:
    def test_single_node_circle(self):
        tree = normalize(TreeNode("x", "x", 5.0), "strict")
        layout = layout_rit(tree, LayoutConfig(r0=0.0, h0=2.0, beta0=TAU))
        assert len(layout.nodes) == 1
        assert path_area(layout.nodes[0].path) == pytest.approx(layout.a_std, rel=1e-8)
        assert layout.a_std == pytest.approx(math.pi * 4.0, rel=1e-15)

    def test_full_value_chain_heights(self):
        layout = layout_rit(
            normalize(full_chain(5), "strict"), LayoutConfig(r0=2.0, h0=1.0, beta0=TAU)
        )
        expected = [
            1.0,
            math.sqrt(14) - 3.0,
            math.sqrt(19) - math.sqrt(14),
            math.sqrt(24) - math.sqrt(19),
            math.sqrt(29) - math.sqrt(24),
        ]
        got = [n.sector.height for n in layout.nodes]
        assert got == pytest.approx(expected, rel=1e-12)
        for node in layout.nodes:
            assert node.sector.beta == pytest.approx(TAU, abs=1e-12)
            assert node.sector.alpha == 0.0  # full annuli are never cut
            assert path_area(node.path) == pytest.approx(5 * math.pi, rel=1e-6)

    def test_partial_root_compresses_children(self):
        cfg = LayoutConfig(theta0=1.25 * math.pi, beta0=0.5 * math.pi, r0=20.5, h0=2.0)
        layout = layout_rit(normalize(demo_tree(), "strict"), cfg)
        report = diagnostics(layout)
        assert report.max_area_error <= 1e-6
        assert report.containment_violations == 0
        # Children of the full root occupy exactly the quarter-turn span.
        depth1 = [n for n in layout.nodes if n.depth == 1]
        total = sum(n.sector.beta for n in depth1)
        assert total == pytest.approx(0.5 * math.pi, rel=1e-12)

    def test_zero_data_node_degenerates_quietly(self):
        tree = TreeNode("r", "r", 10, children=[
            TreeNode("a", "a", 10), TreeNode("z", "z", 0)])
        layout = layout_rit(normalize(tree, "strict"), LayoutConfig(r0=1, h0=1))
        z = node_by_id(layout, "z")
        assert z.sector.beta == 0.0 and z.sector.alpha == 0.0
        assert path_area(z.path) == 0.0

    def test_empty_config_validation(self):
        with pytest.raises(ValueError):
            LayoutConfig(ar0=0.5)
        with pytest.raises(ValueError):
            LayoutConfig(beta0=0.0)
        with pytest.raises(ValueError):
            LayoutConfig(h0=0.0)
        with pytest.raises(ValueError):
            LayoutConfig(acr=0.0)
        with pytest.raises(ValueError):
            LayoutConfig(mode="radial")

    @pytest.mark.parametrize(
        "name", ["theta0", "beta0", "r0", "h0", "ar0", "acr", "relax_threshold"])
    def test_int_beyond_float_range_is_a_value_error(self, name):
        with pytest.raises(ValueError, match=name):
            LayoutConfig(**{name: 10 ** 400})

    def test_standard_area_must_be_normal(self):
        # pi * (2 * r0 * h0 + h0**2) is about 3.1e-320, a subnormal float.
        with pytest.raises(ValueError, match="standard area of 3.14"):
            LayoutConfig(r0=1e-300, h0=1e-160)
        # About 3.1e-308, just above the smallest normal float.
        LayoutConfig(r0=0.0, h0=1e-154)


class TestAngleRatioDecay:
    def test_ratio_decays_per_generation(self):
        tree = normalize(generate_tree(GeneratorSpec("fixed", 2, 4)), "strict")
        cfg = LayoutConfig(r0=0.0, h0=2.0, ar0=0.1, acr=0.9)
        layout = layout_rit(tree, cfg)
        for node in layout.nodes:
            if node.depth == 0 or node.sector.beta <= 0:
                continue
            expected = 0.1 * 0.9 ** (node.depth - 1) * node.sector.beta
            # The clamp may only lower alpha below the requested ratio.
            assert node.sector.alpha <= expected + 1e-15
            if node.sector.alpha < expected - 1e-15:
                half = 0.5 * node.sector.beta
                hard = 2 * math.acos(node.sector.r_in / node.sector.outer_radius)
                assert node.sector.alpha == pytest.approx(
                    (1 - 1e-6) * min(half, hard), rel=1e-9
                )

    def test_unclamped_ratio_is_exact(self):
        tree = normalize(generate_tree(GeneratorSpec("fixed", 3, 3)), "strict")
        layout = layout_rit(tree, LayoutConfig(r0=6.0, h0=2.0, ar0=0.1, acr=1.0))
        for node in layout.nodes[1:]:
            assert node.sector.alpha == pytest.approx(0.1 * node.sector.beta, rel=1e-12)


class TestLiteralMode:
    def test_child_angles_are_global_fractions(self):
        layout = layout_rit(
            normalize(demo_tree(), "strict"),
            LayoutConfig(r0=8, h0=2, mode="literal"),
        )
        for node in layout.nodes:
            assert node.sector.beta == pytest.approx(TAU * node.data, rel=1e-12)

    def test_overflow_is_measured_not_hidden(self):
        layout = layout_rit(
            normalize(demo_tree(), "strict"),
            LayoutConfig(r0=8, h0=2, mode="literal"),
        )
        report = diagnostics(layout)
        assert report.containment_violations > 0
        # Each full parent's children overflow by exactly the parent's alpha.
        by_id = {n.id: n for n in layout.nodes}
        red = by_id["red"]
        children = [n for n in layout.nodes if n.parent == "red"]
        span = sum(n.sector.beta for n in children)
        assert span == pytest.approx(red.sector.beta, rel=1e-12)
        overflow = span - (red.sector.beta - red.sector.alpha)
        assert overflow == pytest.approx(red.sector.alpha, rel=1e-12)

    def test_overflow_excess_per_node(self):
        # Recorded when each node stored its frame; the frame derived from
        # the parent's sector gives the same numbers.
        layout = layout_rit(
            normalize(demo_tree(), "strict"),
            LayoutConfig(r0=8, h0=2, mode="literal"),
        )
        excess = {r.id: r.containment_excess for r in diagnostics(layout).nodes}
        assert excess == {
            "root": 0.0, "red": 0.0, "blue": 0.0, "orange": 0.0, "crimson": 0.0,
            "green-10-b": 0.4712388980384681, "yellow": 0.0, "thin-green-1": 0.0,
            "yellow-2": 0.18849555921538785, "green-10-a": 0.0, "thin-pale-green": 0.0,
            "purple": 0.21991148575128605, "green-15": 0.0, "blue-2": 0.15707963267948966,
            "pale-purple-9.5": 0.0, "thin-green-2": 0.0, "teal": 0.09424777960769415,
            "pale-purple-5": 0.0,
        }

    def test_area_constancy_still_holds(self):
        layout = layout_rit(
            normalize(demo_tree(), "strict"),
            LayoutConfig(r0=8, h0=2, mode="literal"),
        )
        assert diagnostics(layout).max_area_error <= 1e-6


class TestSunburst:
    def test_chain_areas_grow(self):
        layout = layout_sunburst(
            normalize(full_chain(5), "strict"), LayoutConfig(r0=2.0, h0=1.0)
        )
        areas = [
            sector_area(n.sector.r_in, n.sector.height, n.sector.beta)
            for n in layout.nodes
        ]
        assert areas == pytest.approx(
            [5 * math.pi, 7 * math.pi, 9 * math.pi, 11 * math.pi, 13 * math.pi],
            rel=1e-9,
        )

    def test_chain_areas_disc_start(self):
        layout = layout_sunburst(
            normalize(full_chain(5), "strict"), LayoutConfig(r0=0.0, h0=1.5)
        )
        areas = [path_area(n.path) for n in layout.nodes]
        assert areas == pytest.approx(
            [2.25 * math.pi, 6.75 * math.pi, 11.25 * math.pi, 15.75 * math.pi, 20.25 * math.pi],
            rel=1e-6,
        )

    def test_area_ratio_progression(self):
        layout = layout_sunburst(
            normalize(full_chain(5), "strict"), LayoutConfig(r0=2.0, h0=1.0)
        )
        report = diagnostics(layout)
        ratios = [n.area_ratio for n in report.nodes]
        assert ratios == pytest.approx([1.0, 1.4, 1.8, 2.2, 2.6], rel=1e-6)

    def test_single_node_matches_rit_root(self):
        tree = normalize(TreeNode("x", "x", 3.0), "strict")
        cfg = LayoutConfig(r0=4.0, h0=1.0)
        a = layout_sunburst(tree, cfg).nodes[0]
        b = layout_rit(tree, cfg).nodes[0]
        assert a.sector == b.sector

    def test_constant_height_and_no_wedges(self, demo, default_cfg):
        layout = layout_sunburst(demo, default_cfg)
        for node in layout.nodes:
            assert node.sector.height == default_cfg.h0
            assert node.sector.alpha == 0.0
            assert node.sector.r_in == default_cfg.r0 + node.depth * default_cfg.h0


class TestIcicle:
    def test_child_widths_proportional_and_abutting(self, demo, default_cfg):
        layout = layout_icicle(demo, default_cfg)
        root = layout.nodes[0]
        red, blue = (node_by_id(layout, "red"), node_by_id(layout, "blue"))
        assert red.sector.beta / blue.sector.beta == pytest.approx(3.0, rel=1e-12)
        assert red.sector.theta == root.sector.theta
        assert blue.sector.theta == pytest.approx(
            red.sector.theta + red.sector.beta, rel=1e-12
        )

    def test_single_node_rect(self, default_cfg):
        tree = normalize(TreeNode("x", "x", 3.0), "strict")
        layout = layout_icicle(tree, default_cfg)
        node = layout.nodes[0]
        assert node.sector.beta == pytest.approx(layout.a_std / default_cfg.h0)
        assert path_area(node.path) == pytest.approx(layout.a_std, rel=1e-12)

    def test_depth3_chain_stacks_equal_rects(self, default_cfg):
        layout = layout_icicle(normalize(full_chain(3), "strict"), default_cfg)
        widths = {n.sector.beta for n in layout.nodes}
        assert len(widths) == 1
        for node in layout.nodes:
            assert node.sector.r_in == node.depth * default_cfg.h0

    def test_rect_areas_encode_data(self, demo, default_cfg):
        layout = layout_icicle(demo, default_cfg)
        for node in layout.nodes:
            assert path_area(node.path) == pytest.approx(
                node.data * layout.a_std, rel=1e-12
            )

    def test_packed_with_zero_gaps(self, demo, default_cfg):
        report = diagnostics(layout_icicle(demo, default_cfg))
        assert report.min_gap == pytest.approx(0.0, abs=1e-12)


_SECTOR_KEYS = ("theta", "beta", "alpha", "r_in", "height", "topup_height")


def _segment_doc(seg) -> dict:
    if len(seg) == 3:
        radius, start, end = seg
        return {"type": "arc", "radius": radius, "start": start, "end": end}
    x0, y0, x1, y1 = seg
    return {"type": "line", "x0": x0, "y0": y0, "x1": x1, "y1": y1}


def _json_oracle(layout) -> dict:
    """The geometry document as a dict, for ``json.dumps(doc, indent=1)``."""
    return {
        "a_std": layout.a_std,
        "style": layout.style,
        "nodes": [
            {
                "id": n.id,
                "depth": n.depth,
                **{k: getattr(n.sector, k) for k in _SECTOR_KEYS},
                "relaxed": n.relaxed,
                "color": n.color,
                "label": n.label,
                "path": [_segment_doc(s) for s in path_segments(n.path)],
            }
            for n in layout.nodes
        ],
    }


def _hostile_tree() -> TreeNode:
    names = ['quote"d', "back\\slash", "new\nline", "ctl\x01", "é", "☃", "</svg>"]
    return TreeNode("r\"oot", "<root> & \\", 70.0, children=[
        TreeNode(name, f"{name} label", 10.0) for name in names
    ])


def _non_finite_layout():
    base = layout_rit(normalize(demo_tree(), "strict"))
    first, second, *rest = base.nodes
    odd = [
        dataclasses.replace(first, sector=dataclasses.replace(
            first.sector, theta=math.nan, beta=math.inf, alpha=-math.inf)),
        dataclasses.replace(second, label=["a", {"b": 1.5, "c": None}], color=None),
    ]
    return dataclasses.replace(base, a_std=math.inf, nodes=tuple(odd + rest))


class _ReprFloat(float):
    """A float whose own repr differs from float's, which json.dumps ignores."""

    def __repr__(self) -> str:
        return f"_ReprFloat({float.__repr__(self)})"


class _OddSegmentSector(SectorGeometry):
    """Plain sector fields whose outline holds a float-subclass coordinate."""

    def outline(self) -> Path:
        segments = list(super().outline().loops[0])
        i = next(i for i, seg in enumerate(segments) if len(seg) == 4)
        x0, y0, x1, y1 = segments[i]
        segments[i] = (x0, y0, x1, _ReprFloat(y1))
        return single(segments)


@dataclasses.dataclass
class _DrawnSector(SectorGeometry):
    """Sector fields with hand-drawn segments, or an empty loop, as the outline."""

    drawn: tuple = ()

    def outline(self) -> Path:
        return Path((self.drawn,))


class _SubSeg(tuple):
    """A tuple subclass segment, which only a sector subclass can draw."""

    __slots__ = ()


def _guard_layout(case: str):
    """A demo layout, rit but for "non-finite-band", whose second node,
    'red', holds a value the writer's former one-sum guard checked."""
    base = compute_layout(normalize(demo_tree(), "strict"),
                          "icicle" if case == "non-finite-band" else "rit")
    first, node, *rest = base.nodes
    s = node.sector
    if case == "float-subclass-sector":
        node = dataclasses.replace(node, sector=dataclasses.replace(s, **{
            k: _ReprFloat(getattr(s, k)) for k in _SECTOR_KEYS}))
    elif case == "float-subclass-segment":
        node = dataclasses.replace(node, sector=_OddSegmentSector(*dataclasses.astuple(s)))
    elif case == "sum-overflows":  # and theta passes MAX_ANGLE
        node = dataclasses.replace(node, sector=dataclasses.replace(
            s, theta=1e308, topup_height=1e308))
    elif case == "non-finite-band":
        node = dataclasses.replace(node, sector=dataclasses.replace(s, theta=math.inf))
    elif case == "negative-zero":
        node = dataclasses.replace(node, sector=dataclasses.replace(s, theta=-0.0))
    elif case == "bool-depth":
        node = dataclasses.replace(node, depth=True)
    elif case == "int-relaxed":
        node = dataclasses.replace(node, relaxed=1)
    elif case == "list-color":
        node = dataclasses.replace(node, color=["#112233"])
    elif case == "tuple-subclass-segment":
        node = dataclasses.replace(node, sector=_DrawnSector(
            *dataclasses.astuple(s), drawn=(_SubSeg(s.outline().loops[0][0]),)))
    return dataclasses.replace(base, nodes=(first, node, *rest))


def _zero_value_tree() -> TreeNode:
    return TreeNode("r", "r", 4.0, children=[
        TreeNode("a", "a", 4.0, children=[TreeNode("z", "z", 0.0)]),
        TreeNode("b", "b", 0.0),
    ])


def _rebuilt_outline(style: str, s) -> Path:
    """A node's outline rebuilt from its sector fields alone."""
    if style == "icicle":
        return rect_path(s.theta, -s.r_in - s.height, max(s.beta, 0.0), s.height)
    if s.beta <= 0.0:
        x0, y0 = s.r_in * math.cos(s.theta), s.r_in * math.sin(s.theta)
        r = s.r_in + s.height
        x1, y1 = r * math.cos(s.theta), r * math.sin(s.theta)
        return single([(x0, y0, x1, y1), (x1, y1, x0, y0)])
    return build_node_path(s)


@pytest.mark.parametrize("place", [layout_rit, layout_sunburst, layout_icicle])
@pytest.mark.parametrize("data, rule", [
    (math.nan, "non-finite-value"),
    (math.inf, "non-finite-value"),
    (-0.5, "negative-value"),
])
def test_bad_hand_built_data_names_node_and_rule(place, data, rule):
    tree = NormalizedNode("r", "r", 1.0, children=[
        NormalizedNode("ok", "ok", 0.5), NormalizedNode("bad", "bad", data)])
    with pytest.raises(ValueError, match=f"^node 'bad': {rule}: value {data} "):
        place(tree)


@pytest.mark.parametrize("place", [layout_rit, layout_sunburst, layout_icicle])
@pytest.mark.parametrize("data", [0.5, 2.0, 0.0])
def test_root_data_not_one_names_node_and_rule(place, data):
    tree = NormalizedNode("r", "r", data, children=[NormalizedNode("a", "a", 0.0)])
    with pytest.raises(ValueError, match=f"^node 'r': root-data-not-one: data {data} is not exactly 1$"):
        place(tree)


@pytest.mark.parametrize("place", [layout_rit, layout_sunburst, layout_icicle])
def test_first_bad_node_in_preorder_is_named(place):
    # 'a1' comes before 'b' in preorder, and after it level by level or
    # with the children taken last first.
    tree = NormalizedNode("r", "r", 1.0, children=[
        NormalizedNode("a", "a", 0.5, children=[NormalizedNode("a1", "a1", -0.5)]),
        NormalizedNode("b", "b", math.nan)])
    with pytest.raises(ValueError, match="^node 'a1': negative-value: "):
        place(tree)


@pytest.mark.parametrize("b_data", [0.5, 1e-13])
def test_child_dwarfing_subnormal_parent_names_node_and_rule(b_data):
    # 1e-13 over a parent of 5e-324 is within the overfull-parent tolerance,
    # yet the compressed frame still leaves no finite ring height.
    tree = NormalizedNode("r", "r", 1.0, children=[
        NormalizedNode("a", "a", 5e-324, children=[NormalizedNode("b", "b", b_data)])])
    with pytest.raises(ValueError, match="^node 'a': non-finite-ring-height: "):
        layout_rit(tree)
    for layout in (layout_rit(tree, LayoutConfig(mode="literal")),
                   layout_sunburst(tree), layout_icicle(tree)):
        assert [n.id for n in layout.nodes] == ["r", "a", "b"]


@pytest.mark.parametrize("b_data, message", [
    (6e292, "^node 'b': topup-past-radius-bound: "),
    (1e293, "^node 'a': ring-past-radius-bound: "),
], ids=["topup", "ring"])
def test_topup_past_the_radius_bound_names_node_and_rule(b_data, message):
    # Child data dwarfing its parent's makes a ring far thicker than its
    # radius, so the wedges are wide.  At 6e292 the ring's outer radius is
    # 0.8 of MAX_RADIUS, and the top-up that replaces the wedges' area
    # reaches past it; at 1e293 the ring itself does.
    tree = NormalizedNode("r", "r", 1.0, children=[
        NormalizedNode("a", "a", 0.95, children=[NormalizedNode("b", "b", b_data)])])
    with pytest.raises(ValueError, match=message):
        layout_rit(tree, LayoutConfig(r0=0.0, h0=9000.0, ar0=0.49))


def _log_uniform(lo: int, hi: int):
    """Positive floats spread evenly over the exponents ``lo`` to ``hi``."""
    return st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), st.integers(lo, hi))


@st.composite
def _extreme_configs(draw):
    """A valid ``LayoutConfig`` whose radii, heights and wedge ratios reach
    the ends of the float range, in both modes, relaxed or not."""
    try:
        return LayoutConfig(
            theta0=draw(st.floats(-1e300, 1e300)),
            beta0=draw(st.sampled_from([TAU, math.pi, 1e-3]) | _log_uniform(-300, 0)),
            r0=draw(st.just(0.0) | _log_uniform(-300, 154) | st.floats(1.0e154, 1.34e154)),
            h0=draw(_log_uniform(-300, 154)),
            ar0=draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
            acr=draw(st.just(1.0) | _log_uniform(-300, 300)),
            mode=draw(st.sampled_from(MODES)),
            relax_enabled=draw(st.booleans()),
            relax_threshold=draw(st.sampled_from([0.0, 1e-300, 0.01, 0.5])),
        )
    except ValueError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(
    cfg=_extreme_configs(),
    spec=st.builds(GeneratorSpec, st.sampled_from(KINDS), st.integers(1, 4), st.integers(1, 4),
                   seed=st.integers(0, 50)),
)
def test_extreme_configs_lay_out_or_name_node_and_rule(cfg, spec):
    """A valid config either lays out with sound wedges and top-ups, or
    fails naming the node and the rule; no helper message gets out."""
    tree = normalize(generate_tree(spec), "strict")
    try:
        layout = layout_rit(tree, cfg)
    except ValueError as exc:
        assert re.match(r"^node '[^']*': [a-z-]+: ", str(exc)), str(exc)
        return
    for n in layout.nodes:
        assert n.sector.alpha >= 0.0, n.id
        assert 0.0 <= n.sector.topup_height < math.inf, n.id
    assert wedge_bound_satisfied(layout)


class TestDerivedOutline:
    @pytest.mark.parametrize("source, style, cfg", [
        ("demo", "rit", LayoutConfig()),
        ("demo", "rit", QUARTER),
        ("demo", "rit", LayoutConfig(relax_enabled=True, relax_threshold=0.05)),
        ("demo", "sunburst", LayoutConfig()),
        ("demo", "icicle", LayoutConfig()),
        ("zero", "rit", LayoutConfig()),
        ("zero", "sunburst", LayoutConfig()),
        ("zero", "icicle", LayoutConfig()),
    ], ids=["rit", "quarter", "relax-0.05", "sunburst", "icicle",
            "zero-rit", "zero-sunburst", "zero-icicle"])
    def test_path_is_the_outline_of_the_sector(self, source, style, cfg):
        raw = demo_tree() if source == "demo" else _zero_value_tree()
        layout = compute_layout(normalize(raw, "strict"), style, cfg)
        for node in layout.nodes:
            assert node.path == _rebuilt_outline(style, node.sector), node.id
            assert node.path is node.path

    def test_per_node_records_are_slotted_and_replace_derives_a_new_path(self):
        """The seven per-node records hold no instance ``__dict__``, and a node
        replaced after its path was read gets its new sector's outline."""
        raw = demo_tree()
        tree = normalize(raw, "strict")
        rit = layout_rit(tree)
        node = rit.nodes[3]
        records = [raw, tree, node, node.sector, node.path, layout_icicle(tree).nodes[3].sector,
                   diagnostics(rit).nodes[3]]
        assert [type(r).__name__ for r in records] == [
            "TreeNode", "NormalizedNode", "PlacedNode", "SectorGeometry", "Path", "BandGeometry",
            "NodeReport"]
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__
        sector = rit.nodes[5].sector
        moved = dataclasses.replace(node, sector=sector)
        assert moved.path == sector.outline()
        assert moved.path != node.path

    @pytest.mark.parametrize("place", [layout_sunburst, layout_icicle])
    def test_deep_chain_places_without_recursion(self, place):
        nodes = [NormalizedNode(f"n{i}", f"n{i}", 1.0) for i in range(3001)]
        for parent, child in zip(nodes, nodes[1:]):
            parent.children = [child]
        layout = place(nodes[0])
        assert len(layout.nodes) == layout.visits == 3001
        assert [n.id for n in layout.nodes] == [n.id for n in nodes]
        assert layout.nodes[-1].depth == 3000


class TestLayoutJson:
    @pytest.mark.parametrize("make, error", [
        pytest.param(lambda: compute_layout(normalize(demo_tree(), "strict"), style), None,
                     id=style)
        for style in ("rit", "sunburst", "icicle")
    ] + [
        pytest.param(lambda: layout_rit(normalize(demo_tree(), "strict"), QUARTER), None,
                     id="quarter"),
        pytest.param(lambda: compute_layout(
            normalize(demo_tree(), "strict"), "rit",
            LayoutConfig(relax_enabled=True, relax_threshold=0.05)), None, id="relax-0.05"),
        pytest.param(lambda: layout_rit(normalize(_zero_value_tree(), "strict")), None,
                     id="uncolored-zero-values"),
    ] + [
        # About 1,300 nodes each, over 1,000 of them relaxed.
        pytest.param(lambda spec=spec: layout_rit(
            assign_colors(normalize(generate_tree(spec), "strict")),
            LayoutConfig(relax_enabled=True, relax_threshold=1e-3)), None,
            id=f"{spec.kind}-relax-1e-3")
        for spec in (GeneratorSpec("random", 8, 5, seed=1),
                     GeneratorSpec("semi-random", 12, 4, seed=3))
    ] + [
        pytest.param(lambda: layout_rit(normalize(_hostile_tree(), "strict")), None,
                     id="hostile-strings"),
        pytest.param(lambda: layout_rit(normalize(demo_tree(), "strict"),
                                        LayoutConfig(r0=8, h0=2)), None, id="int-config"),
        pytest.param(lambda: _guard_layout("negative-zero"), None, id="negative-zero"),
    ] + [
        # A value the writer could not spell exactly, where json.dumps would
        # write NaN, Infinity or a float subclass's float text, and a sector
        # with its own outline: the Layout refuses each when it is built,
        # naming the node or layout field, so no layout to write exists.
        pytest.param(_non_finite_layout, "layout: a_std inf is not a finite float",
                     id="hand-built-non-finite"),
        pytest.param(lambda: dataclasses.replace(
            layout_rit(normalize(demo_tree(), "strict")), nodes=()), "layout: no nodes to write",
            id="no-nodes"),
    ] + [
        pytest.param(lambda case=case: _guard_layout(case), f"node 'red': {message}", id=case)
        for case, message in (
            ("float-subclass-sector", "theta _ReprFloat("),
            ("float-subclass-segment", "sector _OddSegmentSector(theta="),
            ("non-finite-band", "theta inf is not a finite float"),
            ("sum-overflows", "theta 1e+308 is not within 4096.0 of 0"),
            ("bool-depth", "depth True is not int"),
            ("int-relaxed", "relaxed 1 is not bool"),
            ("list-color", "color ['#112233'] is not str"),
            ("tuple-subclass-segment", "sector _DrawnSector(theta="),
        )
    ])
    def test_bytes_equal_json_dumps(self, make, error):
        """Every layout gives ``json.dumps``'s bytes; one the contract
        refuses (``error`` set) raises ``ValueError`` naming the bad value."""
        if error is None:
            layout = make()
            assert layout_to_json(layout) == json.dumps(_json_oracle(layout), indent=1)
        else:
            with pytest.raises(ValueError, match="^" + re.escape(error)):
                make()

    @pytest.mark.parametrize("style", ["rit", "sunburst", "icicle"])
    def test_int_config_gives_the_float_config_bytes(self, style):
        tree = normalize(demo_tree(), "strict")
        as_int = compute_layout(tree, style, LayoutConfig(r0=8, h0=2))
        as_float = compute_layout(tree, style, LayoutConfig(r0=8.0, h0=2.0))
        assert as_int.config == as_float.config
        assert type(as_int.config.r0) is type(as_int.config.h0) is float
        assert layout_to_json(as_int) == layout_to_json(as_float)
        assert render_svg(as_int) == render_svg(as_float)

    def test_numpy_values_normalize_to_float_data_and_export(self):
        tree = TreeNode("r", "r", numpy.float64(3.0), children=[
            TreeNode("a", "a", numpy.float64(1.0)), TreeNode("b", "b", 2)])
        normal = normalize(tree, "strict")
        assert [type(n.data) for n in normal.walk()] == [float] * 3
        layout = layout_rit(normal)
        assert layout_to_json(layout) == json.dumps(_json_oracle(layout), indent=1)
        plain = TreeNode("r", "r", 3.0, children=[
            TreeNode("a", "a", 1.0), TreeNode("b", "b", 2.0)])
        assert layout_to_json(layout) == layout_to_json(layout_rit(normalize(plain, "strict")))

    def test_schema_and_precision(self, demo, default_cfg):
        doc = json.loads(layout_to_json(layout_rit(demo, default_cfg)))
        assert set(doc) == {"a_std", "style", "nodes"}
        assert doc["style"] == "rit"
        node = doc["nodes"][0]
        assert set(node) == {
            "id", "depth", "theta", "beta", "alpha", "r_in", "height",
            "topup_height", "relaxed", "color", "label", "path",
        }
        # Round-trip through repr keeps at least 9 significant digits.
        assert json.loads(json.dumps(doc["a_std"])) == doc["a_std"]
        kinds = {seg["type"] for n in doc["nodes"] for seg in n["path"]}
        assert kinds <= {"arc", "line"}

    def test_deterministic_across_calls(self, demo, default_cfg):
        a = layout_to_json(layout_rit(demo, default_cfg))
        b = layout_to_json(layout_rit(demo, default_cfg))
        assert a == b


# Values the writer spells: 1e308, the contract's bounds and subnormals,
# and zeros drawn often, because 0.0 == -0.0 spell differently.  Sector
# fields keep to the contract: 0 <= alpha <= beta <= 2*pi (swapped if drawn
# the other way), angles within 2**11, r_in and topup_height >= 0,
# height > 0, and three radii of at most 2**498.
_ZERO = st.sampled_from([0.0, -0.0])
_CLEAN_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    _ZERO,
    st.sampled_from([5e-324, -2.2250738585072014e-308, 1e308, -1e308]),
)
_ANGLES = st.floats(-2048.0, 2048.0) | _ZERO | st.sampled_from([5e-324, 2048.0, -2048.0])
_SIZES = st.floats(0.0, TAU) | _ZERO | st.sampled_from([5e-324, 2.2250738585072014e-308, TAU])
_RADII = st.floats(0.0, 2.0 ** 498) | _ZERO | st.sampled_from([5e-324, 2.0 ** 498])
_HEIGHTS = st.floats(5e-324, 2.0 ** 498) | st.sampled_from([5e-324, 2.0 ** 498])
_WILD_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, _ReprFloat(-0.0), _ReprFloat(1e-310), 7])


# Per kind of value: a clean strategy, then a wild one that the layout
# refuses.  Segment values ("line", "join", "arc") are only clean: a join
# is a line's x0 or y0 after another line.
_VALUES = {
    "a_std": (_CLEAN_FLOATS, _WILD_FLOATS),
    "style": (st.sampled_from(["rit", "sunburst", "icicle"]), st.none()),
    "label": (st.text(), st.none()),
    "color": (st.one_of(st.text(), st.none()), st.lists(st.text(), max_size=1)),
    "depth": (st.integers(0, 3), st.booleans()),
    "relaxed": (st.booleans(), st.integers(0, 1)),
    "theta": (_ANGLES, _WILD_FLOATS),
    "size": (_SIZES, _WILD_FLOATS),
    "radius": (_RADII, _WILD_FLOATS),
    "height": (_HEIGHTS, _WILD_FLOATS),
    "line": (_CLEAN_FLOATS, None),
    "join": (_CLEAN_FLOATS, None),
    "arc": (_CLEAN_FLOATS, None),
}
_WILD_KINDS = ["id"] + [kind for kind, (_, wild) in _VALUES.items() if wild is not None]

# How a slot that may repeat an earlier value is filled: by its own draw,
# by that value itself, or by an equal float that is another object (the
# other zero for a zero, so the two compare equal but spell differently).
_SHARES = st.sampled_from(["own", "same", "equal"])


def _equal_float(value):
    return -value if value == 0 else float(repr(value))


def _slots(outlines) -> list[tuple[str, int | None]]:
    """Each value's kind, and the index of the earlier value it may repeat.

    ``outlines`` holds each node's hand-made segment lengths.  The repeats
    are the JSON writer's: a node's ``r_in`` and ``height`` repeat the
    previous node's, an arc's ``radius`` and ``start`` the node's ``r_in``
    and ``theta``, and a line's ``x0`` and ``y0`` the last line's ``x1``
    and ``y1``.
    """
    slots: list[tuple[str, int | None]] = [("a_std", None), ("style", None)]
    sector = None
    for outline in outlines:
        slots += [(kind, None) for kind in ("id", "label", "color", "depth", "relaxed")]
        previous, sector = sector, len(slots)
        slots += [("theta", None), ("size", None), ("size", None),
                  ("radius", None if previous is None else previous + 3),
                  ("height", None if previous is None else previous + 4), ("radius", None)]
        line_end = None
        for arity in outline:
            if arity == 3:
                slots += [("arc", sector + 3), ("arc", sector), ("arc", None)]
                continue
            if line_end is None:
                slots += [("line", None)] * 2
            else:
                slots += [("join", line_end), ("join", line_end + 1)]
            line_end = len(slots)
            slots += [("line", None)] * 2
    return slots


@st.composite
def _hand_made_layouts(draw):
    # Every value is clean but at most one, which is wild: NaN, an infinity,
    # a float subclass or an int for a number, None for a string, a list
    # colour, a bool depth or an int flag.  Half the layouts are all clean;
    # otherwise the wild value's kind is drawn first, so each kind is drawn
    # as often as the others.  A clean value in a slot whose text the
    # writer may reuse is drawn by a _SHARES rule.  Returns a function
    # building the layout, whose nodes hold the hand-made loops as their
    # outlines, and the start of the error building it must raise (None
    # when it must build).
    ids = draw(st.lists(st.text(), max_size=3, unique=True))
    outlines = [draw(st.lists(st.sampled_from([4, 3]), min_size=1, max_size=5)) for _ in ids]
    slots = _slots(outlines)
    kind = draw(st.one_of(st.none(), st.sampled_from(_WILD_KINDS)))
    spots = [i for i, (slot, _) in enumerate(slots) if slot == kind]
    wild = draw(st.sampled_from(spots)) if spots else None
    node_ids = iter(ids)
    values: list = []
    error = None if ids else "layout: no nodes to write"
    for i, (slot, ref) in enumerate(slots):
        if slot == "id":
            node_id = next(node_ids)
            values.append(None if i == wild else node_id)
            owner = f"node {values[-1]!r}: "
        else:
            share = "own" if ref is None or wild in (i, ref) else draw(_SHARES)
            if share == "same":
                values.append(values[ref])
            elif share == "equal":
                values.append(_equal_float(values[ref]))
            else:
                values.append(draw(_VALUES[slot][i == wild]))
        if i == wild:
            # A node's id slot comes before its other values.
            error = f"layout: {slot} " if slot in ("a_std", "style") else owner
    values = iter(values)

    a_std, style = next(values), next(values)
    kind = BandGeometry if style == "icicle" else SectorGeometry
    nodes = []
    for outline in outlines:
        node_id, label, color, depth, relaxed = (next(values) for _ in range(5))
        theta, beta, alpha, r_in, height, topup = (next(values) for _ in range(6))
        if alpha > beta:
            alpha, beta = beta, alpha
        node = PlacedNode(node_id, label, color, 1.0, depth, None,
                          kind(theta, beta, alpha, r_in, height, topup), relaxed)
        # A test-only step: the writer reads the outline kept in ``_path``.
        node._path = Path((tuple(tuple(next(values) for _ in range(arity)) for arity in outline),))
        nodes.append(node)
    return lambda: Layout(style, LayoutConfig(), a_std, tuple(nodes), len(nodes)), error


@settings(max_examples=200, deadline=None)
@given(drawn=_hand_made_layouts())
def test_bytes_equal_json_dumps_for_hand_made_layouts(drawn):
    """A clean layout, with its nodes' hand-made outlines, gives
    ``json.dumps``'s bytes, and a wild value, or no nodes, is refused when
    the layout is built, naming the node or the layout field."""
    build, error = drawn
    if error is None:
        layout = build()
        assert layout_to_json(layout) == json.dumps(_json_oracle(layout), indent=1)
    else:
        with pytest.raises(ValueError, match="^" + re.escape(error)):
            build()


def test_diagnostics_aggregates(tmp_path):
    """Each style's ``summary()`` is that style's entry of ``rit compare``'s
    diagnostics.json, key order included."""
    tree_file = tmp_path / "demo.json"
    tree_file.write_text(serialize_tree(demo_tree(), "json-tree"), encoding="utf-8")
    assert main(["compare", "--input", str(tree_file), "--outdir", str(tmp_path / "cmp")]) == 0
    written = strict_json((tmp_path / "cmp" / "diagnostics.json").read_text(encoding="utf-8"))
    assert list(written) == list(STYLES)
    tree = assign_colors(normalize(parse_tree(tree_file.read_bytes(), "json-tree")))
    keys = ["a_std", "max_area_error", "min_gap", "containment_violations", "area_ratios"]
    for style in STYLES:
        report = diagnostics(compute_layout(tree, style, LayoutConfig()))
        summary = report.summary()
        assert list(summary) == keys
        assert list(written[style]) == keys
        assert json.loads(json.dumps(summary)) == written[style]
        assert report.min_area_ratio <= report.max_area_ratio


def _replaced(node_id="orange", sector=None, style="rit", **changes) -> Layout:
    """The demo layout in ``style`` with node ``node_id`` given ``changes``
    and its sector given the fields of ``sector``."""
    base = compute_layout(normalize(demo_tree(), "strict"), style)
    nodes = tuple(dataclasses.replace(n, **changes, sector=dataclasses.replace(n.sector, **(sector or {})))
                  if n.id == node_id else n for n in base.nodes)
    return dataclasses.replace(base, nodes=nodes)


@pytest.mark.parametrize("node_id, field, value", [
    ("orange", "theta", math.nan),
    ("orange", "r_in", math.inf),
    ("root", "r_in", math.inf),
], ids=["theta-nan", "r_in-inf", "root-r_in-inf"])
def test_diagnostics_certifies_no_non_finite_area(node_id, field, value):
    """A non-finite sector field never reaches diagnostics: the layout
    refuses it."""
    with pytest.raises(ValueError, match=f"^node '{node_id}': {field} {value} is not a finite float$"):
        _replaced(node_id, sector={field: value})


def test_diagnostics_certifies_no_overflowing_area():
    """A root at r_in = height = 1e200, whose full turns' areas would
    overflow, inf less inf, is refused when the layout is built; at
    MAX_RADIUS every measured area and ratio is finite."""
    with pytest.raises(ValueError, match=(
            r"^node 'root': r_in \+ height \+ topup_height 2e\+200 is not <= MAX_RADIUS$")):
        _replaced("root", sector={"r_in": 1e200, "height": 1e200})
    report = diagnostics(_replaced("root", sector={"r_in": 0.5 * MAX_RADIUS, "height": 0.5 * MAX_RADIUS}))
    assert 1e301 < report.nodes[0].area < math.inf
    assert math.isfinite(report.max_area_error)
    assert all(map(math.isfinite, (report.min_area_ratio, report.max_area_ratio)))


def test_diagnostics_names_the_node_of_an_open_outline():
    # A full turn at 4e16 rad would end 8.0 rad on, where x and y are not
    # those of its start; the layout refuses the angle.  Within MAX_ANGLE
    # the rounded end is off by less than FULL_TURN_TOL, and the loop closes.
    with pytest.raises(ValueError, match=r"^node 'root': theta 4e\+16 is not within 4096.0 of 0$"):
        _replaced("root", sector={"theta": 4e16})
    for theta in (-MAX_ANGLE, MAX_ANGLE - TAU):
        report = diagnostics(_replaced("root", sector={"theta": theta}))
        assert report.nodes[0].area_ratio == pytest.approx(1.0, rel=1e-12)


def test_diagnostics_names_the_node_of_an_unbuildable_outline():
    # An infinite angle, whose outline math.cos refuses, is refused when
    # the layout is built, so diagnostics never meets it.
    with pytest.raises(ValueError, match="^math domain error$"):
        dataclasses.replace(node_by_id(_replaced(), "orange").sector, theta=math.inf).outline()
    with pytest.raises(ValueError, match="^node 'orange': theta inf is not a finite float$"):
        _replaced(sector={"theta": math.inf})


@pytest.mark.parametrize("changes, orphan, parent", [
    ({"parent": "nope"}, "orange", "nope"),
    ({"id": "orange-renamed"}, "yellow", "orange"),
], ids=["unknown-parent", "renamed-parent"])
def test_layout_refuses_a_parent_that_is_not_a_node(changes, orphan, parent):
    with pytest.raises(ValueError, match=(
            f"^node '{orphan}': parent '{parent}' is not a node of the layout$")):
        _replaced(**changes)


_SECTOR_FIELDS = [f.name for f in dataclasses.fields(SectorGeometry)]
# A full turn, the tolerance on either side of one, and zero widths.
_WIDTHS = st.sampled_from([0.0, -0.0, TAU, TAU - 1e-12, math.nextafter(TAU - 1e-12, 0.0),
                           MAX_SWEEP, math.nextafter(MAX_SWEEP, 4.0), math.nextafter(TAU, 0.0),
                           math.pi, 1e-300])
# Magnitudes up to the float range, thickest at and just past the bounds.
_BOUNDS = [MAX_ANGLE, 0.5 * MAX_RADIUS, MAX_RADIUS]
_MAGNITUDES = (st.floats(0.0, 1.7e308) | st.floats(0.0, MAX_ANGLE) | st.floats(0.0, MAX_RADIUS)
               | st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 4e16, 1e300,
                                  1.7e308, *_BOUNDS, *(math.nextafter(b, math.inf) for b in _BOUNDS)]))


@st.composite
def _sector_fields(draw):
    """Sector fields reaching 1.7e308, most of them within the contract;
    those outside it break one of its range rules or bounds."""
    theta = draw(st.sampled_from([1.0, -1.0])) * draw(_MAGNITUDES)
    beta = draw(_WIDTHS | _MAGNITUDES)
    alpha = draw(_ZERO | st.floats(0.0, 1.25).map(lambda f: f * beta))
    r_in, height, topup = (draw(_MAGNITUDES) for _ in range(3))
    return theta, beta, alpha, r_in, height, topup


def _meets_contract(style, theta, beta, alpha, r_in, height, topup) -> bool:
    """The contract's range rules and bounds, spelled apart from ``Layout``."""
    icicle = style == "icicle"
    limit = MAX_RADIUS if icicle else MAX_ANGLE
    return (0.0 <= alpha <= beta and r_in >= 0.0 and height > 0.0 and topup >= 0.0
            and (icicle or beta <= MAX_SWEEP)
            and -limit <= theta <= limit and -limit <= theta + beta <= limit
            and r_in + height + topup <= MAX_RADIUS)


class TestLayoutContract:
    """``Layout`` refuses each broken rule of its contract when it is built,
    naming the node and the field, or ``layout``; what it accepts, every
    writer can draw and measure."""

    @settings(max_examples=1000, deadline=None)
    @given(fields=_sector_fields(), style=st.sampled_from(STYLES),
           canvas=st.integers(41, 2 ** 53) | st.sampled_from([840, 2 ** 53]))
    # Each bound, at it and one ulp past it, drawn every run.
    @example(fields=(MAX_ANGLE - TAU, TAU, 0.0, 1.0, 1.0, 0.0), style="rit", canvas=840)
    @example(fields=(-MAX_ANGLE, 1.0, 0.5, 1.0, 1.0, 0.25), style="sunburst", canvas=840)
    @example(fields=(math.nextafter(MAX_ANGLE, 5e3), 0.0, 0.0, 1.0, 1.0, 0.0), style="rit",
             canvas=840)
    @example(fields=(0.0, TAU + FULL_TURN_TOL, 0.0, 1.0, 1.0, 0.0), style="rit", canvas=840)
    @example(fields=(0.0, TAU - FULL_TURN_TOL, 0.0, 1.0, 1.0, 0.0), style="sunburst", canvas=840)
    @example(fields=(0.0, TAU, 0.0, 0.0, 1.0, 0.0), style="rit", canvas=840)
    @example(fields=(1.0, math.nextafter(MAX_SWEEP, 7.0), 0.0, 1.0, 1.0, 0.0), style="rit",
             canvas=840)
    @example(fields=(0.0, TAU, 0.0, 0.0, MAX_RADIUS, 0.0), style="rit", canvas=2 ** 53)
    @example(fields=(0.25 * math.pi, 5e-324, 0.0, MAX_RADIUS, 1.0, 0.0), style="rit",
             canvas=2 ** 53)
    @example(fields=(0.0, 1.0, 0.5, 0.5 * MAX_RADIUS, 0.25 * MAX_RADIUS, 0.25 * MAX_RADIUS),
             style="rit", canvas=2 ** 53)
    @example(fields=(-MAX_RADIUS, 2.0 * MAX_RADIUS, 0.0, 0.0, MAX_RADIUS, 0.0), style="icicle",
             canvas=2 ** 53)
    @example(fields=(0.0, 1.0, 0.0, 0.0, math.nextafter(MAX_RADIUS, math.inf), 0.0),
             style="icicle", canvas=840)
    @example(fields=(math.nextafter(-MAX_RADIUS, -math.inf), 1.0, 0.0, 0.0, 1.0, 0.0),
             style="icicle", canvas=840)
    def test_contract_implies_drawable_outlines(self, fields, style, canvas):
        """A sector meets the contract exactly when the layout takes it.  Then
        every loop of its outline is non-empty, every coordinate a finite
        exact float, every arc spans at most ``MAX_SWEEP``, the SVG parses
        with one path, and the measured area is finite: at any angle and
        radius up to the bounds, full and near-full turns and zero widths."""
        kind = BandGeometry if style == "icicle" else SectorGeometry
        node = PlacedNode("n", "n", None, 1.0, 0, None, kind(*fields))
        try:
            layout = Layout(style, LayoutConfig(), 1.0, (node,), 1)
        except ValueError as exc:
            assert not _meets_contract(style, *fields), exc
            assert str(exc).startswith("node 'n': "), exc
            return
        assert _meets_contract(style, *fields)
        loops = layout.nodes[0].path.loops
        assert type(loops) is tuple and loops
        for loop in loops:
            assert type(loop) is tuple and loop
            for seg in loop:
                assert type(seg) is tuple and len(seg) in (3, 4)
                for c in seg:
                    assert type(c) is float and math.isfinite(c), (fields, seg)
                if len(seg) == 3:
                    assert abs(seg[2] - seg[1]) <= MAX_SWEEP, (fields, seg)
        svg = ET.fromstring(render_svg(layout, RenderStyle(canvas=canvas)))
        assert [p.get("id") for p in svg.iter("{http://www.w3.org/2000/svg}path")] == ["n"]
        assert math.isfinite(diagnostics(layout).nodes[0].area)

    @pytest.mark.parametrize("changes, message", [
        ({"style": "a--b"}, "style 'a--b' is not one of ('rit', 'sunburst', 'icicle')"),
        ({"style": None}, "style None is not one of ('rit', 'sunburst', 'icicle')"),
        ({"config": None}, "config None is not a LayoutConfig"),
        ({"config": {"r0": 8.0}}, "config {'r0': 8.0} is not a LayoutConfig"),
        ({"a_std": math.inf}, "a_std inf is not a finite float"),
        ({"a_std": math.nan}, "a_std nan is not a finite float"),
        ({"a_std": 1}, "a_std 1 is not a finite float"),
        ({"a_std": _ReprFloat(1.0)}, "a_std _ReprFloat(1.0) is not a finite float"),
        ({"nodes": ()}, "no nodes to write"),
    ], ids=["style-dashes", "style-none", "config-none", "config-dict", "a_std-inf",
            "a_std-nan", "a_std-int", "a_std-float-subclass", "no-nodes"])
    def test_layout_fields(self, changes, message):
        with pytest.raises(ValueError) as info:
            dataclasses.replace(layout_rit(normalize(demo_tree(), "strict")), **changes)
        assert type(info.value) is ValueError
        assert str(info.value) == f"layout: {message}"

    @pytest.mark.parametrize("style, sector, name", [
        ("rit", lambda s: BandGeometry(*dataclasses.astuple(s)), "BandGeometry"),
        ("sunburst", lambda s: BandGeometry(*dataclasses.astuple(s)), "BandGeometry"),
        ("icicle", lambda s: SectorGeometry(*dataclasses.astuple(s)), "SectorGeometry"),
        ("rit", lambda s: _DrawnSector(*dataclasses.astuple(s), drawn=()), "_DrawnSector"),
        ("rit", lambda s: None, "None"),
    ], ids=["band-in-rit", "band-in-sunburst", "sector-in-icicle", "empty-loop-outline", "none"])
    def test_sector_type(self, style, sector, name):
        # A sector subclass gives its own outline, here one empty loop,
        # which the writers no longer look for.
        base = compute_layout(normalize(demo_tree(), "strict"), style)
        nodes = tuple(dataclasses.replace(n, sector=sector(n.sector)) if n.id == "orange" else n
                      for n in base.nodes)
        wanted = "BandGeometry" if style == "icicle" else "SectorGeometry"
        with pytest.raises(ValueError) as info:
            dataclasses.replace(base, nodes=nodes)
        message = str(info.value)
        assert message.startswith(f"node 'orange': sector {name}"), message
        assert message.endswith(f" is not {wanted}"), message

    @pytest.mark.parametrize("field", _SECTOR_FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1, _ReprFloat(0.5)],
                             ids=["nan", "inf", "-inf", "int", "float-subclass"])
    def test_sector_field_is_a_finite_float(self, field, value):
        with pytest.raises(ValueError) as info:
            _replaced(sector={field: value})
        assert str(info.value) == f"node 'orange': {field} {value!r} is not a finite float"

    @pytest.mark.parametrize("sector, message", [
        ({"alpha": -0.1}, "alpha -0.1 is not in [0, beta]"),
        ({"alpha": 2.0, "beta": 1.0}, "alpha 2.0 is not in [0, beta]"),
        ({"alpha": 0.0, "beta": -1.0}, "alpha 0.0 is not in [0, beta]"),
        ({"r_in": -1.0}, "r_in -1.0 is not >= 0"),
        ({"height": 0.0}, "height 0.0 is not > 0"),
        ({"height": -0.0}, "height -0.0 is not > 0"),
        ({"height": -2.0}, "height -2.0 is not > 0"),
        ({"topup_height": -5e-324}, "topup_height -5e-324 is not >= 0"),
    ], ids=["alpha-negative", "alpha-past-beta", "beta-negative", "r_in-negative",
            "height-zero", "height-negative-zero", "height-negative", "topup-negative"])
    def test_sector_ranges(self, sector, message):
        with pytest.raises(ValueError) as info:
            _replaced(sector=sector)
        assert str(info.value) == f"node 'orange': {message}"

    @pytest.mark.parametrize("style, sector, field", [
        ("rit", {"theta": MAX_ANGLE}, "theta + beta"),
        ("rit", {"theta": -MAX_ANGLE}, None),
        ("rit", {"theta": math.nextafter(-MAX_ANGLE, -math.inf)}, "theta"),
        ("rit", {"beta": MAX_SWEEP, "alpha": 0.0}, None),
        ("rit", {"beta": math.nextafter(MAX_SWEEP, math.inf), "alpha": 0.0}, "beta"),
        ("icicle", {"theta": MAX_RADIUS, "beta": math.ulp(MAX_RADIUS)}, "theta + beta"),
        ("icicle", {"theta": -MAX_RADIUS}, None),
        ("icicle", {"theta": math.nextafter(-MAX_RADIUS, -math.inf)}, "theta"),
        ("rit", {"r_in": 0.0, "height": math.nextafter(MAX_RADIUS, math.inf)},
         "r_in + height + topup_height"),
        ("rit", {"r_in": 0.0, "height": MAX_RADIUS, "topup_height": math.ulp(MAX_RADIUS)},
         "r_in + height + topup_height"),
        ("sunburst", {"r_in": 0.0, "height": MAX_RADIUS, "topup_height": 0.0}, None),
    ], ids=["theta-beta", "theta-beta-finite", "theta", "beta-full-turn", "beta",
            "band-theta-beta", "band-at-bound", "band-theta", "radii", "radii-with-topup",
            "radii-finite"])
    def test_sums_are_finite(self, style, sector, field):
        """The bounds, which keep the sums, their squares and every area and
        scaled coordinate finite: a node moved one ulp past one, by
        ``dataclasses.replace`` of the layout, is refused naming the field."""
        if field is None:
            _replaced(sector=sector, style=style)
            return
        with pytest.raises(ValueError) as info:
            _replaced(sector=sector, style=style)
        what = {"beta": "<= MAX_SWEEP", "r_in + height + topup_height": "<= MAX_RADIUS"}.get(
            field, f"within {MAX_RADIUS if style == 'icicle' else MAX_ANGLE!r} of 0")
        message = str(info.value)
        assert message.startswith(f"node 'orange': {field} "), message
        assert message.endswith(f" is not {what}"), message

    @pytest.mark.parametrize("changes, message", [
        ({"id": 5}, "node 5: id 5 is not str"),
        ({"id": None}, "node None: id None is not str"),
        ({"label": None}, "node 'yellow': label None is not str"),
        ({"label": b"yellow"}, "node 'yellow': label b'yellow' is not str"),
        ({"color": ["#112233"]}, "node 'yellow': color ['#112233'] is not str"),
        ({"color": 0x112233}, "node 'yellow': color 1122867 is not str"),
    ], ids=["id-int", "id-none", "label-none", "label-bytes", "color-list", "color-int"])
    def test_text_fields_are_str(self, changes, message):
        # A leaf, so no child's parent names the old id; a None colour is fine.
        _replaced("yellow", color=None)
        with pytest.raises(ValueError) as info:
            _replaced("yellow", **changes)
        assert str(info.value) == message

    @pytest.mark.parametrize("changes, message", [
        ({"depth": True}, "depth True is not int"),
        ({"depth": "1"}, "depth '1' is not int"),
        ({"depth": 1.0}, "depth 1.0 is not int"),
        ({"relaxed": 1}, "relaxed 1 is not bool"),
        ({"relaxed": None}, "relaxed None is not bool"),
    ], ids=["depth-bool", "depth-str", "depth-float", "relaxed-int", "relaxed-none"])
    def test_depth_is_int_and_relaxed_is_bool(self, changes, message):
        with pytest.raises(ValueError) as info:
            _replaced(**changes)
        assert str(info.value) == f"node 'orange': {message}"


class TestGeneratedCorpusSmoke:
    @pytest.mark.parametrize("kind,cmax,depth,seed", [
        ("fixed", 2, 5, 1),
        ("fixed", 3, 4, 2),
        ("random", 5, 4, 3),
        ("semi-random", 6, 4, 4),
    ])
    def test_area_separation_containment(self, kind, cmax, depth, seed):
        tree = normalize(generate_tree(GeneratorSpec(kind, cmax, depth, seed=seed)), "strict")
        layout = layout_rit(tree, LayoutConfig(r0=2.0, h0=2.0))
        report = diagnostics(layout)
        assert report.max_area_error <= 1e-6
        assert report.min_gap is None or report.min_gap > 0.0
        assert report.containment_violations == 0
        assert wedge_bound_satisfied(layout)
        assert layout.visits == 3 * (len(layout.nodes) - 1) + 1
