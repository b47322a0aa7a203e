import dataclasses
import json
import math
import re

import numpy
import pytest
from hypothesis import assume, given, settings, strategies as st

from rit_layout import (
    GeneratorSpec,
    LayoutConfig,
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
    BandGeometry,
    Path,
    SectorGeometry,
    build_node_path,
    rect_path,
)
from rit_layout.cli import main
from rit_layout.generate import KINDS
from rit_layout.layout import MODES, STYLES, Layout, PlacedNode
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


def _json_oracle(layout) -> dict:
    """The geometry document as a dict, for ``json.dumps(doc, indent=1)``."""

    def segment(seg):
        if len(seg) == 3:
            radius, start, end = seg
            return {"type": "arc", "radius": radius, "start": start, "end": end}
        x0, y0, x1, y1 = seg
        return {"type": "line", "x0": x0, "y0": y0, "x1": x1, "y1": y1}

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
                "path": [segment(s) for s in path_segments(n.path)],
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


def _guard_layout(case: str):
    """A demo rit layout whose second node, 'red', holds a value that the
    writer's one-sum type and finiteness test sends to the slow check."""
    base = layout_rit(normalize(demo_tree(), "strict"))
    first, node, *rest = base.nodes
    s = node.sector
    if case == "float-subclass-sector":
        node = dataclasses.replace(node, sector=dataclasses.replace(s, **{
            k: _ReprFloat(getattr(s, k)) for k in _SECTOR_KEYS}))
    elif case == "float-subclass-segment":
        node = dataclasses.replace(node, sector=_OddSegmentSector(**{
            f.name: getattr(s, f.name) for f in dataclasses.fields(s)}))
    elif case == "sum-overflows":
        node = dataclasses.replace(node, sector=dataclasses.replace(
            s, theta=1e308, topup_height=1e308))
        band = BandGeometry(theta=1e308, beta=1.0, alpha=0.0, r_in=2.0, height=2.0)
        rest[0] = dataclasses.replace(rest[0], sector=band)
    elif case == "non-finite-band":
        band = BandGeometry(theta=math.inf, beta=1.0, alpha=0.0, r_in=2.0, height=2.0)
        node = dataclasses.replace(node, sector=band)
    elif case == "negative-zero":
        node = dataclasses.replace(node, sector=dataclasses.replace(s, theta=-0.0))
    elif case == "bool-depth":
        node = dataclasses.replace(node, depth=True)
    elif case == "int-relaxed":
        node = dataclasses.replace(node, relaxed=1)
    elif case == "list-color":
        node = dataclasses.replace(node, color=["#112233"])
    elif case == "tuple-subclass-segment":
        node = dataclasses.replace(node, sector=_DrawnSector(**{
            f.name: getattr(s, f.name) for f in dataclasses.fields(s)},
            drawn=(_SubSeg(s.outline().loops[0][0]),)))
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


def test_topup_of_overflowing_wedge_area_names_node_and_rule():
    # Child data dwarfing its parent's makes a ring far thicker than its
    # radius, so the wedges are wide; at an outer radius near 1.1e154 their
    # area overflows and no finite top-up can replace it.
    tree = NormalizedNode("r", "r", 1.0, children=[
        NormalizedNode("a", "a", 0.95, children=[NormalizedNode("b", "b", 1e300)])])
    with pytest.raises(ValueError, match="^node 'b': non-finite-topup-height: "):
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
        """The five per-node records hold no instance ``__dict__``, and a node
        replaced after its path was read gets its new sector's outline."""
        tree = normalize(demo_tree(), "strict")
        rit = layout_rit(tree)
        node = rit.nodes[3]
        records = [node, node.sector, node.path, layout_icicle(tree).nodes[3].sector,
                   diagnostics(rit).nodes[3]]
        assert [type(r).__name__ for r in records] == [
            "PlacedNode", "SectorGeometry", "Path", "BandGeometry", "NodeReport"]
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
    ] + [
        pytest.param(lambda case=case: _guard_layout(case), None, id=case)
        for case in ("sum-overflows", "negative-zero")
    ] + [
        # A value the writer cannot spell exactly, where json.dumps would
        # write NaN, Infinity or a float subclass's float text: the writer
        # raises, naming the node or layout field, so no such text exists.
        pytest.param(_non_finite_layout, "layout: a_std inf is not a finite float",
                     id="hand-built-non-finite"),
        pytest.param(lambda: dataclasses.replace(
            layout_rit(normalize(demo_tree(), "strict")), nodes=()), "layout: no nodes to write",
            id="no-nodes"),
    ] + [
        pytest.param(lambda case=case: _guard_layout(case), f"node 'red': {message}", id=case)
        for case, message in (
            ("float-subclass-sector", "theta _ReprFloat("),
            ("float-subclass-segment", "path line: y1 _ReprFloat("),
            ("non-finite-band", "theta inf is not a finite float"),
            ("bool-depth", "depth True is not int"),
            ("int-relaxed", "relaxed 1 is not bool"),
            ("list-color", "color ['#112233'] is not str"),
            ("tuple-subclass-segment", "path segment "),
        )
    ])
    def test_bytes_equal_json_dumps(self, make, error):
        """Every layout the writer takes gives ``json.dumps``'s bytes; one it
        refuses (``error`` set) raises ``ValueError`` naming the bad value."""
        layout = make()
        if error is None:
            assert layout_to_json(layout) == json.dumps(_json_oracle(layout), indent=1)
        else:
            with pytest.raises(ValueError, match="^" + re.escape(error)):
                layout_to_json(layout)

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


@dataclasses.dataclass
class _DrawnSector(SectorGeometry):
    """Sector fields with hand-drawn segments, joined or not, as the outline."""

    drawn: tuple = ()

    def outline(self) -> Path:
        return Path((self.drawn,))


class _SubSeg(tuple):
    """A tuple subclass segment, which the direct writer must refuse."""

    __slots__ = ()


# Values the writer can spell, and ones it must refuse: 1e308 sums
# overflow but are written, and a float subclass has its own repr.  Zeros
# are drawn often, because 0.0 == -0.0 spell differently.  A segment is a
# plain tuple; the wild one is a tuple subclass.
_CLEAN_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([5e-324, -2.2250738585072014e-308, 1e308, -1e308]),
)
_WILD_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, _ReprFloat(-0.0), _ReprFloat(1e-310), 7])


# Per kind of value: a clean strategy, then a wild one.  A "join" is a
# line's x0 or y0 after another line; its wild value is a _ReprFloat of the
# last line's end.
_VALUES = {
    "a_std": (_CLEAN_FLOATS, _WILD_FLOATS),
    "style": (st.sampled_from(["rit", "sunburst", "icicle"]), st.none()),
    "label": (st.text(), st.none()),
    "color": (st.one_of(st.text(), st.none()), st.lists(st.text(), max_size=1)),
    "depth": (st.integers(0, 3), st.booleans()),
    "relaxed": (st.booleans(), st.integers(0, 1)),
    "sector": (_CLEAN_FLOATS, _WILD_FLOATS),
    "segment": (st.just(tuple), st.just(_SubSeg)),
    "line": (_CLEAN_FLOATS, _WILD_FLOATS),
    "join": (_CLEAN_FLOATS, None),
    "arc": (_CLEAN_FLOATS, _WILD_FLOATS),
}

# How a slot that may repeat an earlier value is filled: by its own draw,
# by that value itself, or by an equal plain float (the other zero for a
# zero, so the two compare equal but spell differently).
_SHARES = st.sampled_from(["own", "same", "equal"])


def _equal_float(value):
    return -value if value == 0 else float(value)


def _slots(outlines) -> list[tuple[str, int | None]]:
    """Each value's kind, and the index of the earlier value it may repeat.

    Each segment's values follow its tuple type, and ``outlines`` holds
    each segment's length.  The repeats are the JSON writer's: a node's
    ``r_in`` and ``height`` repeat the previous node's, an arc's ``radius``
    and ``start`` the node's ``r_in`` and ``theta``, and a line's ``x0`` and
    ``y0`` the last line's ``x1`` and ``y1``.
    """
    slots: list[tuple[str, int | None]] = [("a_std", None), ("style", None)]
    sector = None
    for outline in outlines:
        slots += [(kind, None) for kind in ("id", "label", "color", "depth", "relaxed")]
        previous, sector = sector, len(slots)
        slots += [("sector", None)] * 6
        if previous is not None:
            slots[sector + 3] = ("sector", previous + 3)
            slots[sector + 4] = ("sector", previous + 4)
        line_end = None
        for arity in outline:
            slots.append(("segment", None))
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
    # colour, a bool depth, an int flag or a tuple-subclass segment.  Half
    # the layouts are all clean; otherwise the wild value's kind is drawn
    # first, so each kind is drawn as often as the others.  A clean value in
    # a slot whose text the writer may reuse is drawn by a _SHARES rule.
    # Returns the layout and the start of the error the writer must raise
    # for it, None when it must write the layout.
    ids = draw(st.lists(st.text(), max_size=3, unique=True))
    outlines = [draw(st.lists(st.sampled_from([4, 3]), min_size=1, max_size=5)) for _ in ids]
    slots = _slots(outlines)
    kind = draw(st.one_of(st.none(), st.sampled_from(["id", *_VALUES])))
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
        elif i == wild and slot == "join":
            values.append(_ReprFloat(values[ref]))
        else:
            share = "own" if ref is None or i == wild else draw(_SHARES)
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
    nodes = []
    for outline in outlines:
        node_id, label, color, depth, relaxed = (next(values) for _ in range(5))
        fields = [next(values) for _ in range(6)]
        # Each segment is its drawn tuple type called on its next values.
        drawn = tuple(next(values)(next(values) for _ in range(arity)) for arity in outline)
        nodes.append(PlacedNode(node_id, label, color, 1.0, depth, None,
                                _DrawnSector(*fields, drawn=drawn), relaxed))
    return Layout(style, LayoutConfig(), a_std, tuple(nodes), len(nodes)), error


@settings(max_examples=200, deadline=None)
@given(drawn=_hand_made_layouts())
def test_bytes_equal_json_dumps_for_hand_made_layouts(drawn):
    """A clean layout gives ``json.dumps``'s bytes; a wild value, or no
    nodes, raises ``ValueError`` naming the node or the layout field."""
    layout, error = drawn
    if error is None:
        assert layout_to_json(layout) == json.dumps(_json_oracle(layout), indent=1)
    else:
        with pytest.raises(ValueError, match="^" + re.escape(error)):
            layout_to_json(layout)


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


def _demo_with_node(change, node_id="orange") -> Layout:
    """The demo rit layout with node ``node_id`` replaced by ``change(node)``."""
    base = layout_rit(normalize(demo_tree(), "strict"))
    nodes = tuple(change(n) if n.id == node_id else n for n in base.nodes)
    return dataclasses.replace(base, nodes=nodes)


@pytest.mark.parametrize("node_id, field, value", [
    ("orange", "theta", math.nan),
    ("orange", "r_in", math.inf),
    ("root", "r_in", math.inf),
], ids=["theta-nan", "r_in-inf", "root-r_in-inf"])
def test_diagnostics_certifies_no_non_finite_area(node_id, field, value):
    """A NaN area is an infinite error, and the ratio extremes do not hang
    on where the NaN stands in node order.  The root's infinite full turns
    do not close (``inf * sin(0)`` is NaN), yet have an area, NaN."""
    layout = _demo_with_node(lambda n: dataclasses.replace(
        n, sector=dataclasses.replace(n.sector, **{field: value})), node_id)
    flipped = dataclasses.replace(layout, nodes=layout.nodes[::-1])
    reports = [diagnostics(layout), diagnostics(flipped)]
    assert [r.max_area_error for r in reports] == [math.inf, math.inf]
    assert {repr((r.min_area_ratio, r.max_area_ratio)) for r in reports} == {"(nan, nan)"}


def test_diagnostics_names_the_node_of_an_open_outline():
    drawn = ((0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 1.0, 1.0))
    layout = _demo_with_node(lambda n: dataclasses.replace(n, sector=_DrawnSector(**{
        f.name: getattr(n.sector, f.name) for f in dataclasses.fields(n.sector)}, drawn=drawn)))
    with pytest.raises(ValueError, match="^node 'orange': loop does not close$"):
        diagnostics(layout)


def test_diagnostics_names_the_node_of_an_unbuildable_outline():
    layout = _demo_with_node(lambda n: dataclasses.replace(
        n, sector=dataclasses.replace(n.sector, theta=math.inf)))
    with pytest.raises(ValueError, match="^node 'orange': math domain error$"):
        diagnostics(layout)


@pytest.mark.parametrize("changes, orphan, parent", [
    ({"parent": "nope"}, "orange", "nope"),
    ({"id": 5}, "yellow", "orange"),
], ids=["unknown-parent", "renamed-parent"])
def test_layout_refuses_a_parent_that_is_not_a_node(changes, orphan, parent):
    with pytest.raises(ValueError, match=(
            f"^node '{orphan}': parent '{parent}' is not a node of the layout$")):
        _demo_with_node(lambda n: dataclasses.replace(n, **changes))


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
