import math
import random

import numpy as np
import pytest

from rit_layout import (
    GeneratorSpec,
    LayoutConfig,
    compute_layout,
    demo_tree,
    generate_tree,
    layout_icicle,
    layout_rit,
    normalize,
    path_area,
    sector_area,
)
from rit_layout import measure
from rit_layout.geometry import (
    Path,
    SectorGeometry,
    _clamp_wedge_angle as clamp_wedge_angle,
    _wedge_cap as wedge_cap,
    _wedge_pair_area as wedge_pair_area,
    build_node_path,
)
from rit_layout.layout import STYLES
from rit_layout.tree import TreeNode

from conftest import full_chain
from oracles import (
    DEFAULT_ARC_STEP,
    loop_vertices,
    path_boundary_points,
    path_segments,
    seg_span,
    single,
    wedge_paths,
)
from test_geometry import hand_loops
from test_golden import QUARTER

TAU = 2.0 * math.pi


def unit_circle() -> Path:
    return Path(loops=(((1.0, 0.0, TAU),),))


def annulus(r: float, big_r: float) -> Path:
    return Path(loops=(((big_r, 0.0, TAU),), ((r, TAU, 0.0),)))


def square() -> Path:
    return single(
        [
            (0, 0, 2, 0),
            (2, 0, 2, 2),
            (2, 2, 0, 2),
            (0, 2, 0, 0),
        ]
    )


def random_sectors(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.uniform(0.0, 10.0)
        h = rng.uniform(0.05, 3.0)
        beta = rng.uniform(0.05, TAU - 0.01)
        alpha = clamp_wedge_angle(rng.uniform(0.01, 0.45), beta, wedge_cap(r, r + h))
        yield SectorGeometry(theta=rng.uniform(0, TAU), beta=beta, alpha=alpha,
                             r_in=r, height=h)


def test_unit_circle_area():
    assert path_area(unit_circle()) == pytest.approx(math.pi, rel=1e-15)


def test_annulus_area_with_hole():
    assert path_area(annulus(2.0, 3.0)) == pytest.approx(5 * math.pi, rel=1e-15)


def test_square_exact():
    assert path_area(square()) == 4.0


def test_orientation_insensitive():
    reversed_square = single(
        [
            (0, 0, 0, 2),
            (0, 2, 2, 2),
            (2, 2, 2, 0),
            (2, 0, 0, 0),
        ]
    )
    assert path_area(reversed_square) == 4.0


def test_zero_width_sliver_exactly_zero():
    p0 = (3.0 * math.cos(0.7), 3.0 * math.sin(0.7))
    p1 = (5.0 * math.cos(0.7), 5.0 * math.sin(0.7))
    sliver = single([(*p0, *p1), (*p1, *p0)])
    assert path_area(sliver) == 0.0


def test_open_path_rejected():
    with pytest.raises(ValueError, match="loop does not close"):
        path_area(single([(0, 0, 1, 0)]))


@pytest.mark.parametrize("arc", [(1.0, 0.0, math.inf), (1.0, -math.inf, 0.5), (0.0, math.inf, math.nan)])
@pytest.mark.parametrize("before", [(), ((0.0, 0.0, 1.0, 0.0),)], ids=["alone", "after-line"])
def test_infinite_arc_angle_named(arc, before):
    # math.cos refuses an infinite angle with a bare "math domain error".
    loop = (*before, arc)
    for check in (lambda: path_area(Path((loop,))), lambda: measure._check_loop_tolerance(loop)):
        with pytest.raises(ValueError) as info:
            check()
        assert str(info.value) == f"arc {arc!r} has an infinite angle"
        assert info.value.__context__ is None or info.value.__suppress_context__


def _one_segment_loops():
    """One-segment loops over the full-turn spans, short arcs, lines and
    non-finite radii and angles; each start angle ``t0`` gives
    ``t0 + span`` as the end, as ``build_node_path`` does."""
    spans = [TAU, -TAU, 2 * TAU, TAU - 1e-6, 0.5, -1e-9, 0.0, math.inf, math.nan]
    radii = [0.0, 1e-3, 1.0, 8.0, 1e6, math.inf, math.nan]
    starts = [0.0, 0.3, -2.0, 1e3, math.inf, math.nan]
    loops = [((r, t0, t0 + span),) for r in radii for t0 in starts for span in spans]
    loops += [((r, t0 + TAU, t0),) for r in radii for t0 in starts]
    loops += [((0.0, 0.0, 1.0, 0.0),), ((1.0, 1.0, 1.0, 1.0),), ((0.0, 0.0, 1e-10, 0.0),),
              ((math.nan, 0.0, 1.0, 0.0),), ((math.inf, 0.0, math.inf, 0.0),),
              ((math.nan, 0.0, 1.0, math.inf),)]
    return loops


def test_one_segment_close_matches_the_tolerance_rule(monkeypatch):
    """``path_area`` tests a one-segment loop's close inline, without
    ``_check_loop_tolerance``, and reaches the same verdict and message."""

    def verdict(check, loop):
        try:
            check(loop)
        except ValueError as exc:
            return str(exc)
        return None

    loops = _one_segment_loops()
    expected = [verdict(measure._check_loop_tolerance, loop) for loop in loops]
    assert None in expected and "loop does not close" in expected

    def not_called(loop):
        raise AssertionError(f"tolerance pass run for {loop}")

    monkeypatch.setattr(measure, "_check_loop_tolerance", not_called)
    got = [verdict(lambda loop: path_area(Path((loop,))), loop) for loop in loops]
    assert [(loop, v) for loop, v, w in zip(loops, got, expected) if v != w] == []


def test_matches_sector_area():
    for g in random_sectors(7, 200):
        plain = SectorGeometry(theta=g.theta, beta=g.beta, alpha=0.0,
                               r_in=g.r_in, height=g.height)
        assert path_area(build_node_path(plain)) == pytest.approx(
            sector_area(g.r_in, g.height, g.beta), rel=1e-12
        )


def test_matches_wedge_pair_area():
    for g in random_sectors(20240901, 200):
        start, end = wedge_paths(g)
        assert path_area(start) + path_area(end) == pytest.approx(
            wedge_pair_area(g.r_in, g.height, g.alpha), rel=1e-10
        )


@pytest.mark.parametrize("maker", [layout_rit, layout_icicle])
@pytest.mark.parametrize("tree", ["demo", "chain-49"])
def test_layout_areas_proportional_to_data(maker, tree):
    root = demo_tree() if tree == "demo" else full_chain(49)
    layout = maker(normalize(root, "strict"), LayoutConfig(r0=8.0, h0=2.0))
    assert len(layout.nodes) > 1
    for node in layout.nodes:
        target = node.data * layout.a_std
        assert abs(path_area(node.path) - target) <= 1e-10 * target


@pytest.mark.parametrize("cfg", [
    LayoutConfig(),
    LayoutConfig(mode="literal"),
    LayoutConfig(relax_enabled=True, relax_threshold=0.05),
    QUARTER,
], ids=["contained", "literal", "relaxed-0.05", "quarter"])
@pytest.mark.parametrize("style", STYLES)
def test_path_area_accepts_every_package_outline(style, cfg):
    """Building an outline checks nothing, so the verifier must pass every
    outline the layouts draw: full turns, cut sectors, slivers and bands."""
    zero = TreeNode("r", "r", 2.0, children=[TreeNode("a", "a", 2.0), TreeNode("z", "z", 0.0)])
    trees = [demo_tree(), full_chain(12), zero, generate_tree(GeneratorSpec("random", 4, 6, seed=1))]
    for raw in trees:
        layout = compute_layout(normalize(raw, "strict"), style, cfg)
        for node in layout.nodes:
            assert math.isfinite(path_area(node.path)), node.id


def _polygon_area(path: Path, step: float = DEFAULT_ARC_STEP) -> float:
    """Shoelace area of the outline with arcs polygonized at ``step``."""
    total = 0.0
    for loop in path.loops:
        pts = loop_vertices(loop, step)
        x, y = pts[:, 0], pts[:, 1]
        # fsum keeps the rounding of ~10^5 terms far below the O(step^2) error.
        total += 0.5 * math.fsum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    return abs(total)


def _polygon_error_bound(path: Path) -> float:
    # Each inscribed chord of angle d <= step drops r^2 (d - sin d) / 2 <= r^2 d^3 / 12.
    return sum(
        seg[0] ** 2 * abs(seg_span(seg)) * DEFAULT_ARC_STEP ** 2 / 12.0
        for seg in path_segments(path)
        if len(seg) == 3
    )


def test_error_scales_with_step_squared():
    coarse = abs(_polygon_area(unit_circle(), 1e-2) - math.pi)
    fine = abs(_polygon_area(unit_circle(), 1e-3) - math.pi)
    assert fine < coarse / 50


def test_default_step_hits_1e9_relative():
    err = abs(_polygon_area(unit_circle()) - math.pi) / math.pi
    assert err < 5e-9


def test_polygon_cross_check():
    """The spec's arc-polygon shoelace agrees within its O(step^2) error."""
    layout = layout_rit(normalize(demo_tree(), "strict"), LayoutConfig(r0=8.0, h0=2.0))
    paths = [unit_circle(), annulus(1.0, 4.0), square()]
    paths += [n.path for n in layout.nodes]
    for path in paths:
        exact = path_area(path)
        rounding = 1e-12 * max(exact, 1.0)
        assert abs(_polygon_area(path) - exact) <= _polygon_error_bound(path) + rounding


def test_loop_vertices_respects_step():
    loop = ((1.0, 0.0, 1.0),)
    pts = loop_vertices(loop, 1e-2)
    assert len(pts) >= 100
    assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 1.0)


def test_boundary_points_lie_on_path():
    pts = path_boundary_points(square(), 400)
    on_edge = (
        np.isclose(pts[:, 0], 0) | np.isclose(pts[:, 0], 2)
        | np.isclose(pts[:, 1], 0) | np.isclose(pts[:, 1], 2)
    )
    assert on_edge.all()


@pytest.mark.parametrize("name", sorted(hand_loops()))
def test_path_area_terms_match_property_reference(name):
    # Same terms in the same order as a sum over the oracle's span helper
    # and indexed coordinates, whether a segment is a tuple or a subclass.
    path = Path(loops=hand_loops()[name])
    total = 0.0
    for seg in path_segments(path):
        if len(seg) == 4:
            total += seg[0] * seg[3] - seg[2] * seg[1]
        else:
            total += seg[0] * seg[0] * seg_span(seg)
    assert path_area(path) == abs(0.5 * total)
