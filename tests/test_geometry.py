import gc
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from rit_layout import (
    GeneratorSpec,
    build_node_path,
    generate_tree,
    layout_rit,
    normalize,
    path_area,
    sector_area,
)
from rit_layout.geometry import (
    ANGLE_EPS,
    FULL_TURN_TOL,
    BandGeometry,
    Path,
    SectorGeometry,
    _clamp_wedge_angle as clamp_wedge_angle,
    _height_for_scale as height_for_scale,
    _max_wedge_angle as max_wedge_angle,
    _polar,
    _topup_height as topup_height,
    _wedge_pair_area as wedge_pair_area,
    is_full_turn,
    normalize_angle,
    rect_path,
)
from rit_layout.measure import PATH_JOIN_TOL

from oracles import (
    half_topup_height,
    path_boundary_points,
    path_segments,
    reference_node_path,
    sector_contains_points,
    seg_end,
    seg_start,
    single,
    wedge_paths,
)

TAU = 2.0 * math.pi


class TestAnnulusArea:
    """A full annulus is a sector of angle 2*pi."""

    def test_ring(self):
        assert sector_area(2.0, 1.0, TAU) == pytest.approx(5.0 * math.pi, rel=1e-15)

    def test_disc(self):
        assert sector_area(0.0, 1.5, TAU) == pytest.approx(2.25 * math.pi, rel=1e-15)

    def test_second_ring_grows(self):
        assert sector_area(3.0, 1.0, TAU) == pytest.approx(7.0 * math.pi, rel=1e-15)
        assert sector_area(3.0, 1.0, TAU) > sector_area(2.0, 1.0, TAU)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sector_area(-1.0, 1.0, TAU)
        with pytest.raises(ValueError):
            sector_area(1.0, -0.5, TAU)


class TestSectorArea:
    def test_full_turn_matches_annulus(self):
        for r, h in [(2.0, 1.0), (0.0, 3.0), (10.0, 0.25)]:
            annulus = math.pi * ((r + h) ** 2 - r * r)
            assert sector_area(r, h, TAU) == pytest.approx(annulus, rel=1e-15)

    def test_half_disc(self):
        assert sector_area(0.0, 1.0, math.pi) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_unit_angle(self):
        assert sector_area(1.0, 1.0, 1.0) == pytest.approx(1.5, rel=1e-15)

    def test_angle_range_enforced(self):
        with pytest.raises(ValueError):
            sector_area(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            sector_area(1.0, 1.0, TAU + 1e-6)


class TestHeightForScale:
    def test_unit_circle(self):
        assert height_for_scale(0.0, TAU, math.pi) == pytest.approx(1.0, rel=1e-15)

    def test_ring_after_first(self):
        # Annulus chain with standard area 5*pi: outer radii satisfy R^2 = 9 + 5i.
        assert height_for_scale(3.0, TAU, 5 * math.pi) == pytest.approx(
            math.sqrt(14) - 3.0, rel=1e-12
        )

    def test_chain_step(self):
        assert height_for_scale(math.sqrt(14), TAU, 5 * math.pi) == pytest.approx(
            math.sqrt(19) - math.sqrt(14), rel=1e-12
        )

    @given(
        r=st.floats(0.0, 50.0),
        s=st.floats(1e-3, TAU),
        area=st.floats(1e-3, 100.0),
    )
    def test_inversion(self, r, s, area):
        h = height_for_scale(r, s, area)
        assert h > 0.0
        assert 0.5 * s * ((r + h) ** 2 - r * r) == pytest.approx(area, rel=1e-10)

    @given(r=st.floats(0.0, 50.0), area=st.floats(1e-3, 100.0))
    def test_decreasing_in_radius(self, r, area):
        assert height_for_scale(r + 0.5, TAU, area) < height_for_scale(r, TAU, area)

    @given(r=st.floats(0.0, 50.0), area=st.floats(1e-3, 100.0))
    def test_increasing_in_area(self, r, area):
        assert height_for_scale(r, TAU, area * 1.5) > height_for_scale(r, TAU, area)


class TestWedgePairArea:
    def test_zero_angle(self):
        assert wedge_pair_area(1.0, 1.0, 0.0) == 0.0

    def test_collapses_to_circular_sector_at_origin(self):
        assert wedge_pair_area(0.0, 2.0, 0.2) == pytest.approx(0.4, rel=1e-15)

    def test_frozen_value(self):
        expected = 0.4 - 2.0 * math.sin(0.1)  # 0.5*R^2*a - r*R*sin(a/2), R=2, r=1
        assert wedge_pair_area(1.0, 1.0, 0.2) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.2003331667063437, abs=1e-15)

    @given(
        r=st.floats(0.0, 20.0),
        h=st.floats(0.01, 5.0),
        frac=st.floats(1e-6, 1.0 - 1e-9),
    )
    def test_three_term_form_matches_simplified(self, r, h, frac):
        alpha = frac * max_wedge_angle(r, r + h) * (1 - 1e-9)
        big_r = r + h
        three_term = (
            0.5 * big_r**2 * (alpha - math.sin(alpha))
            + 0.5 * big_r**2 * math.sin(alpha)
            - r * big_r * math.sin(alpha / 2)
        )
        assert wedge_pair_area(r, h, alpha) == pytest.approx(three_term, rel=1e-12, abs=1e-300)

    def test_against_polygon_measurement_1000_draws(self):
        # Independent check: measure the two explicit wedge outlines.
        rng = random.Random(20240901)
        for _ in range(1000):
            r = rng.uniform(0.0, 10.0)
            h = rng.uniform(0.05, 3.0)
            beta = rng.uniform(0.05, TAU - 0.01)
            alpha = clamp_wedge_angle(rng.uniform(0.01, 0.45), beta, r, r + h)
            g = SectorGeometry(theta=rng.uniform(0, TAU), beta=beta, alpha=alpha,
                               r_in=r, height=h)
            start, end = wedge_paths(g)
            measured = path_area(start) + path_area(end)
            assert measured == pytest.approx(wedge_pair_area(r, h, alpha), rel=1e-7)


class TestTopupHeight:
    def test_zero_loss(self):
        assert topup_height(2.0, 1.0, 0.2, 0.0) == 0.0

    def test_exact_back_substitution(self):
        w = wedge_pair_area(1.0, 1.0, 0.2)
        h_t = topup_height(2.0, 1.0, 0.2, w)
        assert h_t == pytest.approx(math.sqrt(4.0 + 2.0 * w / 0.8) - 2.0, rel=1e-12)
        recovered = 0.5 * (1.0 - 0.2) * ((2.0 + h_t) ** 2 - 4.0)
        assert recovered == pytest.approx(w, rel=1e-12)

    def test_half_variant_back_substitution(self):
        # The un-halved solve: (beta-alpha)*((R+h)^2 - R^2) = w, so the real
        # sector area added is only w/2.
        w = wedge_pair_area(1.0, 1.0, 0.2)
        h_t = half_topup_height(2.0, 1.0, 0.2, w)
        assert h_t == pytest.approx(math.sqrt(4.0 + w / 0.8) - 2.0, rel=1e-12)
        added = 0.5 * (1.0 - 0.2) * ((2.0 + h_t) ** 2 - 4.0)
        assert added == pytest.approx(w / 2.0, rel=1e-12)

    @given(
        r=st.floats(0.0, 20.0),
        h=st.floats(0.05, 5.0),
        beta=st.floats(0.05, TAU),
        ar=st.floats(0.01, 0.49),
    )
    def test_exactness_property(self, r, h, beta, ar):
        alpha = clamp_wedge_angle(ar, beta, r, r + h)
        w = wedge_pair_area(r, h, alpha)
        h_t = topup_height(r + h, beta, alpha, w)
        added = 0.5 * (beta - alpha) * ((r + h + h_t) ** 2 - (r + h) ** 2)
        assert added == pytest.approx(w, rel=1e-12)


class TestClampWedgeAngle:
    def test_ratio_dominates(self):
        assert clamp_wedge_angle(0.1, 1.0, 1.0, 100.0) == pytest.approx(0.1, rel=1e-15)

    def test_geometric_bound_binds(self):
        got = clamp_wedge_angle(0.45, 1.0, 0.999, 1.0)
        assert got == pytest.approx((1 - ANGLE_EPS) * 2.0 * math.acos(0.999), rel=1e-12)

    def test_half_beta_cap_binds(self):
        assert clamp_wedge_angle(0.9, 1.0, 0.0, 1.0) == pytest.approx(
            (1 - ANGLE_EPS) * 0.5, rel=1e-15
        )

    def test_cut_line_stays_inside_sector(self):
        # With the geometric bound active, the straight cut must never dip
        # below the inner radius.
        r, big_r = 0.999, 1.0
        alpha = clamp_wedge_angle(0.45, 1.0, r, big_r)
        ax, ay = r, 0.0
        bx, by = big_r * math.cos(alpha / 2), big_r * math.sin(alpha / 2)
        for i in range(1001):
            t = i / 1000
            x, y = ax + t * (bx - ax), ay + t * (by - ay)
            assert math.hypot(x, y) >= r - 1e-12
            assert -1e-12 <= math.atan2(y, x) <= alpha / 2 + 1e-12

    @given(
        ar=st.floats(1e-4, 0.999),
        beta=st.floats(1e-4, TAU),
        r=st.floats(0.0, 30.0),
        h=st.floats(0.01, 5.0),
    )
    def test_always_strictly_inside_bounds(self, ar, beta, r, h):
        alpha = clamp_wedge_angle(ar, beta, r, r + h)
        assert 0.0 < alpha < 0.5 * beta
        assert alpha < max_wedge_angle(r, r + h)


class TestBuildNodePath:
    def test_full_annulus_two_loops(self):
        g = SectorGeometry(theta=0.0, beta=TAU, alpha=0.0, r_in=8.0, height=2.0)
        path = build_node_path(g)
        assert len(path.loops) == 2
        assert all(len(loop) == 1 for loop in path.loops)
        radii = sorted(seg[0] for seg in path_segments(path))
        assert radii == [8.0, 10.0]

    def test_circle_single_loop(self):
        g = SectorGeometry(theta=0.0, beta=TAU, alpha=0.0, r_in=0.0, height=2.0)
        path = build_node_path(g)
        assert len(path.loops) == 1
        assert len(path_segments(path)) == 1

    def test_plain_sector_four_segments(self):
        g = SectorGeometry(theta=0.2, beta=1.0, alpha=0.0, r_in=1.0, height=1.0)
        path = build_node_path(g)
        segments = path_segments(path)
        assert len(segments) == 4
        arcs = [s for s in segments if len(s) == 3]
        lines = [s for s in segments if len(s) == 4]
        assert len(arcs) == 2 and len(lines) == 2

    def test_cut_sector_six_segments_and_area(self):
        alpha = 0.2
        w = wedge_pair_area(1.0, 1.0, alpha)
        h_t = topup_height(2.0, 1.0, alpha, w)
        g = SectorGeometry(theta=0.0, beta=1.0, alpha=alpha, r_in=1.0, height=1.0,
                           topup_height=h_t)
        path = build_node_path(g)
        assert len(path_segments(path)) == 6
        assert path_area(path) == pytest.approx(sector_area(1.0, 1.0, 1.0), rel=1e-6)

    def test_degenerate_height_rejected(self):
        with pytest.raises(ValueError):
            build_node_path(SectorGeometry(theta=0, beta=1, alpha=0, r_in=1, height=0))


class TestContainment:
    def test_interior_and_exterior_points(self):
        alpha = 0.2
        w = wedge_pair_area(1.0, 1.0, alpha)
        h_t = topup_height(2.0, 1.0, alpha, w)
        g = SectorGeometry(theta=0.0, beta=1.0, alpha=alpha, r_in=1.0, height=1.0,
                           topup_height=h_t)
        mid = 0.5
        inside_x = [1.5 * math.cos(mid), (2.0 + h_t / 2) * math.cos(mid)]
        inside_y = [1.5 * math.sin(mid), (2.0 + h_t / 2) * math.sin(mid)]
        assert sector_contains_points(g, inside_x, inside_y).all()
        # Inside the cut wedge: excluded; past the top-up: excluded.
        outside_x = [1.99 * math.cos(0.01), (2.0 + h_t) * 1.01 * math.cos(mid), 0.5]
        outside_y = [1.99 * math.sin(0.01), (2.0 + h_t) * 1.01 * math.sin(mid), 0.0]
        assert not sector_contains_points(g, outside_x, outside_y).any()

    def test_own_boundary_is_not_interior(self):
        g = SectorGeometry(theta=0.3, beta=1.2, alpha=0.15, r_in=2.0, height=0.8,
                           topup_height=0.05)
        pts = path_boundary_points(build_node_path(g), 2000)
        assert not sector_contains_points(g, pts[:, 0], pts[:, 1], margin=1e-9).any()


class TestPathInvariants:
    """``path_area`` refuses an outline whose loops do not join and close."""

    def test_disconnected_segments_rejected(self):
        with pytest.raises(ValueError, match="segments do not join"):
            path_area(single([(0, 0, 1, 0), (2, 0, 2, 1)]))
        # A NaN distance is no closer than the tolerance.
        with pytest.raises(ValueError, match="segments do not join"):
            path_area(single([(0.0, 0.0, 1.0, 0.0), (1.0, 0.0, math.nan, 0.0),
                              (math.nan, 0.0, 0.0, 0.0)]))

    def test_open_loop_rejected(self):
        with pytest.raises(ValueError, match="loop does not close"):
            path_area(single([(0, 0, 1, 0), (1, 0, 1, 1)]))
        with pytest.raises(ValueError, match="loop does not close"):
            path_area(single([(math.nan, 0.0, TAU)]))

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_join_tolerance_scales_with_coordinates(self, scale):
        # The gaps run along y at x = scale, so the largest coordinate, and
        # with it the tolerance, stays PATH_JOIN_TOL * scale.
        tol = PATH_JOIN_TOL * scale

        def triangle(join_gap, close_gap):
            return path_area(single([
                (0.0, 0.0, scale, 0.0),
                (scale, join_gap, 0.0, scale),
                (0.0, scale, 0.0, close_gap),
            ]))

        triangle(0.99 * tol, 0.99 * tol)
        with pytest.raises(ValueError, match="segments do not join"):
            triangle(1.01 * tol, 0.0)
        with pytest.raises(ValueError, match="loop does not close"):
            triangle(0.0, 1.01 * tol)

    def test_empty_loop_rejected(self):
        with pytest.raises(ValueError, match="empty loop"):
            path_area(single([]))
        with pytest.raises(ValueError, match="empty loop"):
            path_area(Path(loops=(((1.0, 0.0, TAU),), ())))

    def test_full_turn_arc_with_inexact_close_accepted(self):
        arc = (10.0, 0.3, 0.3 + TAU)
        assert seg_end(arc) != seg_start(arc)
        assert path_area(single([arc])) == pytest.approx(100.0 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("geometry", [
        SectorGeometry(theta=0.4, beta=TAU, alpha=0.0, r_in=8.0, height=2.0),
        SectorGeometry(theta=0.4, beta=TAU, alpha=0.0, r_in=0.0, height=2.0),
        SectorGeometry(theta=0.4, beta=1.1, alpha=0.0, r_in=0.0, height=2.0),
        SectorGeometry(theta=2.9, beta=1.1, alpha=0.0, r_in=3.0, height=2.0),
        SectorGeometry(theta=4.0, beta=0.7, alpha=0.05, r_in=3.0, height=2.0,
                       topup_height=0.01),
        SectorGeometry(theta=5.5, beta=0.0, alpha=0.0, r_in=3.0, height=2.0),
        BandGeometry(theta=1.7, beta=0.3, alpha=0.0, r_in=4.0, height=2.0),
    ], ids=["annulus", "disc", "sector-r0", "sector", "wedge-cut", "sliver", "band"])
    def test_outline_joins_are_exact(self, geometry):
        for loop in geometry.outline().loops:
            starts = [seg_start(seg) for seg in loop]
            ends = [seg_end(seg) for seg in loop]
            assert ends[:-1] == starts[1:]
            if not (len(loop) == 1 and len(loop[0]) == 3):
                assert ends[-1] == starts[0]

    @pytest.mark.parametrize("bad", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0, 5.0)],
                             ids=["2-tuple", "5-tuple"])
    def test_segment_of_other_length_rejected(self, bad):
        with pytest.raises(ValueError):
            path_area(single([bad]))
        with pytest.raises(ValueError):
            path_area(single([(0.0, 0.0, 1.0, 0.0), bad]))

    def test_outlines_are_untracked_by_the_gc(self):
        # A collection untracks every plain tuple of floats it sees, and a
        # tuple of untracked tuples once it sees it after them; a loop the
        # first collection walked before its segments waits for the next.
        layout = layout_rit(normalize(generate_tree(GeneratorSpec("fixed", 2, 11)), "strict"))
        loops = [loop for node in layout.nodes for loop in node.path.loops]
        assert len(layout.nodes) == 4095
        gc.collect()
        assert not any(gc.is_tracked(seg) for loop in loops for seg in loop)
        gc.collect()
        assert not any(gc.is_tracked(loop) for loop in loops)

    def test_normalize_angle(self):
        assert normalize_angle(-math.pi) == pytest.approx(math.pi)
        assert normalize_angle(2 * TAU + 0.5) == pytest.approx(0.5)
        assert 0.0 <= normalize_angle(-1e-9) < TAU


# Hand-made outlines for the per-segment loops' length-dispatched fast
# paths: arcs whose spans sit on either side of pi, full turns, clockwise
# arcs and a 1e-15 sliver, built from plain tuples and from a tuple
# subclass, which the loops unpack the same way.


class SubSeg(tuple):
    __slots__ = ()


def sector_loop(r_in, r_out, a0, a1, arc=tuple, line=tuple):
    """Annular sector from ``a0`` to ``a1`` whose joins and close are exact."""
    inner = arc((r_in, a0, a1))
    outer = arc((r_out, a1, a0))
    return (
        inner,
        line((*seg_end(inner), *seg_start(outer))),
        outer,
        line((*seg_end(outer), *seg_start(inner))),
    )


BELOW_PI = math.nextafter(math.pi, 0.0)


def hand_loops():
    """name -> loops of one hand-made outline."""
    return {
        "below-pi": (sector_loop(2.0, 3.0, 0.0, BELOW_PI),),
        "pi": (sector_loop(2.0, 3.0, 0.0, math.pi),),
        "above-pi": (sector_loop(2.0, 3.0, 0.0, math.nextafter(math.pi, 4.0)),),
        "sliver-1e-15": (sector_loop(2.0, 3.0, 0.7, 0.7 + 1e-15),),
        "clockwise": (sector_loop(2.0, 3.0, 2.5, -1.0),),
        "negative-angles": (sector_loop(1.0, 4.0, -5.0, -3.2),),
        "past-full-turn": (sector_loop(1.0, 4.0, 7.0, 10.5),),
        "wide": (sector_loop(0.5, 1.5, 0.25, 0.25 + 5.5),),
        "full-turn": (((3.0, 0.3, 0.3 + TAU),), ((2.0, 0.3 + TAU, 0.3),)),
        "circle": (((3.0, -1.0, -1.0 + TAU),),),
        "clockwise-circle": (((3.0, TAU, 0.0),),),
        "subclass": (sector_loop(2.0, 3.0, 1.0, 1.0 + BELOW_PI, SubSeg, SubSeg),),
        "subclass-full-turn": ((SubSeg((3.0, 0.3, 0.3 + TAU)),), (SubSeg((2.0, 0.3 + TAU, 0.3)),)),
        "mixed": (sector_loop(2.0, 3.0, -0.4, 3.9, tuple, SubSeg),),
        "square": ((
            (1.0, 1.0, 2.0, 1.0), SubSeg((2.0, 1.0, 2.0, 2.0)),
            (2.0, 2.0, 1.0, 2.0), (1.0, 2.0, 1.0, 1.0),
        ),),
    }


def _moved_end(seg, dx):
    """``seg`` in its own type, nudged by ``dx``: a line's end x, an arc's radius."""
    if len(seg) == 4:
        x0, y0, x1, y1 = seg
        return type(seg)((x0, y0, x1 + dx, y1))
    r, start, end = seg
    return type(seg)((r + dx, start, end))


def reference_check_loop(loop):
    """``path_area``'s join rule read through the oracle endpoint helpers only."""
    if not loop:
        raise ValueError("empty loop")
    starts = [seg_start(seg) for seg in loop]
    ends = [seg_end(seg) for seg in loop]
    scale = max(1.0, max(abs(c) for s, e in zip(starts, ends) for c in (*s, *e)))
    tol = PATH_JOIN_TOL * scale
    for end, start in zip(ends, starts[1:]):
        if math.dist(end, start) > tol:
            raise ValueError(f"segments do not join: {end} -> {start}")
    if math.dist(ends[-1], starts[0]) > tol:
        raise ValueError("loop does not close")


def _verdict(check, loop):
    try:
        check(loop)
    except ValueError as exc:
        return str(exc)
    return None


class TestSegmentFastPaths:
    def _loops(self):
        """Every hand-made loop, plus copies broken or bent at each segment."""
        loops = [()]
        for case in hand_loops().values():
            for loop in case:
                loops.append(loop)
                for i in range(len(loop)):
                    for dx in (0.5 * PATH_JOIN_TOL, 1e-6):
                        loops.append(loop[:i] + (_moved_end(loop[i], dx),) + loop[i + 1:])
        return loops

    def test_check_loop_matches_property_reference(self):
        verdicts = [_verdict(lambda loop: path_area(Path((loop,))), loop) for loop in self._loops()]
        assert verdicts == [_verdict(reference_check_loop, loop) for loop in self._loops()]
        # The cases cover acceptance and both rejections.
        assert None in verdicts and "empty loop" in verdicts and "loop does not close" in verdicts
        assert any(v and v.startswith("segments do not join") for v in verdicts)


@st.composite
def _sector_geometries(draw):
    """Sectors with and without a hole and wedge cuts, at any sign of
    theta, spanning zero, less than pi, pi, more than pi or a full turn."""
    beta = draw(st.one_of(
        st.sampled_from([0.0, BELOW_PI, math.pi, math.nextafter(math.pi, 4.0),
                         TAU - 0.5 * FULL_TURN_TOL, TAU]),
        st.floats(1e-12, TAU),
    ))
    alpha = draw(st.just(0.0) | st.floats(0.0, 0.5 * beta, exclude_min=True)) if beta else 0.0
    return SectorGeometry(
        theta=draw(st.floats(-20.0, 20.0)),
        beta=beta,
        alpha=alpha,
        r_in=draw(st.just(0.0) | st.floats(1e-3, 100.0)),
        height=draw(st.floats(1e-3, 50.0)),
        topup_height=draw(st.floats(1e-6, 10.0)) if alpha else 0.0,
    )


class TestOutlineBuilders:
    """The outline builders' tuple literals equal the oracle's second
    spelling of every outline."""

    @settings(max_examples=300, deadline=None)
    @given(g=_sector_geometries())
    def test_node_path_matches_reference(self, g):
        path = g.outline()
        if g.beta == 0.0:
            p0, p1 = _polar(g.r_in, g.theta), _polar(g.outer_radius, g.theta)
            ref = single([(*p0, *p1), (*p1, *p0)])
        else:
            ref = reference_node_path(g)
        assert path == ref
        # repr tells the segment lengths and the sign of a zero apart.
        assert repr(path) == repr(ref)
        for loop in path.loops:
            assert all(type(seg) is tuple for seg in loop)
            if is_full_turn(g.beta):
                continue
            starts = [seg_start(seg) for seg in loop]
            ends = [seg_end(seg) for seg in loop]
            assert ends[:-1] == starts[1:] and ends[-1] == starts[0]

    @given(x0=st.floats(-100.0, 100.0), y0=st.floats(-100.0, 100.0),
           width=st.floats(0.0, 100.0), height=st.floats(0.0, 100.0))
    def test_rect_path_matches_reference(self, x0, y0, width, height):
        x1, y1 = x0 + width, y0 + height
        ref = single([
            (x0, y0, x1, y0),
            (x1, y0, x1, y1),
            (x1, y1, x0, y1),
            (x0, y1, x0, y0),
        ])
        assert repr(rect_path(x0, y0, width, height)) == repr(ref)
