"""Test-side oracles: point samples, containment and reference checks.

The package itself measures outlines exactly (``measure.path_area``) and
imports only the standard library.  These helpers give the tests a second,
independent view of the same shapes: polygonized loops for a shoelace
cross-check, points spread along a boundary, a vectorized interior test
straight from a sector's closed-form description, the two wedges a
sector's cuts remove, the outline builder spelled a second way, and
``single`` plus the ``seg_*`` endpoint helpers for the package's
plain-tuple segments.  They also hold the reference checks the package
does not run itself: the deficient half top-up solve, the wedge-angle
bound with its ``ANGLE_EPS`` margin, and the normalized-tree invariants.
"""

from __future__ import annotations

import math

import numpy as np

from rit_layout.geometry import (
    ANGLE_EPS,
    TAU,
    Path,
    SectorGeometry,
    Segment,
    _polar,
    is_full_turn,
    max_wedge_angle,
)
from rit_layout.layout import Layout
from rit_layout.measure import DEFAULT_ARC_STEP
from rit_layout.tree import SUM_TOL, NormalizedNode, _sum_in_order


def single(segments) -> Path:
    """A one-loop ``Path`` of ``segments``."""
    return Path(loops=(tuple(segments),))


def seg_start(seg: Segment) -> tuple[float, float]:
    """Where a segment begins: a line's (x0, y0), or an arc's start point."""
    if len(seg) == 4:
        return (seg[0], seg[1])
    r, start, _ = seg
    return (r * math.cos(start), r * math.sin(start))


def seg_end(seg: Segment) -> tuple[float, float]:
    """Where a segment ends: a line's (x1, y1), or an arc's end point."""
    if len(seg) == 4:
        return (seg[2], seg[3])
    r, _, end = seg
    return (r * math.cos(end), r * math.sin(end))


def seg_span(seg: Segment) -> float:
    """An arc's signed angle, ``end - start``."""
    return seg[2] - seg[1]


def _arc_steps(seg: Segment, max_step: float) -> int:
    return max(1, math.ceil(abs(seg_span(seg)) / max_step))


def loop_vertices(
    loop: tuple[Segment, ...], max_arc_step: float = DEFAULT_ARC_STEP
) -> np.ndarray:
    """Polygon vertices of one loop, shape (n, 2), last point not repeated."""
    chunks: list[np.ndarray] = []
    chunks.append(np.array([seg_start(loop[0])]))
    for seg in loop:
        if len(seg) == 4:
            chunks.append(np.array([seg_end(seg)]))
        else:
            n = _arc_steps(seg, max_arc_step)
            r, start, _ = seg
            angles = start + (seg_span(seg) / n) * np.arange(1, n + 1)
            chunks.append(r * np.column_stack([np.cos(angles), np.sin(angles)]))
    pts = np.concatenate(chunks)
    if np.allclose(pts[-1], pts[0]):
        pts = pts[:-1]
    return pts


def _segment_length(seg: Segment) -> float:
    if len(seg) == 4:
        x0, y0, x1, y1 = seg
        return math.hypot(x1 - x0, y1 - y0)
    return abs(seg_span(seg)) * seg[0]


def path_boundary_points(path: Path, n: int) -> np.ndarray:
    """About ``n`` points distributed along the path boundary by arc length."""
    segments = path.segments
    lengths = [_segment_length(seg) for seg in segments]
    total = sum(lengths)
    if total == 0.0:
        return np.empty((0, 2))
    chunks = []
    for seg, length in zip(segments, lengths):
        k = max(2, math.ceil(n * length / total))
        t = np.linspace(0.0, 1.0, k)
        if len(seg) == 4:
            x0, y0, x1, y1 = seg
            xs = x0 + (x1 - x0) * t
            ys = y0 + (y1 - y0) * t
        else:
            r, start, _ = seg
            angles = start + seg_span(seg) * t
            xs = r * np.cos(angles)
            ys = r * np.sin(angles)
        chunks.append(np.column_stack([xs, ys]))
    return np.concatenate(chunks)


def wedge_paths(g: SectorGeometry) -> tuple[Path, Path]:
    """Outlines of the two wedges cut from a sector's ends.

    Each wedge is bounded by the original radial edge, a slice of the outer
    arc of width alpha/2, and the straight cut back to the inner corner.
    """
    if g.alpha <= 0.0:
        raise ValueError("sector has no wedges")
    r, big_r = g.r_in, g.outer_radius
    t0, t1 = g.theta, g.theta + g.beta
    start = single(
        [
            (*_polar(r, t0), *_polar(big_r, t0)),
            (big_r, t0, t0 + 0.5 * g.alpha),
            (*_polar(big_r, t0 + 0.5 * g.alpha), *_polar(r, t0)),
        ]
    )
    end = single(
        [
            (*_polar(r, t1), *_polar(big_r, t1 - 0.5 * g.alpha)),
            (big_r, t1 - 0.5 * g.alpha, t1),
            (*_polar(big_r, t1), *_polar(r, t1)),
        ]
    )
    return start, end


def reference_node_path(g: SectorGeometry) -> Path:
    """``build_node_path`` spelled a second way, one list per loop handed
    to ``single``: the outlines the package builds must equal these.

    Closed outline of a node shape.

    Full annuli become two concentric loops (or one circle when r_in = 0);
    plain sectors a 4-segment outline; wedge-cut sectors the 6-segment
    outline of sector-minus-wedges plus top-up.  The inner arc always spans
    the full [theta, theta+beta]: cuts shorten the shape only above it.
    """
    if g.height <= 0.0:
        raise ValueError(f"degenerate sector height {g.height}")
    if g.beta < 0.0:
        raise ValueError(f"negative sector angle {g.beta}")
    t0, t1 = g.theta, g.theta + g.beta
    r, big_r = g.r_in, g.outer_radius

    if is_full_turn(g.beta):
        outer = (big_r, t0, t0 + TAU)
        if r == 0.0:
            return Path(loops=((outer,),))
        inner = (r, t0 + TAU, t0)
        return Path(loops=((outer,), (inner,)))

    # Each corner is (radius * cos(angle), radius * sin(angle)), with every
    # angle's cosine and sine taken once; corners shared by two segments
    # are the same numbers, so the joins match exactly.
    c0, s0, c1, s1 = math.cos(t0), math.sin(t0), math.cos(t1), math.sin(t1)
    segs: list[Segment] = [(r, t0, t1)] if r > 0.0 else []
    if g.alpha == 0.0:
        segs += (
            (r * c1, r * s1, big_r * c1, big_r * s1),
            (big_r, t1, t0),
            (big_r * c0, big_r * s0, r * c0, r * s0),
        )
        return single(segs)

    top_r = g.total_radius
    a0 = g.cut_start
    a1 = g.cut_end
    ca0, sa0, ca1, sa1 = math.cos(a0), math.sin(a0), math.cos(a1), math.sin(a1)
    segs += (
        (r * c1, r * s1, big_r * ca1, big_r * sa1),
        (big_r * ca1, big_r * sa1, top_r * ca1, top_r * sa1),
        (top_r, a1, a0),
        (top_r * ca0, top_r * sa0, big_r * ca0, big_r * sa0),
        (big_r * ca0, big_r * sa0, r * c0, r * s0),
    )
    return single(segs)


def sector_contains_points(
    g: SectorGeometry,
    xs: np.ndarray,
    ys: np.ndarray,
    margin: float = 0.0,
) -> np.ndarray:
    """Strict interior test for a node shape, vectorized over points.

    ``margin`` > 0 demands points lie clearly inside (distance-like slack in
    the same units as the radii), which keeps shared boundary corners from
    registering as overlap.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    rho = np.hypot(xs, ys)
    rel = np.mod(np.arctan2(ys, xs) - g.theta, TAU)
    r, big_r = g.r_in, g.outer_radius

    if is_full_turn(g.beta):
        return (rho > r + margin) & (rho < big_r - margin)

    # Angular margin scaled to arc length at each point's radius.
    ang_margin = np.divide(margin, np.maximum(rho, 1e-300))
    in_main = (
        (rho > r + margin)
        & (rho < big_r - margin)
        & (rel > ang_margin)
        & (rel < g.beta - ang_margin)
    )
    if g.alpha > 0.0:
        # Left of each directed cut line by more than `margin`
        # (lines have unit-scaled normals via division by their length).
        for (ax, ay), (bx, by) in (
            (_polar(r, g.theta), _polar(big_r, g.cut_start)),
            (_polar(big_r, g.cut_end), _polar(r, g.theta + g.beta)),
        ):
            ux, uy = bx - ax, by - ay
            norm = math.hypot(ux, uy)
            cross = (ux * (ys - ay) - uy * (xs - ax)) / norm
            in_main &= cross > margin
        in_top = (
            (rho > big_r + margin)
            & (rho < g.total_radius - margin)
            & (rel > 0.5 * g.alpha + ang_margin)
            & (rel < g.beta - 0.5 * g.alpha - ang_margin)
        )
        return in_main | in_top
    return in_main


def half_topup_height(outer_radius: float, beta: float, alpha: float, wedge_area: float) -> float:
    """The deficient top-up height: solves (beta-alpha)*((R+h)^2 - R^2) = wedge_area.

    The solve lacks the 0.5 of a sector's area, so the top-up it gives adds
    only half of ``wedge_area``.
    """
    q = wedge_area / (beta - alpha)
    return q / (outer_radius + math.sqrt(outer_radius * outer_radius + q))


def wedge_bound_satisfied(layout: Layout) -> bool:
    """True when every wedge angle clears both caps by at least ANGLE_EPS*bound."""
    for n in layout.nodes:
        sec = n.sector
        if sec.alpha <= 0.0:
            continue
        half = 0.5 * sec.beta
        hard = max_wedge_angle(sec.r_in, sec.outer_radius)
        if sec.alpha > half - ANGLE_EPS * half or sec.alpha > hard - ANGLE_EPS * hard:
            return False
    return True


def normalized_violations(tree: NormalizedNode) -> list[tuple[str, str]]:
    """(node id, rule) for each broken invariant of a normalized tree.

    The root's data is exactly 1, every data is in [0, 1], and children's
    data sum to at most their parent's plus ``SUM_TOL``.
    """
    violations: list[tuple[str, str]] = []
    if tree.data != 1.0:
        violations.append((tree.id, "root-not-unit"))
    for node in tree.walk():
        if not 0.0 <= node.data <= 1.0:
            violations.append((node.id, "data-range"))
        if node.children:
            if _sum_in_order(c.data for c in node.children) > node.data + SUM_TOL:
                violations.append((node.id, "overfull-parent"))
    return violations
