"""Independent area measurement: the exact boundary integral of each outline.

This is the package's verifier: it never consults the closed-form sector
math, only the drawn segments.  By Green's theorem a closed path encloses
half the integral of ``x dy - y dx`` around its boundary.  A straight
segment contributes ``x0*y1 - x1*y0`` (the surveyor's formula term) and an
origin-centred arc ``r^2 * (end - start)``, so the sum is exact up to
floating-point rounding.

``loop_vertices`` polygonizes arcs for callers that need points, such as
the test-side polygon cross-check at DEFAULT_ARC_STEP.  The SVG canvas fit
does not use it: ``svg`` takes the outlines' exact extent instead.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ArcSegment, LineSegment, Path, Segment

# Angle step for polygonized arcs; the inscribed polygon's relative area
# error is O(step^2), about 1.7e-9 at this step.
DEFAULT_ARC_STEP = 1e-4


def _arc_steps(seg: ArcSegment, max_step: float) -> int:
    return max(1, math.ceil(abs(seg.span) / max_step))


def loop_vertices(loop: tuple[Segment, ...], max_arc_step: float) -> np.ndarray:
    """Polygon vertices of one loop, shape (n, 2), last point not repeated."""
    chunks: list[np.ndarray] = []
    first = loop[0].start_point
    chunks.append(np.array([first]))
    for seg in loop:
        if isinstance(seg, LineSegment):
            chunks.append(np.array([[seg.x1, seg.y1]]))
        else:
            n = _arc_steps(seg, max_arc_step)
            angles = seg.start + (seg.span / n) * np.arange(1, n + 1)
            chunks.append(seg.radius * np.column_stack([np.cos(angles), np.sin(angles)]))
    pts = np.concatenate(chunks)
    if np.allclose(pts[-1], pts[0]):
        pts = pts[:-1]
    return pts


def path_area(path: Path) -> float:
    """Unsigned area enclosed by a closed path; holes subtract via winding."""
    if not path.closed:
        raise ValueError("cannot measure an open path")
    total = 0.0
    for seg in path.segments:
        if isinstance(seg, LineSegment):
            total += seg.x0 * seg.y1 - seg.x1 * seg.y0
        else:
            total += seg.radius * seg.radius * seg.span
    return abs(0.5 * total)


def path_boundary_points(path: Path, n: int) -> np.ndarray:
    """About ``n`` points distributed along the path boundary by arc length."""
    lengths = [seg.length() for loop in path.loops for seg in loop]
    segments = [seg for loop in path.loops for seg in loop]
    total = sum(lengths)
    if total == 0.0:
        return np.empty((0, 2))
    chunks = []
    for seg, length in zip(segments, lengths):
        k = max(2, math.ceil(n * length / total))
        t = np.linspace(0.0, 1.0, k)
        if isinstance(seg, LineSegment):
            xs = seg.x0 + (seg.x1 - seg.x0) * t
            ys = seg.y0 + (seg.y1 - seg.y0) * t
        else:
            angles = seg.start + seg.span * t
            xs = seg.radius * np.cos(angles)
            ys = seg.radius * np.sin(angles)
        chunks.append(np.column_stack([xs, ys]))
    return np.concatenate(chunks)
