"""Independent area measurement: the exact boundary integral of each outline.

This is the package's verifier: it never consults the closed-form sector
math, only the drawn segments.  By Green's theorem a closed path encloses
half the integral of ``x dy - y dx`` around its boundary.  A straight
segment contributes ``x0*y1 - x1*y0`` (the surveyor's formula term) and an
origin-centred arc ``r^2 * (end - start)``, so the sum is exact up to
floating-point rounding.  The same walk checks that each loop closes.
"""

from __future__ import annotations

import math

from .geometry import Path, Segment

# Angle step for polygonized arcs (relative area error O(step^2), about
# 1.7e-9).  Only the test oracles polygonize; perfbench's arc_vertices
# counter imports it but reads 0, as no plain-tuple segment has a radius.
DEFAULT_ARC_STEP = 1e-4

# Maximum endpoint mismatch tolerated between consecutive path segments.
PATH_JOIN_TOL = 1e-9


def path_area(path: Path) -> float:
    """Unsigned area enclosed by a closed path; holes subtract via winding.

    Raises ``ValueError`` for an empty loop, a gap between segments, a loop
    that does not close, or a segment that is neither an arc nor a line.  A
    join passes when its endpoints lie within ``PATH_JOIN_TOL`` times the
    loop's largest coordinate (at least 1) of each other, so a join at a NaN
    coordinate fails.  The area walk compares each join exactly: a loop
    whose joins all match skips the distance test, and a one-segment loop
    (a full turn) tests only its close.
    """
    cos, sin = math.cos, math.sin
    total = 0.0
    for loop in path.loops:
        if not loop:
            raise ValueError("empty loop")
        segs = iter(loop)
        seg = next(segs)
        if len(seg) == 4:
            first_x, first_y, x, y = seg
            total += first_x * y - x * first_y
        else:
            r, start, end = seg
            first_x, first_y, x, y = r * cos(start), r * sin(start), r * cos(end), r * sin(end)
            total += r * r * (end - start)
        exact = True
        for seg in segs:
            if len(seg) == 4:
                x0, y0, x1, y1 = seg
                total += x0 * y1 - x1 * y0
                if x0 != x or y0 != y:
                    exact = False
                x, y = x1, y1
            else:
                r, start, end = seg
                total += r * r * (end - start)
                if r * cos(start) != x or r * sin(start) != y:
                    exact = False
                x, y = r * cos(end), r * sin(end)
        if not exact or x != first_x or y != first_y:
            if len(loop) > 1:
                _check_loop_tolerance(loop)
            elif not math.dist((x, y), (first_x, first_y)) <= PATH_JOIN_TOL * max(
                    1.0, max(abs(first_x), abs(first_y), abs(x), abs(y))):
                raise ValueError("loop does not close")
    return abs(0.5 * total)


def _check_loop_tolerance(loop: tuple[Segment, ...]) -> None:
    """``path_area``'s distance test over every join and the close, in order."""
    starts, ends = [], []
    cos, sin = math.cos, math.sin
    for seg in loop:
        if len(seg) == 4:
            x0, y0, x1, y1 = seg
            starts.append((x0, y0))
            ends.append((x1, y1))
        else:
            r, a0, a1 = seg
            starts.append((r * cos(a0), r * sin(a0)))
            ends.append((r * cos(a1), r * sin(a1)))
    scale = max(1.0, max(abs(c) for s, e in zip(starts, ends) for c in (*s, *e)))
    tol = PATH_JOIN_TOL * scale
    for end, start in zip(ends, starts[1:]):
        if not _joins(end, start, tol):
            raise ValueError(f"segments do not join: {end} -> {start}")
    if not _joins(ends[-1], starts[0], tol):
        raise ValueError("loop does not close")


def _joins(p: tuple[float, float], q: tuple[float, float], tol: float) -> bool:
    """Whether two points are equal, as the area walk's exact test takes
    them, or within ``tol``; a point with a NaN joins nothing."""
    return p[0] == q[0] and p[1] == q[1] or math.dist(p, q) <= tol
