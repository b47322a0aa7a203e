"""Independent area measurement: the exact boundary integral of each outline.

This is the package's verifier: it never consults the closed-form sector
math, only the drawn segments.  By Green's theorem a closed path encloses
half the integral of ``x dy - y dx`` around its boundary.  A straight
segment contributes ``x0*y1 - x1*y0`` (the surveyor's formula term) and an
origin-centred arc ``r^2 * (end - start)``, so the sum is exact up to
floating-point rounding.
"""

from __future__ import annotations

from .geometry import Path

# Angle step for polygonized arcs; the inscribed polygon's relative area
# error is O(step^2), about 1.7e-9 at this step.  Only the test oracles
# polygonize.  perfbench's measure.arc_vertices counter imports it too, but
# it counts only segments with a ``radius`` attribute, which no plain-tuple
# segment has, so it reads 0.
DEFAULT_ARC_STEP = 1e-4


def path_area(path: Path) -> float:
    """Unsigned area enclosed by a closed path; holes subtract via winding."""
    total = 0.0
    for loop in path.loops:
        for seg in loop:
            if len(seg) == 4:
                x0, y0, x1, y1 = seg
                total += x0 * y1 - x1 * y0
            else:
                r, start, end = seg
                total += r * r * (end - start)
    return abs(0.5 * total)

