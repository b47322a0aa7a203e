"""Closed-form annular-sector geometry and node outline construction.

All angles are radians, counter-clockwise, measured from the positive
x axis; all arcs are centered on the origin.  A drawn node is an annular
sector with a fan-shaped wedge of half-angle ``alpha/2`` cut off each end
(opening a visible gap to its angular neighbours) and a thin top-up sector
stacked on its outer arc whose area exactly replaces the two wedges, so
the shape's total area stays proportional to the encoded value.

An outline segment is a plain ``tuple`` whose length says what it is:
``(radius, start, end)`` is an arc of the circle of that radius about the
origin, counter-clockwise from ``start`` to ``end`` (clockwise when
``end < start``), and ``(x0, y0, x1, y1)`` is the straight segment from
``(x0, y0)`` to ``(x1, y1)``.  Every reader tells them apart by
``len(seg) == 4``.

The builders hand each shared corner to both segments that meet there,
so every join but a full turn's close matches exactly; ``Path`` checks
nothing, and ``measure.path_area`` checks the joins as it measures.

Everything here is plain ``math``.  Point sampling, vectorized
containment and the explicit wedge outlines, which only the tests need,
live in the tests' ``oracles`` module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TAU = 2.0 * math.pi

# Relative safety margin kept between a wedge angle and its hard bounds.
ANGLE_EPS = 1e-6

# Angular widths within this of a full turn are treated as full annuli.
FULL_TURN_TOL = 1e-12

# The widest angle a sector may sweep: a full turn and its tolerance.
MAX_SWEEP = TAU + FULL_TURN_TOL


def normalize_angle(theta: float) -> float:
    """Map an angle into [0, 2*pi)."""
    theta = math.fmod(theta, TAU)
    return theta + TAU if theta < 0.0 else theta


def sector_area(r: float, h: float, beta: float) -> float:
    """Area of an annular sector of arc angle ``beta``.

    At ``beta = 2*pi`` this is the full annulus area.
    """
    if r < 0.0 or h < 0.0:
        raise ValueError(f"sector_area requires r >= 0 and h >= 0, got r={r}, h={h}")
    if not 0.0 < beta <= MAX_SWEEP:
        raise ValueError(f"sector angle must be in (0, 2*pi], got {beta}")
    return 0.5 * beta * ((r + h) ** 2 - r * r)


def _height_for_scale(r: float, angle_scale: float, area_std: float) -> float:
    """Radial height giving a sector of angle ``angle_scale * d`` area ``d * area_std``.

    Solves 0.5 * s * ((r+h)^2 - r^2) = area_std for h.  With s = 2*pi this
    is the full-annulus height that keeps every ring's area equal to the
    standard area; smaller scales (compressed subtree frames) thicken the
    ring by exactly the inverse factor.  Needs r >= 0, s > 0 and
    area_std > 0; an overflow gives a NaN, or a 0 that ``r + h`` loses.
    """
    q = 2.0 * area_std / angle_scale
    # Algebraically -r + sqrt(r^2 + q); this form avoids cancellation for r >> h.
    return q / (r + math.sqrt(r * r + q))


def _max_wedge_angle(r: float, outer_radius: float) -> float:
    """Hard geometric bound on the double-wedge angle: 2*acos(r/R), for 0 <= r < R.

    Beyond it the straight cut from the inner corner to the outer arc dips
    below the sector's inner radius.
    """
    return 2.0 * math.acos(r / outer_radius)


def _wedge_cap(r: float, outer_radius: float) -> float:
    """The geometric bound 2*acos(r/R) shrunk by ANGLE_EPS, so the cut line
    never leaves the sector.  It depends only on the frame's radii, so a
    frame computes it once for all its children; needs 0 <= r < R."""
    return (1.0 - ANGLE_EPS) * _max_wedge_angle(r, outer_radius)


def _clamp_wedge_angle(ar: float, beta: float, cap: float) -> float:
    """Double-wedge angle ``ar * beta`` clamped strictly inside both bounds.

    The bounds are half the sector angle, shrunk by ANGLE_EPS so the top-up
    sector never degenerates, and the frame's ``cap`` from ``_wedge_cap``.
    Needs ar >= 0 and 0 < beta <= 2*pi; a ratio of 0 gives 0, no wedge.
    """
    return min(ar * beta, (1.0 - ANGLE_EPS) * 0.5 * beta, cap)


def _wedge_pair_area(r: float, h: float, alpha: float) -> float:
    """Combined area of the two wedges cut from the ends of a sector.

    The pair, mirrored together, forms a triangle capped by a circular
    segment of angle ``alpha`` at the outer radius; the sum collapses to
    0.5*R^2*alpha - r*R*sin(alpha/2) with R = r + h.  Needs r >= 0, h > 0
    and an ``alpha`` from ``_clamp_wedge_angle``; the result can round to
    0 or below for a wedge far thinner than the ring, and overflows for R
    near the square root of the float range.
    """
    big_r = r + h
    return 0.5 * big_r * big_r * alpha - r * big_r * math.sin(0.5 * alpha)


def _topup_height(outer_radius: float, beta: float, alpha: float, wedge_area: float) -> float:
    """Height of the top-up sector (angle ``beta - alpha``) replacing ``wedge_area``.

    Solves 0.5*(beta-alpha)*((R+h)^2 - R^2) = wedge_area, so the added area
    equals the cut area.  Needs R > 0, 0 <= alpha < beta and
    wedge_area >= 0; an overflow gives a NaN, or a 0 that drops the area.
    """
    q = 2.0 * wedge_area / (beta - alpha)
    return q / (outer_radius + math.sqrt(outer_radius * outer_radius + q))


# An arc ``(radius, start, end)`` or a line ``(x0, y0, x1, y1)``.
Segment = tuple[float, float, float] | tuple[float, float, float, float]


@dataclass(slots=True)
class Path:
    """One or more closed loops of arc/line segments (outer boundary + holes).

    A plain record: ``measure.path_area`` checks that the loops close.
    """

    loops: tuple[tuple[Segment, ...], ...]


def _polar(radius: float, angle: float) -> tuple[float, float]:
    return (radius * math.cos(angle), radius * math.sin(angle))


@dataclass(slots=True)
class SectorGeometry:
    """Placed geometry of one node.

    ``alpha`` is the double-wedge angle (0 for the root and for full annuli);
    ``topup_height`` is nonzero exactly when ``alpha`` is.  The outer radius
    of the main sector is ``r_in + height``; the top-up extends it by
    ``topup_height`` over the angular range [theta+alpha/2, theta+beta-alpha/2].
    """

    theta: float
    beta: float
    alpha: float
    r_in: float
    height: float
    topup_height: float = 0.0

    @property
    def outer_radius(self) -> float:
        return self.r_in + self.height

    @property
    def total_radius(self) -> float:
        return self.r_in + self.height + self.topup_height

    @property
    def cut_start(self) -> float:
        """Angle of the starting cut edge (shape extent at the outer radius)."""
        return self.theta + 0.5 * self.alpha

    @property
    def cut_end(self) -> float:
        return self.theta + self.beta - 0.5 * self.alpha

    def outline(self) -> Path:
        """The drawn outline, a pure function of these fields.

        A zero-width sector (a zero-data node) is a degenerate radial
        sliver with no area; any other is ``build_node_path``'s shape.
        """
        if self.beta <= 0.0:
            x0, y0 = _polar(self.r_in, self.theta)
            x1, y1 = _polar(self.outer_radius, self.theta)
            return Path((((x0, y0, x1, y1), (x1, y1, x0, y0)),))
        return build_node_path(self)


@dataclass(slots=True)
class BandGeometry(SectorGeometry):
    """Placed geometry of one icicle band, in the sector fields.

    ``theta`` is the x offset, ``beta`` the width and ``r_in`` the distance
    of the row's top below the root's top edge; ``alpha`` is 0.
    """

    def outline(self) -> Path:
        """Counter-clockwise rectangle; a zero width has zero area."""
        return rect_path(self.theta, -self.r_in - self.height, max(self.beta, 0.0), self.height)


def is_full_turn(beta: float) -> bool:
    return beta >= TAU - FULL_TURN_TOL


def build_node_path(g: SectorGeometry) -> Path:
    """Closed outline of a node shape.

    Full annuli become two concentric loops (or one circle when r_in = 0);
    plain sectors a 4-segment outline; wedge-cut sectors the 6-segment
    outline of sector-minus-wedges plus top-up.  The inner arc always spans
    the full [theta, theta+beta]: cuts shorten the shape only above it.
    """
    # Each field is read once; the radii and cut angles are the properties'
    # expressions, so they are the same floats.
    theta, beta, alpha, r, height = g.theta, g.beta, g.alpha, g.r_in, g.height
    if height <= 0.0:
        raise ValueError(f"degenerate sector height {height}")
    if beta < 0.0:
        raise ValueError(f"negative sector angle {beta}")
    t0, t1 = theta, theta + beta
    big_r = r + height

    if is_full_turn(beta):
        outer = (big_r, t0, t0 + TAU)
        if r == 0.0:
            return Path(((outer,),))
        return Path(((outer,), ((r, t0 + TAU, t0),)))

    # Each corner is (radius * cos(angle), radius * sin(angle)), computed
    # once and handed to both segments that share it, so the joins match
    # exactly.
    c0, s0, c1, s1 = math.cos(t0), math.sin(t0), math.cos(t1), math.sin(t1)
    ix0, iy0, ix1, iy1 = r * c0, r * s0, r * c1, r * s1
    inner = ((r, t0, t1),) if r > 0.0 else ()
    if alpha == 0.0:
        return Path((inner + (
            (ix1, iy1, big_r * c1, big_r * s1),
            (big_r, t1, t0),
            (big_r * c0, big_r * s0, ix0, iy0),
        ),))

    top_r = big_r + g.topup_height
    a0 = theta + 0.5 * alpha
    a1 = t1 - 0.5 * alpha
    ca0, sa0, ca1, sa1 = math.cos(a0), math.sin(a0), math.cos(a1), math.sin(a1)
    bx1, by1, bx0, by0 = big_r * ca1, big_r * sa1, big_r * ca0, big_r * sa0
    tx1, ty1 = top_r * ca1, top_r * sa1
    return Path((inner + (
        (ix1, iy1, bx1, by1),
        (bx1, by1, tx1, ty1),
        (top_r, a1, a0),
        (top_r * ca0, top_r * sa0, bx0, by0),
        (bx0, by0, ix0, iy0),
    ),))


def rect_path(x0: float, y0: float, width: float, height: float) -> Path:
    """Counter-clockwise rectangle outline with lower-left corner (x0, y0)."""
    x1, y1 = x0 + width, y0 + height
    return Path(((
        (x0, y0, x1, y0),
        (x1, y0, x1, y1),
        (x1, y1, x0, y1),
        (x0, y1, x0, y0),
    ),))
