"""Deterministic SVG rendering of layouts.

Node outlines are emitted as filled path elements in depth-major order,
with arcs as elliptical-arc commands: one under pi, two halves from pi to
a full turn (the sweep flag picks the side of a half turn); the layout
contract admits no wider arc, which the even-odd fill rule cannot draw.  The
drawing is scaled and centered so that the outlines' exact extent (line
endpoints, arc endpoints and the axis extremes an arc sweeps past) fills
the canvas less the margin; the transform and the layout configuration are
echoed in a leading comment.  Identical inputs give byte-identical output.
"""

from __future__ import annotations

import io
import math
import operator
import re
from collections.abc import Iterable
from dataclasses import dataclass

from .geometry import Path
from .layout import Layout, require_finite
from .tree import _require_xml_text

FALLBACK_FILL = "#cccccc"
BACKGROUND = "#ffffff"
FONT_SIZE = 11.0

HALF_PI = 0.5 * math.pi
_CHUNK = 4096  # ``_extent`` folds its points into the box once it holds more numbers

# Unit point at angle k*pi/2, indexed by k % 4: where an origin-centred
# arc reaches its x or y extremes.
_AXIS_POINTS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


@dataclass(frozen=True)
class RenderStyle:
    canvas: int = 840
    margin: float = 20.0
    draw_labels: bool = False

    def __post_init__(self) -> None:
        require_finite(self, ("canvas", "margin"))
        # Within 2**53, scale times any coordinate the layout contract
        # admits stays finite.
        if not 0 < self.canvas <= 2 ** 53:
            raise ValueError(f"canvas size must be in (0, 2**53], got {self.canvas}")
        if self.margin < 0 or 2 * self.margin >= self.canvas:
            raise ValueError(f"margin {self.margin} leaves no drawable canvas")


def _fmt(x: float) -> str:
    # Fixed 6-decimal output; normalize -0.000000 so byte equality holds.
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _extent(paths: Iterable[Path]) -> tuple[float, float, float, float]:
    """Exact (x_lo, x_hi, y_lo, y_hi) of the given outlines.

    A line reaches no further than its endpoints, which are read first.  An
    origin-centred arc reaches its endpoints plus (+-r, 0) / (0, +-r) at
    every multiple k*pi/2 inside [lo, hi]; Python's floor modulo maps any k,
    negative or past a full turn, to its axis point.  An arc with
    ``0 <= r <= min(-x_lo, x_hi, -y_lo, y_hi)`` of the box so far adds
    nothing and is skipped: each of its points is ``fl(r * c)`` with
    ``|c| <= 1``, so at most ``r`` from either axis.  An arc of the layout
    contract, up to ``MAX_SWEEP`` wide, holds at most five k.  Points are
    folded into the box ``_CHUNK`` numbers at a time.
    """
    box = (math.inf, -math.inf, math.inf, -math.inf)
    points: list[float] = []  # x, y, x, y, ...: a line segment is two points
    arcs = []
    for path in paths:
        for loop in path.loops:
            for seg in loop:
                if len(seg) == 4:
                    points += seg
                else:
                    arcs.append(seg)
        if len(points) > _CHUNK:
            box = _fold(box, points)
            points = []
    box = _fold(box, points)
    points = []
    cover = min(-box[0], box[1], -box[2], box[3])
    cos, sin = math.cos, math.sin
    for r, lo, hi in arcs:
        if hi < lo:
            lo, hi = hi, lo
        if 0.0 <= r <= cover:
            continue
        points += (r * cos(lo), r * sin(lo), r * cos(hi), r * sin(hi))
        k = math.ceil(lo / HALF_PI)
        while k * HALF_PI <= hi:
            ux, uy = _AXIS_POINTS[k % 4]
            points += (r * ux, r * uy)
            k += 1
        if len(points) > _CHUNK:
            box = _fold(box, points)
            points = []
            cover = min(-box[0], box[1], -box[2], box[3])
    return _fold(box, points)


def _fold(box: tuple[float, float, float, float], points: list[float]) -> tuple[float, float, float, float]:
    """``box`` widened to the x, y pairs of ``points``."""
    if not points:
        return box
    xs, ys = points[0::2], points[1::2]
    x_lo, x_hi, y_lo, y_hi = box
    return min(x_lo, min(xs)), max(x_hi, max(xs)), min(y_lo, min(ys)), max(y_hi, max(ys))


def _transform(box: tuple[float, float, float, float], style: RenderStyle) -> tuple[float, float, float]:
    """(scale, cx, cy) fitting the extent ``box`` to the canvas: layout
    (x, y) is drawn at (cx + scale*x, cy - scale*y).  The scale is at most
    the canvas over 1e-12, so with coordinates within ``MAX_RADIUS`` every
    drawn number is finite."""
    x_lo, x_hi, y_lo, y_hi = box
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-12)
    scale = (style.canvas - 2.0 * style.margin) / span
    cx = 0.5 * style.canvas - scale * 0.5 * (x_lo + x_hi)
    cy = 0.5 * style.canvas + scale * 0.5 * (y_lo + y_hi)
    return scale, cx, cy


# Path-data commands as ``%`` templates; ``"%.6f" % x`` spells what
# ``f"{x:.6f}"`` does.  An arc's sweep flag is 0 for a math-CCW span: the y
# flip makes SVG's positive-angle direction (sweep=1) screen-clockwise.
_LINE = " L %.6f %.6f"
_ARC = (" A %.6f %.6f 0 0 1 %.6f %.6f", " A %.6f %.6f 0 0 0 %.6f %.6f")


def _loop_to_d(loop, scale: float, cx: float, cy: float) -> str:
    """One closed loop as ``M ... Z`` path data, each number as ``_fmt`` spells it.

    The loop's commands become one ``%`` template and one value list,
    formatted by one ``%`` call with the transform inlined.  An arc under
    pi is one command ending at ``start + span``; one of pi up to a full
    turn (the layout contract admits none wider) is two commands ending at
    ``start + 0.5 * span`` and ``start + span``.  A ``-0.000000`` token
    is then rewritten to ``0.000000`` once over the finished string: every
    token is a whole 6-decimal number, so only such a token can contain
    that text.
    """
    cos, sin, pi = math.cos, math.sin, math.pi
    first = loop[0]
    if len(first) == 4:
        x0, y0 = first[0], first[1]
    else:
        x0, y0 = first[0] * cos(first[1]), first[0] * sin(first[1])
    template = "M %.6f %.6f"
    values = [cx + scale * x0, cy - scale * y0]
    for seg in loop:
        if len(seg) == 4:
            _, _, x1, y1 = seg
            template += _LINE
            values += (cx + scale * x1, cy - scale * y1)
            continue
        r, start, end = seg
        span = end - start
        radius = r * scale
        arc = _ARC[span > 0]
        if span <= -pi or span >= pi:
            a1 = start + 0.5 * span
            template += arc
            values += (radius, radius, cx + scale * (r * cos(a1)), cy - scale * (r * sin(a1)))
        a1 = start + span
        template += arc
        values += (radius, radius, cx + scale * (r * cos(a1)), cy - scale * (r * sin(a1)))
    return ((template + " Z") % tuple(values)).replace("-0.000000", "0.000000")


def _config_comment(layout: Layout, scale: float, cx: float, cy: float) -> str:
    cfg = layout.config
    fields = (
        f"style={layout.style} theta0={cfg.theta0!r} beta0={cfg.beta0!r} "
        f"r0={cfg.r0!r} h0={cfg.h0!r} ar0={cfg.ar0!r} acr={cfg.acr!r} "
        f"mode={cfg.mode} relax={cfg.relax_enabled} "
        f"relax_threshold={cfg.relax_threshold!r} "
        f"scale={scale!r} cx={cx!r} cy={cy!r}"
    )
    return f"<!-- rit-config {fields} -->"


def _label_element(node, scale: float, cx: float, cy: float, is_icicle: bool) -> str | None:
    label = node.label
    if not label:
        return None
    sec = node.sector
    est_width = 0.6 * FONT_SIZE * len(label)
    if is_icicle:
        if est_width > sec.beta * scale:
            return None
        x = sec.theta + 0.5 * sec.beta
        y = -(sec.r_in + 0.5 * sec.height)
        px, py = cx + scale * x, cy - scale * y
        transform = ""
    else:
        if sec.beta <= 0.0:
            return None
        mid_angle = sec.theta + 0.5 * sec.beta
        mid_radius = sec.r_in + 0.5 * sec.height
        span = 2.0 * mid_radius * math.sin(min(sec.beta, math.pi) * 0.5) * scale
        if est_width > span:
            return None
        px = cx + scale * (mid_radius * math.cos(mid_angle))
        py = cy - scale * (mid_radius * math.sin(mid_angle))
        deg = math.degrees(math.atan2(-math.cos(mid_angle), -math.sin(mid_angle)))
        if 90.0 < deg % 360.0 < 270.0:
            deg += 180.0
        transform = f' transform="rotate({_fmt(deg)} {_fmt(px)} {_fmt(py)})"'
    return (
        f'<text x="{_fmt(px)}" y="{_fmt(py)}" font-size="{_fmt(FONT_SIZE)}" '
        f'text-anchor="middle" dominant-baseline="middle"{transform}>{label.translate(_ESCAPE)}</text>'
    )


# Escapes of XML metacharacters and of the carriage return a parser reads as a
# newline; an attribute value also escapes the tab and newline it reads as spaces.
_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&#39;", "\r": "&#13;"}
_ESCAPE = str.maketrans(_TEXT_ESCAPES)
_ESCAPE_ATTR = str.maketrans({**_TEXT_ESCAPES, "\t": "&#9;", "\n": "&#10;"})
# Every character that ``_require_xml_text`` refuses or ``_ESCAPE_ATTR``
# rewrites: an id or colour without one is written as it is.
_ATTR_SPECIAL = re.compile(r"[\x00-\x1f\"&'<>\ud800-\udfff\ufffe\uffff]")


def render_svg(layout: Layout, style: RenderStyle = RenderStyle()) -> bytes:
    """Render a layout to SVG 1.1 bytes; identical inputs give identical bytes.

    The layout contract bounds every angle and radius, so any layout can be
    drawn: only an id, colour or drawn label that XML 1.0 cannot hold
    raises ``ValueError``, naming the node."""
    scale, cx, cy = _transform(_extent(n.path for n in layout.nodes), style)
    size = style.canvas
    # One buffer holds the document: ``getvalue`` hands over its bytes
    # without a copy, where a list of lines, their join and its encoding
    # would hold it three times.
    buf = io.BytesIO()
    write = buf.write
    write((
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n'
        f'{_config_comment(layout, scale, cx, cy)}\n'
        f'<rect width="{size}" height="{size}" fill="{BACKGROUND}"/>\n'
    ).encode())

    # A stable sort on depth keeps equal depths in node order.
    ordered = sorted(layout.nodes, key=operator.attrgetter("depth"))
    is_icicle = layout.style == "icicle"
    labels: list[str] = []
    for node in ordered:
        id_attr = node.id
        if _ATTR_SPECIAL.search(id_attr):
            _require_xml_text(node.id, "id", id_attr, ValueError)
            id_attr = id_attr.translate(_ESCAPE_ATTR)
        fill = node.color or FALLBACK_FILL
        if _ATTR_SPECIAL.search(fill):
            _require_xml_text(node.id, "color", fill, ValueError)
            fill = fill.translate(_ESCAPE_ATTR)
        loops = node.path.loops
        if len(loops) == 1:
            d = _loop_to_d(loops[0], scale, cx, cy)
        else:
            d = " ".join([_loop_to_d(loop, scale, cx, cy) for loop in loops])
        if node.relaxed:
            write(
                f'<path id="{id_attr}" d="{d}" fill="{fill}" fill-opacity="0.7" fill-rule="evenodd" '
                f'stroke="{fill}" stroke-width="1" stroke-dasharray="5 4"/>\n'.encode())
        else:
            write(f'<path id="{id_attr}" d="{d}" fill="{fill}" fill-rule="evenodd" stroke="none"/>\n'.encode())
        if style.draw_labels:
            _require_xml_text(node.id, "label", node.label, ValueError)
            el = _label_element(node, scale, cx, cy, is_icicle)
            if el is not None:
                labels.append(el)
    for el in labels:
        write(f"{el}\n".encode())
    write(b"</svg>\n")
    return buf.getvalue()
