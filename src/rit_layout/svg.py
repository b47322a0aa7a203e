"""Deterministic SVG rendering of layouts.

Node outlines are emitted as filled path elements in depth-major order,
with arcs as elliptical-arc commands (split so no single command spans
more than pi; at exactly pi the sweep flag picks the side).  The drawing
is uniformly scaled and centered so that the outlines' exact extent
(line endpoints, arc endpoints and the axis extremes an arc sweeps past)
fills the canvas less the margin; the applied transform and the layout
configuration are echoed in a leading comment so the output is
self-describing.  Identical inputs produce byte-identical output.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

from .layout import STYLES, Layout, require_finite
from .tree import _require_xml_text

FALLBACK_FILL = "#cccccc"
BACKGROUND = "#ffffff"
FONT_SIZE = 11.0

HALF_PI = 0.5 * math.pi

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
        if self.canvas <= 0:
            raise ValueError(f"canvas size must be > 0, got {self.canvas}")
        if self.margin < 0 or 2 * self.margin >= self.canvas:
            raise ValueError(f"margin {self.margin} leaves no drawable canvas")


def _fmt(x: float) -> str:
    # Fixed 6-decimal output; normalize -0.000000 so byte equality holds.
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _extent(layout: Layout) -> tuple[float, float, float, float]:
    """Exact (x_lo, x_hi, y_lo, y_hi) of every node's drawn outline.

    A line reaches no further than its endpoints.  An origin-centred arc
    reaches its endpoints plus (+-r, 0) / (0, +-r) at every multiple k*pi/2
    inside [lo, hi]; Python's floor modulo maps any k, negative or past a
    full turn, to its axis point.
    """
    points: list[float] = []  # x, y, x, y, ...: a line segment is two points
    cos, sin = math.cos, math.sin
    for node in layout.nodes:
        for loop in node.path.loops:
            for seg in loop:
                if len(seg) == 4:
                    points += seg
                    continue
                r, lo, hi = seg
                if hi < lo:
                    lo, hi = hi, lo
                points += (r * cos(lo), r * sin(lo), r * cos(hi), r * sin(hi))
                k = math.ceil(lo / HALF_PI)
                while k * HALF_PI <= hi:
                    ux, uy = _AXIS_POINTS[k % 4]
                    points += (r * ux, r * uy)
                    k += 1
    xs, ys = points[0::2], points[1::2]
    return min(xs), max(xs), min(ys), max(ys)


class _Transform:
    """Uniform scale + translation from layout coordinates to the canvas (y flipped)."""

    def __init__(self, layout: Layout, style: RenderStyle):
        try:
            x_lo, x_hi, y_lo, y_hi = _extent(layout)
        except ValueError as exc:  # from math.cos or math.ceil, or an unbuildable outline
            raise _undrawable(layout) from exc
        span = max(x_hi - x_lo, y_hi - y_lo, 1e-12)
        self.scale = (style.canvas - 2.0 * style.margin) / span
        self.cx = 0.5 * style.canvas - self.scale * 0.5 * (x_lo + x_hi)
        self.cy = 0.5 * style.canvas + self.scale * 0.5 * (y_lo + y_hi)
        if not (self.scale > 0.0 and math.isfinite(self.cx + self.cy)):
            raise _undrawable(layout)

    def point(self, x: float, y: float) -> tuple[float, float]:
        return (self.cx + self.scale * x, self.cy - self.scale * y)


def _split_arc(start: float, span: float) -> list[tuple[float, float]]:
    """(start, end) angle pairs, each spanning at most pi.

    An arc spanning less than pi is one piece ending at ``start + span``.
    A full turn gives two pieces of exactly pi; the sweep flag makes such
    a command unambiguous.
    """
    if abs(span) < math.pi:
        return [(start, start + span)]
    pieces = max(2, math.ceil(abs(span) / math.pi - 1e-12))
    step = span / pieces
    return [(start + i * step, start + (i + 1) * step) for i in range(pieces)]


# Path-data commands as ``%`` templates; ``"%.6f" % x`` spells what
# ``f"{x:.6f}"`` does.  An arc's sweep flag is 0 for a math-CCW span: the y
# flip makes SVG's positive-angle direction (sweep=1) screen-clockwise.
_LINE = " L %.6f %.6f"
_ARC = (" A %.6f %.6f 0 0 1 %.6f %.6f", " A %.6f %.6f 0 0 0 %.6f %.6f")


def _undrawable(layout: Layout) -> ValueError:
    """The error naming the first node whose outline is unbuildable or not finite."""
    for node in layout.nodes:
        try:
            bad = [c for loop in node.path.loops for seg in loop for c in seg if not math.isfinite(c)]
        except ValueError as exc:
            return ValueError(f"node {node.id!r}: {exc}")
        if bad:
            return ValueError(f"node {node.id!r}: outline holds {bad[0]!r}, which cannot be drawn")
    return ValueError("layout: outlines cannot be scaled onto the canvas")


def _loop_to_d(loop, scale: float, cx: float, cy: float) -> str:
    """One closed loop as ``M ... Z`` path data, each number as ``_fmt`` spells it.

    The loop's commands become one ``%`` template and one value list,
    formatted by one ``%`` call with the transform inlined.  An arc under
    pi (or NaN) is ``_split_arc``'s one piece, ending at ``start + span``.
    A ``-0.000000`` token is then rewritten to ``0.000000`` once over the
    finished string: every token is a whole 6-decimal number, so only such
    a token can contain that text.
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
            for _, a1 in _split_arc(start, span):
                template += arc
                values += (radius, radius, cx + scale * (r * cos(a1)), cy - scale * (r * sin(a1)))
            continue
        a1 = start + span
        template += arc
        values += (radius, radius, cx + scale * (r * cos(a1)), cy - scale * (r * sin(a1)))
    return ((template + " Z") % tuple(values)).replace("-0.000000", "0.000000")


def _config_comment(layout: Layout, tf: _Transform) -> str:
    cfg = layout.config
    fields = (
        f"style={layout.style} theta0={cfg.theta0!r} beta0={cfg.beta0!r} "
        f"r0={cfg.r0!r} h0={cfg.h0!r} ar0={cfg.ar0!r} acr={cfg.acr!r} "
        f"mode={cfg.mode} relax={cfg.relax_enabled} "
        f"relax_threshold={cfg.relax_threshold!r} "
        f"scale={tf.scale!r} cx={tf.cx!r} cy={tf.cy!r}"
    )
    return f"<!-- rit-config {fields} -->"


def _label_element(node, tf: _Transform, is_icicle: bool) -> str | None:
    label = node.label
    if not label:
        return None
    sec = node.sector
    est_width = 0.6 * FONT_SIZE * len(label)
    if is_icicle:
        if est_width > sec.beta * tf.scale:
            return None
        x = sec.theta + 0.5 * sec.beta
        y = -(sec.r_in + 0.5 * sec.height)
        px, py = tf.point(x, y)
        transform = ""
    else:
        if sec.beta <= 0.0:
            return None
        mid_angle = sec.theta + 0.5 * sec.beta
        mid_radius = sec.r_in + 0.5 * sec.height
        span = 2.0 * mid_radius * math.sin(min(sec.beta, math.pi) * 0.5) * tf.scale
        if est_width > span:
            return None
        px, py = tf.point(mid_radius * math.cos(mid_angle), mid_radius * math.sin(mid_angle))
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

    An id, colour or drawn label that is not a ``str``, or that XML 1.0
    cannot hold, and an outline that cannot be built or holds a non-finite
    number, raise ``ValueError`` naming the node; a style outside
    ``STYLES``, or a layout without nodes, raises it naming the layout."""
    if layout.style not in STYLES:
        raise ValueError(f"layout: style {layout.style!r} is not one of {STYLES}")
    if not layout.nodes:
        raise ValueError("layout: no nodes to write")
    tf = _Transform(layout, style)
    size = style.canvas
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        _config_comment(layout, tf),
        f'<rect width="{size}" height="{size}" fill="{BACKGROUND}"/>',
    ]

    # A stable sort on depth keeps equal depths in node order.
    ordered = sorted(layout.nodes, key=operator.attrgetter("depth"))
    is_icicle = layout.style == "icicle"
    labels: list[str] = []
    scale, cx, cy = tf.scale, tf.cx, tf.cy
    for node in ordered:
        id_attr = node.id
        if type(id_attr) is not str or _ATTR_SPECIAL.search(id_attr):
            _require_xml_text(node.id, "id", id_attr, ValueError)
            id_attr = id_attr.translate(_ESCAPE_ATTR)
        fill = node.color or FALLBACK_FILL
        if type(fill) is not str or _ATTR_SPECIAL.search(fill):
            _require_xml_text(node.id, "color", fill, ValueError)
            fill = fill.translate(_ESCAPE_ATTR)
        loops = node.path.loops
        if len(loops) == 1:
            d = _loop_to_d(loops[0], scale, cx, cy)
        else:
            d = " ".join([_loop_to_d(loop, scale, cx, cy) for loop in loops])
        if "n" in d:  # nan or inf, as from a NaN that min() and max() passed over
            raise _undrawable(layout)
        if node.relaxed:
            lines.append(
                f'<path id="{id_attr}" d="{d}" fill="{fill}" fill-opacity="0.7" fill-rule="evenodd" '
                f'stroke="{fill}" stroke-width="1" stroke-dasharray="5 4"/>')
        else:
            lines.append(f'<path id="{id_attr}" d="{d}" fill="{fill}" fill-rule="evenodd" stroke="none"/>')
        if style.draw_labels:
            _require_xml_text(node.id, "label", node.label, ValueError)
            el = _label_element(node, tf, is_icicle)
            if el is not None:
                labels.append(el)
    lines.extend(labels)
    # The trailing empty item gives the closing newline in the one join.
    lines += ("</svg>", "")
    return "\n".join(lines).encode("utf-8")
