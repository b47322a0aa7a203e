"""Hierarchical color assignment for trees without explicit colors.

The default scheme partitions the hue wheel: each child receives an equal
slice of its parent's hue range, takes its color from the middle of that
slice, and varies saturation/value with depth and sibling index so that
near hues stay distinguishable.  Explicit input colors are never replaced,
but the range bookkeeping still descends through them.
"""

from __future__ import annotations

from .tree import NormalizedNode

ROOT_GREY = "#9e9e9e"

PALETTES = ("hue-partition", "fixed-list")  # assign_colors's default first

FIXED_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)

_SATURATIONS = (0.78, 0.58, 0.42)
_VALUES = (0.88, 0.72, 0.95)


# The two hex digits of each channel byte.
_HEX_BYTE = tuple(f"{i:02x}" for i in range(256))


def _hsv_hex(hue_deg: float, sat: float, val: float) -> str:
    """``#rrggbb`` of a hue in degrees (any finite angle), for sat and val in [0, 1].

    The six-sector formula of ``colorsys.hsv_to_rgb``, with its float
    operations, so each channel is the same float; channels in [0, 1]
    round to a byte of 0 to 255.
    """
    h6 = (hue_deg % 360.0) / 360.0 * 6.0
    i = int(h6)
    f = h6 - i
    p = val * (1.0 - sat)
    i %= 6  # the modulo can round a hue just below 0 up to 360
    if i == 0:
        r, g, b = val, val * (1.0 - sat * (1.0 - f)), p
    elif i == 1:
        r, g, b = val * (1.0 - sat * f), val, p
    elif i == 2:
        r, g, b = p, val, val * (1.0 - sat * (1.0 - f))
    elif i == 3:
        r, g, b = p, val * (1.0 - sat * f), val
    elif i == 4:
        r, g, b = val * (1.0 - sat * (1.0 - f)), p, val
    else:
        r, g, b = val, p, val * (1.0 - sat * f)
    return "#" + _HEX_BYTE[round(r * 255)] + _HEX_BYTE[round(g * 255)] + _HEX_BYTE[round(b * 255)]


def assign_colors(tree: NormalizedNode, palette: str = PALETTES[0]) -> NormalizedNode:
    """Return a copy of the tree with missing colors filled in."""
    if palette not in PALETTES:
        raise ValueError(f"unknown palette {palette!r}")
    copies: list[NormalizedNode] = []
    used = 0  # fixed-list slots handed out, in preorder
    # (node, hue range start, hue range end, depth, sibling index, the list
    # that receives the node's copy), with an explicit stack.
    stack = [(tree, 0.0, 360.0, 0, 0, copies)]
    while stack:
        node, lo, hi, depth, index, siblings = stack.pop()
        color = node.color
        if color is None:
            if palette == "fixed-list":
                # The root takes a slot too before it is painted grey.
                color = FIXED_PALETTE[used % len(FIXED_PALETTE)]
                used += 1
            if depth == 0:
                color = ROOT_GREY
            elif palette == "hue-partition":
                hue = 0.5 * (lo + hi)
                sat = _SATURATIONS[(depth - 1) % len(_SATURATIONS)]
                val = _VALUES[index % len(_VALUES)]
                color = _hsv_hex(hue, sat, val)
        out = NormalizedNode(node.id, node.label, node.data, color)
        siblings.append(out)
        children = node.children
        if children:
            width = (hi - lo) / len(children)
            # Pushed last child first, so the first child's subtree comes next.
            for i in range(len(children) - 1, -1, -1):
                stack.append((children[i], lo + i * width, lo + (i + 1) * width,
                              depth + 1, i, out.children))
    return copies[0]
