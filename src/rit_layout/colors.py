"""Hierarchical color assignment for trees without explicit colors.

The default scheme partitions the hue wheel: each child receives an equal
slice of its parent's hue range, takes its color from the middle of that
slice, and varies saturation/value with depth and sibling index so that
near hues stay distinguishable.  Explicit input colors are never replaced,
but the range bookkeeping still descends through them.
"""

from __future__ import annotations

import colorsys

from .tree import NormalizedNode

ROOT_GREY = "#9e9e9e"

PALETTES = ("hue-partition", "fixed-list")  # assign_colors's default first

FIXED_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)

_SATURATIONS = (0.78, 0.58, 0.42)
_VALUES = (0.88, 0.72, 0.95)


def hsv_hex(hue_deg: float, sat: float, val: float) -> str:
    r, g, b = colorsys.hsv_to_rgb((hue_deg % 360.0) / 360.0, sat, val)
    return "#{:02x}{:02x}{:02x}".format(round(r * 255), round(g * 255), round(b * 255))


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
                color = hsv_hex(hue, sat, val)
        out = NormalizedNode(node.id, node.label, node.data, color)
        siblings.append(out)
        if node.children:
            width = (hi - lo) / len(node.children)
            stack.extend(reversed([
                (child, lo + i * width, lo + (i + 1) * width, depth + 1, i, out.children)
                for i, child in enumerate(node.children)
            ]))
    return copies[0]
