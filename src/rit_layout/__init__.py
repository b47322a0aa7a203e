"""Radial icicle tree layouts with guaranteed node separation and area-true sizes.

Nodes are annular sectors with a fan-shaped wedge cut from each end (the
visible gaps) and a thin top-up ring whose area exactly replaces the cut,
so every node's drawn area stays proportional to its data value at every
depth.  Sunburst and icicle baselines, an SVG renderer, an independent
exact area measurement of the drawn outlines, and a scalability benchmark
round out the package.
"""

from .bench import BenchRecord, FitResult, fit_linear, run_bench
from .colors import assign_colors
from .diagnostics import DiagnosticsReport, diagnostics
from .generate import GeneratorSpec, demo_tree, generate_tree
from .geometry import Path, SectorGeometry, build_node_path, sector_area
from .layout import (
    Layout,
    LayoutConfig,
    PlacedNode,
    compute_layout,
    layout_icicle,
    layout_rit,
    layout_sunburst,
    layout_to_json,
)
from .measure import path_area
from .svg import RenderStyle, render_svg
from .tree import (
    NormalizedNode,
    TreeInputError,
    TreeNode,
    normalize,
    parse_tree,
    serialize_tree,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "DiagnosticsReport",
    "FitResult",
    "GeneratorSpec",
    "Layout",
    "LayoutConfig",
    "NormalizedNode",
    "Path",
    "PlacedNode",
    "RenderStyle",
    "SectorGeometry",
    "TreeInputError",
    "TreeNode",
    "assign_colors",
    "build_node_path",
    "compute_layout",
    "demo_tree",
    "diagnostics",
    "fit_linear",
    "generate_tree",
    "layout_icicle",
    "layout_rit",
    "layout_sunburst",
    "layout_to_json",
    "normalize",
    "parse_tree",
    "path_area",
    "render_svg",
    "run_bench",
    "sector_area",
    "serialize_tree",
    "validate",
]
