"""Representation invariance: equivalent data give equivalent pictures.

Reordering siblings may move nodes but must not change any node's shape,
and scaling every value by a power of two must not change the output at
all.  Both hold exactly because every float sum in the package is
``math.fsum``, which is correctly rounded and so independent of the
order of its terms; the last test keeps builtin ``sum`` out of ``src/``.
"""

from __future__ import annotations

import ast
import copy
import math
from pathlib import Path

from hypothesis import given, settings, strategies as st

import rit_layout
from rit_layout import (
    GeneratorSpec,
    LayoutConfig,
    assign_colors,
    compute_layout,
    generate_tree,
    layout_to_json,
    normalize,
)
from rit_layout.layout import MODES, STYLES

# Every style in both modes, and rit relaxed at two thresholds.
CONFIGS = [(style, LayoutConfig(mode=mode)) for style in STYLES for mode in MODES] + [
    ("rit", LayoutConfig(mode=mode, relax_enabled=True, relax_threshold=threshold))
    for mode in MODES
    for threshold in (0.05, 1e-3)
]


@st.composite
def _trees(draw):
    """A random or semi-random generator tree.

    Its leaves keep the generator's value 1 or get drawn values (zero
    allowed, down to 1e-4 so some nodes are thin at 1e-3), and each parent
    is then the correctly rounded sum of its children.
    """
    kind = draw(st.sampled_from(["random", "semi-random"]))
    spec = GeneratorSpec(kind, draw(st.integers(2, 5)), draw(st.integers(1, 4)),
                         seed=draw(st.integers(0, 10_000)))
    tree = generate_tree(spec)
    if draw(st.booleans()):
        order = list(tree.walk())
        leaves = [n for n in order if not n.children]
        values = st.one_of(st.just(0.0), st.floats(1e-4, 1.0))
        for leaf, value in zip(leaves, draw(st.lists(values, min_size=len(leaves),
                                                     max_size=len(leaves)))):
            leaf.value = value
        leaves[0].value = leaves[0].value or 1.0
        for node in reversed(order):
            if node.children:
                node.value = math.fsum(c.value for c in node.children)
    return tree


def _shapes(tree, style, cfg) -> dict:
    layout = compute_layout(normalize(tree, "strict"), style, cfg)
    return {
        n.id: (n.sector.r_in, n.sector.height, n.sector.beta, n.sector.alpha,
               n.sector.topup_height)
        for n in layout.nodes
    }


@settings(max_examples=60, deadline=None)
@given(tree=_trees(), rng=st.randoms(use_true_random=False))
def test_shuffled_siblings_keep_every_shape(tree, rng):
    shuffled = copy.deepcopy(tree)
    for node in shuffled.walk():
        rng.shuffle(node.children)
    for style, cfg in CONFIGS:
        assert _shapes(shuffled, style, cfg) == _shapes(tree, style, cfg), (style, cfg)


@settings(max_examples=60, deadline=None)
@given(tree=_trees(), power=st.integers(-30, 30))
def test_power_of_two_scale_keeps_layout_json_bytes(tree, power):
    scaled = copy.deepcopy(tree)
    for node in scaled.walk():
        node.value *= 2.0 ** power
    for style, cfg in CONFIGS:
        texts = [
            layout_to_json(compute_layout(assign_colors(normalize(t, "strict")), style, cfg))
            for t in (tree, scaled)
        ]
        assert texts[0] == texts[1], (style, cfg)


def _is_count(call: ast.Call) -> bool:
    """``sum(1 for ...)``: an integer count, which any order sums exactly."""
    if len(call.args) != 1 or call.keywords:
        return False
    arg = call.args[0]
    return (isinstance(arg, ast.GeneratorExp) and isinstance(arg.elt, ast.Constant)
            and type(arg.elt.value) is int and arg.elt.value == 1)


def test_package_sums_floats_only_with_fsum():
    package = Path(rit_layout.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "sum" and not _is_count(node)):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == [], "use math.fsum for float sums"
