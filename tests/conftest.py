import gc
import json
import math

import pytest

from rit_layout import LayoutConfig, demo_tree, normalize
from rit_layout.tree import TreeNode

TAU = 2.0 * math.pi


def full_chain(n: int, value: float = 1.0) -> TreeNode:
    """Path tree where every node carries the full root value."""
    nodes = [TreeNode(id=f"c{i}", label=f"c{i}", value=value) for i in range(n)]
    for parent, child in zip(nodes, nodes[1:]):
        parent.children = [child]
    return nodes[0]


def xml_text_ok(text: str) -> bool:
    """Whether every character is in XML 1.0's Char production."""
    return all(
        c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"
        for c in text
    )


def strict_json(text: str):
    """``json.loads``, refusing the ``NaN`` and ``Infinity`` that RFC 8259 JSON cannot hold."""
    def refuse(constant):
        raise AssertionError(f"{constant} is not RFC 8259 JSON")
    return json.loads(text, parse_constant=refuse)


def tree_equal_ignoring_ids(a, b) -> bool:
    if (a.label, a.value, a.color) != (b.label, b.value, b.color):
        return False
    if len(a.children) != len(b.children):
        return False
    return all(tree_equal_ignoring_ids(x, y) for x, y in zip(a.children, b.children))


@pytest.fixture
def demo():
    return normalize(demo_tree(), "strict")


@pytest.fixture
def default_cfg():
    return LayoutConfig(r0=8.0, h0=2.0, beta0=TAU)


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def caller_gc(request):
    """Set the collector on or off, as a caller might have it; restored after the test."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was_enabled:
        gc.enable()
    else:
        gc.disable()
