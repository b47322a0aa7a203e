"""Synthetic tree generation for testing and benchmarking.

Three generator kinds:

* fixed: every internal node has exactly c_max children.
* random: each parent draws its child count uniformly from [1, c_max].
* semi-random: like random, but the per-depth cap follows
  ``default_schedule``: c_max dropping by 1 every two levels, floored at
  ``min(2, c_max)``.

Leaves get value 1 and internal values are the sum of their children, so
every generated tree is exactly full at every parent - the hardest case
for the separation geometry.  A ``GeneratorSpec`` is checked when built.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .tree import TreeNode

KINDS = ("fixed", "random", "semi-random")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    c_max: int
    depth: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.c_max < 1:
            raise ValueError(f"c_max must be >= 1, got {self.c_max}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")


def default_schedule(c_max: int, depth: int) -> tuple[int, ...]:
    floor = min(2, c_max)
    return tuple(max(floor, c_max - level // 2) for level in range(depth))


def generate_tree(spec: GeneratorSpec, max_nodes: int | None = None) -> TreeNode | None:
    """Deterministic tree for the spec; same seed, same tree.

    With ``max_nodes``, generation returns None before it stacks a fan-out
    that would take the tree past that many nodes.
    """
    rng = random.Random(spec.seed)
    if spec.kind == "semi-random":
        schedule = default_schedule(spec.c_max, spec.depth)
    else:
        schedule = (spec.c_max,) * spec.depth
    # Ids are handed out and child counts drawn in preorder, from a stack
    # rather than by recursion, so a chain of any depth generates.
    order: list[TreeNode] = []
    stack: list[tuple[TreeNode | None, int]] = [(None, 0)]
    while stack:
        parent, level = stack.pop()
        node = TreeNode(id=f"n{len(order)}", label=f"n{len(order)}", value=1.0)
        order.append(node)
        if parent is not None:
            parent.children.append(node)
        if level < spec.depth:
            cap = schedule[level]
            n_children = cap if spec.kind == "fixed" else rng.randint(1, cap)
            # Every stacked entry becomes a node.
            if max_nodes is not None and len(order) + len(stack) + n_children > max_nodes:
                return None
            stack.extend([(node, level + 1)] * n_children)
    # Children follow their parent in preorder: sum them bottom-up.
    for node in reversed(order):
        if node.children:
            node.value = math.fsum(c.value for c in node.children)
    return order[0]


def demo_tree() -> TreeNode:
    """Hand-built sample hierarchy exercising the three classic defects.

    It contains thin leaves (hard to see), equal-colored neighbours across
    a subtree boundary (visually merge without gaps), and two equal-valued
    nodes at different depths (equal values must get equal areas).
    """

    def n(id_, value, color, children=()):
        return TreeNode(id=id_, label=id_, value=value, color=color, children=list(children))

    return n(
        "root", 100, "#bbbbbb",
        [
            n(
                "red", 75, "#e05a4e",
                [
                    n(
                        "orange", 30, "#e8963f",
                        [
                            n("yellow", 18, "#e5c24b"),
                            n("thin-green-1", 1, "#57a55a"),
                            n("yellow-2", 11, "#d9cf6e"),
                        ],
                    ),
                    n(
                        "crimson", 35, "#c23b52",
                        [
                            n("green-10-a", 10, "#57a55a"),
                            n("thin-pale-green", 1, "#a8d5a8"),
                            n("purple", 24, "#8e6bb5"),
                        ],
                    ),
                    n("green-10-b", 10, "#57a55a"),
                ],
            ),
            n(
                "blue", 25, "#4e79d0",
                [
                    n(
                        "green-15", 15, "#57a55a",
                        [
                            n("pale-purple-9.5", 9.5, "#c5a8e0"),
                            n("thin-green-2", 1, "#57a55a"),
                            n("teal", 4.5, "#4fa3a5"),
                        ],
                    ),
                    n(
                        "blue-2", 10, "#6c95dc",
                        [n("pale-purple-5", 5, "#c5a8e0")],
                    ),
                ],
            ),
        ],
    )
