"""Workload definitions: seeded input trees, CLI command lines, output checks.

The trees are generated here, not by ``rit_layout.generate``, so a change to
the package cannot change the benchmark's inputs.  Each input is written as a
json-tree file; the program under test only ever sees that file's path.
"""

from __future__ import annotations

import hashlib
import json
import random
import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

RELAX_THRESHOLD = 1e-3
MAX_AREA_ERROR = 1e-6
SVG_PATH_TAG = "{http://www.w3.org/2000/svg}path"

BUSHY_NODES = 4095  # a complete binary tree of depth 11
DEEP_LEVELS = 48
FORK_DEPTH = 4
STYLES = ("rit", "sunburst", "icicle")


# ---------------------------------------------------------------- trees


def _node(count: int) -> dict:
    return {"label": f"n{count}", "value": 0.0}


def _fill_values(root: dict, rng: random.Random) -> None:
    """Leaves get a seeded integer value; parents the sum of their children."""
    order = [root]
    for node in order:
        order.extend(node.get("children", ()))
    for node in reversed(order):
        kids = node.get("children")
        if kids:
            node["value"] = float(sum(k["value"] for k in kids))
        else:
            node["value"] = float(rng.randint(1, 4))


def grow_bushy(rng: random.Random, n_nodes: int, fanout) -> dict:
    """Breadth-first tree of exactly ``n_nodes`` nodes.

    ``fanout(rng, level)`` gives each expanded node's child count; the last
    node expanded is cut short so the total comes out exact.
    """
    root = _node(0)
    count = 1
    frontier = deque([(root, 0)])
    while count < n_nodes:
        node, level = frontier.popleft()
        k = min(fanout(rng, level), n_nodes - count)
        kids = []
        for _ in range(k):
            kids.append(_node(count))
            count += 1
        node["children"] = kids
        frontier.extend((kid, level + 1) for kid in kids)
    _fill_values(root, rng)
    return root


def _fixed_binary(rng, level):
    return 2


def _random_fanout(rng, level):
    return rng.randint(1, 4)


def _semi_random_fanout(rng, level):
    # Cap falls by one every two levels, floored at 2.
    return rng.randint(1, max(2, 6 - level // 2))


BUSHY_KINDS = (
    ("fixed", _fixed_binary),
    ("random", _random_fanout),
    ("semi-random", _semi_random_fanout),
)


def full_chain(levels: int) -> dict:
    """A root plus ``levels`` single children, all with the same value."""
    nodes = [_node(i) for i in range(levels + 1)]
    for parent, child in zip(nodes, nodes[1:]):
        parent["children"] = [child]
    for node in nodes:
        node["value"] = 1.0
    return nodes[0]


def forked_chain(rng: random.Random, levels: int) -> dict:
    """A full-value spine ending in a complete binary subtree of FORK_DEPTH.

    Every spine node is drawn as a full annulus; the subtree's nodes are
    wedge-cut sectors sized by seeded leaf values.  Fan-out is at most 2
    and the total depth is ``levels``.
    """
    root = full_chain(levels - FORK_DEPTH)
    tip = root
    while tip.get("children"):
        tip = tip["children"][0]
    count = levels - FORK_DEPTH + 1
    frontier = [tip]
    for _ in range(FORK_DEPTH):
        nxt = []
        for node in frontier:
            node["children"] = [_node(count), _node(count + 1)]
            count += 2
            nxt.extend(node["children"])
        frontier = nxt
    _fill_values(tip, rng)
    # The spine above the fork carries the subtree's total unchanged.
    node = root
    while node is not tip:
        node["value"] = tip["value"]
        node = node["children"][0]
    return root


def tree_properties(root: dict) -> dict:
    """Node count, depth, fan-out and value-share properties of one tree."""
    total = root["value"]
    nodes = 0
    thin = 0
    full = 0
    max_depth = 0
    max_fanout = 0
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        nodes += 1
        max_depth = max(max_depth, depth)
        kids = node.get("children", ())
        max_fanout = max(max_fanout, len(kids))
        share = node["value"] / total
        thin += share < RELAX_THRESHOLD
        # Children never sum past their parent, so a node holding the root
        # total has only such ancestors: with a 2*pi root it is a full annulus.
        full += share == 1.0
        stack.extend((kid, depth + 1) for kid in kids)
    return {
        "nodes": nodes,
        "max_depth": max_depth,
        "max_fanout": max_fanout,
        "share_below_relax_threshold": thin / nodes,
        "share_full_annulus": full / nodes,
    }


# ---------------------------------------------------------------- checks


def _svg_paths_ok(data: bytes, nodes: int) -> bool:
    try:
        root = ET.fromstring(data)
    except ET.ParseError:
        return False
    return sum(1 for _ in root.iter(SVG_PATH_TAG)) == nodes


def _geometry_ok(data: bytes, nodes: int) -> bool:
    try:
        doc = json.loads(data)
    except ValueError:
        return False
    return isinstance(doc, dict) and len(doc.get("nodes", ())) == nodes


def _diagnostics_ok(data: bytes) -> bool:
    try:
        rit = json.loads(data)["rit"]
        return rit["max_area_error"] <= MAX_AREA_ERROR and rit["containment_violations"] == 0
    except (ValueError, KeyError, TypeError):
        return False


def check_svg(outputs: list[bytes], nodes: int) -> bool:
    return _svg_paths_ok(outputs[0], nodes)


def check_geometry(outputs: list[bytes], nodes: int) -> bool:
    return _geometry_ok(outputs[0], nodes)


def check_compare(outputs: list[bytes], nodes: int) -> bool:
    *svgs, diag = outputs
    return all(_svg_paths_ok(s, nodes) for s in svgs) and _diagnostics_ok(diag)


def digest(outputs: list[bytes]) -> str:
    h = hashlib.sha256()
    for data in outputs:
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


# ------------------------------------------------------------- workloads


def bushy_trees(rng: random.Random) -> list[tuple[str, dict]]:
    return [(kind, grow_bushy(rng, BUSHY_NODES, fanout)) for kind, fanout in BUSHY_KINDS]


def deep_trees(rng: random.Random) -> list[tuple[str, dict]]:
    return [
        ("full-chain", full_chain(DEEP_LEVELS)),
        ("forked-chain", forked_chain(rng, DEEP_LEVELS)),
        ("forked-chain", forked_chain(rng, DEEP_LEVELS)),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    make_trees: Callable[[random.Random], list[tuple[str, dict]]]
    args: str  # CLI argv; {tree} is the input file, {out} the op's output directory
    outputs: tuple[str, ...]  # files the op writes into {out}, in digest order
    check: Callable[[list[bytes], int], bool]

    def trees(self, seed: int) -> list[tuple[str, dict]]:
        return self.make_trees(random.Random(f"{self.name}:{seed}"))

    def argv(self, tree_path: Path, out_dir: Path) -> list[str]:
        return [a.format(tree=tree_path, out=out_dir) for a in self.args.split()]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "render",
            bushy_trees,
            "render --input {tree} --output {out}/out.svg --style rit",
            ("out.svg",),
            check_svg,
        ),
        Workload(
            "export-relax",
            bushy_trees,
            f"layout --input {{tree}} --output {{out}}/out.json --relax "
            f"--relax-threshold {RELAX_THRESHOLD!r}",
            ("out.json",),
            check_geometry,
        ),
        Workload(
            "compare-deep",
            deep_trees,
            "compare --input {tree} --outdir {out}",
            tuple(f"{style}.svg" for style in STYLES) + ("diagnostics.json",),
            check_compare,
        ),
    )
}
