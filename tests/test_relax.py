"""Thin-run relaxation, done by ``layout_rit`` when ``relax_enabled`` is set.

Each test lays the same tree out with relaxation off and on.  The two
layouts carry different configs, so they are compared node by node, not
as ``Layout`` objects.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from rit_layout import (
    LayoutConfig,
    layout_icicle,
    layout_rit,
    layout_sunburst,
    normalize,
    path_area,
)
from rit_layout.diagnostics import diagnostics
from rit_layout.layout import MODES
from rit_layout.tree import NormalizedNode, TreeNode

from oracles import node_by_id


def flanked_thin_run(thin_values, left=400.0, right=None):
    """Parent with a run of thin children between two large siblings."""
    total = 1000.0
    right = right if right is not None else total - left - sum(thin_values)
    children = [TreeNode("left", "left", left)]
    children += [
        TreeNode(f"t{i}", f"t{i}", v) for i, v in enumerate(thin_values)
    ]
    children.append(TreeNode("right", "right", right))
    return TreeNode("root", "root", total, children=children)


def relaxed_pair(tree, **fields):
    """(unrelaxed, relaxed) rit layouts of ``tree`` under one config."""
    if isinstance(tree, TreeNode):
        tree = normalize(tree, "strict")
    cfg = LayoutConfig(**fields)
    return (
        layout_rit(tree, dataclasses.replace(cfg, relax_enabled=False)),
        layout_rit(tree, dataclasses.replace(cfg, relax_enabled=True)),
    )


class TestRelaxation:
    def setup_method(self):
        self.before, self.after = relaxed_pair(
            flanked_thin_run([3.0, 3.0, 3.0]), r0=4.0, h0=2.0, relax_threshold=0.01
        )

    def test_equal_gaps_across_span(self):
        left = node_by_id(self.after, "left").sector
        right = node_by_id(self.after, "right").sector
        edges = [left.cut_end]
        for i in range(3):
            sec = node_by_id(self.after, f"t{i}").sector
            edges.extend([sec.cut_start, sec.cut_end])
        edges.append(right.cut_start)
        gaps = [edges[i + 1] - edges[i] for i in range(0, len(edges) - 1, 2)]
        assert len(gaps) == 4
        assert max(gaps) - min(gaps) <= 1e-9
        assert min(gaps) > 0.0

    def test_thin_nodes_flagged(self):
        relaxed = {n.id for n in self.after.nodes if n.relaxed}
        assert relaxed == {"t0", "t1", "t2"}
        assert not any(n.relaxed for n in self.before.nodes)

    def test_areas_preserved(self):
        # Rotation keeps shapes congruent; the measured values differ only by
        # floating-point accumulation over the rotated vertices.
        for before, after in zip(self.before.nodes, self.after.nodes):
            assert after.id == before.id
            assert path_area(after.path) == pytest.approx(
                path_area(before.path), rel=1e-9, abs=1e-12
            )

    def test_non_thin_geometry_untouched(self):
        for node_id in ("root", "left", "right"):
            assert node_by_id(self.after, node_id) == node_by_id(self.before, node_id)

    def test_node_ids_preserved(self):
        assert [n.id for n in self.after.nodes] == [n.id for n in self.before.nodes]


def test_no_op_without_thin_nodes():
    before, after = relaxed_pair(flanked_thin_run([300.0], left=350.0), relax_threshold=0.01)
    assert after.nodes == before.nodes
    assert not any(n.relaxed for n in after.nodes)


def test_single_thin_child_centered():
    _, after = relaxed_pair(flanked_thin_run([4.0]), r0=4.0, h0=2.0, relax_threshold=0.01)
    sec = node_by_id(after, "t0").sector
    lo = node_by_id(after, "left").sector.cut_end
    hi = node_by_id(after, "right").sector.cut_start
    assert sec.cut_start - lo == pytest.approx(hi - sec.cut_end, abs=1e-12)


def test_boundary_run_uses_parent_half_wedge():
    # Thin nodes at the END of a group: the span extends past the frame by
    # the parent's half wedge angle.
    tree = TreeNode("root", "root", 1000.0, children=[
        TreeNode("p", "p", 500.0, children=[
            TreeNode("big", "big", 496.0),
            TreeNode("thin", "thin", 4.0),
        ]),
        TreeNode("q", "q", 500.0),
    ])
    _, after = relaxed_pair(tree, r0=4.0, h0=2.0, relax_threshold=0.01)
    parent = node_by_id(after, "p")
    thin = node_by_id(after, "thin")
    assert thin.relaxed
    span_hi = parent.sector.cut_end + 0.5 * parent.sector.alpha
    lo = node_by_id(after, "big").sector.cut_end
    first_gap = thin.sector.cut_start - lo
    last_gap = span_hi - thin.sector.cut_end
    assert first_gap == pytest.approx(last_gap, abs=1e-12)


def _moved_subtree_tree():
    return TreeNode("root", "root", 1000.0, children=[
        TreeNode("left", "left", 500.0),
        TreeNode("thin", "thin", 5.0, children=[TreeNode("kid", "kid", 5.0)]),
        TreeNode("right", "right", 495.0),
    ])


def test_descendants_move_and_flag():
    before, after = relaxed_pair(_moved_subtree_tree(), r0=4.0, h0=2.0, relax_threshold=0.01)
    shift = node_by_id(after, "thin").sector.theta - node_by_id(before, "thin").sector.theta
    assert shift != 0.0
    kid_shift = node_by_id(after, "kid").sector.theta - node_by_id(before, "kid").sector.theta
    assert kid_shift == pytest.approx(shift, abs=1e-15)
    assert node_by_id(after, "kid").relaxed


@pytest.mark.parametrize("mode, kid_excess", [
    ("contained", 0.0),
    ("literal", 0.0015707963267947989),
])
def test_moved_subtree_containment_excess(mode, kid_excess):
    # Recorded when each node stored its frame and a moved node's children
    # stored theirs shifted with it; the frame derived from the moved
    # parent's sector gives the same numbers.
    _, after = relaxed_pair(
        _moved_subtree_tree(), r0=4.0, h0=2.0, relax_threshold=0.01, mode=mode
    )
    assert node_by_id(after, "kid").relaxed
    excess = {r.id: r.containment_excess for r in diagnostics(after).nodes}
    assert excess == {"root": 0.0, "left": 0.0, "thin": 0.0, "right": 0.0, "kid": kid_excess}


def test_whole_group_thin_spreads_into_parent_wedge_gap():
    tree = TreeNode("root", "root", 1000.0, children=[
        TreeNode("p", "p", 500.0, children=[
            TreeNode(f"t{i}", f"t{i}", 2.0) for i in range(4)]),
        TreeNode("q", "q", 500.0),
    ])
    _, after = relaxed_pair(tree, r0=4.0, h0=2.0, relax_threshold=0.01)
    parent = node_by_id(after, "p")
    thins = [node_by_id(after, f"t{i}") for i in range(4)]
    assert all(t.relaxed for t in thins)
    span_lo = parent.sector.cut_start - 0.5 * parent.sector.alpha
    span_hi = parent.sector.cut_end + 0.5 * parent.sector.alpha
    edges = [span_lo]
    for t in thins:
        edges.extend([t.sector.cut_start, t.sector.cut_end])
    edges.append(span_hi)
    gaps = [edges[i + 1] - edges[i] for i in range(0, len(edges) - 1, 2)]
    assert len(gaps) == 5
    assert max(gaps) - min(gaps) <= 1e-9


def test_relaxation_requires_rit():
    # The baselines have no wedge gaps to spread into; they ignore the flag.
    tree = normalize(flanked_thin_run([3.0, 3.0, 3.0]), "strict")
    for place in (layout_sunburst, layout_icicle):
        off = place(tree, LayoutConfig())
        on = place(tree, LayoutConfig(relax_enabled=True))
        assert on.nodes == off.nodes
        assert not any(n.relaxed for n in on.nodes)


def test_deep_thin_chain_relaxes_without_recursion():
    # A thin child heading a 1,500-node chain: each chain node is a thin run
    # of one, so every one of them moves; no step may recurse per level.
    chain = [NormalizedNode(f"c{i}", f"c{i}", 1e-4) for i in range(1500)]
    for parent, child in zip(chain, chain[1:]):
        parent.children = [child]
    tree = NormalizedNode("root", "root", 1.0, children=[
        NormalizedNode("big", "big", 1.0 - 1e-4), chain[0],
    ])
    _, after = relaxed_pair(tree, relax_threshold=1e-3)
    relaxed = [n.id for n in after.nodes if n.relaxed]
    assert len(relaxed) == 1500
    assert set(relaxed) == {n.id for n in chain}


@st.composite
def _trees(draw):
    """A tree of up to 40 nodes, in one of two kinds.

    Summed: each node's value is its own share (0-20, zero allowed) plus
    its children's, normalized, so some parents are underfull.  Free: any
    data in {0} or [1e-3, 0.6] below a root of 1, as a hand-built
    ``NormalizedNode`` tree may hold, so a thin parent can have a child
    that is not thin.
    """
    n = draw(st.integers(1, 40))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    if draw(st.booleans()):
        own = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
        own[0] = max(own[0], 1)
        nodes = [TreeNode(f"n{i}", f"n{i}", 0.0) for i in range(n)]
        for i, p in enumerate(parents, start=1):
            nodes[p].children.append(nodes[i])
        for i in reversed(range(n)):
            nodes[i].value = float(own[i] + sum(c.value for c in nodes[i].children))
        return normalize(nodes[0], "strict")
    # Data is 0 or at least 1e-3: a child far larger than a tiny parent is
    # compressed onto a huge ring, where the area measurement alone loses
    # the 1e-9 asked for below, and a subnormal parent gives no height.
    values = st.one_of(st.just(0.0), st.floats(1e-3, 0.6))
    data = [1.0] + draw(st.lists(values, min_size=n - 1, max_size=n - 1))
    nodes = [NormalizedNode(f"n{i}", f"n{i}", d) for i, d in enumerate(data)]
    for i, p in enumerate(parents, start=1):
        nodes[p].children.append(nodes[i])
    return nodes[0]


@settings(max_examples=200, deadline=None)
@given(
    tree=_trees(),
    threshold=st.one_of(st.sampled_from([0.0, 1e-3, 0.01, 0.05]), st.floats(0.0, 0.6)),
    mode=st.sampled_from(MODES),
    theta0=st.sampled_from([0.0, -0.0, 1.25 * math.pi, 3.0]),
    pick=st.integers(0, 39),
)
def test_relaxation_moves_exactly_the_thin_subtrees(tree, threshold, mode, theta0, pick):
    if pick % 3 == 0:
        # A threshold equal to some node's data: that node is not thin.
        datas = [n.data for n in tree.walk()]
        threshold = datas[pick % len(datas)]
    before, after = relaxed_pair(tree, relax_threshold=threshold, mode=mode, theta0=theta0)
    assert after.visits == before.visits
    relaxed = {}
    for old, new in zip(before.nodes, after.nodes, strict=True):
        assert new.id == old.id
        assert not old.relaxed
        if new.parent is None:
            expect = False
        else:
            expect = new.data < threshold or relaxed[new.parent]
        relaxed[new.id] = new.relaxed
        assert new.relaxed == expect
        if not new.relaxed:
            assert new == old
            continue
        assert dataclasses.replace(new, relaxed=False, sector=old.sector) == old
        assert dataclasses.replace(new.sector, theta=old.sector.theta) == old.sector
        assert path_area(new.path) == pytest.approx(path_area(old.path), rel=1e-9, abs=1e-12)
