import pytest

from rit_layout import LayoutConfig, layout_rit, normalize, path_area, relax_thin_nodes
from rit_layout.diagnostics import diagnostics
from rit_layout.tree import NormalizedNode, TreeNode


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


def cut_gaps(layout, ids):
    """Gaps between consecutive cut extents for the given sibling ids."""
    nodes = [layout.node(i) for i in ids]
    return [
        b.sector.cut_start - a.sector.cut_end for a, b in zip(nodes, nodes[1:])
    ]


class TestRelaxation:
    def setup_method(self):
        self.cfg = LayoutConfig(r0=4.0, h0=2.0, relax_threshold=0.01)
        tree = normalize(flanked_thin_run([3.0, 3.0, 3.0]), "strict")
        self.before = layout_rit(tree, self.cfg)
        self.after = relax_thin_nodes(self.before, self.cfg)

    def test_equal_gaps_across_span(self):
        left = self.after.node("left").sector
        right = self.after.node("right").sector
        edges = [left.cut_end]
        for i in range(3):
            sec = self.after.node(f"t{i}").sector
            edges.extend([sec.cut_start, sec.cut_end])
        edges.append(right.cut_start)
        gaps = [edges[i + 1] - edges[i] for i in range(0, len(edges) - 1, 2)]
        assert len(gaps) == 4
        assert max(gaps) - min(gaps) <= 1e-9
        assert min(gaps) > 0.0

    def test_thin_nodes_flagged(self):
        relaxed = {n.id for n in self.after.nodes if n.relaxed}
        assert relaxed == {"t0", "t1", "t2"}

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
            assert self.after.node(node_id).sector == self.before.node(node_id).sector

    def test_node_ids_preserved(self):
        assert [n.id for n in self.after.nodes] == [n.id for n in self.before.nodes]


def test_no_op_without_thin_nodes():
    tree = normalize(flanked_thin_run([300.0], left=350.0), "strict")
    cfg = LayoutConfig(relax_threshold=0.01)
    layout = layout_rit(tree, cfg)
    assert relax_thin_nodes(layout, cfg) == layout


def test_single_thin_child_centered():
    cfg = LayoutConfig(r0=4.0, h0=2.0, relax_threshold=0.01)
    tree = normalize(flanked_thin_run([4.0]), "strict")
    after = relax_thin_nodes(layout_rit(tree, cfg), cfg)
    sec = after.node("t0").sector
    lo = after.node("left").sector.cut_end
    hi = after.node("right").sector.cut_start
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
    cfg = LayoutConfig(r0=4.0, h0=2.0, relax_threshold=0.01)
    layout = layout_rit(normalize(tree, "strict"), cfg)
    after = relax_thin_nodes(layout, cfg)
    parent = after.node("p")
    thin = after.node("thin")
    assert thin.relaxed
    span_hi = parent.sector.cut_end + 0.5 * parent.sector.alpha
    lo = after.node("big").sector.cut_end
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
    tree = _moved_subtree_tree()
    cfg = LayoutConfig(r0=4.0, h0=2.0, relax_threshold=0.01)
    before = layout_rit(normalize(tree, "strict"), cfg)
    after = relax_thin_nodes(before, cfg)
    shift = after.node("thin").sector.theta - before.node("thin").sector.theta
    assert shift != 0.0
    kid_shift = after.node("kid").sector.theta - before.node("kid").sector.theta
    assert kid_shift == pytest.approx(shift, abs=1e-15)
    assert after.node("kid").relaxed


@pytest.mark.parametrize("mode, kid_excess", [
    ("contained", 0.0),
    ("literal", 0.0015707963267947989),
])
def test_moved_subtree_containment_excess(mode, kid_excess):
    # Recorded when each node stored its frame and a moved node's children
    # stored theirs shifted with it; the frame derived from the moved
    # parent's sector gives the same numbers.
    cfg = LayoutConfig(r0=4.0, h0=2.0, relax_threshold=0.01, mode=mode)
    after = relax_thin_nodes(layout_rit(normalize(_moved_subtree_tree(), "strict"), cfg), cfg)
    assert after.node("kid").relaxed
    excess = {r.id: r.containment_excess for r in diagnostics(after).nodes}
    assert excess == {"root": 0.0, "left": 0.0, "thin": 0.0, "right": 0.0, "kid": kid_excess}


def test_whole_group_thin_spreads_into_parent_wedge_gap():
    tree = TreeNode("root", "root", 1000.0, children=[
        TreeNode("p", "p", 500.0, children=[
            TreeNode(f"t{i}", f"t{i}", 2.0) for i in range(4)]),
        TreeNode("q", "q", 500.0),
    ])
    cfg = LayoutConfig(r0=4.0, h0=2.0, relax_threshold=0.01)
    after = relax_thin_nodes(layout_rit(normalize(tree, "strict"), cfg), cfg)
    parent = after.node("p")
    thins = [after.node(f"t{i}") for i in range(4)]
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
    from rit_layout import layout_sunburst

    tree = normalize(flanked_thin_run([3.0, 3.0, 3.0]), "strict")
    with pytest.raises(ValueError):
        relax_thin_nodes(layout_sunburst(tree, LayoutConfig()), LayoutConfig())


def test_deep_thin_chain_relaxes_without_recursion():
    # A thin child heading a 1,500-node chain: each chain node is a thin run
    # of one, so every one of them moves; no step may recurse per level.
    chain = [NormalizedNode(f"c{i}", f"c{i}", 1e-4) for i in range(1500)]
    for parent, child in zip(chain, chain[1:]):
        parent.children = [child]
    tree = NormalizedNode("root", "root", 1.0, children=[
        NormalizedNode("big", "big", 1.0 - 1e-4), chain[0],
    ])
    cfg = LayoutConfig(relax_threshold=1e-3)
    after = relax_thin_nodes(layout_rit(tree, cfg), cfg)
    relaxed = [n.id for n in after.nodes if n.relaxed]
    assert len(relaxed) == 1500
    assert set(relaxed) == {n.id for n in chain}
