import colorsys

import pytest

from rit_layout import assign_colors, demo_tree, normalize
from rit_layout.colors import FIXED_PALETTE, ROOT_GREY
from rit_layout.tree import NormalizedNode, TreeNode


def hex_hue(color: str) -> float:
    """Hue of an #RRGGBB color in degrees."""
    r, g, b = (v / 255.0 for v in bytes.fromhex(color[1:]))
    return colorsys.rgb_to_hsv(r, g, b)[0] * 360.0


def bare_tree(n_children, grandchildren=0):
    kids = []
    for i in range(n_children):
        grand = [TreeNode(f"g{i}.{j}", f"g{i}.{j}", 1.0) for j in range(grandchildren)]
        kids.append(TreeNode(f"c{i}", f"c{i}", float(max(1, grandchildren)), children=grand))
    return TreeNode("root", "root", float(sum(k.value for k in kids)) or 1.0, children=kids)


def test_four_children_span_disjoint_quarters():
    tree = assign_colors(normalize(bare_tree(4), "strict"))
    hues = [hex_hue(c.color) for c in tree.children]
    quarters = [int(h // 90.0) for h in hues]
    assert sorted(quarters) == [0, 1, 2, 3]
    assert tree.color == ROOT_GREY


def test_preset_colors_untouched():
    tree = assign_colors(normalize(demo_tree(), "strict"))
    original = {n.id: n.color for n in normalize(demo_tree(), "strict").walk()}
    for node in tree.walk():
        assert node.color == original[node.id]


def test_sibling_leaves_stay_in_parent_range():
    tree = assign_colors(normalize(bare_tree(4, grandchildren=2), "strict"))
    for i, child in enumerate(tree.children):
        lo, hi = i * 90.0, (i + 1) * 90.0
        grand_hues = [hex_hue(g.color) for g in child.children]
        assert len(set(grand_hues)) == len(grand_hues)
        for hue in grand_hues:
            assert lo - 1.0 <= hue <= hi + 1.0


def test_fixed_list_palette():
    tree = assign_colors(normalize(bare_tree(3), "strict"), palette="fixed-list")
    colors = [c.color for c in tree.children]
    assert len(set(colors)) == 3
    assert all(c.startswith("#") for c in colors)


def test_unknown_palette_rejected():
    with pytest.raises(ValueError):
        assign_colors(normalize(bare_tree(2), "strict"), palette="rainbow")


def test_assignment_is_deterministic():
    a = assign_colors(normalize(bare_tree(5, 3), "strict"))
    b = assign_colors(normalize(bare_tree(5, 3), "strict"))
    assert a == b


def test_fixed_list_counts_in_preorder():
    tree = assign_colors(normalize(bare_tree(2, grandchildren=2), "strict"), palette="fixed-list")
    # The root takes palette slot 0 before it is painted grey.
    assert tree.color == ROOT_GREY
    assert [n.color for n in tree.walk()][1:] == list(FIXED_PALETTE[1:7])


@pytest.mark.parametrize("palette", ["hue-partition", "fixed-list"])
def test_deep_chain_colors_without_recursion(palette):
    nodes = [NormalizedNode(f"n{i}", f"n{i}", 1.0) for i in range(3001)]
    for parent, child in zip(nodes, nodes[1:]):
        parent.children = [child]
    colored = list(assign_colors(nodes[0], palette).walk())
    assert [n.id for n in colored] == [n.id for n in nodes]
    assert all(n.color is not None for n in colored)
