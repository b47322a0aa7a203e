import itertools
import json
import math
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from rit_layout import GeneratorSpec, demo_tree, generate_tree, normalize, parse_tree, serialize_tree, validate
from rit_layout.generate import default_schedule
from rit_layout.tree import (
    MAX_JSON_TREE_DEPTH,
    NormalizationError,
    TreeInputError,
    TreeNode,
    _node_from_json,
)

from conftest import tree_equal_ignoring_ids, xml_text_ok
from oracles import normalized_violations

FIG_JSON = b'{"label":"root","value":100,"children":[{"label":"a","value":75},{"label":"b","value":25}]}'

FIG_CSV = (
    "parent_id,id,label,value,color\n"
    ",root,root,100,\n"
    "root,a,a,75,\n"
    "root,b,b,25,\n"
)


def _json_tree_oracle(node: TreeNode) -> dict:
    """The nested node objects json-tree files hold, built recursively."""
    obj: dict = {"label": node.label, "value": node.value}
    if node.color is not None:
        obj["color"] = node.color
    if node.children:
        obj["children"] = [_json_tree_oracle(c) for c in node.children]
    return obj


_HOSTILE_TEXT = st.one_of(
    st.text(),
    st.sampled_from(['quote"d', "back\\slash", "new\nline", "ctl\x01", "\ud800", "☃", "</svg>"]),
)


@st.composite
def _hostile_trees(draw, depth=0):
    # Containers too: json.dumps indents their items at the member's depth.
    value = draw(st.one_of(
        st.integers(), st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
        st.booleans(), st.none(), st.lists(st.floats(), max_size=2),
        st.dictionaries(_HOSTILE_TEXT, st.lists(st.integers(), max_size=2), max_size=2)))
    color = draw(st.one_of(st.none(), st.just(""), _HOSTILE_TEXT,
                           st.from_regex(r"#[0-9a-fA-F]{6}", fullmatch=True)))
    children = draw(st.lists(_hostile_trees(depth + 1), max_size=3)) if depth < 3 else []
    return TreeNode("id", draw(_HOSTILE_TEXT), value, color, children)


# Python 3.10's csv module reads no NUL.
_CSV_TEXT = (st.text(alphabet=st.characters(blacklist_characters="\x00"))
             if sys.version_info < (3, 11) else st.text())


@st.composite
def _writable_trees(draw):
    """A generator tree with any ids, labels, colors and non-NaN values,
    below a chain whose length takes the whole tree to either side of
    ``MAX_JSON_TREE_DEPTH`` levels.

    Most ids are the generator's: unique, and unchanged by the csv reader's
    strip.  The rest may be empty, repeat, have surrounding whitespace or
    hold text XML 1.0 cannot, as may labels.
    """
    spec = GeneratorSpec(draw(st.sampled_from(["random", "semi-random"])),
                         draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                         seed=draw(st.integers(0, 10_000)))
    tree = generate_tree(spec)
    for node in tree.walk():
        node.id = draw(st.one_of(st.just(node.id), st.just(node.id), st.sampled_from(
            ["", "n0", " a", "a ", "c\r", "\x1fa", "a\x01b", "\ud800", "\uffff"]), _CSV_TEXT))
        node.label = draw(st.one_of(_CSV_TEXT, st.sampled_from(
            ["\r", "a\rb", "\r\n", 'quote"d', " spaced ", "\ud800", "</svg>"])))
        node.value = draw(st.floats(allow_nan=False))
        node.color = draw(st.one_of(st.none(), st.from_regex(r"#[0-9a-fA-F]{6}", fullmatch=True)))
    levels = draw(st.one_of(st.just(0), st.integers(MAX_JSON_TREE_DEPTH - 6, MAX_JSON_TREE_DEPTH)))
    for i in range(levels):
        tree = TreeNode(f"c{i}", f"c{i}", 1.0, children=[tree])
    return tree


def _levels(tree: TreeNode) -> int:
    deepest, stack = 0, [(tree, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((child, level + 1) for child in node.children)
    return deepest


class TestParse:
    def test_json_three_nodes(self):
        tree = parse_tree(FIG_JSON, "json-tree")
        assert tree.label == "root" and tree.value == 100
        assert [c.value for c in tree.children] == [75, 25]

    def test_single_node(self):
        tree = parse_tree(b'{"label":"x","value":1}', "json-tree")
        assert tree.label == "x" and tree.children == []

    def test_csv_matches_json(self):
        assert tree_equal_ignoring_ids(
            parse_tree(FIG_CSV, "csv-edges"), parse_tree(FIG_JSON, "json-tree")
        )

    def test_csv_preserves_ids_and_order(self):
        tree = parse_tree(FIG_CSV, "csv-edges")
        assert tree.id == "root"
        assert [c.id for c in tree.children] == ["a", "b"]

    def test_color_parsed(self):
        tree = parse_tree(b'{"label":"x","value":1,"color":"#A1b2C3"}', "json-tree")
        assert tree.color == "#A1b2C3"

    @pytest.mark.parametrize(
        "payload",
        [
            b"not json",
            b'{"label":"x"}',
            b'{"value":3}',
            b'{"label":"x","value":"many"}',
            b'{"label":"x","value":1,"color":"red"}',
            b'{"label":"x","value":1,"children":{}}',
        ],
    )
    def test_json_malformed(self, payload):
        with pytest.raises(TreeInputError):
            parse_tree(payload, "json-tree")

    def test_json_ids_are_positional(self):
        tree = parse_tree(b'{"label":"r","value":3,"children":[{"label":"a","value":1},'
                          b'{"label":"b","value":2,"children":[{"label":"c","value":2}]}]}',
                          "json-tree")
        assert [(n.id, n.label) for n in tree.walk()] == [
            ("0", "r"), ("0.0", "a"), ("0.1", "b"), ("0.1.0", "c")]

    def test_json_first_bad_node_in_preorder_is_named(self):
        # 0.0.0 comes before 0.1 in preorder, but after it breadth-first.
        obj = {"label": "r", "value": 3, "children": [
            {"label": "a", "value": 1, "children": [{"value": 1}]},
            {"label": "b", "value": "x"}]}
        with pytest.raises(TreeInputError, match=r"^node 0\.0\.0: missing or non-string label$"):
            _node_from_json(obj, "0")
        del obj["children"][0]["children"]
        with pytest.raises(TreeInputError, match=r"^node 0\.1 \(b\): missing or non-numeric value$"):
            _node_from_json(obj, "0")

    @pytest.mark.parametrize("text, message", [
        # label + value
        ('{"label": 5, "value": "x"}', "node 0: missing or non-string label"),
        ('{"value": true, "color": "red"}', "node 0: missing or non-string label"),
        ('{"label": "a\\u0001", "value": "x"}',
         "node '0': label holds '\\x01', a character XML 1.0 cannot hold"),
        # colour + an int too large for a float
        ('{"label": "a", "value": 1%s, "color": "red"}' % ("0" * 400),
         "node 0: color must look like #RRGGBB, got 'red'"),
        ('{"label": "a", "value": 1%s, "children": {}}' % ("0" * 400),
         "node 0: children must be an array"),
        ('{"label": "a", "value": 1%s, "children": [], "color": null}' % ("0" * 400),
         "node 0 (a): value is too large for a float"),
        # a bool value
        ('{"label": "a", "value": true}', "node 0 (a): missing or non-numeric value"),
        ('{"label": "a", "value": false, "color": "#zzzzzz"}',
         "node 0 (a): missing or non-numeric value"),
        # children not an array + a bad colour
        ('{"label": "a", "value": 1, "color": "red", "children": {}}',
         "node 0: color must look like #RRGGBB, got 'red'"),
        ('{"label": "a", "value": 1, "color": null, "children": null}',
         "node 0: children must be an array"),
        # a child that is not an object
        ('{"label": "a", "value": 1, "color": "", "children": [{"label": "b", "value": 1}, 3]}',
         "node 0.1: expected an object, got int"),
        ('{"label": "r", "value": 2, "children": [[], {"label": 1}]}',
         "node 0.0: expected an object, got list"),
        ('{"label": "r", "value": 2, "children": [{"label": "b", "value": 1.5, "color": 7}]}',
         "node 0.0: color must look like #RRGGBB, got 7"),
    ])
    def test_json_node_with_several_faults_names_the_first(self, text, message):
        with pytest.raises(TreeInputError) as info:
            parse_tree(text.encode(), "json-tree")
        assert str(info.value) == message

    def test_json_int_values_become_exact_floats(self):
        text = '{"label": "r", "value": %d, "children": [{"label": "a", "value": 3}, ' \
               '{"label": "b", "value": 2.5, "color": "#00ff00"}]}' % (2 ** 53 + 1)
        tree = parse_tree(text, "json-tree")
        assert [type(n.value) for n in tree.walk()] == [float, float, float]
        assert [n.value for n in tree.walk()] == [float(2 ** 53 + 1), 3.0, 2.5]

    @pytest.mark.parametrize("fmt", ["json-tree", "csv-edges"])
    def test_leading_byte_order_mark_is_dropped(self, fmt):
        text = FIG_JSON.decode() if fmt == "json-tree" else FIG_CSV
        plain = parse_tree(text.encode("utf-8"), fmt)
        assert parse_tree(b"\xef\xbb\xbf" + text.encode("utf-8"), fmt) == plain
        assert parse_tree(text.encode("utf-8-sig"), fmt) == plain
        assert parse_tree("\ufeff" + text, fmt) == plain
        # Only the leading mark goes: a second one is text, and fails as before.
        with pytest.raises(TreeInputError):
            parse_tree(b"\xef\xbb\xbf" + text.encode("utf-8-sig"), fmt)
        with pytest.raises(TreeInputError):
            parse_tree("\ufeff\ufeff" + text, fmt)

    def test_json_chain_deeper_than_recursion_limit(self):
        depth = sys.getrecursionlimit() + 500
        obj = {"label": "leaf", "value": 1}
        for _ in range(depth - 1):
            obj = {"label": "n", "value": 1, "children": [obj]}
        tree = _node_from_json(obj, "0")
        ids = [n.id for n in tree.walk()]
        assert len(ids) == depth
        assert ids[-1] == "0" + ".0" * (depth - 1)
        assert [len(n.children) for n in tree.walk()] == [1] * (depth - 1) + [0]

    def test_csv_duplicate_id(self):
        bad = FIG_CSV + "root,a,a2,1,\n"
        with pytest.raises(TreeInputError, match="duplicate"):
            parse_tree(bad, "csv-edges")

    def test_csv_multiple_roots(self):
        bad = FIG_CSV + ",root2,root2,1,\n"
        with pytest.raises(TreeInputError, match="multiple roots"):
            parse_tree(bad, "csv-edges")

    def test_csv_missing_root(self):
        bad = "parent_id,id,label,value,color\nroot,a,a,75,\n"
        with pytest.raises(TreeInputError, match="unknown parent|no root"):
            parse_tree(bad, "csv-edges")

    def test_csv_cycle(self):
        bad = (
            "parent_id,id,label,value,color\n"
            ",root,root,10,\n"
            "b,a,a,1,\n"
            "a,b,b,1,\n"
        )
        with pytest.raises(TreeInputError, match="cycle"):
            parse_tree(bad, "csv-edges")

    def test_csv_bare_carriage_return_is_input_error(self):
        with pytest.raises(TreeInputError, match="invalid csv"):
            parse_tree(FIG_CSV + "root,c,a\rb,1,\n", "csv-edges")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_tree(FIG_JSON, "xml")

    @pytest.mark.parametrize("char", [
        pytest.param("\x00", marks=pytest.mark.skipif(
            sys.version_info < (3, 11), reason="Python 3.10's csv module reads no NUL")),
        "\x01", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"])
    def test_text_xml_cannot_hold_names_the_node(self, char):
        with pytest.raises(TreeInputError) as info:
            parse_tree(FIG_CSV + f"root,c{char}d,c,1,\n", "csv-edges")
        assert str(info.value) == (
            f"node {'c' + char + 'd'!r}: id holds {char!r}, a character XML 1.0 cannot hold")
        with pytest.raises(TreeInputError, match="^node 'c': label holds"):
            parse_tree(FIG_CSV + f"root,c,c{char},1,\n", "csv-edges")
        doc = {"label": "r", "value": 2, "children": [{"label": "a", "value": 1},
                                                      {"label": f"b{char}", "value": 1}]}
        with pytest.raises(TreeInputError, match="^node '0.1': label holds"):
            parse_tree(json.dumps(doc), "json-tree")

    def test_xml_whitespace_and_astral_text_is_kept(self):
        tree = parse_tree(FIG_CSV + "root,c\td,\"l\r\n\U0010ffff\ufffd\",1,\n", "csv-edges")
        assert (tree.children[-1].id, tree.children[-1].label) == ("c\td", "l\r\n\U0010ffff\ufffd")


class TestRoundTrip:
    def test_json_round_trip(self):
        tree = parse_tree(FIG_JSON, "json-tree")
        again = parse_tree(serialize_tree(tree, "json-tree"), "json-tree")
        assert again == tree  # positional ids regenerate identically

    def test_csv_round_trip_exact(self):
        tree = parse_tree(FIG_CSV, "csv-edges")
        again = parse_tree(serialize_tree(tree, "csv-edges"), "csv-edges")
        assert again == tree

    def test_demo_tree_round_trips_both_formats(self):
        tree = demo_tree()
        csv_again = parse_tree(serialize_tree(tree, "csv-edges"), "csv-edges")
        assert csv_again == tree
        json_again = parse_tree(serialize_tree(tree, "json-tree"), "json-tree")
        assert tree_equal_ignoring_ids(json_again, tree)

    def test_deep_chain_csv_round_trip(self):
        nodes = [TreeNode(f"n{i}", f"n{i}", 1.0 + i) for i in range(3000)]
        for parent, child in zip(nodes, nodes[1:]):
            parent.children = [child]
        again = parse_tree(serialize_tree(nodes[0], "csv-edges"), "csv-edges")
        assert [(n.id, n.value) for n in again.walk()] == [(n.id, n.value) for n in nodes]

    @staticmethod
    def _chain(levels: int) -> list[TreeNode]:
        nodes = [TreeNode(f"n{i}", f"n{i}", 1.0 + i, "#a0b1c2" if i % 2 else None)
                 for i in range(levels)]
        for parent, child in zip(nodes, nodes[1:]):
            parent.children = [child]
        return nodes

    def test_chain_at_json_depth_bound_round_trips(self):
        nodes = self._chain(MAX_JSON_TREE_DEPTH)
        again = parse_tree(serialize_tree(nodes[0], "json-tree"), "json-tree")
        assert ([(n.label, n.value, n.color, len(n.children)) for n in again.walk()]
                == [(n.label, n.value, n.color, len(n.children)) for n in nodes])

    def test_chain_past_json_depth_bound_names_csv_edges(self):
        nodes = self._chain(MAX_JSON_TREE_DEPTH + 1)
        with pytest.raises(TreeInputError, match="csv-edges") as caught:
            serialize_tree(nodes[0], "json-tree")
        assert caught.value.__context__ is None

    @settings(max_examples=200, deadline=None)
    @given(tree=_hostile_trees())
    def test_json_tree_bytes_equal_json_dumps(self, tree):
        assert serialize_tree(tree, "json-tree") == json.dumps(_json_tree_oracle(tree), indent=2)

    @settings(max_examples=200, deadline=None)
    @given(tree=_writable_trees())
    def test_every_written_tree_reads_back(self, tree):
        """Every tree is written and read back, or the writer or the reader
        names the first node, in preorder, whose id or label it cannot take."""
        def rows(root, ids):
            return [(n.id if ids else None, n.label, repr(n.value), n.color, len(n.children))
                    for n in root.walk()]

        nodes = list(tree.walk())
        seen = set()
        for node in nodes:
            if not node.id or node.id != node.id.strip() or node.id in seen:
                with pytest.raises(TreeInputError) as info:
                    serialize_tree(tree, "csv-edges")
                assert str(info.value).startswith(f"node {node.id!r}: a csv-edges id must be")
                break
            seen.add(node.id)
        else:
            text = serialize_tree(tree, "csv-edges")
            bad = next((n for n in nodes if not xml_text_ok(n.id + n.label)), None)
            if bad is None:
                assert rows(parse_tree(text, "csv-edges"), True) == rows(tree, True)
            else:
                with pytest.raises(TreeInputError) as info:
                    parse_tree(text, "csv-edges")
                assert str(info.value).startswith(f"node {bad.id!r}: ")
                assert "XML 1.0 cannot hold" in str(info.value)
        if _levels(tree) > MAX_JSON_TREE_DEPTH:
            with pytest.raises(TreeInputError, match="csv-edges"):
                serialize_tree(tree, "json-tree")
            return
        text = serialize_tree(tree, "json-tree")
        if all(xml_text_ok(n.label) for n in nodes):
            assert rows(parse_tree(text, "json-tree"), False) == rows(tree, False)
        else:
            with pytest.raises(TreeInputError, match="label holds .*, a character XML 1.0"):
                parse_tree(text, "json-tree")

    @pytest.mark.parametrize("bad_id", ["", " a", "a\r", "\x1fa", "a"])
    def test_csv_writer_refuses_ids_the_reader_would_change(self, bad_id):
        tree = TreeNode("a", "r", 2.0, children=[TreeNode("b", "b", 1.0),
                                                 TreeNode(bad_id, "c", 1.0)])
        with pytest.raises(TreeInputError) as info:
            serialize_tree(tree, "csv-edges")
        assert str(info.value) == (f"node {bad_id!r}: a csv-edges id must be non-empty, "
                                   "unique and without surrounding whitespace")

    def test_awkward_labels_round_trip(self):
        tree = TreeNode("r", ' spaced, "quoted"\nlabel ', 2.0, children=[
            TreeNode("a", "", 1.0), TreeNode("b", "ümlaut", 1.0)])
        for fmt in ("csv-edges", "json-tree"):
            again = parse_tree(serialize_tree(tree, fmt), fmt)
            assert tree_equal_ignoring_ids(again, tree)


class TestWalk:
    def test_preorder_matches_recursive_reference(self):
        def recursive(node):
            yield node
            for child in node.children:
                yield from recursive(child)

        raw = demo_tree()
        assert [n.id for n in raw.walk()] == [n.id for n in recursive(raw)]
        tree = normalize(raw, "strict")
        assert [n.id for n in tree.walk()] == [n.id for n in recursive(tree)]
        assert tree.count() == raw.count() == len(list(recursive(raw)))


class TestValidate:
    def test_demo_tree_clean(self):
        assert validate(demo_tree()) == []

    def test_overfull_parent(self):
        tree = TreeNode("p", "p", 10, children=[
            TreeNode("a", "a", 7), TreeNode("b", "b", 7)])
        violations = validate(tree)
        assert [v.rule for v in violations] == ["overfull-parent"]
        assert violations[0].node_id == "p"

    def test_negative_value(self):
        violations = validate(TreeNode("n", "n", -1.0))
        assert [v.rule for v in violations] == ["negative-value"]

    def test_children_summing_past_float_range_are_overfull(self):
        tree = TreeNode("p", "p", 1e308, children=[
            TreeNode("a", "a", 1e308), TreeNode("b", "b", 1e308)])
        assert [(v.node_id, v.rule) for v in validate(tree)] == [("p", "overfull-parent")]

    def test_infinite_children_are_reported_not_raised(self):
        tree = TreeNode("p", "p", 1.0, children=[
            TreeNode("a", "a", math.inf), TreeNode("b", "b", -math.inf)])
        assert [(v.node_id, v.rule) for v in validate(tree)] == [
            ("a", "non-finite-value"), ("b", "non-finite-value")]


class TestNormalize:
    def test_simple_fractions(self):
        tree = normalize(parse_tree(FIG_JSON, "json-tree"), "strict")
        assert tree.data == 1.0
        assert [c.data for c in tree.children] == [0.75, 0.25]

    def test_single_node(self):
        assert normalize(TreeNode("x", "x", 7.0), "strict").data == 1.0

    def test_strict_rejects_overfull(self):
        tree = TreeNode("p", "p", 10, children=[
            TreeNode("a", "a", 6), TreeNode("b", "b", 6)])
        with pytest.raises(NormalizationError, match="'p'.*exceeds"):
            normalize(tree, "strict")

    @pytest.mark.parametrize("excess, overfull", [(2e-6, True), (5e-7, False)])
    def test_strict_shares_validates_overfull_rule(self, excess, overfull):
        # The tolerance is SUM_TOL relative to a parent value above 1.
        tree = TreeNode("p", "p", 1e6, children=[
            TreeNode("a", "a", 5e5), TreeNode("b", "b", 5e5 + excess)])
        violations = validate(tree)
        if not overfull:
            assert violations == []
            assert normalize(tree, "strict").children[1].data > 0.5
            return
        (bad,) = violations
        with pytest.raises(NormalizationError) as info:
            normalize(tree, "strict")
        assert str(info.value) == f"node 'p': overfull-parent: {bad.message}"

    def test_renormalize_scales_children(self):
        tree = TreeNode("p", "p", 10, children=[
            TreeNode("a", "a", 6), TreeNode("b", "b", 6)])
        result = normalize(tree, "renormalize")
        assert [c.data for c in result.children] == pytest.approx([0.5, 0.5], rel=1e-15)
        assert sum(c.data for c in result.children) == pytest.approx(result.data, abs=1e-12)

    def test_renormalize_children_summing_past_float_range(self):
        tree = TreeNode("p", "p", 1.7e308, children=[
            TreeNode("a", "a", 1e308, children=[TreeNode("c", "c", 1e308)]),
            TreeNode("b", "b", 1e308)])
        result = normalize(tree, "renormalize")
        assert [n.data for n in result.walk()] == [1.0, 0.5, 0.5, 0.5]
        # Scaling every value by a power of two changes no node's data.
        for node in tree.walk():
            node.value = math.ldexp(node.value, -8)
        assert normalize(tree, "renormalize") == result

    def test_renormalize_cascades_to_grandchildren(self):
        tree = TreeNode("p", "p", 10, children=[
            TreeNode("a", "a", 20, children=[TreeNode("c", "c", 20)])])
        result = normalize(tree, "renormalize")
        assert result.children[0].data == pytest.approx(1.0, rel=1e-12)
        assert result.children[0].children[0].data <= result.children[0].data + 1e-12

    @pytest.mark.parametrize("strategy", ["strict", "renormalize"])
    @pytest.mark.parametrize("value, rule", [
        (math.nan, "non-finite-value"),
        (math.inf, "non-finite-value"),
        (-1.0, "negative-value"),
    ])
    def test_bad_values_rejected_with_validate_rule(self, strategy, value, rule):
        parent = TreeNode("p", "p", 10, children=[
            TreeNode("a", "a", 1), TreeNode("x", "x", value)])
        assert ("x", rule) in {(v.node_id, v.rule) for v in validate(parent)}
        for tree in (parent, TreeNode("r", "r", 20, children=[parent]), TreeNode("x", "x", value)):
            with pytest.raises(NormalizationError, match=f"'x': {rule}"):
                normalize(tree, strategy)

    def test_children_summing_past_float_range_rejected_in_strict(self):
        tree = TreeNode("p", "p", 1.7e308, children=[
            TreeNode("a", "a", 1e308), TreeNode("b", "b", 1e308)])
        with pytest.raises(NormalizationError, match="overfull-parent"):
            normalize(tree, "strict")

    @pytest.mark.parametrize("strategy", ["strict", "renormalize"])
    @pytest.mark.parametrize("values", [
        [1.0, math.inf, -math.inf],
        [1e308, 1e308, math.inf, -math.inf],
    ], ids=["inf-pair", "overflow-then-inf-pair"])
    def test_children_of_both_infinities_are_named_not_raised(self, strategy, values):
        # The parent sums its children before their own values are checked.
        tree = TreeNode("p", "p", 1.0, children=[
            TreeNode(f"c{i}", f"c{i}", v) for i, v in enumerate(values)])
        first = values.index(math.inf)
        with pytest.raises(NormalizationError, match=f"^node 'c{first}': non-finite-value: "):
            normalize(tree, strategy)

    @pytest.mark.parametrize("strategy", ["strict", "renormalize"])
    @pytest.mark.parametrize("value, children, named", [
        (1.0, [-1e308, -1e308], ["a", "b"]),
        (1e308, [1e308, 1e308, -1e308], ["c"]),
    ], ids=["sum-below-range", "sum-back-in-range"])
    def test_child_sum_past_float_range_keeps_its_sign(self, strategy, value, children, named):
        # A partial sum that overflows is no overfull verdict: the first
        # children sum to -inf, the second to 1e308, the parent's value.
        tree = TreeNode("p", "p", value, children=[
            TreeNode(c, c, v) for c, v in zip("abc", children)])
        assert [(v.node_id, v.rule) for v in validate(tree)] == [
            (node, "negative-value") for node in named]
        with pytest.raises(NormalizationError, match=f"^node '{named[0]}': negative-value: "):
            normalize(tree, strategy)

    def test_zero_root_rejected(self):
        for value in (0.0, -0.0):
            with pytest.raises(NormalizationError, match=f"^node 'x': zero-root: root value {value} "):
                normalize(TreeNode("x", "x", value), "strict")

    def test_float_dust_overfull_tolerated_in_strict(self):
        tree = TreeNode("p", "p", 0.3, children=[
            TreeNode(c, c, 0.1) for c in "abc"])
        assert sum(n.value for n in tree.children) > 0.3  # FP dust
        result = normalize(tree, "strict")
        assert sum(c.data for c in result.children) <= result.data + 1e-12

    def test_child_order_never_changes_data(self):
        # 0.1 + 0.2 + 0.3 rounds to 0.6000000000000001 left to right but to
        # 0.6 right to left; the correctly rounded sum is 0.6 in every order.
        values = {"a": 0.1, "b": 0.2, "c": 0.3}
        datas = set()
        for order in itertools.permutations(values):
            tree = TreeNode("p", "p", 0.6, children=[TreeNode(c, c, values[c]) for c in order])
            result = normalize(tree, "strict")
            datas.add(tuple(sorted((c.id, c.data) for c in result.children)))
        assert datas == {(("a", 0.1 / 0.6), ("b", 0.2 / 0.6), ("c", 0.3 / 0.6))}

    def test_deep_chain_normalizes_without_recursion(self):
        nodes = [TreeNode(f"n{i}", f"n{i}", 1.0) for i in range(3001)]
        for parent, child in zip(nodes, nodes[1:]):
            parent.children = [child]
        nodes[-1].children = [TreeNode("x", "x", 2.0), TreeNode("y", "y", -1.0)]
        with pytest.raises(NormalizationError, match="'y': negative-value"):
            normalize(nodes[0], "strict")
        nodes[-1].children = []
        result = normalize(nodes[0], "strict")
        assert [n.id for n in result.walk()] == [n.id for n in nodes]
        assert all(n.data == 1.0 for n in result.walk())

    def test_first_bad_node_in_preorder_is_named(self):
        # Renormalized, a breadth-first walk would reach y (under b) before x.
        tree = TreeNode("r", "r", 10, children=[
            TreeNode("a", "a", 5, children=[
                TreeNode("a1", "a1", 3, children=[TreeNode("x", "x", -1.0)]),
                TreeNode("a2", "a2", 3)]),
            TreeNode("b", "b", 1, children=[TreeNode("y", "y", math.nan)]),
        ])
        with pytest.raises(NormalizationError, match="'a': overfull-parent: children sum"):
            normalize(tree, "strict")
        with pytest.raises(NormalizationError, match="'x': negative-value"):
            normalize(tree, "renormalize")

    def test_normalized_invariants_clean(self):
        assert normalized_violations(normalize(demo_tree(), "strict")) == []


# Values past every rule and bound: zeros of both signs, a negative, the
# non-finite ones, the largest finite float and the smallest subnormal.
_EDGE_VALUES = [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, 5e-324]


@st.composite
def _trees_at_the_value_rules(draw):
    """1-12 nodes, each below an earlier one.  Some parents are set to their
    children's sum times 1, 1 + 1e-13, 1.5 or 0.9: exactly full, within the
    overfull tolerance, overfull, or short, and past the float range for
    large children."""
    n = draw(st.integers(1, 12))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    values = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(0.0, 10.0))
    nodes = [TreeNode(f"n{i}", f"n{i}", draw(values)) for i in range(n)]
    for i in range(n - 1, 0, -1):
        nodes[parents[i - 1]].children.insert(0, nodes[i])
    for node in reversed(nodes):
        factor = draw(st.sampled_from([None, 1.0, 1.0 + 1e-13, 1.5, 0.9]))
        if node.children and factor is not None:
            try:
                total = math.fsum(c.value for c in node.children)
            except (OverflowError, ValueError):
                # inf, -inf or NaN, as a running sum gives.
                total = sum(c.value for c in node.children)
            node.value = total * factor
    return nodes[0]


# Trees on which validate and normalize once named different violations
# first: normalize checked children at their parent, before A1's subtree.
_NESTED = TreeNode("r", "r", 10.0, children=[
    TreeNode("A", "A", 5.0, children=[TreeNode("A1", "A1", -1.0)]), TreeNode("B", "B", math.nan)])
_OVERFULL = TreeNode("p", "p", 1.0, children=[TreeNode("a", "a", 2.0), TreeNode("b", "b", -0.5)])


@settings(max_examples=400, deadline=None)
@given(tree=_trees_at_the_value_rules(), strategy=st.sampled_from(["strict", "renormalize"]))
@example(tree=TreeNode("n0", "n0", 0.0), strategy="strict")
@example(tree=TreeNode("p", "p", 1.0, children=[
    TreeNode("a", "a", math.inf), TreeNode("b", "b", -math.inf)]), strategy="renormalize")
@example(tree=TreeNode("r", "r", -0.0), strategy="renormalize")
@example(tree=_NESTED, strategy="strict")
@example(tree=_NESTED, strategy="renormalize")
@example(tree=_OVERFULL, strategy="strict")
@example(tree=_OVERFULL, strategy="renormalize")
def test_normalize_refuses_with_the_first_violation_validate_lists(tree, strategy):
    """``normalize`` succeeds exactly when ``validate`` lists no violation
    that applies under the strategy; otherwise it names the first."""
    applies = [v for v in validate(tree)
               if strategy == "strict" or v.rule != "overfull-parent"]
    if not applies:
        assert normalize(tree, strategy).data == 1.0
        return
    bad = applies[0]
    with pytest.raises(NormalizationError) as info:
        normalize(tree, strategy)
    assert str(info.value) == f"node {bad.node_id!r}: {bad.rule}: {bad.message}"


class TestGenerate:
    def test_fixed_binary_depth8(self):
        tree = generate_tree(GeneratorSpec("fixed", 2, 8))
        assert tree.count() == 511

    def test_fixed_unary_is_chain(self):
        tree = generate_tree(GeneratorSpec("fixed", 1, 4))
        assert tree.count() == 5
        node, depth = tree, 0
        while node.children:
            assert len(node.children) == 1
            node, depth = node.children[0], depth + 1
        assert depth == 4

    def test_random_deterministic(self):
        a = generate_tree(GeneratorSpec("random", 8, 4, seed=42))
        b = generate_tree(GeneratorSpec("random", 8, 4, seed=42))
        assert a == b

    def test_random_differs_across_seeds(self):
        a = generate_tree(GeneratorSpec("random", 8, 4, seed=1))
        b = generate_tree(GeneratorSpec("random", 8, 4, seed=2))
        assert a != b

    @pytest.mark.parametrize("kind", ["fixed", "random", "semi-random"])
    def test_max_nodes_keeps_trees_at_the_cap(self, kind):
        spec = GeneratorSpec(kind, 4, 4, seed=5)
        tree = generate_tree(spec)
        n = tree.count()
        assert generate_tree(spec, max_nodes=n) == tree
        assert generate_tree(spec, max_nodes=n - 1) is None

    @pytest.mark.parametrize("kind", ["fixed", "random"])
    def test_max_nodes_refuses_a_fan_out_before_building_it(self, kind):
        # Stacking the million children before checking the cap takes ~16 MB.
        tracemalloc.start()
        try:
            assert generate_tree(GeneratorSpec(kind, 10**6, 1, seed=3), max_nodes=10) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_values_sum_exactly(self):
        tree = generate_tree(GeneratorSpec("random", 5, 5, seed=3))
        for node in tree.walk():
            if node.children:
                assert node.value == sum(c.value for c in node.children)

    def test_semi_random_schedule_default(self):
        assert default_schedule(8, 6) == (8, 8, 7, 7, 6, 6)
        assert default_schedule(3, 5) == (3, 3, 2, 2, 2)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec("fixed", 0, 3)
        with pytest.raises(ValueError):
            GeneratorSpec("fixed", 2, 0)
        with pytest.raises(ValueError):
            GeneratorSpec("grid", 2, 3)

    @given(
        kind=st.sampled_from(["fixed", "random", "semi-random"]),
        c_max=st.integers(1, 5),
        depth=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    def test_generated_trees_normalize_cleanly(self, kind, c_max, depth, seed):
        tree = generate_tree(GeneratorSpec(kind, c_max, depth, seed=seed))
        assert validate(tree) == []
        norm = normalize(tree, "strict")
        assert normalized_violations(norm) == []
        assert norm.data == 1.0

    def test_fixed_count_formula(self):
        for c, d in [(2, 3), (3, 4), (4, 2), (1, 6)]:
            tree = generate_tree(GeneratorSpec("fixed", c, d))
            expected = d + 1 if c == 1 else (c ** (d + 1) - 1) // (c - 1)
            assert tree.count() == expected
