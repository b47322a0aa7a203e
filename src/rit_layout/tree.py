"""Hierarchical input data: parsing, validation, and normalization.

Two input formats are supported:

* json-tree: UTF-8 JSON, each node ``{"label": str, "value": number,
  "color": "#RRGGBB" (optional), "children": [...] (optional)}``.
* csv-edges: header ``parent_id,id,label,value,color``; exactly one row
  (the root) has an empty parent_id.

Layouts consume normalized trees whose root data value is exactly 1 and
whose node values are the fraction of the root total.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from itertools import repeat

SUM_TOL = 1e-12

# The deepest tree json-tree text holds.  ``json.dumps(indent=2)`` and
# ``json.loads`` both recurse per level, and both reach this depth at the
# default recursion limit on every supported Python; csv-edges has no bound.
MAX_JSON_TREE_DEPTH = 256

_COLOR_RE = re.compile(r"^#[0-9a-fA-F]{6}$")

# A character outside XML 1.0's Char production (a C0 control but tab, newline
# or carriage return, a surrogate, U+FFFE or U+FFFF): no SVG can hold one.
# Listed rather than negated, the class compiles some ten times faster.
_NON_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class TreeInputError(ValueError):
    """Malformed or structurally invalid input data."""


class NormalizationError(ValueError):
    """Tree values cannot be normalized under the requested strategy."""


class _Tree:
    """The walk and count that raw and normalized nodes share."""

    __slots__ = ()

    def walk(self):
        """Nodes in preorder, with an explicit stack so depth has no limit."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def count(self) -> int:
        return sum(1 for _ in self.walk())


@dataclass(slots=True)
class TreeNode(_Tree):
    """Raw input node; ``value`` is in application units."""

    id: str
    label: str
    value: float
    color: str | None = None
    children: list["TreeNode"] = field(default_factory=list)


@dataclass(slots=True)
class NormalizedNode(_Tree):
    """Node with ``data`` = value / root value, in [0, 1]; root data = 1."""

    id: str
    label: str
    data: float
    color: str | None = None
    children: list["NormalizedNode"] = field(default_factory=list)


@dataclass(frozen=True)
class Violation:
    node_id: str
    rule: str
    message: str


def _check_color(color, where: str) -> str | None:
    if color is None or color == "":
        return None
    if not isinstance(color, str) or not _COLOR_RE.match(color):
        raise TreeInputError(f"{where}: color must look like #RRGGBB, got {color!r}")
    return color


def _require_xml_text(node_id: str, field: str, text: str, error=TreeInputError) -> None:
    if not isinstance(text, str):
        raise error(f"node {node_id!r}: {field} {text!r} is not str")
    bad = _NON_XML_CHAR.search(text)
    if bad is not None:
        raise error(f"node {node_id!r}: {field} holds {bad.group()!r}, a character XML 1.0 cannot hold")


def _checked_fields(obj, node_id: str) -> tuple:
    """The label, value, colour and children of a json-tree node, checked in
    that order, so a node with several faults is named for its first."""
    if not isinstance(obj, dict):
        raise TreeInputError(f"node {node_id}: expected an object, got {type(obj).__name__}")
    if "label" not in obj or not isinstance(obj["label"], str):
        raise TreeInputError(f"node {node_id}: missing or non-string label")
    _require_xml_text(node_id, "label", obj["label"])
    if "value" not in obj or not isinstance(obj["value"], (int, float)) or isinstance(obj["value"], bool):
        raise TreeInputError(f"node {node_id} ({obj.get('label')}): missing or non-numeric value")
    color = _check_color(obj.get("color"), f"node {node_id}")
    children_obj = obj.get("children", [])
    if not isinstance(children_obj, list):
        raise TreeInputError(f"node {node_id}: children must be an array")
    return obj["label"], obj["value"], color, children_obj


# What a json-tree node without "children" has; never written to.
_NO_CHILDREN: list = []


def _node_from_json(obj, node_id: str) -> TreeNode:
    """Build the tree under ``obj``, checking its nodes in preorder.

    The walk keeps an explicit stack, so only ``json.loads`` limits depth.
    """
    built: list[TreeNode] = []
    stack = [(obj, node_id, built)]
    while stack:
        obj, node_id, siblings = stack.pop()
        # The common node takes one exact-type test per field: an object, a
        # str label XML can hold, a float or int value, no colour, and
        # children absent or an array.  Any other node takes every check.
        if (type(obj) is dict
                and type(label := obj.get("label")) is str
                and ((kind := type(value := obj.get("value"))) is float or kind is int)
                and "color" not in obj
                and type(children_obj := obj.get("children", _NO_CHILDREN)) is list
                and _NON_XML_CHAR.search(label) is None):
            color = None
        else:
            label, value, color, children_obj = _checked_fields(obj, node_id)
        if type(value) is not float:
            try:
                value = float(value)
            except OverflowError:
                raise TreeInputError(
                    f"node {node_id} ({label}): value is too large for a float"
                ) from None
        node = TreeNode(node_id, label, value, color)
        siblings.append(node)
        # Pushed last child first, so the first child's subtree is built next.
        for i in range(len(children_obj) - 1, -1, -1):
            stack.append((children_obj[i], f"{node_id}.{i}", node.children))
    return built[0]


def _parse_json_tree(text: str) -> TreeNode:
    try:
        return _node_from_json(json.loads(text), "0")
    except TreeInputError:
        raise
    except ValueError as exc:
        # A JSONDecodeError, or an integer literal past Python's digit limit.
        raise TreeInputError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise TreeInputError("json-tree nesting is too deep to parse") from None


def _parse_csv_edges(text: str) -> TreeNode:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise TreeInputError("empty csv input") from None
    expected = ["parent_id", "id", "label", "value", "color"]
    if [h.strip() for h in header] != expected:
        raise TreeInputError(f"csv header must be {','.join(expected)}, got {header}")

    nodes: dict[str, TreeNode] = {}
    parents: dict[str, str] = {}
    order: list[str] = []
    roots: list[str] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 5:
            raise TreeInputError(f"csv line {lineno}: expected 5 fields, got {len(row)}")
        # Labels keep their exact text; the structural fields are stripped.
        parent_id, node_id, value_s, color = (row[0].strip(), row[1].strip(),
                                              row[3].strip(), row[4].strip())
        label = row[2]
        if not node_id:
            raise TreeInputError(f"csv line {lineno}: empty id")
        if node_id in nodes:
            raise TreeInputError(f"csv line {lineno}: duplicate id {node_id!r}")
        _require_xml_text(node_id, "id", node_id)
        _require_xml_text(node_id, "label", label)
        try:
            value = float(value_s)
        except ValueError:
            raise TreeInputError(f"csv line {lineno}: bad value {value_s!r}") from None
        nodes[node_id] = TreeNode(
            id=node_id, label=label, value=value, color=_check_color(color, f"csv line {lineno}")
        )
        order.append(node_id)
        if parent_id:
            parents[node_id] = parent_id
        else:
            roots.append(node_id)

    if not roots:
        raise TreeInputError("no root row (empty parent_id) found")
    if len(roots) > 1:
        raise TreeInputError(f"multiple roots: {', '.join(roots)}")
    for node_id in order:
        parent_id = parents.get(node_id)
        if parent_id is None:
            continue
        if parent_id not in nodes:
            raise TreeInputError(f"node {node_id!r} references unknown parent {parent_id!r}")
        nodes[parent_id].children.append(nodes[node_id])

    root = nodes[roots[0]]
    reachable = {n.id for n in root.walk()}
    if len(reachable) != len(order):
        stray = [i for i in order if i not in reachable]
        raise TreeInputError(f"cycle detected: nodes unreachable from root: {', '.join(stray)}")
    return root


def parse_tree(data: bytes | str, fmt: str) -> TreeNode:
    """Parse a byte stream or string in the given format ("json-tree"/"csv-edges").

    Bytes are read as UTF-8.  A leading byte-order mark, which spreadsheet
    exports write, is dropped from bytes and from a string alike.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise TreeInputError(f"input is not valid UTF-8: {exc}") from None
    elif isinstance(data, str):
        data = data.removeprefix("\ufeff")
    if fmt == "json-tree":
        return _parse_json_tree(data)
    if fmt == "csv-edges":
        try:
            return _parse_csv_edges(data)
        except csv.Error as exc:
            # A carriage return or a NUL the csv module will not read.
            raise TreeInputError(f"invalid csv: {exc}") from None
    raise ValueError(f"unknown tree format {fmt!r}")


def detect_format(filename: str) -> str:
    if filename.endswith(".csv"):
        return "csv-edges"
    return "json-tree"


def _json_tree_doc(node: TreeNode, depth: int = 1) -> dict:
    """The nested node objects ``{"label", "value", "color" (if set),
    "children" (if any)}`` of a json-tree file, ``node`` at level ``depth``."""
    obj = {"label": node.label, "value": node.value}
    if node.color is not None:
        obj["color"] = node.color
    if node.children:
        if depth == MAX_JSON_TREE_DEPTH:
            raise TreeInputError(
                f"node {node.id!r}: json-tree holds at most {MAX_JSON_TREE_DEPTH} "
                "levels; write a deeper tree as csv-edges"
            )
        obj["children"] = [_json_tree_doc(child, depth + 1) for child in node.children]
    return obj


def serialize_tree(tree: TreeNode, fmt: str) -> str:
    """The tree as text in the given format ("json-tree"/"csv-edges").

    json-tree is ``json.dumps(indent=2)`` of the nested node objects.  It
    holds at most ``MAX_JSON_TREE_DEPTH`` levels, so ``parse_tree`` can read
    it back; a deeper tree raises ``TreeInputError``.  csv-edges takes any
    depth, but raises ``TreeInputError`` for an id the reader would change.
    """
    if fmt == "json-tree":
        return json.dumps(_json_tree_doc(tree), indent=2)
    if fmt == "csv-edges":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        # With "\n" as the line terminator, the minimal quoting leaves a lone
        # carriage return bare, and the reader would end the row there.
        quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["parent_id", "id", "label", "value", "color"])
        # Preorder with an explicit stack of (node, parent id): any depth.
        stack = [(tree, "")]
        seen: set[str] = set()
        while stack:
            node, parent_id = stack.pop()
            # The reader strips ids and needs them non-empty and unique.
            if not node.id or node.id != node.id.strip() or node.id in seen:
                raise TreeInputError(f"node {node.id!r}: a csv-edges id must be non-empty, "
                                     "unique and without surrounding whitespace")
            seen.add(node.id)
            bare_cr = "\r" in f"{parent_id}{node.id}{node.label}{node.color}"
            (quoted if bare_cr else writer).writerow(
                [parent_id, node.id, node.label, repr(node.value), node.color or ""])
            stack.extend((child, node.id) for child in reversed(node.children))
        return out.getvalue()
    raise ValueError(f"unknown tree format {fmt!r}")


def _value_violation(node_id: str, value: float) -> Violation | None:
    """The rules of one value, which the layouts also apply to ``data``."""
    if not math.isfinite(value):
        return Violation(node_id, "non-finite-value", f"value {value} is not finite")
    if value < 0.0:
        return Violation(node_id, "negative-value", f"value {value} < 0")
    return None


def _fsum(values: list[float]) -> float:
    """The correctly rounded sum, so order never changes it; NaN for inf - inf.
    Past a partial sum's overflow, the sum of the values scaled by 2**e, scaled
    back, or an infinity of its sign where it does not fit back."""
    try:
        return math.fsum(values)
    except OverflowError:
        # Scaled values cannot overflow, so this recurses once.
        e = -1 - len(values).bit_length()
        scaled = _fsum([math.ldexp(v, e) for v in values])
        try:
            return math.ldexp(scaled, -e)
        except OverflowError:
            return math.copysign(math.inf, scaled)
    except ValueError:
        return math.nan


def _violations(node: TreeNode, is_root: bool, strict: bool):
    """The value rules ``node`` breaks, in the one order ``validate`` lists
    and ``normalize`` refuses by: ``non-finite-value``, which ends the list,
    or ``negative-value``; ``zero-root`` for a root of 0; then, under
    ``strict`` and with every child finite, ``overfull-parent`` for children
    summing past the value by more than ``SUM_TOL`` times the larger of 1
    and the value, which allows for rounding in the input."""
    value = node.value
    bad = _value_violation(node.id, value)
    if bad is not None:
        yield bad
        if bad.rule == "non-finite-value":
            return
    elif is_root and value == 0.0:
        yield Violation(node.id, "zero-root", f"root value {value} is not > 0")
    if strict and node.children and all(math.isfinite(c.value) for c in node.children):
        child_sum = _fsum([c.value for c in node.children])
        excess = child_sum - value
        if excess > SUM_TOL * max(1.0, abs(value)):
            yield Violation(node.id, "overfull-parent",
                            f"children sum {child_sum} exceeds parent value {value} by {excess}")


def _refusal(bad: Violation) -> str:
    return f"node {bad.node_id!r}: {bad.rule}: {bad.message}"


def validate(tree: TreeNode) -> list[Violation]:
    """Every node's ``_violations`` in preorder, as data rather than errors;
    the first is the one ``normalize`` refuses with."""
    return [bad for node in tree.walk() for bad in _violations(node, node is tree, True)]


def normalize(tree: TreeNode, strategy: str = "strict") -> NormalizedNode:
    """Divide every value by the root value so the root maps to exactly 1.

    A tree that breaks a value rule raises ``NormalizationError`` for the
    first violation ``validate`` lists, but ``renormalize`` skips ``overfull-parent``.

    strict: raise if any parent's children sum past its own value.
    renormalize: scale the children of an overfull parent (and, implicitly,
    their whole subtrees) down proportionally so their sum equals the parent.
    """
    if strategy not in ("strict", "renormalize"):
        raise ValueError(f"unknown normalization strategy {strategy!r}")
    strict = strategy == "strict"
    root_value = tree.value
    inf = math.inf
    # Each chained comparison is false exactly when a node breaks a rule of
    # its own value; only then are its violations made, to raise the first.
    if not 0.0 < root_value < inf:
        raise NormalizationError(_refusal(next(_violations(tree, True, strict))))

    # Preorder with an explicit stack: an error names the first bad node in
    # preorder, at any depth.
    copies: list[NormalizedNode] = []
    stack = [(tree, 1.0, copies)]
    while stack:
        node, scale, siblings = stack.pop()
        value = node.value
        if not 0.0 <= value < inf:
            raise NormalizationError(_refusal(next(_violations(node, False, strict))))
        # A plain float, whatever number type the value has.
        data = float(scale * value / root_value)
        out = NormalizedNode(node.id, node.label, data, node.color)
        siblings.append(out)
        if not node.children:
            continue
        child_scale = scale
        child_sum = _fsum([c.value for c in node.children])
        if child_sum > value:
            if strict:
                bad = next(_violations(node, node is tree, True), None)
                if bad is not None:
                    raise NormalizationError(_refusal(bad))
            # Children summing past the float range sum in range once scaled by
            # 2**e, which keeps the ratio: ldexp is exact but for values far
            # too small to move the sum.  Otherwise e = 0 changes nothing.
            e = 0 if child_sum < inf else -1 - len(node.children).bit_length()
            child_sum = _fsum([math.ldexp(c.value, e) for c in node.children])
            child_scale = scale * math.ldexp(value, e) / child_sum
        stack.extend(zip(reversed(node.children), repeat(child_scale), repeat(out.children)))
    return copies[0]
