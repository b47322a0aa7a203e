import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rit_layout
from rit_layout import GeneratorSpec, LayoutConfig, RenderStyle, demo_tree, generate_tree, serialize_tree
from rit_layout import cli
from rit_layout.bench import gc_paused
from rit_layout.cli import main
from rit_layout.colors import PALETTES, assign_colors
from rit_layout.generate import KINDS
from rit_layout.layout import MODES
from rit_layout.tree import TreeNode

from conftest import strict_json, xml_text_ok

DEMO_JSON = serialize_tree(demo_tree(), "json-tree")
DEMO_CSV = serialize_tree(demo_tree(), "csv-edges")


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(DEMO_JSON)
    return str(path)


class TestRender:
    def test_writes_svg(self, demo_file, tmp_path):
        out = tmp_path / "out.svg"
        rc = main(["render", "--input", demo_file, "--output", str(out),
                   "--style", "rit", "--r0", "8", "--h0", "2"])
        assert rc == 0
        data = out.read_bytes()
        assert data.startswith(b"<?xml")
        assert b"rit-config" in data

    def test_all_styles(self, demo_file, tmp_path):
        for style in ("rit", "sunburst", "icicle"):
            out = tmp_path / f"{style}.svg"
            assert main(["render", "--input", demo_file, "--output", str(out),
                         "--style", style]) == 0
            assert out.exists()

    def test_pi_angle_arguments(self, demo_file, tmp_path):
        out = tmp_path / "q.svg"
        rc = main(["render", "--input", demo_file, "--output", str(out),
                   "--theta0", "1.25pi", "--beta0", "0.5pi",
                   "--r0", "20.5", "--h0", "2"])
        assert rc == 0
        assert b"beta0=1.5707963267948966" in out.read_bytes()

    def test_relax_flag(self, demo_file, tmp_path):
        out = tmp_path / "r.svg"
        rc = main(["render", "--input", demo_file, "--output", str(out),
                   "--relax", "--relax-threshold", "0.05"])
        assert rc == 0
        ET.parse(out)

    def test_csv_input(self, tmp_path):
        src = tmp_path / "demo.csv"
        src.write_text(DEMO_CSV)
        out = tmp_path / "c.svg"
        assert main(["render", "--input", str(src), "--output", str(out)]) == 0

    def test_unreadable_input_exit_2(self, tmp_path):
        assert main(["render", "--input", str(tmp_path / "nope.json"),
                     "--output", str(tmp_path / "x.svg")]) == 2

    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["render", "--input", str(bad),
                     "--output", str(tmp_path / "x.svg")]) == 2

    def test_overfull_strict_input_exit_2(self, tmp_path):
        bad = tmp_path / "over.json"
        bad.write_text(json.dumps({
            "label": "p", "value": 10,
            "children": [{"label": "a", "value": 6}, {"label": "b", "value": 6}],
        }))
        assert main(["render", "--input", str(bad),
                     "--output", str(tmp_path / "x.svg")]) == 2

    def test_invalid_config_exit_1(self, demo_file, tmp_path):
        assert main(["render", "--input", demo_file,
                     "--output", str(tmp_path / "x.svg"), "--ar", "0.7"]) == 1

    @pytest.mark.parametrize("flag, field", [
        ("--r0", "r0"),
        ("--h0", "h0"),
        ("--acr", "acr"),
        ("--relax-threshold", "relax_threshold"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_config_exit_1(self, demo_file, tmp_path, capsys, flag, field, value):
        rc = main(["render", "--input", demo_file, "--output", str(tmp_path / "x.svg"),
                   f"{flag}={value}"])
        assert rc == 1
        assert field in capsys.readouterr().err

    def test_non_finite_svg_margin_exit_1(self, demo_file, tmp_path, capsys):
        out = tmp_path / "x.svg"
        rc = main(["render", "--input", demo_file, "--output", str(out), "--svg-margin", "nan"])
        assert rc == 1
        assert "margin must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--h0", "1e308"],
        ["--r0", "1e308"],
        ["--r0", "1e200", "--h0", "1"],
        ["--h0", "1e-300"],
        ["--r0", "1e-300", "--h0", "1e-160"],
    ], ids=["h0-overflows", "r0-overflows", "r0-squared-overflows", "h0-underflows",
            "subnormal"])
    def test_standard_area_out_of_range_exit_1(self, demo_file, tmp_path, capsys, args):
        out = tmp_path / "x.svg"
        rc = main(["render", "--input", demo_file, "--output", str(out), *args])
        assert rc == 1
        err = capsys.readouterr().err
        assert "standard area" in err
        assert all(name in err for name in ("r0=", "h0=", "beta0="))
        assert "Traceback" not in err
        assert not out.exists()

    def test_canvas_beyond_float_range_exit_1(self, demo_file, tmp_path, capsys):
        out = tmp_path / "x.svg"
        rc = main(["render", "--input", demo_file, "--output", str(out),
                   "--canvas", "1" + "0" * 400])
        assert rc == 1
        err = capsys.readouterr().err
        assert "canvas must be finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_canvas_past_2_53_exit_1(self, demo_file, tmp_path, capsys):
        out = tmp_path / "x.svg"
        rc = main(["render", "--input", demo_file, "--output", str(out),
                   "--canvas", str(2 ** 53 + 1)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: canvas size must be in (0, 2**53], got 9007199254740993\n")
        assert not out.exists()
        assert main(["render", "--input", demo_file, "--output", str(out),
                     "--canvas", str(2 ** 53)]) == 0

    def test_too_deep_json_nesting_exit_2(self, tmp_path, capsys):
        # Deeper than json.loads nests on 3.10-3.13; the tree walk after it
        # has no depth limit of its own.  Built by hand: json.dumps would
        # itself recurse that deep.
        depth = 100_000
        leaf = '{"label":"n","value":1}'
        text = '{"label":"n","value":1,"children":[' * depth + leaf + "]}" * depth
        src = tmp_path / "deep.json"
        src.write_text(text)
        rc = main(["render", "--input", str(src), "--output", str(tmp_path / "x.svg")])
        assert rc == 2
        assert "too deep" in capsys.readouterr().err

    def test_unknown_flag_exit_1(self, demo_file):
        assert main(["render", "--input", demo_file, "--frobnicate"]) == 1

    def test_unknown_subcommand_exit_1(self):
        assert main(["explode"]) == 1


@pytest.mark.parametrize("command", ["render", "layout", "compare"])
@pytest.mark.parametrize("fmt, suffix, bad_id", [
    ("csv-edges", "csv", "'b'"),
    ("json-tree", "json", "'0.1'"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bad_node_value_exit_2(tmp_path, capsys, command, fmt, suffix, bad_id, value):
    tree = TreeNode("root", "root", 2.0, children=[
        TreeNode("a", "a", 1.0), TreeNode("b", "b", float(value))])
    src = tmp_path / f"bad.{suffix}"
    src.write_text(serialize_tree(tree, fmt))
    out = ["--outdir", str(tmp_path / "cmp")] if command == "compare" else [
        "--output", str(tmp_path / "out")]
    assert main([command, "--input", str(src), *out]) == 2
    assert bad_id in capsys.readouterr().err


@pytest.mark.parametrize("command", ["render", "layout", "compare"])
def test_children_summing_past_float_range_exit_2(tmp_path, capsys, command):
    tree = TreeNode("root", "root", 1.7e308, children=[
        TreeNode("a", "a", 1e308), TreeNode("b", "b", 1e308)])
    src = tmp_path / "huge.json"
    src.write_text(serialize_tree(tree, "json-tree"))
    out = ["--outdir", str(tmp_path / "cmp")] if command == "compare" else [
        "--output", str(tmp_path / "out")]
    assert main([command, "--input", str(src), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "overfull-parent" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["9" * 400, "9" * 5000], ids=["400-digits", "5000-digits"])
@pytest.mark.parametrize("command", ["render", "validate"])
def test_value_too_large_exit_2(tmp_path, capsys, command, value):
    src = tmp_path / "big.json"
    src.write_text('{"label": "r", "value": 1, "children": [{"label": "b", "value": '
                   + value + "}]}")
    out = ["--output", str(tmp_path / "x.svg")] if command == "render" else []
    assert main([command, "--input", str(src), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    if len(value) == 400:
        assert "node 0.0 (b): value is too large for a float" in err


@pytest.mark.parametrize("suffix", ["json", "csv"])
@pytest.mark.parametrize("command", ["render", "validate"])
def test_non_utf8_input_exit_2(tmp_path, capsys, command, suffix):
    src = tmp_path / f"latin1.{suffix}"
    # "ré" in Latin-1: the byte 0xe9 starts no UTF-8 sequence here.
    src.write_bytes(b"parent_id,id,label,value,color\n,r,r\xe9,1,\n" if suffix == "csv"
                    else b'{"label": "r\xe9", "value": 1}')
    out = ["--output", str(tmp_path / "x.svg")] if command == "render" else []
    assert main([command, "--input", str(src), *out]) == 2
    assert "input is not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("text", [DEMO_JSON, DEMO_CSV], ids=["json", "csv"])
def test_byte_order_mark_input_renders_as_without_it(tmp_path, text):
    """Excel's "CSV UTF-8" export and some JSON writers start with a BOM."""
    suffix = "json" if text is DEMO_JSON else "csv"
    svgs = []
    for name, data in (("plain", text.encode("utf-8")), ("bom", text.encode("utf-8-sig"))):
        src = tmp_path / f"{name}.{suffix}"
        src.write_bytes(data)
        out = tmp_path / f"{name}.svg"
        assert main(["render", "--input", str(src), "--output", str(out)]) == 0
        svgs.append(out.read_bytes())
    assert svgs[0] == svgs[1]


@pytest.mark.parametrize("command", ["render", "layout", "compare", "bench"])
def test_write_failure_exit_1(tmp_path, capsys, demo_file, command):
    (tmp_path / "a_file").write_text("")
    (tmp_path / "a_dir").mkdir()
    missing = str(tmp_path / "missing" / "out")
    args = {
        "render": ["render", "--input", demo_file, "--output", missing],
        "layout": ["layout", "--input", demo_file, "--output", str(tmp_path / "a_dir")],
        "compare": ["compare", "--input", demo_file, "--outdir", str(tmp_path / "a_file")],
        "bench": ["bench", "--depths", "1..2", "--repeats", "1", "--csv", missing],
    }[command]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: cannot write: ")


@pytest.mark.parametrize("command", ["render", "layout"])
def test_unwritable_output_fails_before_layout(tmp_path, capsys, monkeypatch, demo_file, command):
    def never(*args, **kwargs):
        raise AssertionError("compute_layout was called")

    monkeypatch.setattr(cli, "compute_layout", never)
    rc = main([command, "--input", demo_file, "--output", str(tmp_path / "missing" / "x.svg")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cannot write: ")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["render", "layout"])
def test_failed_command_keeps_existing_output(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    out = tmp_path / "out"
    out.write_bytes(b"earlier run\n")
    assert main([command, "--input", str(bad), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert out.read_bytes() == b"earlier run\n"


@pytest.mark.parametrize("command", ["render", "layout"])
def test_failed_command_removes_output_it_created(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main([command, "--input", str(bad), "--output", str(tmp_path / "out")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize("command", ["render", "layout"])
def test_failed_command_through_dangling_symlink_removes_target(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    link = tmp_path / "link"
    link.symlink_to("target")
    assert main([command, "--input", str(bad), "--output", str(link)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "link"]
    assert link.is_symlink() and not link.exists()


@pytest.mark.parametrize("command", ["render", "layout"])
def test_dangling_symlink_output_writes_its_target(tmp_path, demo_file, command):
    fresh, link = tmp_path / "fresh", tmp_path / "link"
    assert main([command, "--input", demo_file, "--output", str(fresh)]) == 0
    link.symlink_to("target")
    assert main([command, "--input", demo_file, "--output", str(link)]) == 0
    assert link.is_symlink()
    assert (tmp_path / "target").read_bytes() == fresh.read_bytes()


def test_output_removed_between_opens_counts_as_created(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.write_bytes(b"earlier run\n")
    real_open = os.open

    def racing_open(path, flags, *args):
        # The file vanishes after the exclusive create found it.
        if not flags & os.O_CREAT and out.exists():
            out.unlink()
        return real_open(path, flags, *args)

    monkeypatch.setattr(cli.os, "open", racing_open)
    fd, created = cli._open_output(str(out))
    os.close(fd)
    assert created == os.path.realpath(out)


@pytest.mark.parametrize("command", ["render", "layout"])
def test_longer_existing_output_is_replaced(tmp_path, demo_file, command):
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    assert main([command, "--input", demo_file, "--output", str(fresh)]) == 0
    old.write_bytes(b"x" * (3 * len(fresh.read_bytes())))
    assert main([command, "--input", demo_file, "--output", str(old)]) == 0
    assert old.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("command", ["render", "layout"])
def test_dash_output_is_stdout(tmp_path, demo_file, monkeypatch, capsysbinary, command):
    out = tmp_path / "out"
    assert main([command, "--input", demo_file, "--output", str(out)]) == 0
    monkeypatch.chdir(tmp_path)
    assert main([command, "--input", demo_file, "--output", "-"]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("argv, classes", [
    (["render", "--input", "t.json", "--output", "t.svg"], (LayoutConfig, RenderStyle)),
    (["layout", "--input", "t.json", "--output", "t.json"], (LayoutConfig,)),
    (["compare", "--input", "t.json", "--outdir", "out"], (LayoutConfig, RenderStyle)),
], ids=["render", "layout", "compare"])
def test_flag_defaults_are_the_library_defaults(argv, classes):
    args = cli.build_parser().parse_args(argv)
    for cls in classes:
        assert cli._from_args(cls, args) == cls()
    if RenderStyle in classes:
        assert args.palette == assign_colors.__defaults__[0]


def _choices(command: str, flag: str) -> tuple:
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command").choices[command]
    return tuple(next(a for a in sub._actions if flag in a.option_strings).choices)


def test_flag_choices_are_the_library_choices():
    for command in ("render", "layout", "compare"):
        assert _choices(command, "--mode") == MODES
    for command in ("render", "compare"):
        assert _choices(command, "--palette") == PALETTES
    assert _choices("bench", "--generator") == KINDS


# Text XML 1.0 can hold, XML metacharacters and whitespace among it.
_XML_TEXT = st.text(alphabet=st.one_of(st.characters(blacklist_categories=("Cc", "Cs")),
                                       st.sampled_from('<>&"\'\t\n\r')), max_size=5)
# Characters outside XML 1.0's Char production.  Python 3.10's csv module
# reads no NUL.
_NON_XML = ["\x01", "\x08", "\x0b", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"] + (
    [] if sys.version_info < (3, 11) else ["\x00"])


@st.composite
def _csv_trees_of_any_text(draw):
    """A root and 1-4 leaves with ids and labels of XML-safe text, one of
    which may hold one character XML 1.0 cannot."""
    n = draw(st.integers(2, 5))
    ids = draw(st.lists(_XML_TEXT.filter(lambda s: s and s == s.strip()),
                        min_size=n, max_size=n, unique=True))
    labels = draw(st.lists(_XML_TEXT, min_size=n, max_size=n))
    bad = draw(st.sampled_from([None, *_NON_XML]))
    if bad is not None:
        i = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            # Inside the id, so it stays unique and unstripped.
            ids[i] = f"{ids[i]}{bad}{ids[i]}"
        else:
            labels[i] = f"{labels[i]}{bad}"
    return TreeNode(ids[0], labels[0], float(n - 1), children=[
        TreeNode(node_id, label, 1.0) for node_id, label in zip(ids[1:], labels[1:])])


@settings(max_examples=150, deadline=None)
@given(root=_csv_trees_of_any_text())
def test_render_labels_of_any_text_is_well_formed_or_names_the_node(root):
    """Ids and labels of any text: the SVG parses, or the run exits 2 naming
    the first node whose text XML 1.0 cannot hold."""
    nodes = list(root.walk())
    text = serialize_tree(root, "csv-edges")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, "t.csv"), Path(tmp, "t.svg")
        # A lone surrogate has no UTF-8 form; its bytes make the file not UTF-8.
        src.write_bytes(text.encode("utf-8", "surrogatepass"))
        with contextlib.redirect_stderr(err):
            rc = main(["render", "--input", str(src), "--output", str(out), "--labels"])
        svg = out.read_bytes() if out.exists() else None
    message = err.getvalue()
    assert "Traceback" not in message
    bad = next((n for n in nodes if not xml_text_ok(n.id + n.label)), None)
    if any("\ud800" <= c <= "\udfff" for c in text):
        assert rc == 2 and svg is None
        assert message.startswith("input error: input is not valid UTF-8")
    elif bad is not None:
        assert rc == 2 and svg is None
        assert message.startswith(f"input error: node {bad.id!r}: ")
    else:
        assert rc == 0, message
        paths = ET.fromstring(svg).findall("{http://www.w3.org/2000/svg}path")
        assert sorted(el.get("id") for el in paths) == sorted(n.id for n in nodes)


def test_csv_ids_with_tab_newline_and_cr_read_back_from_the_svg(tmp_path):
    ids = ["a\tb", "c\nd", "e\rf", "g \t\r\nh"]
    root = TreeNode("r", "r", 4.0, children=[TreeNode(i, i, 1.0) for i in ids])
    src, out = tmp_path / "t.csv", tmp_path / "t.svg"
    src.write_text(serialize_tree(root, "csv-edges"), encoding="utf-8", newline="")
    assert main(["render", "--input", str(src), "--output", str(out)]) == 0
    paths = ET.fromstring(out.read_bytes()).findall("{http://www.w3.org/2000/svg}path")
    assert [el.get("id") for el in paths] == ["r", *ids]


# A node's own value: zero, or m * 10**-e, so siblings' ratios reach 1e-12.
_OWN_VALUES = st.one_of(st.just(0.0), st.builds(
    lambda m, e: m * 10.0 ** -e, st.sampled_from([1.0, 3.0, 7.5]), st.integers(0, 12)))


@st.composite
def _csv_trees_of_zero_and_tiny_values(draw):
    """1-12 nodes, each below an earlier one.  A node's value is its own
    value plus the fsum of its children's, or, for a drawn few, that sum
    cut short by a part in 1e9, which overfills the node."""
    n = draw(st.integers(1, 12))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    nodes = [TreeNode(f"n{i}", f"n{i}", draw(_OWN_VALUES)) for i in range(n)]
    # Later nodes first, so each child's value is final before its parent's.
    for i in range(n - 1, 0, -1):
        nodes[parents[i - 1]].children.insert(0, nodes[i])
    for node in reversed(nodes):
        if node.children:
            total = math.fsum(c.value for c in node.children)
            node.value = total * (1 - 1e-9) if draw(st.integers(0, 9)) == 0 else math.fsum(
                [node.value, total])
    return nodes[0]


@settings(max_examples=150, deadline=None)
@given(root=_csv_trees_of_zero_and_tiny_values(),
       style=st.sampled_from(["rit", "sunburst", "icicle"]),
       flags=st.sampled_from([[], ["--mode", "literal"], ["--relax", "--relax-threshold", "0.01"]]))
def test_layout_of_zero_values_and_tiny_ratios_is_strict_json_or_names_the_node(
        root, style, flags):
    """Exit 0 with strict JSON holding every node, or exit 2 naming a node."""
    nodes = list(root.walk())
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, "t.csv"), Path(tmp, "t.json")
        src.write_text(serialize_tree(root, "csv-edges"), encoding="utf-8")
        with contextlib.redirect_stderr(err):
            rc = main(["layout", "--input", str(src), "--output", str(out),
                       "--style", style, *flags])
        text = out.read_text(encoding="utf-8") if out.exists() else None
    message = err.getvalue()
    if rc == 0:
        doc = strict_json(text)
        assert sorted(n["id"] for n in doc["nodes"]) == sorted(n.id for n in nodes)
    else:
        assert rc == 2 and text is None, message
        assert any(message.startswith(f"input error: node {n.id!r}: ") for n in nodes), message


@pytest.mark.parametrize("command", ["render", "compare"])
@pytest.mark.parametrize("fmt, suffix, text, named", [
    ("csv-edges", ".csv", "parent_id,id,label,value,color\n,r,r,2,\nr,a\x01b,a,1,\n", "'a\\x01b'"),
    ("json-tree", ".json",
     '{"label": "r", "value": 1, "children": [{"label": "a\\ud800b", "value": 1}]}', "'0.0'"),
], ids=["csv-control-id", "json-surrogate-label"])
def test_text_xml_cannot_hold_exit_2(tmp_path, capsys, command, fmt, suffix, text, named):
    src = tmp_path / f"t{suffix}"
    src.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    target = ["--outdir", str(out)] if command == "compare" else ["--output", str(out)]
    assert main([command, "--input", str(src), *target, "--labels"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: node {named}: ")
    assert "XML 1.0 cannot hold" in err
    assert not out.exists()


class TestLayoutCommand:
    def test_geometry_json(self, demo_file, tmp_path):
        out = tmp_path / "layout.json"
        assert main(["layout", "--input", demo_file, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["style"] == "rit"
        assert len(doc["nodes"]) == demo_tree().count()
        assert all(n["color"] for n in doc["nodes"])

    def test_stdout(self, demo_file, capsys):
        assert main(["layout", "--input", demo_file, "--output", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["a_std"] > 0
        assert main(["layout", "--input", demo_file, "--output", "-",
                     "--relax", "--relax-threshold", "0.05"]) == 0
        assert any(n["relaxed"] for n in json.loads(capsys.readouterr().out)["nodes"])

    def test_relaxed_file_is_json_dumps_bytes(self, tmp_path):
        # Every finite float round-trips through repr, so re-encoding the
        # parsed file with a one-space indent gives it back exactly.
        src = tmp_path / "gen.json"
        src.write_text(serialize_tree(generate_tree(GeneratorSpec("random", 4, 8, seed=3)),
                                      "json-tree"))
        out = tmp_path / "x.json"
        assert main(["layout", "--input", str(src), "--output", str(out),
                     "--relax", "--relax-threshold", "1e-3"]) == 0
        text = out.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert any(n["relaxed"] for n in doc["nodes"])
        assert text == json.dumps(doc, indent=1) + "\n"

    def test_icicle_band_coordinates(self, demo_file, tmp_path):
        out = tmp_path / "band.json"
        assert main(["layout", "--input", demo_file, "--output", str(out),
                     "--style", "icicle", "--h0", "2"]) == 0
        doc = json.loads(out.read_text())
        root = doc["nodes"][0]
        assert root["r_in"] == 0.0 and root["height"] == 2.0
        assert all(n["alpha"] == 0.0 for n in doc["nodes"])
        depth1 = [n for n in doc["nodes"] if n["depth"] == 1]
        assert sum(n["beta"] for n in depth1) == pytest.approx(root["beta"], rel=1e-12)


class TestCompare:
    def test_three_svgs_plus_diagnostics(self, demo_file, tmp_path):
        outdir = tmp_path / "cmp"
        assert main(["compare", "--input", demo_file, "--outdir", str(outdir)]) == 0
        for name in ("rit", "sunburst", "icicle"):
            assert (outdir / f"{name}.svg").exists()
        report = json.loads((outdir / "diagnostics.json").read_text())
        assert set(report) == {"rit", "sunburst", "icicle"}
        assert report["rit"]["max_area_error"] <= 1e-6
        assert report["icicle"]["max_area_error"] <= 1e-9
        ratios = report["sunburst"]["area_ratios"]
        assert max(ratios.values()) > 1.1  # sunburst distorts sizes

    def test_non_finite_svg_margin_exit_1(self, demo_file, tmp_path, capsys):
        outdir = tmp_path / "cmp"
        rc = main(["compare", "--input", demo_file, "--outdir", str(outdir),
                   "--svg-margin", "nan"])
        assert rc == 1
        assert "margin must be finite" in capsys.readouterr().err
        assert not outdir.exists()

    def test_subnormal_standard_area_exit_1(self, demo_file, tmp_path, capsys):
        # The standard area, about 3.1e-320, is subnormal: rit could not
        # meet its area bound, so the config is refused before any output.
        outdir = tmp_path / "cmp"
        rc = main(["compare", "--input", demo_file, "--outdir", str(outdir),
                   "--r0", "1e-300", "--h0", "1e-160"])
        assert rc == 1
        assert "standard area" in capsys.readouterr().err
        assert not outdir.exists()


    def test_wedge_ratio_underflow_certifies(self, demo_file, tmp_path):
        # ar0 * acr**2 underflows to 0, so depth 3 draws no wedge.
        outdir = tmp_path / "cmp"
        assert main(["compare", "--input", demo_file, "--outdir", str(outdir),
                     "--acr", "1e-200"]) == 0
        rit = json.loads((outdir / "diagnostics.json").read_text())["rit"]
        assert rit["max_area_error"] <= 1e-6
        assert rit["containment_violations"] == 0

class TestRingRepresentation:
    def test_wedge_ratio_underflow_draws_no_wedge(self, demo_file, tmp_path, capsys):
        assert main(["render", "--input", demo_file, "--output", str(tmp_path / "x.svg"),
                     "--acr", "1e-200"]) == 0
        assert main(["layout", "--input", demo_file, "--output", "-", "--acr", "1e-200"]) == 0
        nodes = json.loads(capsys.readouterr().out)["nodes"]
        deep = [n for n in nodes if n["depth"] == 3]
        assert deep and all(n["alpha"] == 0.0 and n["topup_height"] == 0.0 for n in deep)
        assert all(n["alpha"] > 0.0 for n in nodes if n["depth"] == 2)

    @pytest.mark.parametrize("command", ["render", "layout", "compare"])
    def test_radius_past_bound_exit_1_writes_nothing(self, demo_file, tmp_path, capsys, command):
        # Radii near 1.33e154 give areas that overflow; the solve refuses
        # the root's children's ring past 2**500 before anything is written.
        out = tmp_path / "out"
        where = ["--outdir", str(out)] if command == "compare" else ["--output", str(out)]
        rc = main([command, "--input", demo_file, *where, "--r0", "1.33e154", "--h0", "1e151"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: node '0': ring-past-radius-bound: "), err
        assert not out.exists() or list(out.iterdir()) == []

    def test_ring_height_lost_against_radius_exit_1(self, demo_file, tmp_path, capsys):
        out = tmp_path / "x.svg"
        rc = main(["render", "--input", demo_file, "--output", str(out),
                   "--r0", "1.2e154", "--h0", "1e153"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: node '0': unrepresentable-ring-height: ")
        assert not out.exists()


_TABLE_DOCS = {
    "zero-root": ({"label": "r", "value": 0.0}, "0", "zero-root"),
    "negative-zero-root": ({"label": "r", "value": -0.0}, "0", "zero-root"),
    "nested": ({"label": "r", "value": 10, "children": [
        {"label": "A", "value": 5, "children": [{"label": "A1", "value": -1}]},
        {"label": "B", "value": math.nan}]}, "0.0.0", "negative-value"),
    "overfull": ({"label": "p", "value": 1, "children": [
        {"label": "a", "value": 2}, {"label": "b", "value": -0.5}]}, "0", "overfull-parent"),
}


@pytest.mark.parametrize("doc, node, rule", _TABLE_DOCS.values(), ids=_TABLE_DOCS)
def test_commands_refuse_with_the_first_violation_validate_lists(tmp_path, capsys, doc, node, rule):
    """``rit validate`` exits 3, and render, layout and compare exit 2 on
    its first entry, naming the same node and rule, and write nothing."""
    src = tmp_path / "t.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--input", str(src)]) == 3
    first = json.loads(capsys.readouterr().out)[0]
    assert (first["node"], first["rule"]) == (node, rule)
    out = tmp_path / "out"
    for target in (["render", "--output"], ["layout", "--output"], ["compare", "--outdir"]):
        assert main([target[0], "--input", str(src), target[1], str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: node {node!r}: {rule}: {first['message']}\n"
        assert not out.exists()


class TestValidateCommand:
    def test_clean_exit_0(self, demo_file, capsys):
        assert main(["validate", "--input", demo_file]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_violations_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "label": "p", "value": 10,
            "children": [{"label": "a", "value": 7}, {"label": "b", "value": 7}],
        }))
        assert main(["validate", "--input", str(bad)]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report[0]["rule"] == "overfull-parent"

    def test_infinite_children_listed_exit_3(self, tmp_path, capsys):
        src = tmp_path / "inf.csv"
        src.write_text("parent_id,id,label,value,color\n,p,p,1,\n"
                       "p,a,a,inf,\np,b,b,-inf,\n")
        assert main(["validate", "--input", str(src)]) == 3
        report = json.loads(capsys.readouterr().out)
        assert [(v["node"], v["rule"]) for v in report] == [
            ("a", "non-finite-value"), ("b", "non-finite-value")]

    def test_deep_csv_chain_exit_0(self, tmp_path, capsys):
        src = _deep_csv_chain(tmp_path)
        assert main(["validate", "--input", src]) == 0
        assert json.loads(capsys.readouterr().out) == []


def _deep_csv_chain(tmp_path, levels: int = 3000) -> str:
    rows = ["parent_id,id,label,value,color", ",n0,n0,1,"]
    rows += [f"n{i - 1},n{i},n{i},1," for i in range(1, levels)]
    src = tmp_path / "chain.csv"
    src.write_text("\n".join(rows) + "\n")
    return str(src)


@pytest.mark.parametrize("args", [
    ["render", "--style", "rit", "--output", "out.svg"],
    ["render", "--style", "sunburst", "--palette", "fixed-list", "--output", "out.svg"],
    ["render", "--style", "icicle", "--output", "out.svg"],
    ["layout", "--output", "out.json"],
    ["compare", "--outdir", "out"],
], ids=["render-rit", "render-sunburst", "render-icicle", "layout", "compare"])
def test_deep_csv_chain_lays_out_exit_0(tmp_path, args):
    src = _deep_csv_chain(tmp_path)
    args = [str(tmp_path / a) if a.startswith("out") else a for a in args]
    assert main(args[:1] + ["--input", src] + args[1:]) == 0
    if args[0] == "render":
        assert (tmp_path / "out.svg").read_text().count("<path") == 3000
    elif args[0] == "layout":
        assert len(json.loads((tmp_path / "out.json").read_text())["nodes"]) == 3000
    else:
        report = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert all(len(report[s]["area_ratios"]) == 3000 for s in report)
        assert report["rit"]["max_area_error"] <= 1e-6


class TestBenchCommand:
    def test_writes_csv_and_fit(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--generator", "fixed", "--cmax", "2",
                   "--depths", "1..4", "--repeats", "2", "--csv", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "generator,cmax,depth,nodes,repeat,seconds,visits"
        assert len(lines) == 1 + 4 * 2
        assert "R^2" in capsys.readouterr().out

    def test_node_cap_warning(self, tmp_path, capsys):
        rc = main(["bench", "--generator", "fixed", "--cmax", "2",
                   "--depths", "2..8", "--repeats", "1", "--node-cap", "40",
                   "--csv", str(tmp_path / "b.csv")])
        assert rc == 0
        err = capsys.readouterr().err
        assert "skipped fixed cmax=2 depth=4" not in err
        assert "warning: skipped fixed cmax=2 depth=5: more than 40 nodes" in err

    def test_parallel_flag_is_a_usage_error(self, capsys):
        assert main(["bench", "--parallel"]) == 1
        assert "unrecognized arguments: --parallel" in capsys.readouterr().err

    def test_unwritable_csv_fails_before_timing(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_bench was called")

        monkeypatch.setattr(cli, "run_bench", never)
        rc = main(["bench", "--csv", str(tmp_path / "missing" / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: cannot write: ")

    def test_bad_depth_keeps_existing_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        out.write_text("earlier run\n")
        assert main(["bench", "--depths", "0", "--csv", str(out)]) == 1
        assert "depth must be >= 1" in capsys.readouterr().err
        assert out.read_text() == "earlier run\n"

    def test_failed_run_keeps_existing_csv(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("timing failed")

        monkeypatch.setattr(cli, "run_bench", fail)
        out = tmp_path / "bench.csv"
        out.write_text("earlier run\n")
        assert main(["bench", "--depths", "1..4", "--csv", str(out)]) == 1
        assert capsys.readouterr().err == "error: timing failed\n"
        assert out.read_text() == "earlier run\n"

    def test_dash_csv_is_stdout_before_the_fit_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--depths", "1..3", "--repeats", "1", "--csv", "-"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "generator,cmax,depth,nodes,repeat,seconds,visits"
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("fit over 3 runs: ")
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("flag, given, message", [
        ("--repeats", "0", "--repeats must be at least 1, got 0"),
        ("--repeats", "-1", "--repeats must be at least 1, got -1"),
        ("--node-cap", "0", "--node-cap must be at least 2, got 0"),
        ("--node-cap", "-1", "--node-cap must be at least 2, got -1"),
        ("--node-cap", "1", "--node-cap must be at least 2, got 1"),
        ("--depths", "3..1", "--depths must name at least one depth"),
        ("--depths", ",", "--depths must name at least one depth"),
    ], ids=["0", "-1", "node-cap-0", "node-cap--1", "node-cap-1", "depths-3..1", "depths-none"])
    def test_repeats_below_one_keeps_existing_csv(self, tmp_path, capsys, monkeypatch,
                                                  flag, given, message):
        """A repeat count, node cap or depth range that can time nothing
        exits 1 by name before the CSV is opened."""
        def never(*args, **kwargs):
            raise AssertionError("run_bench was called")

        monkeypatch.setattr(cli, "run_bench", never)
        out = tmp_path / "bench.csv"
        out.write_text("earlier run\n")
        argv = {"--depths": "1..4", "--repeats": "1", flag: given}
        rc = main(["bench", *(f"{k}={v}" for k, v in argv.items()), "--csv", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert out.read_text() == "earlier run\n"

    def test_node_cap_of_two_times_the_smallest_tree(self, capsys):
        assert main(["bench", "--cmax", "1", "--depths", "1", "--repeats", "1",
                     "--node-cap", "2"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("existing", [True, False], ids=["existing-csv", "new-csv"])
    def test_every_tree_over_the_node_cap_exits_1(self, tmp_path, capsys, existing):
        """Trees all past --node-cap time nothing: the skip warnings, then a
        refusal; a CSV the command created is removed, an existing one kept."""
        out = tmp_path / "bench.csv"
        if existing:
            out.write_text("earlier run\n")
        assert main(["bench", "--depths", "1..2", "--repeats", "1", "--node-cap", "2",
                     "--csv", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "warning: skipped fixed cmax=2 depth=1: more than 2 nodes\n"
            "warning: skipped fixed cmax=2 depth=2: more than 2 nodes\n"
            "error: nothing was timed: every tree has more than 2 nodes\n")
        if existing:
            assert out.read_text() == "earlier run\n"
        else:
            assert not out.exists()


@pytest.mark.parametrize("case, code", [
    ("render", 0),
    ("usage", 1),
    ("config", 1),
    ("write", 1),
    ("input", 2),
    ("validate", 3),
])
def test_gc_state_restored_on_exit(tmp_path, capsys, demo_file, caller_gc, case, code):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    overfull = tmp_path / "over.json"
    overfull.write_text('{"label": "p", "value": 1, "children": ['
                        '{"label": "a", "value": 1}, {"label": "b", "value": 1}]}')
    out = str(tmp_path / "x.svg")
    args = {
        "render": ["render", "--input", demo_file, "--output", out],
        "usage": ["render", "--input", demo_file, "--frobnicate"],
        "config": ["render", "--input", demo_file, "--output", out, "--ar", "0.7"],
        "write": ["render", "--input", demo_file, "--output", str(tmp_path / "no" / "x.svg")],
        "input": ["render", "--input", str(bad), "--output", out],
        "validate": ["validate", "--input", str(overfull)],
    }[case]
    assert main(args) == code
    assert gc.isenabled() is caller_gc


def test_gc_state_restored_when_a_command_raises(demo_file, tmp_path, caller_gc, monkeypatch):
    during = []

    def boom(args):
        during.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "render", boom)
    with pytest.raises(RuntimeError, match="boom"):
        main(["render", "--input", demo_file, "--output", str(tmp_path / "x.svg")])
    assert during == [False]
    assert gc.isenabled() is caller_gc


def test_reused_parser_keeps_no_values_between_calls(demo_file, tmp_path):
    relaxed, plain = tmp_path / "relaxed.svg", tmp_path / "plain.svg"
    assert main(["render", "--input", demo_file, "--output", str(relaxed), "--relax"]) == 0
    assert main(["render", "--input", demo_file, "--output", str(plain)]) == 0
    assert b"relax=True " in relaxed.read_bytes()
    assert b"relax=False " in plain.read_bytes()


@pytest.mark.parametrize("command", ["render", "layout", "compare"])
def test_cyclic_garbage_per_call_is_bounded(tmp_path, demo_file, command):
    # The collector is paused during a command, so whatever reference cycles
    # a call leaves wait for the next collection: there must be few, and no
    # more for a 4,095-node tree than for the 18-node demo.
    big = tmp_path / "big.json"
    big.write_text(serialize_tree(generate_tree(GeneratorSpec("fixed", 2, 11)), "json-tree"))
    out = ["--outdir", str(tmp_path / "cmp")] if command == "compare" else [
        "--output", str(tmp_path / "out")]
    counts = []
    with gc_paused():
        for src in (demo_file, str(big)):
            argv = [command, "--input", src, *out]
            assert main(argv) == 0  # warm-up
            gc.collect()
            assert main(argv) == 0
            counts.append(gc.collect())
    assert counts[0] < 100
    assert counts[1] <= counts[0]


class TestDeterminismAcrossProcesses:
    def test_render_byte_identical_across_runs(self, demo_file, tmp_path):
        outs = []
        for name in ("a.svg", "b.svg"):
            out = tmp_path / name
            code = subprocess.run(
                [sys.executable, "-m", "rit_layout.cli", "render",
                 "--input", demo_file, "--output", str(out)],
                capture_output=True,
            ).returncode
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_layout_json_identical_across_runs(self, demo_file, tmp_path):
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = subprocess.run(
                [sys.executable, "-m", "rit_layout.cli", "layout",
                 "--input", demo_file, "--output", str(out)],
                capture_output=True,
            ).returncode
            assert code == 0
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]


    @pytest.mark.parametrize("command", ["render", "layout", "compare"])
    def test_outputs_identical_under_different_hash_seeds(self, demo_file, tmp_path, command):
        """Set and dict orders of str keys change with the hash seed; no output byte may."""
        path = Path(rit_layout.__file__).resolve().parent.parent
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / f"seed-{seed}"
            where = ["--outdir", str(out)] if command == "compare" else ["--output", str(out)]
            proc = subprocess.run(
                [sys.executable, "-m", "rit_layout.cli", command, "--input", demo_file, *where],
                env={**os.environ, "PYTHONPATH": str(path), "PYTHONHASHSEED": seed},
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
            files = sorted(out.iterdir()) if command == "compare" else [out]
            outputs.append([(f.name, f.read_bytes()) for f in files])
        assert [name for name, _ in outputs[0]] == (
            ["diagnostics.json", "icicle.svg", "rit.svg", "sunburst.svg"]
            if command == "compare" else ["seed-0"])
        assert [data for _, data in outputs[0]] == [data for _, data in outputs[1]]


def _run_with_tested_package(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter whose ``rit_layout`` is the one
    this process imported, installed or in a checkout."""
    path = Path(rit_layout.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(path)},
        capture_output=True,
        text=True,
    )


def test_subprocess_imports_the_tested_package():
    proc = _run_with_tested_package("import rit_layout\nprint(rit_layout.__file__)\n")
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(rit_layout.__file__).resolve()


def test_runtime_imports_no_numpy():
    """The library and the CLI run on the standard library alone.

    ``concurrent.futures``, the ``logging`` it pulls in, and ``hashlib`` are
    not loaded at import either; ``test_bench_imports_no_pool_or_hashing``
    checks that a bench run loads none of them.
    """
    proc = _run_with_tested_package(
        "import sys, rit_layout, rit_layout.cli\n"
        "for name in ('numpy', 'concurrent.futures', 'logging', 'hashlib'):\n"
        "    assert name not in sys.modules, name\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_bench_imports_no_pool_or_hashing():
    """A ``rit bench`` run times serially and hashes nothing."""
    proc = _run_with_tested_package(
        "import sys\n"
        "from rit_layout.cli import main\n"
        "assert main(['bench', '--depths', '1..3', '--repeats', '1']) == 0\n"
        "for name in ('concurrent.futures', 'logging', 'hashlib'):\n"
        "    assert name not in sys.modules, name\n"
    )
    assert proc.returncode == 0, proc.stderr
