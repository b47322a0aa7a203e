"""Every package name that perfbench traces or imports still exists, and
every traced function is still called.

perfbench wraps each function of ``perfbench/spans.py``'s ``TRACED`` by
module and name, and skips one it cannot find, so a renamed or deleted
function silently turns its per-stage metrics into zeros; so does one that
the commands stop calling.  This reads ``TRACED`` and the file's ``from
rit_layout... import`` lines with ``ast``, without importing or running
perfbench, from the checkout next to this test directory, which holds it
also when the tests run against an installed package.
"""

import ast
import collections
import importlib
import sys
from pathlib import Path

from rit_layout import demo_tree, serialize_tree

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# Traced names already gone from the package; ROADMAP item 3 re-derives
# their metrics and empties this list.  Add no name to it.
GONE = {"rit_layout.layout.relax_thin_nodes", "rit_layout.measure.loop_vertices"}


def _spans_nodes():
    return ast.walk(ast.parse(SPANS.read_text(encoding="utf-8")))


def _traced() -> set[str]:
    """``module.name`` for each traced function."""
    for node in _spans_nodes():
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return {f"{module}.{attr}" for module, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError(f"no TRACED in {SPANS}")


def _perfbench_names() -> set[str]:
    """``module.name`` for each traced function and each imported package name."""
    names = _traced()
    for node in _spans_nodes():
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rit_layout"):
            names |= {f"{node.module}.{alias.name}" for alias in node.names}
    return names


def _exists(name: str) -> bool:
    module, _, attr = name.rpartition(".")
    return hasattr(importlib.import_module(module), attr)


def test_every_traced_name_exists():
    names = _perfbench_names()
    assert {"rit_layout.layout.layout_to_json", "rit_layout.svg.render_svg",
            "rit_layout.diagnostics.diagnostics", "rit_layout.measure.path_area",
            "rit_layout.geometry.build_node_path",
            "rit_layout.measure.DEFAULT_ARC_STEP"} <= names
    missing = {name for name in names if not _exists(name)}
    assert missing == GONE, f"perfbench names no longer in the package: {sorted(missing - GONE)}"


def _counting(name: str, fn, calls: collections.Counter):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


def test_every_traced_function_is_called(tmp_path, monkeypatch):
    """``rit render``, ``rit layout --relax`` and ``rit compare`` on the demo
    tree, run through ``cli.main``, call each traced function at least once
    where perfbench wraps it: at every ``rit_layout.*`` attribute holding it."""
    traced = _traced() - GONE
    originals = {}
    for name in traced:
        module, _, attr = name.rpartition(".")
        originals[name] = getattr(importlib.import_module(module), attr)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "rit_layout" or n.startswith("rit_layout."))]
    calls = collections.Counter()
    for name, original in originals.items():
        counted = _counting(name, original, calls)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)

    tree = tmp_path / "demo.json"
    tree.write_text(serialize_tree(demo_tree(), "json-tree"), encoding="utf-8")
    cli = sys.modules["rit_layout.cli"]
    for argv in (
        ["render", "--input", str(tree), "--output", str(tmp_path / "out.svg")],
        ["layout", "--input", str(tree), "--output", str(tmp_path / "out.json"), "--relax"],
        ["compare", "--input", str(tree), "--outdir", str(tmp_path / "cmp")],
    ):
        assert cli.main(argv) == 0
    assert sorted(name for name in traced if not calls[name]) == []
    # ``rit layout`` writes its document through the traced writer.
    assert calls["rit_layout.layout.layout_to_json"] == 1
