"""Every package name that perfbench traces or imports still exists.

perfbench wraps each function of ``perfbench/spans.py``'s ``TRACED`` by
module and name, and skips one it cannot find, so a renamed or deleted
function silently turns its per-stage metrics into zeros.  This reads
``TRACED`` and the file's ``from rit_layout... import`` lines with ``ast``,
without importing or running perfbench, from the checkout next to this
test directory, which holds it also when the tests run against an
installed package.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# Traced names already gone from the package; ROADMAP item 3 re-derives
# their metrics and empties this list.  Add no name to it.
GONE = {"rit_layout.layout.relax_thin_nodes", "rit_layout.measure.loop_vertices"}


def _perfbench_names() -> set[str]:
    """``module.name`` for each traced function and each imported package name."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            names |= {f"{module}.{attr}" for module, attr, _ in ast.literal_eval(node.value)}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rit_layout"):
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
