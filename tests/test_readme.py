"""README runs and reads as the imported package does: its Python API example
runs as written, and its list of value rules names every rule."""

import inspect
import re
from pathlib import Path

from rit_layout import demo_tree, layout_to_json, serialize_tree, tree

from conftest import strict_json

README = Path(__file__).parent.parent / "README.md"


def _python_api_block() -> str:
    """The block's code behind blank lines, so a traceback gives README's line numbers."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Python API")) + len("```python\n")
    return "\n" * text.count("\n", 0, start) + text[start:text.index("```", start)]


def test_python_api_block_runs(tmp_path, monkeypatch):
    """The block draws tree.svg, and both of its layouts are strict JSON
    with one entry per node."""
    monkeypatch.chdir(tmp_path)
    Path("tree.json").write_text(serialize_tree(demo_tree(), "json-tree"), encoding="utf-8")
    names = {}
    exec(compile(_python_api_block(), str(README), "exec"), names)
    assert Path("tree.svg").stat().st_size > 0
    for made in (names["layout"], names["relaxed"]):
        doc = strict_json(layout_to_json(made))
        assert len(doc["nodes"]) == len(made.nodes) == demo_tree().count()


def test_every_value_rule_is_named_where_exit_codes_are_listed():
    """Every rule name ``_violations`` can yield, its own or through
    ``_value_violation``, is in the sentence that lists the rules."""
    source = inspect.getsource(tree._violations) + inspect.getsource(tree._value_violation)
    rules = set(re.findall(r'Violation\(\s*node(?:_id|\.id), "([a-z-]+)"', source))
    assert rules >= {"non-finite-value", "negative-value", "zero-root", "overfull-parent"}
    text = " ".join(README.read_text(encoding="utf-8").split())
    start = text.index("A bad value's message names the node and the rule")
    sentence = text[start:text.index(" refuse with.", start)]
    for rule in rules:
        assert f"`{rule}`" in sentence, rule
