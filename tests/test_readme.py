"""README's Python API example runs as written, against the imported package."""

from pathlib import Path

from rit_layout import demo_tree, layout_to_json, serialize_tree

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
