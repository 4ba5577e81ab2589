"""The README's library sketch runs as written, so a name it uses cannot
leave the library while the docs still show it."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def sketch_block() -> str:
    """The first ``python`` code block under ``## Library sketch``."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library sketch\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_sketch_runs():
    scope: dict = {}
    exec(compile(sketch_block(), "README.md#library-sketch", "exec"), scope)
    ed = scope["ed"]
    assert [mult for _, mult in ed] == [4, 4]
    assert all(abs(value - expected) <= 1e-12 for (value, _), expected in zip(ed, (0, 3)))
    match = scope["match"]
    assert match["matched"] and match["sign"] == 1
    assert scope["tau"].shape == (4, 4)
    assert len(scope["verdicts"]) == 180
