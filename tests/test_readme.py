"""The README's library example prints what its comments say."""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    """The code of the first python block under the README's `## Library`."""
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_prints_its_comments(capsys):
    code = library_example()
    expected = [line.split("#", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert expected
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == expected
