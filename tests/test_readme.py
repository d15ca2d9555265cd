"""The README's library example and CLI lines do what their comments say."""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from ilwhodge.cli import main

ROOT = Path(__file__).resolve().parents[1]


def section(title: str) -> str:
    """The README's text under `## title`, up to the next `## ` heading."""
    return (ROOT / "README.md").read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    """The code of the first python block under the README's `## Library`."""
    return section("Library").split("```python\n", 1)[1].split("```", 1)[0]


def cli_lines() -> list[tuple[list[str], str]]:
    """(arguments, comment) of each line of the sh blocks under `## CLI`."""
    lines = []
    for block in section("CLI").split("```sh\n")[1:]:
        for line in block.split("```", 1)[0].splitlines():
            command, _, comment = line.partition("#")
            words = shlex.split(command)
            assert words[0] == "ilwhodge", line
            lines.append((words[1:], comment.strip()))
    return lines


def test_library_example_prints_its_comments(capsys):
    code = library_example()
    expected = [line.split("#", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert expected
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("argv, comment", [
    pytest.param(argv, comment, id=" ".join(argv)) for argv, comment in cli_lines()])
def test_cli_line_exits_as_its_comment_says(argv, comment, capsys):
    expected = 2 if "exit 2" in comment else 1 if "exit 1" in comment else 0
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == expected
    if argv == ["flow", "--index", "1", "--genus", "2"]:
        assert capsys.readouterr().out == comment + "\n"


def test_cli_lines_include_the_printed_flow():
    assert (["flow", "--index", "1", "--genus", "2"],
            "u*u_1 + 1/12*h*u_3 + 1/720*h^2*e*u_5") in cli_lines()
