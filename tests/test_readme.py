"""The README's library example and CLI lines do what their comments say, its
Cold start line counts are those of `src/`, and the `verify` selectors it and
`cli`'s docstring list are those of `cli.VERIFY`."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from ilwhodge import cli
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


def test_cold_start_line_counts_are_those_of_src():
    text = section("Cold start")
    lines = {path.stem: path.read_bytes().count(b"\n")
             for path in (ROOT / "src" / "ilwhodge").glob("*.py")}
    total = re.findall(r"of the ([\d,]+) lines of `src/`", text)
    assert [int(n.replace(",", "")) for n in total] == [sum(lines.values())]
    rows = [line.strip("| ").split(" | ") for line in text.splitlines()
            if line.startswith("| ") and not line.startswith(("| commands ", "| ---"))]
    assert len(rows) == 7
    for commands, modules, count in rows:
        # every row names each module it counts
        assert re.fullmatch(r"`\w+`(, `\w+`)*", modules), commands
        names = modules.replace("`", "").split(", ")
        assert len(set(names)) == len(names) and set(names) <= set(lines), commands
        assert int(count.replace(",", "")) == sum(lines[n] for n in names), commands


def test_verify_selector_lists_are_those_of_cli():
    readme = (ROOT / "README.md").read_text()
    sentence = re.search(r"`verify` selectors: (.*?)\.\s", readme, re.S).group(1)
    docstring = re.search(r"^    verify +\{(.*)\}$", cli.__doc__, re.M).group(1)
    assert re.findall(r"`([^`]+)`", sentence) == list(cli.VERIFY)
    assert docstring.split("|") == list(cli.VERIFY)
