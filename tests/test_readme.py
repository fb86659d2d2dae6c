"""README's examples.

Each ``$ fgz ...`` line of a ``sh`` block, run through :func:`fgz.cli.main`,
exits 0 and prints exactly the lines that follow it in the block.  Each
``python`` block runs as a script and prints, line by line, the
``# expected`` comments of its ``print`` calls.  The "Subcommands:"
sentence lists the CLI's command table, in its order.
"""

import re
import shlex
from pathlib import Path

import pytest

from fgz.cli import COMMANDS, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language: str) -> list[str]:
    """The body of each of README's fenced blocks in ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def _examples() -> list[tuple[str, str]]:
    """``(command, expected stdout)`` for each ``$ `` line of README's ``sh`` blocks."""
    examples = []
    for block in _blocks("sh"):
        for example in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = example.partition("\n")
            examples.append((command, output))
    return examples


EXAMPLES = _examples()


def test_readme_shows_examples():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_example_prints_what_readme_shows(command, expected, capsys):
    program, *argv = shlex.split(command)
    assert program == "fgz"
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_python_examples_print_their_comments(capsys):
    blocks = _blocks("python")
    assert blocks
    for block in blocks:
        expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
        assert expected
        exec(compile(block, str(README), "exec"), {})
        assert capsys.readouterr().out.splitlines() == expected


def test_subcommands_sentence_lists_the_command_table():
    sentence = re.search(r"^Subcommands: (.*?)\.\s", README.read_text(), re.M | re.S)
    assert sentence
    assert re.findall(r"`([^`]+)`", sentence.group(1)) == [name for name, *_ in COMMANDS]
