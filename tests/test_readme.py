"""README examples run: every CLI line of the CLI block and the library example."""

import re
import shlex
from pathlib import Path

import pytest

from d2d_cachescale.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """Body of the first ```lang fence after a `## heading` line."""
    section = README[README.index(f"\n## {heading}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _cli_commands() -> list[list[str]]:
    commands = []
    for line in _block("CLI", "sh").replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "d2d-cachescale", line
            commands.append(words[1:])
    return commands


def test_cli_block_is_found():
    assert [argv[0] for argv in _cli_commands()] == \
        ["place", "sweep", "scaling", "oracle", "simulate"]


@pytest.mark.parametrize("argv", _cli_commands(), ids=lambda argv: argv[0])
def test_cli_example_exits_0(argv, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().startswith("# d2d-cachescale v")


def test_library_example_runs(capsys):
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4 and printed[0].startswith("(")
