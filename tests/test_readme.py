"""The README's examples, run as a reader would paste them: each ``corefkg``
line of the command block under "Command line", and both Quick-start blocks."""

import re
import shlex
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from corefkg.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _blocks(section: str, language: str) -> list[str]:
    """The ``language`` code blocks of the README section headed ``section``."""
    readme = (ROOT / "README.md").read_text("utf-8")
    body = readme.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{language}\n(.*?)^```$", body, re.M | re.S)


@pytest.fixture
def toy_directory(tmp_path, monkeypatch):
    """A working directory that holds the toy data where the README names it."""
    shutil.copytree(ROOT / "demos" / "data", tmp_path / "demos" / "data")
    monkeypatch.chdir(tmp_path)


def test_every_readme_command_exits_0(toy_directory, capsys):
    (block,) = _blocks("Command line", "sh")
    commands = [shlex.split(line) for line in block.splitlines()]
    assert len(commands) == 7 and all(argv[0] == "corefkg" for argv in commands)
    assert [main(argv[1:]) for argv in commands] == [0] * 7


def test_the_quick_start_blocks_run(toy_directory, capsys):
    scoring, population = _blocks("Quick start (library)", "python")
    names = {}
    exec(scoring, names)
    assert names["report"].conll.f1 == Fraction(67, 105)
    assert "print(report.conll.f1)        # Fraction(67, 105)" in scoring
    exec(population, {})
