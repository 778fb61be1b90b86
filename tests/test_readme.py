"""The command examples of README.md print what the README shows."""

import re
import shlex
from pathlib import Path

import pytest

from crosscap.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# A fenced block whose first line is `$ crosscap ...`; the rest is its output.
EXAMPLE = re.compile(r"^```\n\$ crosscap ([^\n]*)\n(.*?)^```$", re.M | re.S)

EXAMPLES = EXAMPLE.findall(README.read_text(encoding="utf-8"))


def test_readme_has_its_examples():
    assert [command for command, _ in EXAMPLES] == ["report 4 3", "trace 7 4", "verify --max 300"]


@pytest.mark.parametrize("command, output", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example_output(capsys, command, output):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr() == (output, "")
