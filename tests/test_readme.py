"""The examples of README.md print what the README shows: each command's
output, and each value of the Python example that a comment gives."""

import ast
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


# The Python block under "## Library"; a line `expr  # literal` in it says
# what `expr` is.
LIBRARY = re.compile(r"^## Library\n\n```python\n(.*?)^```$", re.M | re.S)


def test_readme_library_example():
    (code,) = LIBRARY.findall(README.read_text(encoding="utf-8"))
    namespace = {}
    exec(code, namespace)
    checked = []
    for line in code.splitlines():
        expr, sep, literal = line.partition("  # ")
        if sep:
            assert eval(expr, namespace) == ast.literal_eval(literal.strip()), line
            checked.append(expr.strip())
    assert len(checked) == 5
