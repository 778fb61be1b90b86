"""The examples of README.md print what the README shows: each command's
output, and each value of the Python example that a comment gives.  Every
name of the package that the README cites in code, such as `cf.step` or
`crosscap.cli.MAX_STEPS`, still exists."""

import ast
import importlib
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


# A dotted name in a code span that starts at one of the package's modules,
# with or without the package in front; `genus.py` and the like are files.
MODULES = ("cf", "knot", "genus", "verify", "cli", "errors")
DOTTED = re.compile(rf"(?<![\w./])(?:crosscap(?:\.\w+)+|(?:{'|'.join(MODULES)})(?:\.\w+)+)")
FENCED = re.compile(r"^```.*?^```$", re.M | re.S)


def cited_names():
    text = FENCED.sub("", README.read_text(encoding="utf-8"))
    names = {name for span in re.findall(r"`([^`]+)`", text) for name in DOTTED.findall(span)}
    return sorted(name for name in names if not name.endswith(".py"))


def test_readme_cites_the_modules():
    assert {name.removeprefix("crosscap.").split(".")[0] for name in cited_names()} == set(MODULES)


@pytest.mark.parametrize("name", cited_names())
def test_readme_names_resolve(name):
    module, *attributes = name.removeprefix("crosscap.").split(".")
    value = importlib.import_module(f"crosscap.{module}")
    for attribute in attributes:
        assert hasattr(value, attribute), name
        value = getattr(value, attribute)
