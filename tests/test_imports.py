"""Static checks of the library sources: they import only the standard
library and the package, parse as the oldest supported Python, raise every
error class the package exports, and step a walk to [0] only for the
gamma3 of an even-p knot."""

import ast
import sys
from pathlib import Path

import pytest

from crosscap import errors

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "crosscap").glob("*.py"))


def absolute_imports(path):
    """Top-level module names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_sources_are_found():
    assert "knot.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_library_imports_only_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"crosscap"}
    assert sorted(set(absolute_imports(path)) - allowed) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_sources_parse_as_the_oldest_supported_python(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def raised_names(path):
    """Names of the classes a source file raises, as `raise X` or `raise X(...)`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_error_class_is_raised():
    raised = {name for path in SOURCES for name in raised_names(path)}
    assert sorted(set(errors.__all__) - {"CrosscapError"} - raised) == []


def call_lines(nodes, name):
    """Lines of the calls of `name`, as `name(...)` or `module.name(...)`,
    in the given syntax trees."""
    for node in (inner for tree in nodes for inner in ast.walk(tree)):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name:
                yield node.lineno


def test_only_even_p_gamma3_steps_to_zero():
    # the library's one stepwise walk to [0] is gamma3 of an even-p knot in
    # `genus_report`; odd p counts the runs of its near-palindrome form
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    calls = {name: list(call_lines([tree], "steps_to_zero")) for name, tree in trees.items()}
    assert {name: len(lines) for name, lines in calls.items() if lines} == {"genus.py": 1}
    (report,) = (
        node
        for node in ast.walk(trees["genus.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "genus_report"
    )
    even_branches = [
        statement
        for node in ast.walk(report)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "p % 2"
        for statement in node.orelse
    ]
    assert list(call_lines(even_branches, "steps_to_zero")) == calls["genus.py"]
