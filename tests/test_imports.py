"""Static checks of the library sources: they import only the standard
library and the package, parse as the oldest supported Python, and raise
every error class the package exports."""

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
