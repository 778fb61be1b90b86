"""Static checks of the library sources: they import only the standard
library and the package, parse as the oldest supported Python, raise every
error class the package exports and a trivial knot's `UnknotInput` at one
site, in module knot, step a walk to [0] only for the gamma3 of
an even-p knot, loop over single pinch moves only in `pinch_sequence`, and
count walks with no stop rule: the walk to T(0,1) is the walk to the first
unknot plus its unknot tail, so the stop rule is only a walk's precondition.
Module verify reads its walks from the box induction of its walk table and
compares pinches as expansion keys, so it calls none of the slow routes
kept as test oracles.  A knot's slots are written by one builder,
`knot._normalized`, and no other module knows the knot's layout."""

import ast
import sys
from pathlib import Path

import pytest

from crosscap import errors, knot

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


def record_builds(nodes):
    """Lines of the `PinchRecord` builds in the given syntax trees: calls of
    the class, and of `_tuple_new` with the class as its first argument."""
    yield from call_lines(nodes, "PinchRecord")
    for node in (inner for tree in nodes for inner in ast.walk(tree)):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_tuple_new":
            if ast.unparse(node.args[0]) == "PinchRecord":
                yield node.lineno


def test_only_pinch_and_pinch_sequence_build_records():
    # `pinch_sequence` is the library's one loop over single moves: besides
    # `pinch`, no code builds a `PinchRecord`, by its constructor or by
    # `tuple.__new__`, and a trace has no per-move reading of its own
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    calls = {(name, line) for name, tree in trees.items() for line in record_builds([tree])}
    builders = {
        (name, line): f"{name[:-3]}.{node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for line in record_builds([node])
    }
    assert set(builders) == calls
    assert sorted(set(builders.values())) == ["knot.pinch", "knot.pinch_sequence"]
    (trace,) = (
        node
        for node in ast.walk(trees["knot.py"])
        if isinstance(node, ast.ClassDef) and node.name == "PinchTrace"
    )
    methods = {node.name for node in trace.body if isinstance(node, ast.FunctionDef)}
    assert sorted(methods & {"walk", "__iter__", "__len__"}) == []


def test_the_count_path_takes_no_stop_rule():
    # `knot._runs` and `knot._walk_sums` read the coefficients alone; in
    # `genus`, `StopRule` only picks the precondition `knot._walk_start`
    # checks (and the stop of the trace that `GenusReport.trace` builds from
    # the report's expansion when read), and no `_walk_counts` wraps the two
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    knot_functions = {
        node.name: node for node in trees["knot.py"].body if isinstance(node, ast.FunctionDef)
    }
    for name in ("_runs", "_walk_sums"):
        args = knot_functions[name].args
        assert [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs] == ["coeffs"]
        assert args.vararg is None and args.kwarg is None
    genus = trees["genus.py"]
    functions = [node for node in ast.walk(genus) if isinstance(node, ast.FunctionDef)]
    assert "_walk_counts" not in {node.name for node in functions}
    uses = []
    for function in functions:
        for call in ast.walk(function):
            if isinstance(call, ast.Call):
                uses += [
                    (function.name, ast.unparse(call.func))
                    for arg in call.args
                    if isinstance(arg, ast.Attribute) and ast.unparse(arg.value) == "StopRule"
                ]
    named = [node for node in ast.walk(genus) if isinstance(node, ast.Name)]
    assert len(uses) == sum(node.id == "StopRule" for node in named) > 0
    assert {callee for _, callee in uses} <= {"_walk_start", "PinchTrace._trusted"}
    traces = {function for function, callee in uses if callee == "PinchTrace._trusted"}
    assert traces == {"trace"}


def test_verify_calls_no_oracle_route():
    # pinch-equivalence compares one `cf.step` with the expansion of the
    # residue pinch's result, and the split pieces' walks come from the walk
    # table: no `pinch_by_step` (which evaluates a Fraction and re-validates
    # a knot), no `crosscap_by_splitting` and no `pinches_to_zero`
    (path,) = (path for path in SOURCES if path.name == "verify.py")
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    oracles = {"pinch_by_step", "crosscap_by_splitting", "pinches_to_zero", "evaluate"}
    assert sorted(names & oracles) == []


def test_each_knot_precondition_is_raised_once():
    # a trivial knot is refused at one site in `knot`, which the walk start,
    # the division and the odd split all call; an odd p on the walk to T(0,1)
    # is refused by the walk start, so module genus raises neither
    sites = [(path.name, name) for path in SOURCES for name in raised_names(path)]
    assert [path for path, name in sites if name == "UnknotInput"] == ["knot.py"]
    assert ("genus.py", "OddParity") not in sites


def test_one_builder_writes_a_knot():
    # only `knot._normalized` lays a knot out: `object.__new__` and the
    # slots' setters are bound once, at the top level of module knot, and
    # read nowhere else; no other module names them, `_ordered` is gone and
    # `TorusKnot` has no `_trusted`
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    knot_tree = trees["knot.py"]
    (builder,) = (
        node
        for node in knot_tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_normalized"
    )
    layout = {"_new", "_set_p", "_set_q"}
    bindings = [
        node
        for node in knot_tree.body
        if isinstance(node, ast.Assign) and {ast.unparse(t) for t in node.targets} & layout
    ]
    assert sorted(ast.unparse(node) for node in bindings) == [
        "_new = object.__new__",
        "_set_p = TorusKnot.p.__set__",
        "_set_q = TorusKnot.q.__set__",
    ]
    allowed = {id(node) for root in [builder, *bindings] for node in ast.walk(root)}
    strays = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                word = node.id
            elif isinstance(node, ast.alias):
                word = node.name
            elif isinstance(node, ast.FunctionDef):
                word = node.name
            elif isinstance(node, ast.Attribute):
                word = ast.unparse(node)
            elif isinstance(node, ast.Call) and node.args:
                word = f"{ast.unparse(node.func)}({ast.unparse(node.args[0])})"
            else:
                continue
            named = word in {"_set_p", "_set_q", "_ordered"} or (
                name == "knot.py" and word == "_new"
            )
            touched = word in {
                "TorusKnot.p.__set__",
                "TorusKnot.q.__set__",
                "TorusKnot._trusted",
                "object.__new__(TorusKnot)",
                "_new(TorusKnot)",
            }
            if (named or touched) and (name != "knot.py" or id(node) not in allowed):
                strays.append((name, node.lineno, word))
    assert strays == []
    assert not hasattr(knot.TorusKnot, "_trusted")
    assert not hasattr(knot, "_ordered")
