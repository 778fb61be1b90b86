"""Command-line interface.

Four subcommands: `report` prints every invariant of one knot, `trace`
prints its pinch sequence, `table` tabulates reports over a parameter box,
and `verify` runs the exhaustive identity checks.  Exit codes: 0 success,
1 verification found counterexamples, 2 bad input.  `report` and `trace`
also exit 2, before any step, on a knot with a walk of more than MAX_STEPS
moves, counted exactly from its `PinchTrace`.  `trace` and a human
`report` write each trace line as its move is walked, formatted from the
plain integer tuple `PinchTrace.walk` yields, so no object is built per
move; a JSON `report` writes its invariants and then each trace row the
same way, one f-string per row.  A reader that closes the pipe early ends
the command quietly, with its own exit code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import operator
import os
import sys
from typing import Callable, Iterable, Iterator, Optional

from .errors import CrosscapError, InvalidParameter
from .genus import GenusReport, crosscap_knot, genus_report, pinches_to_unknot
from .knot import PinchSign, PinchTrace, StopRule, TorusKnot, normalize, normalized_knots
from .verify import CheckOutcome, run_all

__all__ = ["main", "CSV_COLUMNS", "MAX_STEPS"]

# The longest walk, in pinch moves, that `report` and `trace` take on.
MAX_STEPS = 10**6

# One row per report field: its CSV column, its path in the JSON report and
# its dotted `GenusReport` attribute.  CSV, JSON and the human table all
# read this table, in its order, so a new field is one new row.
_FIELDS = [
    ("p", ("knot", "p"), "knot.p"),
    ("q", ("knot", "q"), "knot.q"),
    ("k", ("k",), "k"),
    ("a", ("a",), "a"),
    ("ell", ("ell",), "ell"),
    ("beta1_F", ("beta1_F",), "beta1_F"),
    ("gamma3", ("gamma3",), "gamma3"),
    ("gamma4_lower", ("gamma4", "lower"), "gamma4.lower"),
    ("gamma4_upper", ("gamma4", "upper"), "gamma4.upper"),
    ("gamma4_exact", ("gamma4", "exact"), "gamma4.exact"),
    ("gamma4_provenance", ("gamma4", "provenance"), "gamma4.provenance"),
    ("gap_lb_num", ("gap_lower_bound", "num"), "gap_lower_bound.numerator"),
    ("gap_lb_den", ("gap_lower_bound", "den"), "gap_lower_bound.denominator"),
    ("orientable_genus", ("orientable_genus",), "orientable_genus"),
]

CSV_COLUMNS = [column for column, _, _ in _FIELDS]

_field_values = operator.attrgetter(*(attribute for _, _, attribute in _FIELDS))


# `json.dumps(payload, indent=2)` is `_JSON.encode(payload)`; one encoder
# serves every call.
_JSON = json.JSONEncoder(indent=2)


def _json_text(payload: object) -> str:
    return _JSON.encode(payload) + "\n"


def _json_list(items: Iterable[str], indent: str = "") -> Iterator[str]:
    """The text of a JSON list nested at `indent`, one item per chunk.

    Each item is the `json.dumps(..., indent=2)` text of one element as it
    reads inside the list: every line after its first indented by
    `indent` plus two spaces.  An empty list reads `[]`."""
    inner = indent + "  "
    opening = separator = "[\n" + inner
    for item in items:
        yield separator + item
        separator = ",\n" + inner
    yield "[]" if separator == opening else "\n" + indent + "]"


class _Echo:
    """A file whose `write` returns its text: `csv.writer(_Echo).writerow`
    returns the row's line, with no buffer to read back and clear."""

    @staticmethod
    def write(line: str) -> str:
        return line


def _csv_lines(rows: Iterable[Iterable[object]]) -> Iterator[str]:
    return map(csv.writer(_Echo, lineterminator="\n").writerow, rows)


_SIGN_JSON = {sign: json.dumps(sign.value) for sign in PinchSign} | {None: "null"}


def _trace_rows_json(trace: PinchTrace, indent: str) -> Iterator[str]:
    """The JSON text of each move of `trace`, as `_json_list` takes it for
    a list nested at `indent`: one f-string per row, with no encoder.  A row
    holds the move's "from" and "to" pairs, its witness "t" and "h", and its
    sign's value or null; `tests/oracles.py` builds the same rows as dicts."""
    i1 = indent + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    open_from = f'{{\n{i2}"from": [\n{i3}'
    item = f",\n{i3}"
    open_to = f'\n{i2}],\n{i2}"to": [\n{i3}'
    key_t = f'\n{i2}],\n{i2}"t": '
    key_h = f',\n{i2}"h": '
    key_sign = f',\n{i2}"sign": '
    close = f"\n{i1}}}"
    signs = _SIGN_JSON
    for sp, sq, rp, rq, t, h, sign, _, _ in trace.walk():
        yield (
            f"{open_from}{sp}{item}{sq}{open_to}{rp}{item}{rq}"
            f"{key_t}{t}{key_h}{h}{key_sign}{signs[sign]}{close}"
        )


def _report_fields(report: GenusReport) -> dict:
    """The JSON report without its trace."""
    payload: dict = {}
    for (_, path, _), value in zip(_FIELDS, _field_values(report)):
        *parents, leaf = path
        node = payload
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    return payload


def _report_json(report: GenusReport, indent: str = "", end: str = "\n") -> Iterator[str]:
    """The text of `json.dumps(..., indent=2)` of `_report_fields(report)`
    with the trace rows under "trace", nested at `indent`, then `end`: the
    invariants in one chunk, then one chunk per trace row, so a long trace
    is written as it is walked."""
    fields = _JSON.encode(_report_fields(report)).replace("\n", "\n" + indent)
    yield fields[: -len("\n}") - len(indent)] + f',\n{indent}  "trace": '
    yield from _json_list(_trace_rows_json(report.trace, indent + "  "), indent + "  ")
    yield "\n" + indent + "}" + end


def _report_cells(report: GenusReport) -> list[str]:
    """The report's fields as the text the human table aligns.  A CSV row
    is the field values themselves: `csv.writer` writes None as the empty
    field and every other value as its `str`, as this does."""
    return ["" if value is None else str(value) for value in _field_values(report)]


def _trace_lines(trace: PinchTrace) -> Iterator[str]:
    """One line per pinch move, with the expansions before and after.

    The lines read the integer tuples of `PinchTrace.walk`, whose expansion
    after a move is a pair (k, c): its text is that of the prefix
    [c0, ..., c_{k-1}] and then c.  k never rises along a walk, so the
    prefix text is rebuilt only when k changes, and a line costs O(1) work
    besides its text, with no object built per move.  Each expansion is
    formatted once: a line's after is the next line's before.
    """
    coeffs = trace.expansion.coeffs
    prefix_k, prefix = None, ""
    before = str(trace.expansion)
    for sp, sq, rp, rq, t, h, sign, k, c in trace.walk():
        if k != prefix_k:
            prefix_k, prefix = k, "[" + "".join(f"{x}," for x in coeffs[:k])
        after = f"{prefix}{c}]"
        yield (
            f"T({sp},{sq}) -> T({rp},{rq})   t={t} h={h}"
            f" sign={'n/a' if sign is None else sign.value}   {before} -> {after}"
        )
        before = after


def _report_human(report: GenusReport) -> Iterator[str]:
    """The human report: one chunk for the invariants, then one per trace
    line, so a long trace is written as it is walked."""
    knot = report.knot
    g4 = report.gamma4
    exact = "-" if g4.exact is None else str(g4.exact)
    lines = [
        f"T({knot.p},{knot.q})",
        f"  division:          {knot.p} = {knot.q}*{report.k} + {report.a}  (k={report.k}, a={report.a})",
        f"  terminal unknot:   T({report.ell},1)  (ell={report.ell})",
        f"  beta1_F:           {report.beta1_F}  (pinch moves to first unknot; gamma4 upper bound)",
        f"  gamma3:            {report.gamma3}  (crosscap number)",
        f"  gamma4:            lower={g4.lower} upper={g4.upper} exact={exact} ({g4.provenance})",
        f"  gap lower bound:   {report.gap_lower_bound}  (k/2)",
        f"  orientable genus:  {report.orientable_genus}",
    ]
    if report.split is not None:
        lines.append(f"  split:             {report.split.first} + {report.split.second}")
    lines.append("  pinch trace:")
    yield "\n".join(lines) + "\n"
    for line in _trace_lines(report.trace):
        yield f"    {line}\n"


def _table_human(rows: Iterable[list[str]]) -> Iterator[str]:
    rows = [CSV_COLUMNS, *rows]  # every row is needed for the column widths
    widths = [max(len(row[i]) for row in rows) for i in range(len(CSV_COLUMNS))]
    for row in rows:
        yield "  ".join(cell.rjust(width) for cell, width in zip(row, widths)) + "\n"


def _outcome_dict(outcome: CheckOutcome) -> dict:
    return {
        "check": outcome.check_name,
        "range": outcome.range_description,
        "cases_checked": outcome.cases_checked,
        "failures": outcome.failures_total,
        "passed": outcome.passed,
        "counterexamples": [
            {"input": c.input, "expected": c.expected, "actual": c.actual}
            for c in outcome.counterexamples
        ],
    }


def _verify_human(outcomes: list[CheckOutcome]) -> str:
    name_width = max(len(o.check_name) for o in outcomes)
    lines = []
    for outcome in outcomes:
        status = "PASS" if outcome.passed else f"FAIL ({outcome.failures_total} failures)"
        lines.append(
            f"{outcome.check_name.ljust(name_width)}  cases={outcome.cases_checked:<7d} {status}"
        )
        for c in outcome.counterexamples[:5]:
            lines.append(f"  counterexample: {c.input}  expected {c.expected}, got {c.actual}")
    return "\n".join(lines) + "\n"


# table --filter: name -> which knots of the box the table keeps.
_FILTERS: dict[str, Callable[[TorusKnot], bool]] = {
    "all": lambda knot: True,
    "even": lambda knot: knot.p % 2 == 0,
    "odd": lambda knot: knot.p % 2 == 1,
    "batson": lambda knot: knot.p % 2 == 0 and knot.q == knot.p - 1,
    # T(km+1, m) with k, m odd: p = 1 mod q and an odd quotient.
    "family-km1": lambda knot: knot.p % knot.q == 1 and ((knot.p - 1) // knot.q) % 2 == 1,
}


def _refuse_long_walks(knot: TorusKnot, *moves: int) -> None:
    """Raise InvalidParameter, before any step, if a walk a command makes
    on `knot`, of `moves` pinch moves each, is longer than MAX_STEPS."""
    longest = max(moves)
    if longest > MAX_STEPS:
        raise InvalidParameter(
            f"{knot} takes {longest} pinch moves; report and trace stop at {MAX_STEPS}"
        )


def _cmd_report(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    knot = normalize(args.p, args.q)
    # the printed trace, then the walk whose steps count gamma3
    _refuse_long_walks(
        knot, pinches_to_unknot(knot), PinchTrace(crosscap_knot(knot), StopRule.ZERO).moves
    )
    report = genus_report(knot)
    if args.format == "json":
        return 0, _report_json(report)
    if args.format == "csv":
        return 0, _csv_lines([CSV_COLUMNS, _field_values(report)])
    return 0, _report_human(report)


def _cmd_trace(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    stop = StopRule.ZERO if args.stop == "zero" else StopRule.FIRST_UNKNOT
    knot = normalize(args.p, args.q)
    trace = PinchTrace(knot, stop)
    _refuse_long_walks(knot, trace.moves)
    return 0, (line + "\n" for line in _trace_lines(trace))


def _cmd_table(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    if args.pmax < 2 or args.qmax < 2:
        raise InvalidParameter("--pmax and --qmax must be at least 2")
    knots = filter(_FILTERS[args.filter], normalized_knots(args.pmax, args.qmax))
    reports = map(genus_report, knots)
    if args.format == "json":
        items = ("".join(_report_json(report, "  ", "")) for report in reports)
        return 0, itertools.chain(_json_list(items), ["\n"])
    if args.format == "human":
        return 0, _table_human(map(_report_cells, reports))
    return 0, _csv_lines(itertools.chain([CSV_COLUMNS], map(_field_values, reports)))


def _cmd_verify(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    outcomes = run_all(args.max)
    code = 0 if all(outcome.passed for outcome in outcomes) else 1
    if args.format == "json":
        return code, [_json_text([_outcome_dict(outcome) for outcome in outcomes])]
    return code, [_verify_human(outcomes)]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call of a process.

    Parsing reads the parser without changing it, so one serves every call.
    """
    parser = argparse.ArgumentParser(
        prog="crosscap",
        description="Exact crosscap numbers and nonorientable four-genus bounds of torus knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="all invariants of one torus knot")
    report.add_argument("p", type=int)
    report.add_argument("q", type=int)
    report.add_argument("--format", choices=["human", "json", "csv"], default="human")
    report.set_defaults(handler=_cmd_report)

    trace = sub.add_parser("trace", help="pinch sequence of one torus knot")
    trace.add_argument("p", type=int)
    trace.add_argument("q", type=int)
    trace.add_argument("--stop", choices=["first-unknot", "zero"], default="first-unknot")
    trace.set_defaults(handler=_cmd_trace)

    table = sub.add_parser("table", help="invariant table over a parameter range")
    table.add_argument("--pmax", type=int, required=True)
    table.add_argument("--qmax", type=int, required=True)
    table.add_argument("--filter", choices=list(_FILTERS), default="all")
    table.add_argument("--format", choices=["human", "json", "csv"], default="csv")
    table.add_argument("--out", default=None)
    table.set_defaults(handler=_cmd_table)

    verify = sub.add_parser("verify", help="run the exhaustive identity checks")
    verify.add_argument("--max", type=int, required=True)
    verify.add_argument("--format", choices=["human", "json"], default="human")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command.  Its handler returns the exit code and the output
    chunks, which may be lazy; only this function writes them."""
    args = _build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        code, chunks = args.handler(args)
        if out is None:
            sys.stdout.writelines(chunks)
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
    except CrosscapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader has gone.  Point stdout at the null device, so that the
        # flush at exit cannot fail again, and keep the command's exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return code
    except OSError as exc:
        if out is None:
            raise
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
