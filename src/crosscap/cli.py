"""Command-line interface.

Four subcommands: `report` prints every invariant of one knot, `trace`
prints its pinch sequence, `table` tabulates reports over a parameter box,
and `verify` runs the exhaustive identity checks.  Exit codes: 0 success,
1 verification found counterexamples, 2 bad input.  `report` and `trace`
also exit 2, before any step, on a knot with a walk of more than MAX_STEPS
moves, counted exactly from one `PinchTrace`: `trace` by the walk it
prints, `report` by the longest walk it runs: for even p the walk to
T(0,1) that `genus_report` steps for gamma3, and for odd p its printed
trace.  A CSV `report` of an odd-p knot prints no trace and steps nothing,
so it is never refused by a walk.  `trace` and a human `report` format
their trace lines a segment at a time from the plain integers
`PinchTrace.segments` yields, so no object is built per move, and write
them in blocks of at most `_BLOCK` lines as the walk goes on; a JSON
`report` writes its invariants and then its trace rows the same way, one
f-string per row.  A reader that closes the pipe early ends the command
quietly, with its own exit code.
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
from .genus import GenusReport, genus_report
from .knot import (
    PinchSign,
    PinchTrace,
    StopRule,
    TorusKnot,
    _Segment,
    normalize,
    normalized_knots,
)
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
_SIGN_WORD = {sign: sign.value for sign in PinchSign} | {None: "n/a"}

# Trace lines and JSON trace rows go out in blocks of at most this many, so a
# long walk is written as it is walked and its text never held whole.
_BLOCK = 256


def _blocks(
    trace: PinchTrace, texts: Callable[[_Segment, int, int], list[str]]
) -> Iterator[list[str]]:
    """The texts of the moves of `trace` in blocks of at most _BLOCK.

    `texts(segment, j, n)` is the list of the texts of moves j, ..., j+n-1
    of one of `trace.segments()`; a segment longer than a block is cut
    between blocks, and short ones share a block."""
    block: list[str] = []
    for segment in trace.segments():
        moves = segment[0]
        j = 0
        while j < moves:
            n = min(moves - j, _BLOCK - len(block))
            block += texts(segment, j, n)
            j += n
            if len(block) == _BLOCK:
                yield block
                block = []
    if block:
        yield block


def _trace_rows_json(trace: PinchTrace, indent: str) -> Iterator[str]:
    """The JSON text of the moves of `trace`, as `_json_list` takes it for
    a list nested at `indent`: one chunk per block of rows, joined by the
    list's separator, with no encoder.  A row holds the move's "from" and
    "to" pairs, its witness "t" and "h", and its sign's value or null;
    `tests/oracles.py` builds the same rows as dicts.  Each pair is
    formatted once, for the "to" of one row and the "from" of the next, and
    a positive segment's witness and sign once for the whole segment."""
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

    def rows(segment: _Segment, j: int, n: int) -> list[str]:
        _, sp, sq, dp, dq, t, h, dt, dh, sign, _, _, _, _ = segment
        signed = f"{key_sign}{_SIGN_JSON[sign]}{close}"
        pairs = [f"{sp - i * dp}{item}{sq - i * dq}" for i in range(j, j + n + 1)]
        if dt:
            witnesses = [f"{key_t}{t - i * dt}{key_h}{h - i * dh}{signed}" for i in range(j, j + n)]
        else:
            witnesses = itertools.repeat(f"{key_t}{t}{key_h}{h}{signed}", n)
        return [
            f"{open_from}{a}{open_to}{b}{w}"
            for a, b, w in zip(pairs, itertools.islice(pairs, 1, None), witnesses)
        ]

    return map(f",\n{i1}".join, _blocks(trace, rows))


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
    invariants in one chunk, then one chunk per block of trace rows, so a
    long trace is written as it is walked."""
    fields = _JSON.encode(_report_fields(report)).replace("\n", "\n" + indent)
    yield fields[: -len("\n}") - len(indent)] + f',\n{indent}  "trace": '
    yield from _json_list(_trace_rows_json(report.trace, indent + "  "), indent + "  ")
    yield "\n" + indent + "}" + end


def _report_cells(report: GenusReport) -> list[str]:
    """The report's fields as the text the human table aligns.  A CSV row
    is the field values themselves: `csv.writer` writes None as the empty
    field and every other value as its `str`, as this does."""
    return ["" if value is None else str(value) for value in _field_values(report)]


def _trace_lines(trace: PinchTrace, indent: str) -> Iterator[str]:
    """One line per pinch move, with the expansions before and after, each
    line led by `indent` and ended by a newline, in chunks of a block of
    lines each.

    The lines read `PinchTrace.segments`, whose expansions are pairs
    (k, c): the text of one is that of the prefix [c0, ..., c_{k-1}] and
    then c.  k never rises along a walk, so the prefix text is built once
    per k and only the last two are kept.  Each knot and each expansion is formatted once, for the
    after of one line and the before of the next, and a positive segment's
    witness and sign once for the whole segment, so a line costs O(1) work
    besides its text, with no object built per move.
    """
    coeffs = trace.expansion.coeffs

    @functools.lru_cache(maxsize=2)  # a segment's k and k_end, the next one's k
    def prefix(k: int) -> str:
        return "[" + "".join(f"{x}," for x in coeffs[:k])

    def lines(segment: _Segment, j: int, n: int) -> list[str]:
        moves, sp, sq, dp, dq, t, h, dt, dh, sign, k, c, k_end, c_end = segment
        signed = f" sign={_SIGN_WORD[sign]}   "
        knots = [f"T({sp - i * dp},{sq - i * dq})" for i in range(j, j + n + 1)]
        head = prefix(k)
        expansions = [f"{head}{c - 2 * i}]" for i in range(j, j + n + 1)]
        if j + n == moves:
            expansions[-1] = f"{prefix(k_end)}{c_end}]"
        if dt:
            witnesses = [f"   t={t - i * dt} h={h - i * dh}{signed}" for i in range(j, j + n)]
        else:
            witnesses = itertools.repeat(f"   t={t} h={h}{signed}", n)
        after = itertools.islice(expansions, 1, None)
        results = itertools.islice(knots, 1, None)
        return [
            f"{indent}{a} -> {b}{w}{x} -> {y}\n"
            for a, b, w, x, y in zip(knots, results, witnesses, expansions, after)
        ]

    return map("".join, _blocks(trace, lines))


def _report_human(report: GenusReport) -> Iterator[str]:
    """The human report: one chunk for the invariants, then one per block
    of trace lines, so a long trace is written as it is walked."""
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
    split = report.split
    if split is not None:
        lines.append(f"  split:             {split.first} + {split.second}")
    lines.append("  pinch trace:")
    yield "\n".join(lines) + "\n"
    yield from _trace_lines(report.trace, "    ")


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


def _refuse_long_walks(knot: TorusKnot, moves: int) -> None:
    """Raise InvalidParameter, before any step, if the longest walk a
    command makes on `knot`, `moves` pinch moves, is longer than MAX_STEPS."""
    if moves > MAX_STEPS:
        raise InvalidParameter(
            f"{knot} takes {moves} pinch moves; report and trace stop at {MAX_STEPS}"
        )


def _cmd_report(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    knot = normalize(args.p, args.q)
    trace = PinchTrace(knot, StopRule.FIRST_UNKNOT)  # raises UnknotInput first
    # The longest walk the report runs.  For even p, `genus_report` steps
    # gamma3 along the ZERO walk, which is the printed trace followed by the
    # unknot tail T(l,1) -> T(l-2,1) -> ... -> T(0,1), l/2 more moves, in
    # every format.  For odd p gamma3 is counted from runs, so the only walk
    # is the printed trace, which a CSV report does not print.
    if knot.p % 2 == 0:
        _refuse_long_walks(knot, trace.moves + trace.final.p // 2)
    elif args.format != "csv":
        _refuse_long_walks(knot, trace.moves)
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
    return 0, _trace_lines(trace, "")


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
