"""Command-line interface.

Four subcommands: `report` prints every invariant of one knot, `trace`
prints its pinch sequence, `table` tabulates reports over a parameter box,
and `verify` runs the exhaustive identity checks.  Exit codes: 0 success,
1 verification found counterexamples, 2 bad input.  `report` and `trace`
also exit 2, before any step, on a knot with a walk of more than MAX_STEPS
moves: `trace` by the `moves` of the `PinchTrace` it prints, `report` by
the library's count of the longest walk it runs.  For even p that is
`crosscap_number`, the walk to T(0,1) that `genus_report` steps for
gamma3, read before the report is built.  For odd p it is the report's own
`beta1_F`, the printed trace, read after `genus_report` has counted it by
runs with no step, so an odd-p report expands p/q once in every format.  A
CSV `report` of an odd-p knot prints no trace and steps nothing, so it is
never refused by a walk.  `table` and `verify` exit 2, before any knot is
built, on a box of more than MAX_BOX parameter pairs: pmax*qmax for
`table`, max*max for `verify`.  `report` exits 2, before any output, when
gamma3 or the orientable genus has more digits than Python converts to
text.

This module formats what the library computes and computes nothing
itself.  A report's printers read its trace from `GenusReport.trace`,
the one place a report's `PinchTrace` is built, so CSV and human tables,
which print no trace, build none.  Every format reads a report's fields
through one function, `_flat_values`, in `_FIELDS` order: a CSV row is one
`%` template over them, a human table row is their `str`s, and a JSON
report formats them into one cached layout.  `trace` and a human or
JSON `report` format the moves a segment at a time from the plain
integers `PinchTrace.segments` yields, one f-string per trace line or
JSON row and no object per move, and write each segment in chunks of at
most `_BLOCK` moves as the walk goes on.  A reader that closes the pipe
early ends the command quietly, with its own exit code.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import Callable, Iterable, Iterator, Optional

from .errors import CrosscapError, InvalidParameter
from .genus import GenusReport, crosscap_number, genus_report
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

__all__ = ["main", "CSV_COLUMNS", "MAX_BOX", "MAX_STEPS"]

# The longest walk, in pinch moves, that `report` and `trace` take on.
MAX_STEPS = 10**6

# The largest box, in parameter pairs (p, q), that `table` and `verify` take on.
MAX_BOX = 10**6

# One row per report field: its CSV column and its path in the JSON report.
# `_flat_values` returns the fields in this order, and CSV, JSON and the
# human table all read them through it, so a new field is one new row here
# and one new name in its unpacking.
_FIELDS = [
    ("p", ("knot", "p")),
    ("q", ("knot", "q")),
    ("k", ("k",)),
    ("a", ("a",)),
    ("ell", ("ell",)),
    ("beta1_F", ("beta1_F",)),
    ("gamma3", ("gamma3",)),
    ("gamma4_lower", ("gamma4", "lower")),
    ("gamma4_upper", ("gamma4", "upper")),
    ("gamma4_exact", ("gamma4", "exact")),
    ("gamma4_provenance", ("gamma4", "provenance")),
    ("gap_lb_num", ("gap_lower_bound", "num")),
    ("gap_lb_den", ("gap_lower_bound", "den")),
    ("orientable_genus", ("orientable_genus",)),
]

CSV_COLUMNS = [column for column, _ in _FIELDS]


def _flat_values(report: GenusReport) -> tuple:
    """The report's fields in `_FIELDS` order, read by unpacking the report
    and its gamma4 bounds in one statement.  An unknown exact gamma4, None,
    is "", so every value is an int, a provenance label or "", and `%s`
    writes each as its CSV cell."""
    knot, k, a, ell, beta1_F, gamma3, (lower, upper, exact, provenance), gap, genus, _ = report
    if exact is None:
        exact = ""
    return (knot.p, knot.q, k, a, ell, beta1_F, gamma3, lower, upper, exact, provenance,
            gap.numerator, gap.denominator, genus)


# A CSV line: the `%s` of each of the _FIELDS values, joined by commas.  No
# column name or provenance label holds a comma, a double quote or a line
# break, so a line quotes nothing; the header is this template over
# CSV_COLUMNS.
_CSV_ROW = ",".join(["%s"] * len(_FIELDS)) + "\n"
_CSV_HEADER = _CSV_ROW % tuple(CSV_COLUMNS)


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


_SIGN_JSON = {sign: json.dumps(sign.value) for sign in PinchSign} | {None: "null"}
_SIGN_WORD = {sign: sign.value for sign in PinchSign} | {None: "n/a"}

# Trace lines and JSON trace rows go out in chunks of at most this many, so a
# long walk is written as it is walked and its text never held whole.
_BLOCK = 256


def _blocks(
    trace: PinchTrace, texts: Callable[[_Segment, int, int], list[str]]
) -> Iterator[list[str]]:
    """The texts of the moves of `trace`, one segment at a time, in lists
    of at most _BLOCK.

    `texts(segment, j, n)` is the list of the texts of moves j, ..., j+n-1
    of one of `trace.segments()`.  A segment longer than _BLOCK moves is
    cut into several lists; no list holds moves of two segments."""
    for segment in trace.segments():
        moves = segment[0]
        for j in range(0, moves, _BLOCK):
            yield texts(segment, j, min(_BLOCK, moves - j))


def _trace_rows_json(trace: PinchTrace, indent: str) -> Iterator[str]:
    """The JSON text of the moves of `trace`, as `_json_list` takes it for
    a list nested at `indent`: one chunk per list of `_blocks`, joined by
    the list's separator, with no encoder.  A row holds the move's "from" and
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


@functools.cache
def _report_layout(indent: str) -> str:
    """The JSON text of a report's invariants, nested at `indent` and open
    at its "trace" key, as a `str.format` template whose field {i} is the
    value of row i of `_FIELDS`, item i of `_flat_values`.

    It is `json.dumps(..., indent=2)` of the report object, each value
    nested by its `_FIELDS` path, encoded once with the marker "<i>" in
    place of row i's value; a report then only formats its values."""
    payload: dict = {}
    for i, (_, path) in enumerate(_FIELDS):
        *parents, leaf = path
        node = payload
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = f"<{i}>"
    text = _JSON.encode(payload).replace("{", "{{").replace("}", "}}")
    for i in range(len(_FIELDS)):
        text = text.replace(json.dumps(f"<{i}>"), f"{{{i}}}")
    text = text[: -len("\n}}")].replace("\n", "\n" + indent)
    return text + f',\n{indent}  "trace": '


def _json_scalar(value: object) -> str:
    """The JSON text of one of `_flat_values`: an int, a provenance label,
    or the "" that stands for an unknown exact gamma4, which is null."""
    if type(value) is str:
        return json.dumps(value) if value else "null"
    return str(value)


def _report_json(report: GenusReport, indent: str = "", end: str = "\n") -> Iterator[str]:
    """The text of `json.dumps(..., indent=2)` of the JSON report, its
    invariants nested by their `_FIELDS` paths and the rows of
    `report.trace`, the walk to the first unknot, under "trace", nested at
    `indent`, then `end`: the invariants in one chunk, formatted into
    `_report_layout` with no encoder pass, then the trace rows in chunks of
    at most _BLOCK, so a long trace is written as it is walked."""
    yield _report_layout(indent).format(*map(_json_scalar, _flat_values(report)))
    yield from _json_list(_trace_rows_json(report.trace, indent + "  "), indent + "  ")
    yield "\n" + indent + "}" + end


def _report_cells(report: GenusReport) -> list[str]:
    """The cells of the report's human table row: the `str` of each of its
    `_flat_values`, the text `%s` writes into its CSV row."""
    return list(map(str, _flat_values(report)))


def _trace_lines(trace: PinchTrace, indent: str) -> Iterator[str]:
    """One line per pinch move, with the expansions before and after, each
    line led by `indent` and ended by a newline, in chunks of at most
    _BLOCK lines, one segment at a time.

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
    """The human report: one chunk for the invariants, then the lines of
    `report.trace`, the walk to the first unknot, in chunks of at most
    _BLOCK, so a long trace is written as it is walked."""
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


# table --filter: name -> which knots of the box the table keeps; None keeps
# every knot with no call per knot.
_FILTERS: dict[str, Optional[Callable[[TorusKnot], bool]]] = {
    "all": None,
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


def _refuse_unprintable(report: GenusReport) -> None:
    """Raise InvalidParameter, before any output, if gamma3 or the
    orientable genus has more digits than Python converts to text
    (`sys.get_int_max_str_digits()`, 4300 by default; 0, or no such
    function before Python 3.10.7, is no limit).  Every other integer a
    report prints is at most max(p, q), which was parsed under that limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for name, value in (("gamma3", report.gamma3), ("orientable genus", report.orientable_genus)):
        # 8**limit < 10**limit, so a value of at most 3*limit bits fits
        if limit and value.bit_length() > 3 * limit and value >= 10**limit:
            raise InvalidParameter(
                f"{report.knot}: {name} has more than {limit} digits,"
                " the most Python converts to text"
            )


def _refuse_large_box(command: str, pairs: int) -> None:
    """Raise InvalidParameter, before any knot is built, if a box command
    spans more than MAX_BOX parameter pairs."""
    if pairs > MAX_BOX:
        raise InvalidParameter(
            f"{command} spans {pairs} parameter pairs; table and verify stop at {MAX_BOX}"
        )


def _cmd_report(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    knot = normalize(args.p, args.q)
    # Even p: gamma3's walk, which `genus_report`'s even branch steps, so
    # before it.  Odd p: the printed trace, which a CSV report does not
    # print, counted by `genus_report` with no step, so after it.
    if knot.p % 2 == 0:
        _refuse_long_walks(knot, crosscap_number(knot))
    report = genus_report(knot)
    if knot.p % 2 and args.format != "csv":
        _refuse_long_walks(knot, report.beta1_F)
    _refuse_unprintable(report)
    if args.format == "json":
        return 0, _report_json(report)
    if args.format == "csv":
        return 0, [_CSV_HEADER, _CSV_ROW % _flat_values(report)]
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
    _refuse_large_box(f"table --pmax {args.pmax} --qmax {args.qmax}", args.pmax * args.qmax)
    knots = normalized_knots(args.pmax, args.qmax)
    keep = _FILTERS[args.filter]
    if keep is not None:
        knots = filter(keep, knots)
    reports = map(genus_report, knots)
    if args.format == "json":
        items = ("".join(_report_json(report, "  ", "")) for report in reports)
        return 0, itertools.chain(_json_list(items), ["\n"])
    if args.format == "human":
        return 0, _table_human(map(_report_cells, reports))
    return 0, itertools.chain([_CSV_HEADER], map(_CSV_ROW.__mod__, map(_flat_values, reports)))


def _cmd_verify(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    # a bound below 3 is left to run_all, which refuses it as such
    _refuse_large_box(f"verify --max {args.max}", max(args.max, 0) ** 2)
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
