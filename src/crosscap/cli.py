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
`%` template over them, a human table row is its CSV row's cells, and a
JSON report formats them into one cached layout.  `trace` and a human or
JSON `report` format the moves a segment at a time from the plain
integers `PinchTrace.segments` yields, one f-string per trace line or
JSON row and no object per move, and write each segment in chunks of at
most `_BLOCK` moves as the walk goes on.  A trace line reads its knots,
last coefficients and stepping witnesses from integer progressions
(`_steps`), so no line computes a move's values by multiplication.  A
reader that closes the pipe early ends the command quietly, with its own
exit code.

`table` and `verify` split their boxes in one way, `_in_slices`.  Where
the process may use more than one CPU, the box's knots are listed once
and cut by position (`_cut`) into contiguous slices of equal length up to
one knot, one per CPU and at most one per `_MIN_SLICE` knots or part of
that.  `_in_processes`, the one fork path, runs the first slice in this
process and each other one in a forked child, which writes its text as
it goes to an anonymous temporary file, so no process holds a slice's
text; this process copies each file out, in order, once its child is
done, and runs every slice it could not fork.  A box is one slice when it
holds at most `_MIN_SLICE` knots, and when the process may use one CPU,
has no `os.fork` or runs another thread, which three stream its knots
unlisted.  A child that fails fails the command, and no child outlives
`main`.

A `table` slice renders its knots.  Every format is text that
concatenates across slices: CSV rows, JSON items joined by the list's
separator, and the human table, read back from the CSV lines.  A `verify`
box is cut into equal slices too; a later slice first walks the knots
before it.  Its outcomes come back as JSON and are merged into those of
one pass, so the output is the same whatever the number of slices.

An `error:` line, argparse's too, writes each number of more than 60
digits as `<N digits>`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import re
import signal
import sys
import tempfile
import threading
import traceback
import types
from typing import Callable, Iterable, Iterator, NoReturn, Optional, TextIO

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
from .verify import CheckOutcome, Counterexample, _merge, _run_slice

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


def _steps(start: int, step: int, n: int) -> Iterable[int]:
    """The n integers start, start - step, ..., start - (n-1)*step: a
    `range`, or `itertools.repeat` for a zero step."""
    if step:
        return range(start, start - n * step, -step)
    return itertools.repeat(start, n)


def _trace_lines(trace: PinchTrace, indent: str) -> Iterator[str]:
    """One line per pinch move, with the expansions before and after, each
    line led by `indent` and ended by a newline, in chunks of at most
    _BLOCK lines, one segment at a time.

    The lines read `PinchTrace.segments`, whose expansions are pairs
    (k, c): the text of one is that of the prefix [c0, ..., c_{k-1}] and
    then c.  k never rises along a walk, so the prefix text is built once
    per k and only the last two are kept.  A block of moves j, ..., j+n-1
    reads its n+1 knots, its n+1 last coefficients and, on a stepping
    segment, its n witnesses from `_steps` progressions that start at move
    j, each zipped into one f-string, so no line computes `sp - i*dp`.
    Each knot and each expansion is formatted once, for the after of one
    line and the before of the next, and a positive segment's witness and
    sign once for the whole segment, so a line costs O(1) work besides its
    text, with no object built per move.
    """
    coeffs = trace.expansion.coeffs

    @functools.lru_cache(maxsize=2)  # a segment's k and k_end, the next one's k
    def prefix(k: int) -> str:
        return "[" + "".join(f"{x}," for x in coeffs[:k])

    def lines(segment: _Segment, j: int, n: int) -> list[str]:
        moves, sp, sq, dp, dq, t, h, dt, dh, sign, k, c, k_end, c_end = segment
        signed = f" sign={_SIGN_WORD[sign]}   "
        ps, qs = _steps(sp - j * dp, dp, n + 1), _steps(sq - j * dq, dq, n + 1)
        knots = [f"T({a},{b})" for a, b in zip(ps, qs)]
        head = prefix(k)
        expansions = [f"{head}{x}]" for x in _steps(c - 2 * j, 2, n + 1)]
        if j + n == moves:
            expansions[-1] = f"{prefix(k_end)}{c_end}]"
        if dt:
            ts, hs = _steps(t - j * dt, dt, n), _steps(h - j * dh, dh, n)
            witnesses = [f"   t={a} h={b}{signed}" for a, b in zip(ts, hs)]
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


def _table_human(csv_chunks: Iterable[str]) -> Iterator[str]:
    """The human table of the CSV table whose text is `csv_chunks`, cut
    anywhere: its cells, each the `str` of a report value, right-aligned in
    columns.  No cell holds a comma (see `_CSV_ROW`), so a line's cells are
    its comma-split."""
    rows: list[list[str]] = []  # every row sets the widths
    tail = ""
    for chunk in csv_chunks:
        *lines, tail = (tail + chunk).split("\n")
        rows.extend(line.split(",") for line in lines)
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


def _outcome_of(entry: dict) -> CheckOutcome:
    """The outcome whose `_outcome_dict` is `entry`."""
    return CheckOutcome(
        entry["check"],
        entry["range"],
        entry["cases_checked"],
        [Counterexample(**case) for case in entry["counterexamples"]],
        entry["failures"],
    )


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
    """The table of the box's kept knots, lazy: nothing is enumerated or
    forked until its first chunk is read.

    `_table_slices` renders the knots in slices of about equal length (see
    `_in_slices`).  This process streams the first; a forked child renders
    each other one into a temporary file, which this process copies out in
    order."""
    if args.pmax < 2 or args.qmax < 2:
        raise InvalidParameter("--pmax and --qmax must be at least 2")
    _refuse_large_box(f"table --pmax {args.pmax} --qmax {args.qmax}", args.pmax * args.qmax)
    knots = normalized_knots(args.pmax, args.qmax)
    keep = _FILTERS[args.filter]
    if keep is not None:
        knots = filter(keep, knots)
    return 0, _table(args.format, knots)


def _table(fmt: str, knots: Iterable[TorusKnot]) -> Iterator[str]:
    """The chunks of the table of `knots` in format `fmt`.

    Its slices are CSV rows or JSON items, texts that concatenate: a JSON
    table is an opening bracket, its items with the first one's comma
    dropped, and a closing bracket on a line of its own.  A human table
    is read back from the CSV text."""
    if fmt == "json":
        items = _table_slices(_json_items, knots)
        first = next(items, None)
        if first is None:
            yield "[]\n"
            return
        yield "[" + first[1:]
        yield from items
        yield "\n]\n"
    elif fmt == "human":
        yield from _table_human(itertools.chain([_CSV_HEADER], _table_slices(_csv_rows, knots)))
    else:
        yield _CSV_HEADER
        yield from _table_slices(_csv_rows, knots)


def _csv_rows(knots: Iterable[TorusKnot]) -> Iterator[str]:
    return map(_CSV_ROW.__mod__, map(_flat_values, map(genus_report, knots)))


def _json_items(knots: Iterable[TorusKnot]) -> Iterator[str]:
    """The JSON text of each knot's report as an item of a table's list,
    led by the list's separator."""
    for report in map(genus_report, knots):
        yield ",\n  " + "".join(_report_json(report, "  ", ""))


# A box takes at most one slice per _MIN_SLICE knots or part of that, so
# that a child has more than _MIN_SLICE/2 knots and a box of at most
# _MIN_SLICE knots forks none.  It was measured for `table`: on 2 CPUs a
# child cost about 5 ms (its fork, exit and copy-on-write faults) and a knot
# about 8 us, so two slices pay from about 1,300 knots; measured, they were
# slower below 1,000 knots and within the noise up to 2,600 (CHANGES.md).
# `verify` shares it, though at about 12 us a knot its two slices already
# paid from about 1,500 knots: a box of 1,500 to 2,048 knots misses a
# 10-20% gain of a few ms there (CHANGES.md).  That crossover was measured
# under a weighted cut, which gave the first slice more knots than the
# second to pay for the second's walk of them; with equal slices it is
# not measured again.  One constant serves both commands.
_MIN_SLICE = 2048


# The longest text, in characters, copied out of a child's file at once.
_COPY_CHUNK = 1 << 16


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        return os.cpu_count() or 1


def _processes() -> int:
    """The most processes a box is split across: one per CPU, and one
    where there is no `os.fork` or another thread runs, since a fork copies
    no thread but the caller's (and warns of that from Python 3.12)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return _cpus()


def _table_slices(
    render: Callable[[Iterable[TorusKnot]], Iterable[str]], knots: Iterable[TorusKnot]
) -> Iterator[str]:
    """The chunks of `render(knots)`, rendered a slice at a time by
    `_in_slices`, with slices of about equal length."""

    def job(part: Iterable[TorusKnot], lo: int) -> Iterable[str]:
        return render(itertools.islice(part, lo, None))

    with contextlib.closing(_in_slices(job, knots)) as texts:
        for text in texts:
            yield from text


def _in_slices(
    job: Callable[[Iterable[TorusKnot], int], Iterable[str]],
    knots: Iterable[TorusKnot],
) -> Iterator[Iterable[str]]:
    """The texts of the slices of `knots`, in order, from `_in_processes`:
    slice [lo, hi) is the job `job(first hi knots, lo)`, the text of the
    knots from position lo on, which may read the ones before it.

    With one process the knots stream unlisted into one job, `job(knots,
    0)`.  Otherwise they are listed once and cut by `_cut` into equal
    slices; a later slice's job may first walk the knots before it."""
    most = _processes()
    if most == 1:
        return _in_processes([functools.partial(job, knots, 0)])
    knots = list(knots)
    cuts = itertools.pairwise(_cut(len(knots), most))
    return _in_processes([functools.partial(job, itertools.islice(knots, b), a) for a, b in cuts])


def _cut(size: int, most: int) -> list[int]:
    """The bounds 0 = b_0 < ... < b_n = size of n = min(most, ceil(size /
    _MIN_SLICE)) contiguous slices of `size` knots (one empty slice of
    none): equal slices, of lengths that differ by at most one knot."""
    n = max(1, min(most, -(-size // _MIN_SLICE)))
    return [size * i // n for i in range(n + 1)]


def _in_processes(jobs: list[Callable[[], Iterable[str]]]) -> Iterator[Iterable[str]]:
    """The text of each of `jobs`, in order, as the chunks it yields; each
    text must be read whole before the next is asked for.

    At the first read a child is forked for each job but the first, in
    order, each writing its text to a temporary file (`_fork_job`); this
    process runs the first job and every job it could not fork a child
    for.  It yields the first job's chunks as they come, then copies out
    each child's file in order, in chunks of at most _COPY_CHUNK, once it
    has reaped that child.  A child that exits with a nonzero status
    raises RuntimeError.  On every early exit, an exception, a closed pipe
    or this generator closed, the `finally` kills and reaps each child not
    yet reaped, so none outlives the command."""
    children: list[tuple[int, TextIO]] = []  # (pid, its file), not yet reaped
    try:
        for job in jobs[1:]:
            child = _fork_job(job)
            if child is None:
                break
            children.append(child)
        rest = jobs[len(children) + 1 :]
        yield jobs[0]()
        while children:
            pid, text = children[0]
            status = os.waitpid(pid, 0)[1]
            del children[0]
            with text:
                if status:
                    code = os.waitstatus_to_exitcode(status)
                    raise RuntimeError(f"the process of a slice exited with code {code}")
                text.seek(0)
                yield iter(functools.partial(text.read, _COPY_CHUNK), "")
        for job in rest:
            yield job()
    finally:
        for pid, text in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            text.close()


def _fork_job(job: Callable[[], Iterable[str]]) -> Optional[tuple[int, TextIO]]:
    """Fork a child that writes the text of `job()` to a new anonymous
    temporary file, and return its pid and that file, or None, with
    nothing left open, if no file could be made or no child forked.

    The child writes the chunks as they are yielded, so it holds no more
    than a buffer of its text, and leaves through `os._exit`: it never
    returns into the caller nor flushes the stdio it inherited."""
    try:
        text = tempfile.TemporaryFile("w+", encoding="utf-8")
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        text.close()
        return None
    if pid == 0:
        status = 1
        try:
            text.writelines(job())
            text.flush()
            status = 0
        except Exception:
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(status)
    return pid, text


def _cmd_verify(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    """The verify report of the box, checked a slice at a time by
    `_in_slices` in equal slices; a later slice first walks the knots
    before it.  Each slice's outcomes come back as JSON and are merged
    into those of one pass."""
    # a bound below 3 is left to the checks, which refuse it as such
    _refuse_large_box(f"verify --max {args.max}", max(args.max, 0) ** 2)
    job = functools.partial(_slice_json, args.max)
    with contextlib.closing(_in_slices(job, normalized_knots(args.max))) as texts:
        outcomes = _merge([list(map(_outcome_of, json.loads("".join(text)))) for text in texts])
    code = 0 if all(outcome.passed for outcome in outcomes) else 1
    if args.format == "json":
        return code, [_json_text([_outcome_dict(outcome) for outcome in outcomes])]
    return code, [_verify_human(outcomes)]


def _slice_json(bound: int, knots: Iterable[TorusKnot], lo: int) -> list[str]:
    """The JSON text of the outcomes of `knots`, the first knots of the
    `verify --max bound` box, from position lo on."""
    return [json.dumps([_outcome_dict(outcome) for outcome in _run_slice(bound, knots, lo)])]


_LONG_NUMBER = re.compile(r"\d{61,}")


def _shorten(message: str) -> str:
    """`message` with each run of more than 60 digits written as `<N
    digits>`, so that a huge knot keeps an `error:` line short."""
    return _LONG_NUMBER.sub(lambda digits: f"<{len(digits[0])} digits>", message)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose `error:` line is shortened by `_shorten`.
    Its subcommand parsers are of this class too."""

    def error(self, message: str) -> NoReturn:
        super().error(_shorten(message))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call of a process.

    Parsing reads the parser without changing it, so one serves every call.
    """
    parser = _Parser(
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
    chunks, which may be lazy; only this function writes them, and it
    closes a generator of them however the writing ends, so that a table
    reaps its child processes before this function returns."""
    args = _build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        code, chunks = args.handler(args)
        try:
            if out is None:
                sys.stdout.writelines(chunks)
            else:
                with open(out, "w", encoding="utf-8") as fh:
                    fh.writelines(chunks)
        finally:
            if isinstance(chunks, types.GeneratorType):
                chunks.close()
    except CrosscapError as exc:
        print("error: " + _shorten(str(exc)), file=sys.stderr)
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
