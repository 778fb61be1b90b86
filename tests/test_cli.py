"""CLI behaviour: output schemas, filters, exit codes, round-trips."""

import argparse
import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscap import cf, cli, genus, verify
from crosscap import knot as knot_module
from crosscap.cli import CSV_COLUMNS, MAX_BOX, MAX_STEPS, main
from crosscap.genus import (
    crosscap_by_splitting,
    crosscap_number,
    pinches_to_unknot,
    pinches_to_zero,
)
from crosscap.knot import (
    PinchTrace,
    StopRule,
    TorusKnot,
    normalized_knots,
    pinch_sequence,
)
from crosscap.verify import CheckOutcome, Counterexample
from oracles import (
    REPORT_COLUMNS,
    crosscap_knot,
    oracle_sequence,
    report_dict,
    report_row,
    trace_row,
)
from strategies import knots_of_long_expansions


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_json_golden(capsys):
    code, out, err = run_cli(capsys, "report", "4", "3", "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "knot": {"p": 4, "q": 3},
        "k": 1,
        "a": 1,
        "ell": 2,
        "beta1_F": 1,
        "gamma3": 2,
        "gamma4": {
            "lower": 1,
            "upper": 1,
            "exact": 1,
            "provenance": "all-positive-pinches",
        },
        "gap_lower_bound": {"num": 1, "den": 2},
        "orientable_genus": 3,
        "trace": [{"from": [4, 3], "to": [2, 1], "t": 1, "h": 1, "sign": "positive"}],
    }
    # serialization is stable: parsing and re-dumping reproduces the bytes
    assert cli._json_text(json.loads(out)) == out


def test_report_normalizes_input(capsys):
    code, out, _ = run_cli(capsys, "report", "7", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["knot"] == {"p": 4, "q": 7}
    assert payload["k"] == 0
    assert payload["ell"] == 0
    assert payload["beta1_F"] == 2
    assert payload["gamma3"] == 2
    assert payload["gap_lower_bound"] == {"num": 0, "den": 1}


def test_report_csv(capsys):
    code, out, _ = run_cli(capsys, "report", "4", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "4,3,1,1,2,1,2,1,1,1,all-positive-pinches,1,2,3"


def test_report_human_mentions_everything(capsys):
    code, out, _ = run_cli(capsys, "report", "5", "3")
    assert code == 0
    assert out.startswith("T(5,3)\n")
    for needle in ("gamma3", "gamma4", "beta1_F", "split", "T(2,1) + T(2,3)", "pinch trace"):
        assert needle in out


def test_report_empty_exact_field(capsys):
    code, out, _ = run_cli(capsys, "report", "10", "7", "--format", "csv")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("gamma4_exact")] == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("report", "6", "4"),
        ("report", "5", "1"),
        ("report", "1", "1"),
        ("report", "-3", "5"),
        ("report", "4", "-3"),
        ("trace", "-3", "5"),
        ("trace", "1", "1"),
        ("trace", "5", "3", "--stop", "zero"),
    ],
)
def test_report_rejects_bad_knots(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_trace_first_unknot(capsys):
    code, out, _ = run_cli(capsys, "trace", "7", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0] == "T(4,7) -> T(2,3)   t=1 h=2 sign=positive   [0,1,1,3] -> [0,1,2]"
    assert lines[1] == "T(2,3) -> T(0,1)   t=1 h=2 sign=negative   [0,1,2] -> [0]"


def test_trace_expands_each_knot_once(monkeypatch, capsys):
    calls = []
    real_expand = cf.expand
    monkeypatch.setattr(cf, "expand", lambda x: calls.append(x) or real_expand(x))
    code, out, _ = run_cli(capsys, "trace", "200", "199")
    assert code == 0
    records = out.splitlines()
    assert len(records) == 99
    # the knot is expanded once; every later expansion is read from its runs
    assert len(calls) == 1


def test_trace_lines_step_as_euclid_expands():
    # the two expansions a line prints, each stepped from the one before, are
    # the ones Euclid's algorithm gives for its record's source and result
    for knot in normalized_knots(40):
        stops = [StopRule.FIRST_UNKNOT] + ([StopRule.ZERO] if knot.p % 2 == 0 else [])
        for stop in stops:
            trace = PinchTrace(knot, stop)
            lines = "".join(cli._trace_lines(trace, "")).splitlines()
            assert len(lines) == trace.moves
            for line, record in zip(lines, pinch_sequence(knot, stop)):
                before, after = (cf.expand((x.p, x.q)) for x in (record.source, record.result))
                assert line.endswith(f"   {before} -> {after}")


def oracle_trace_lines(trace):
    """Test oracle for `cli._trace_lines`: one `cf.step` per move, from the
    expansion the trace holds, and `str()` of each knot and expansion.  So
    the expansions come from the stepwise walk, not from the trace's runs.
    """
    after = trace.expansion
    for record in pinch_sequence(trace.knot, trace.stop):
        before, after = after, cf.step(after)
        sign = record.sign.name.lower() if record.sign is not None else "n/a"
        yield (
            f"{record.source} -> {record.result}"
            f"   t={record.witness.t} h={record.witness.h} sign={sign}"
            f"   {before} -> {after}"
        )


def assert_trace_lines_match_oracle(knot):
    # the chunks of `_trace_lines` join to the oracle's lines, each led by
    # the indent and ended by a newline
    stops = [StopRule.FIRST_UNKNOT] + ([StopRule.ZERO] if knot.p % 2 == 0 else [])
    for stop in stops:
        trace = PinchTrace(knot, stop)
        for indent in ("", "    "):
            expected = "".join(f"{indent}{line}\n" for line in oracle_trace_lines(trace))
            assert "".join(cli._trace_lines(trace, indent)) == expected


def test_trace_lines_match_the_step_oracle_on_the_box():
    for knot in normalized_knots(60):
        assert_trace_lines_match_oracle(knot)


@settings(max_examples=300)
@given(knots_of_long_expansions())
def test_trace_lines_match_the_step_oracle_large(knot):
    assert_trace_lines_match_oracle(knot)


def test_trace_takes_no_step(monkeypatch, capsys):
    trace = PinchTrace(TorusKnot(2000, 1999), StopRule.FIRST_UNKNOT)
    expected = "".join(line + "\n" for line in oracle_trace_lines(trace))
    forbid_steps(monkeypatch)
    assert run_cli(capsys, "trace", "2000", "1999") == (0, expected, "")


class LoggingSink:
    """A stdout that records each write in a shared event list."""

    def __init__(self, events):
        self.events = events

    def write(self, text):
        self.events.append("write")

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


# T(7804,6003) = [1,3,3,600] pinches 300 times and then once more, two
# segments, to its first unknot; its walk to T(0,1) ends on the one move from
# T(2,1).  So on each walk the last segment is one move, and the trace is
# more than one block long.
@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "7804", "6003"),
        ("trace", "7804", "6003", "--stop", "zero"),
        ("report", "7804", "6003"),
        ("report", "7804", "6003", "--format", "json"),
    ],
)
def test_trace_writes_before_the_last_record(monkeypatch, argv):
    events = []
    moves = []
    segments = PinchTrace.segments

    def logged(self):
        for segment in segments(self):
            events.append("segment")
            moves.append(segment[0])
            yield segment

    monkeypatch.setattr(PinchTrace, "segments", logged)
    monkeypatch.setattr(sys, "stdout", LoggingSink(events))
    assert main(list(argv)) == 0
    # a write per chunk of at most _BLOCK trace lines (JSON trace rows) of
    # one segment, after the report's invariants, and in JSON the closing
    # brackets of the trace and of the report last; every chunk but the
    # last is on its way out before the last segment is walked
    blocks = sum(-(-n // cli._BLOCK) for n in moves)
    head = argv[0] == "report"
    closing = 2 if "json" in argv else 0
    last = len(events) - 1 - events[::-1].index("segment")
    assert blocks > 1 and moves[-1] == 1
    assert events.count("write") == head + blocks + closing
    assert events[:last].count("write") == head + blocks - 1


class ChunkSink:
    """A stdout that keeps each chunk written to it."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "2000", "1999"),
        ("report", "2000", "1999"),
        ("report", "2000", "1999", "--format", "json"),
    ],
)
def test_trace_text_goes_out_in_blocks(monkeypatch, capsys, argv):
    # T(2000,1999) = [1,1999] pinches 999 times in one segment, which goes
    # out in four chunks of at most 256 trace lines (JSON trace rows); a
    # report's invariants and closing brackets are chunks of their own
    code, expected, _ = run_cli(capsys, *argv)
    sink = ChunkSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(list(argv)) == code == 0
    assert "".join(sink.chunks) == expected
    marker = '"from"' if "json" in argv else " -> T("  # once per move
    moves = [chunk.count(marker) for chunk in sink.chunks]
    assert cli._BLOCK == 256
    if "json" not in argv:
        assert max(chunk.count("\n") for chunk in sink.chunks) <= 256
    assert max(moves) <= 256
    assert len([n for n in moves if n]) >= 4
    assert sum(moves) == 999


def test_streamed_json_report_is_one_dump():
    # the chunks of a JSON report join to the text of one `json.dumps` of
    # the whole report, whatever the length of its trace
    for knot in normalized_knots(40):
        report = cli.genus_report(knot)
        expected = cli._json_text(report_dict(report))
        assert "".join(cli._report_json(report)) == expected
    for items in ([], [1], [{"a": [1, 2]}, None, "b"]):
        texts = [json.dumps(item, indent=2).replace("\n", "\n    ") for item in items]
        nested = '{\n  "x": ' + "".join(cli._json_list(texts, "  ")) + "\n}"
        assert nested == json.dumps({"x": items}, indent=2)


def test_table_json_is_one_dump_of_the_report_oracle(capsys):
    # each report of a JSON table, trace rows included, reads as the report
    # oracle does inside one `json.dumps` of the whole list
    reports = map(cli.genus_report, normalized_knots(30))
    expected = json.dumps([report_dict(report) for report in reports], indent=2) + "\n"
    assert run_cli(capsys, "table", "--pmax", "30", "--qmax", "30", "--format", "json") == (
        0,
        expected,
        "",
    )


def assert_trace_rows_match_the_oracle(knot):
    # the f-string row at each nesting depth is the encoder's text of the
    # oracle row, unsigned moves of a ZERO walk's unknot tail included
    stops = [StopRule.FIRST_UNKNOT] + ([StopRule.ZERO] if knot.p % 2 == 0 else [])
    for stop in stops:
        trace = PinchTrace(knot, stop)
        rows = [trace_row(record) for record in pinch_sequence(knot, stop)]
        for indent in ("", "  ", "      "):
            text = "".join(cli._json_list(cli._trace_rows_json(trace, indent), indent))
            assert text == json.dumps(rows, indent=2).replace("\n", "\n" + indent)


def test_trace_rows_json_match_the_oracle_on_the_box():
    for knot in normalized_knots(40):
        assert_trace_rows_match_the_oracle(knot)


@settings(max_examples=100)
@given(knots_of_long_expansions())
def test_trace_rows_json_match_the_oracle_large(knot):
    assert_trace_rows_match_the_oracle(knot)


# Walks with a stepping run longer than a block of `_BLOCK` (256) moves, so a
# block starts inside the run with the knot, expansion and witness of its
# move, not of the run's first.
@pytest.mark.parametrize(
    "p, q",
    [
        (1201, 601),  # [1,1,600]: one negative run of 300 moves, odd p
        (1802, 601),  # [2,1,600]: 300 negative moves, even p, both stop rules
        (2000, 3),  # under ZERO, an unknot tail of 332 unsigned moves, dq = dh = 0
    ],
)
def test_a_block_inside_a_stepping_run_matches_the_oracle(p, q):
    knot = TorusKnot(p, q)
    assert_trace_lines_match_oracle(knot)
    assert_trace_rows_match_the_oracle(knot)


def test_trace_rows_match_the_records_on_the_box():
    for knot in normalized_knots(60):
        stops = [StopRule.FIRST_UNKNOT] + ([StopRule.ZERO] if knot.p % 2 == 0 else [])
        for stop in stops:
            rows = [trace_row(record) for record in pinch_sequence(knot, stop)]
            assert rows == [trace_row(record) for record in oracle_sequence(knot, stop)]


def test_trace_is_bounded_by_its_exact_length(monkeypatch, capsys):
    # T(16,15) = [1,15] pinches 7 times, counted by its trace before any step
    monkeypatch.setattr(cli, "MAX_STEPS", 7)
    code, out, _ = run_cli(capsys, "trace", "16", "15")
    assert code == 0 and len(out.splitlines()) == 7
    monkeypatch.setattr(cli, "MAX_STEPS", 6)
    forbid_steps(monkeypatch)
    code, out, err = run_cli(capsys, "trace", "16", "15")
    assert code == 2 and out == ""
    assert err == "error: T(16,15) takes 7 pinch moves; report and trace stop at 6\n"


def test_trace_zero_stop_even(capsys):
    code, out, _ = run_cli(capsys, "trace", "4", "1", "--stop", "zero")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert "sign=n/a" in lines[0]
    assert "T(0,1)" in lines[1]


def test_trace_zero_stop_odd_p_rejected(capsys):
    code, _, err = run_cli(capsys, "trace", "5", "3", "--stop", "zero")
    assert code == 2
    assert err.startswith("error:")


def test_trace_unknot_rejected(capsys):
    code, _, err = run_cli(capsys, "trace", "3", "1")
    assert code == 2
    assert err.startswith("error:")


def test_table_formats_read_one_field_table(capsys):
    # every format writes each report's values as the oracles read them off
    # the report's attributes
    argv = ("table", "--pmax", "40", "--qmax", "39")
    _, csv_out, _ = run_cli(capsys, *argv)
    _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    _, human_out, _ = run_cli(capsys, *argv, "--format", "human")
    reports = list(map(genus.genus_report, normalized_knots(40, 39)))
    header, *rows = list(csv.reader(io.StringIO(csv_out)))
    payloads = json.loads(json_out)
    upper, *human_lines = human_out.splitlines()
    # cells are right-aligned, so each ends where its column name ends
    ends = [match.end() for match in re.finditer(r"\S+", upper)]
    assert header == CSV_COLUMNS == [column for column, _ in REPORT_COLUMNS]
    assert len(rows) == len(payloads) == len(human_lines) == len(reports) > 300
    for row, payload, line, report in zip(rows, payloads, human_lines, reports):
        human = [line[start:end].strip() for start, end in zip([0, *ends], ends)]
        assert human == row == ["" if value is None else str(value) for value in report_row(report)]
        assert payload == report_dict(report)
        assert len(payload["trace"]) == payload["beta1_F"] > 0


def test_table_header_only_when_range_is_empty(capsys):
    code, out, _ = run_cli(capsys, "table", "--pmax", "3", "--qmax", "2")
    assert code == 0
    assert out == ",".join(CSV_COLUMNS) + "\n"


@pytest.mark.parametrize(
    "fmt, expected", [("json", "[]\n"), ("human", "  ".join(CSV_COLUMNS) + "\n")]
)
def test_table_empty_range_json_and_human(capsys, fmt, expected):
    code, out, _ = run_cli(capsys, "table", "--pmax", "3", "--qmax", "2", "--format", fmt)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_writes_before_the_last_report(monkeypatch, fmt):
    events = []
    build = cli.genus_report

    def logged(knot):
        events.append("report")
        return build(knot)

    monkeypatch.setattr(cli, "genus_report", logged)
    monkeypatch.setattr(sys, "stdout", LoggingSink(events))
    assert main(["table", "--pmax", "8", "--qmax", "7", "--format", fmt]) == 0
    # every report but the last is on its way out before the last is built
    last = len(events) - 1 - events[::-1].index("report")
    assert events.count("report") > 2
    assert events[:last].count("write") >= events.count("report") - 1


def test_table_rejects_degenerate_bounds(capsys):
    code, _, err = run_cli(capsys, "table", "--pmax", "1", "--qmax", "9")
    assert code == 2
    assert err.startswith("error:")


def test_table_batson_filter(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--pmax", "20", "--qmax", "19", "--filter", "batson"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(int(r["p"]), int(r["q"])) for r in rows] == [
        (2 * k, 2 * k - 1) for k in range(2, 11)
    ]
    for row in rows:
        half = int(row["p"]) // 2
        assert int(row["gamma3"]) == half
        assert int(row["gamma4_exact"]) == half - 1


def test_table_family_filter(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--pmax", "16", "--qmax", "5", "--filter", "family-km1"
    )
    assert code == 0
    rows = {(int(r["p"]), int(r["q"])): r for r in csv.DictReader(io.StringIO(out))}
    assert (16, 5) in rows
    assert int(rows[(16, 5)]["beta1_F"]) == 2
    assert int(rows[(16, 5)]["gamma3"]) == 4
    for (p, q) in rows:
        assert p % q == 1 and ((p - 1) // q) % 2 == 1


def test_table_even_odd_filters_partition(capsys):
    _, everything, _ = run_cli(capsys, "table", "--pmax", "12", "--qmax", "12")
    _, even, _ = run_cli(capsys, "table", "--pmax", "12", "--qmax", "12", "--filter", "even")
    _, odd, _ = run_cli(capsys, "table", "--pmax", "12", "--qmax", "12", "--filter", "odd")
    all_rows = everything.splitlines()[1:]
    even_rows = even.splitlines()[1:]
    odd_rows = odd.splitlines()[1:]
    assert sorted(even_rows + odd_rows) == sorted(all_rows)
    assert all(int(r.split(",")[0]) % 2 == 0 for r in even_rows)
    assert all(int(r.split(",")[0]) % 2 == 1 for r in odd_rows)


def test_table_csv_round_trip(capsys):
    _, out, _ = run_cli(capsys, "table", "--pmax", "10", "--qmax", "9")
    parsed = list(csv.reader(io.StringIO(out)))
    assert parsed[0] == CSV_COLUMNS
    assert "".join(",".join(row) + "\n" for row in parsed) == out


def csv_module_text(rows):
    sink = io.StringIO()
    csv.writer(sink, lineterminator="\n").writerows(rows)
    return sink.getvalue()


def test_csv_output_is_what_the_csv_module_writes(capsys):
    # CSV lines are the cells joined by commas, with nothing quoted: that is
    # what `csv.writer` writes for the same field values as long as no column
    # name or provenance label holds a character it would quote
    labels = [genus.EXACT_BY_POSITIVE_PINCHES, genus.EXACT_BY_COLLAPSE, genus.EXACT_UNKNOWN]
    for text in CSV_COLUMNS + labels:
        assert not set(text) & set(',"\r\n'), text
    reports = list(map(genus.genus_report, normalized_knots(150, 149)))
    assert {report.gamma4.provenance for report in reports} == set(labels)
    _, out, _ = run_cli(capsys, "table", "--pmax", "150", "--qmax", "149")
    assert out == csv_module_text([CSV_COLUMNS, *map(report_row, reports)])
    for p, q in [(4, 3), (2000, 1999), (12346, 7), (9, 7), (23, 21), (12345, 7)]:
        assert_csv_report_is_what_the_csv_module_writes(TorusKnot(p, q))


def assert_csv_report_is_what_the_csv_module_writes(knot):
    report = genus.genus_report(knot)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = main(["report", str(knot.p), str(knot.q), "--format", "csv"])
    assert (code, sink.getvalue()) == (0, csv_module_text([CSV_COLUMNS, report_row(report)]))


@settings(max_examples=100, deadline=None)
@given(knots_of_long_expansions(), st.integers(min_value=10**99, max_value=10**100))
def test_csv_report_is_what_the_csv_module_writes_large(knot, shift):
    # an odd p moves by 2*shift*q to 100 digits, which keeps it odd and
    # coprime to q; its CSV report steps nothing.  An even p keeps the drawn
    # knot, of up to about 30 digits, whose gamma3 walk the report steps.
    if knot.p % 2:
        knot = TorusKnot(knot.p + 2 * shift * knot.q, knot.q)
        assert len(str(knot.p)) >= 100
    assert_csv_report_is_what_the_csv_module_writes(knot)


def test_table_json_round_trip(capsys):
    _, out, _ = run_cli(
        capsys, "table", "--pmax", "10", "--qmax", "9", "--format", "json"
    )
    payload = json.loads(out)
    assert len(payload) == len(
        run_cli(capsys, "table", "--pmax", "10", "--qmax", "9")[1].splitlines()
    ) - 1
    assert cli._json_text(payload) == out


def test_table_out_file_matches_stdout(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "table", "--pmax", "8", "--qmax", "7")
    target = tmp_path / "table.csv"
    code, silent, _ = run_cli(capsys, "table", "--pmax", "8", "--qmax", "7", "--out", str(target))
    assert code == 0
    assert silent == ""
    assert target.read_text(encoding="utf-8") == out


def test_table_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "table.csv"
    code, out, err = run_cli(capsys, "table", "--pmax", "10", "--qmax", "5", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert not target.exists()


def test_table_human_is_aligned(capsys):
    _, out, _ = run_cli(capsys, "table", "--pmax", "8", "--qmax", "7", "--format", "human")
    upper, *rest = out.splitlines()
    assert upper.split() == CSV_COLUMNS
    assert all(len(line) == len(upper) for line in rest)


def split_tables(monkeypatch, cpus):
    """Make a table or a verify box take one slice per knot, up to `cpus`
    slices, and copy a child's text out 7 characters at a time, so that
    chunks cut lines anywhere; return the list that records each `os.fork`
    call this process makes."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_MIN_SLICE", 1)
    monkeypatch.setattr(cli, "_COPY_CHUNK", 7)
    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "min_slice, children", [(14, 0), (100, 0), (13, 1), (7, 1), (6, 2), (1, 2)]
)
def test_a_table_takes_a_slice_per_cpu_and_per_minimum_slice(
    monkeypatch, capsys, min_slice, children
):
    # the 8 box holds 14 knots: ceil(14 / min_slice) slices, at most 3 CPUs
    argv = ("table", "--pmax", "8", "--qmax", "7")
    expected = run_cli(capsys, *argv)
    forks = split_tables(monkeypatch, 3)
    monkeypatch.setattr(cli, "_MIN_SLICE", min_slice)
    assert run_cli(capsys, *argv) == expected
    assert len(forks) == children
    assert_no_child_left()


def test_a_table_without_fork_renders_in_one_process(monkeypatch, capsys):
    argv = ("table", "--pmax", "40", "--qmax", "39", "--format", "json")
    expected = run_cli(capsys, *argv)
    split_tables(monkeypatch, 3)
    monkeypatch.delattr(os, "fork")
    assert run_cli(capsys, *argv) == expected


def open_fds():
    return len(os.listdir("/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"))


@pytest.mark.parametrize("failing", [1, 2])
def test_a_fork_that_fails_leaves_its_slices_to_this_process(monkeypatch, capsys, failing):
    # fork number `failing` raises, as on EAGAIN; its slice and those after
    # it are rendered here, in order, and its temporary file is closed
    argv = ("table", "--pmax", "40", "--qmax", "39", "--format", "json")
    expected = run_cli(capsys, *argv)
    fork = os.fork
    forks = split_tables(monkeypatch, 3)

    def fails():
        if len(forks) == failing - 1:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", fails)
    fds = open_fds()
    assert run_cli(capsys, *argv) == expected
    assert len(forks) == failing - 1
    assert open_fds() == fds
    assert_no_child_left()


TABLES = [
    ("table", "--pmax", pmax, "--qmax", qmax, "--filter", keep, "--format", fmt)
    for pmax, qmax in (("40", "39"), ("3", "2"))
    for keep in ("all", "even")
    for fmt in ("csv", "json", "human")
]


@pytest.mark.parametrize("argv", TABLES, ids=" ".join)
def test_a_table_split_across_processes_is_byte_identical(monkeypatch, capsys, argv):
    code, expected, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    empty = argv[2] == "3"
    forks = split_tables(monkeypatch, 1)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        forks.clear()
        assert run_cli(capsys, *argv) == (0, expected, "")
        assert len(forks) == (0 if empty else cpus - 1)
        assert_no_child_left()


def test_a_failed_child_fails_the_table(monkeypatch, capsys):
    # T(40,39) is the last knot of the box, so a child renders it
    build = cli.genus_report

    def fails_on_the_last_knot(knot):
        if knot == TorusKnot(40, 39):
            raise ArithmeticError("planted")
        return build(knot)

    forks = split_tables(monkeypatch, 2)
    monkeypatch.setattr(cli, "genus_report", fails_on_the_last_knot)
    with pytest.raises(RuntimeError, match="exited with code 1"):
        main(["table", "--pmax", "40", "--qmax", "39"])
    assert len(forks) == 1
    assert_no_child_left()


class BreaksAfterOneChunk:
    """A stdout whose reader goes after the first chunk.  It keeps the
    chunks it was handed, as a traceback's frame can, so that only `main`
    closing them stops a table's children."""

    def __init__(self, fd):
        self.fd = fd
        self.chunks = []

    def fileno(self):
        return self.fd

    def write(self, text):
        if self.chunks:
            raise BrokenPipeError
        self.chunks.append(text)

    def writelines(self, chunks):
        self.source = chunks
        for chunk in chunks:
            self.write(chunk)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_closed_pipe_leaves_no_child(monkeypatch, fmt):
    # the children are still rendering, each held 30 s at its first knot,
    # when the reader goes: they are killed, not waited for
    parent = os.getpid()
    build = cli.genus_report
    held = []

    def slow_in_a_child(knot):
        if os.getpid() != parent and not held:
            held.append(knot)
            time.sleep(30)
        return build(knot)

    forks = split_tables(monkeypatch, 3)
    monkeypatch.setattr(cli, "genus_report", slow_in_a_child)
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        sink = BreaksAfterOneChunk(devnull)
        monkeypatch.setattr(sys, "stdout", sink)
        start = time.monotonic()
        assert main(["table", "--pmax", "40", "--qmax", "39", "--format", fmt]) == 0
        assert time.monotonic() - start < 10
    finally:
        os.close(devnull)
    assert len(sink.chunks) == 1 and len(forks) == 2
    assert_no_child_left()


def test_a_table_forks_nothing_while_another_thread_runs(monkeypatch, capsys):
    argv = ("table", "--pmax", "40", "--qmax", "39")
    expected = run_cli(capsys, *argv)
    forks = split_tables(monkeypatch, 3)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert run_cli(capsys, *argv) == expected
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


def test_an_unwritable_out_forks_nothing(monkeypatch, tmp_path, capsys):
    forks = split_tables(monkeypatch, 3)
    target = tmp_path / "missing" / "table.csv"
    code, _, err = run_cli(capsys, "table", "--pmax", "40", "--qmax", "39", "--out", str(target))
    assert (code, forks) == (2, [])
    assert err.startswith(f"error: cannot write {target}")


VERIFIES = [("verify", "--max", "60"), ("verify", "--max", "60", "--format", "json")]


@pytest.mark.parametrize("argv", VERIFIES, ids=" ".join)
def test_a_verify_split_across_processes_is_byte_identical(monkeypatch, capsys, argv):
    forks = split_tables(monkeypatch, 1)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        forks.clear()
        code, out, err = run_cli(capsys, *argv)
        assert (code, err, len(forks)) == (0, "", cpus - 1)
        assert hashlib.sha256(out.encode()).hexdigest() == dict(GOLDEN_SHA256)[argv]
        assert_no_child_left()


@pytest.mark.parametrize(
    "min_slice, children", [(22, 0), (100, 0), (21, 1), (11, 1), (8, 2), (1, 2)]
)
def test_a_verify_takes_a_slice_per_cpu_and_per_minimum_slice(
    monkeypatch, capsys, min_slice, children
):
    # the 10 box holds 22 knots: ceil(22 / min_slice) slices, at most 3 CPUs
    expected = run_cli(capsys, "verify", "--max", "10")
    forks = split_tables(monkeypatch, 3)
    monkeypatch.setattr(cli, "_MIN_SLICE", min_slice)
    assert run_cli(capsys, "verify", "--max", "10") == expected
    assert len(forks) == children
    assert_no_child_left()


def every_pinch_fails(monkeypatch):
    # every knot "pinches" to itself by the step route: more than
    # MAX_COUNTEREXAMPLES failures in each slice
    monkeypatch.setattr(cf, "step", lambda expansion: expansion)


def gamma3_fails_at_multiples_of_7(monkeypatch):
    # a few failures of two checks in every slice
    gamma3 = verify._gamma3
    monkeypatch.setattr(verify, "_gamma3", lambda p, coeffs: gamma3(p, coeffs) + (p % 7 == 0))


@pytest.mark.parametrize("mutate", [every_pinch_fails, gamma3_fails_at_multiples_of_7])
@pytest.mark.parametrize("fmt", ["human", "json"])
def test_a_failing_verify_prints_the_same_bytes_in_any_split(monkeypatch, capsys, mutate, fmt):
    argv = ("verify", "--max", "60", "--format", fmt)
    mutate(monkeypatch)
    forks = split_tables(monkeypatch, 1)
    expected = run_cli(capsys, *argv)  # one process: run_all
    assert expected[0] == 1 and forks == []
    for cpus in (2, 3):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        forks.clear()
        assert run_cli(capsys, *argv) == expected
        assert len(forks) == cpus - 1
        assert_no_child_left()


def test_a_failed_child_fails_the_verify(monkeypatch, capsys):
    # T(60,59) is the last knot of the box, so a child checks it
    real = verify.pinch

    def fails_on_the_last_knot(knot):
        if knot == TorusKnot(60, 59):
            raise ArithmeticError("planted")
        return real(knot)

    forks = split_tables(monkeypatch, 2)
    monkeypatch.setattr(verify, "pinch", fails_on_the_last_knot)
    with pytest.raises(RuntimeError, match="exited with code 1"):
        main(["verify", "--max", "60"])
    assert len(forks) == 1
    assert_no_child_left()


def test_a_verify_that_fails_here_leaves_no_child(monkeypatch, capsys):
    # T(2,3) is the first knot of the box: this process's slice raises
    # while the two children run, and they are killed and reaped
    real = verify.pinch

    def fails_on_the_first_knot(knot):
        if knot == TorusKnot(2, 3):
            raise ArithmeticError("planted")
        return real(knot)

    forks = split_tables(monkeypatch, 3)
    monkeypatch.setattr(verify, "pinch", fails_on_the_first_knot)
    with pytest.raises(ArithmeticError, match="planted"):
        main(["verify", "--max", "60"])
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("failing", [1, 2])
def test_a_verify_fork_that_fails_leaves_its_slices_to_this_process(
    monkeypatch, capsys, failing
):
    # fork number `failing` raises, as on EAGAIN; its slice and those after
    # it are checked here, and its temporary file is closed
    argv = ("verify", "--max", "60", "--format", "json")
    expected = run_cli(capsys, *argv)
    fork = os.fork
    forks = split_tables(monkeypatch, 3)

    def fails():
        if len(forks) == failing - 1:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", fails)
    fds = open_fds()
    assert run_cli(capsys, *argv) == expected
    assert len(forks) == failing - 1
    assert open_fds() == fds
    assert_no_child_left()


def test_a_verify_forks_nothing_while_another_thread_runs(monkeypatch, capsys):
    argv = ("verify", "--max", "60")
    expected = run_cli(capsys, *argv)
    forks = split_tables(monkeypatch, 3)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert run_cli(capsys, *argv) == expected
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert_no_child_left()


def test_verify_human_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max", "10")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all("PASS" in line for line in lines)
    assert any("pinch-equivalence" in line and "cases=22" in line for line in lines)


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 7
    assert all(entry["passed"] for entry in payload)
    assert all(entry["counterexamples"] == [] for entry in payload)


def test_verify_rejects_tiny_bound(capsys):
    code, out, err = run_cli(capsys, "verify", "--max", "2")
    assert (code, out) == (2, "")
    assert err == "error: verify bound must be at least 3: 2\n"


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    broken = CheckOutcome(
        "demo",
        "synthetic",
        cases_checked=3,
        counterexamples=[Counterexample("T(9,9)", "left", "right")],
        failures_total=1,
    )
    monkeypatch.setattr(cli, "_run_slice", lambda bound, knots, lo: [broken])
    code, out, _ = run_cli(capsys, "verify", "--max", "10")
    assert code == 1
    assert "FAIL (1 failures)" in out
    assert "counterexample: T(9,9)  expected left, got right" in out


def test_bad_arguments_exit_via_argparse():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["report", "4", "3", "--format", "yaml"])


def fresh_env():
    """The environment of a new process that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def run_fresh(*argv):
    """(exit code, stdout, stderr) of `python -m crosscap argv` in a new process."""
    result = subprocess.run(
        [sys.executable, "-m", "crosscap", *argv], capture_output=True, text=True, env=fresh_env()
    )
    return result.returncode, result.stdout, result.stderr


def test_module_entry_point():
    code, out, _ = run_fresh("report", "4", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == ",".join(CSV_COLUMNS)


@pytest.mark.parametrize(
    "argv", [("table", "--pmax", "150", "--qmax", "149"), ("trace", "200000", "199999")]
)
def test_a_closed_pipe_ends_the_command_quietly(argv):
    # both outputs are far larger than a pipe holds, so the command is still
    # writing when its reader goes, as under `| head -1`
    proc = subprocess.Popen(
        [sys.executable, "-m", "crosscap", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=fresh_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert first
    assert (proc.returncode, err) == (0, b"")


# Five `main` calls whose stdout raises BrokenPipeError, as a pipe with no
# reader does.  They run in a new process, so that pointing stdout at the null
# device leaves pytest's capture alone.
CLOSED_PIPE_CALLS = """
import json, os, sys
from crosscap.cli import main

class ClosedPipe:
    def __init__(self):
        self.fd = os.open(os.devnull, os.O_WRONLY)

    def fileno(self):
        return self.fd

    def write(self, text):
        raise BrokenPipeError

    def writelines(self, chunks):
        raise BrokenPipeError

def lowest_free_descriptor():
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd

sys.stdout = ClosedPipe()
before = lowest_free_descriptor()
codes = [main(["report", "4", "3"]) for _ in range(5)]
after = lowest_free_descriptor()
sys.stdout = sys.__stdout__
print(json.dumps([codes, before, after]))
"""


def test_a_closed_pipe_leaks_no_descriptor():
    result = subprocess.run(
        [sys.executable, "-c", CLOSED_PIPE_CALLS], capture_output=True, text=True, env=fresh_env()
    )
    assert (result.returncode, result.stderr) == (0, "")
    codes, before, after = json.loads(result.stdout)
    assert codes == [0] * 5
    assert after == before


def test_one_parser_serves_every_call(capsys):
    commands = [
        ("report", "16", "5"),
        ("table", "--pmax", "12", "--qmax", "11", "--format", "json"),
        ("verify", "--max", "12"),
        ("trace", "40", "13", "--stop", "zero"),
    ]
    bad = ("report", "4", "3", "--format", "yaml")
    expected = {argv: run_fresh(*argv) for argv in [*commands, bad]}
    assert expected[bad][0] == 2 and expected[bad][1] == ""
    cli._build_parser.cache_clear()
    for _ in range(2):
        for argv in commands:
            assert run_cli(capsys, *argv) == expected[argv]
        with pytest.raises(SystemExit) as exc:
            main(list(bad))
        assert (exc.value.code, *capsys.readouterr()) == expected[bad]
    assert cli._build_parser.cache_info().misses == 1


# Byte-for-byte output of fixed commands, so that a change meant to keep the
# output identical (a speed-up, a refactor) is checked, not eyeballed.
GOLDEN_SHA256 = [
    (("verify", "--max", "60"), "38fe78d3df23d7bec1ad328e64624061c41abf5420c2a46ba8f25fe7db56eac9"),
    (
        ("verify", "--max", "60", "--format", "json"),
        "71a17e5b265f1d5cd559779906655de429f4feb119c0ba025283669a32d72246",
    ),
    # the box of the benchmark's box_verify workload
    (("verify", "--max", "150"), "a429379a73e9fcc81f5e178f46b1d3b08bd62f308ffb6415521a4cc8e7d9852b"),
    (
        ("verify", "--max", "150", "--format", "json"),
        "b7dc9b184d404a3fc4b5fba690d6703d02bbc893ad0ed4bbf4e4f419fe74a395",
    ),
    (
        ("table", "--pmax", "40", "--qmax", "39"),
        "54dd86a8bea877e0a2f8954e3d46face4fd20665d12d5ca1be2f6aac37bc063f",
    ),
    (
        ("table", "--pmax", "40", "--qmax", "39", "--format", "json"),
        "e1891bc64063f73a4737d4ea8df729270a03eb81ae7a863e66bb0e3c02997b15",
    ),
    (
        ("table", "--pmax", "40", "--qmax", "39", "--format", "human"),
        "113a914543b31eb7ce1a3a016106671f01d5c5122e554fe3c89ec70562bc267a",
    ),
    # the box of the benchmark's box_table workload
    (
        ("table", "--pmax", "150", "--qmax", "149", "--format", "csv"),
        "5d9cb9bb74007fea1d2f37ad253cff27b40fd76a7eaeaa03b78f4d39f2747717",
    ),
    (("report", "2000", "1999"), "5674b4eb6e647ee772b60e6a7acb9a19a67ca9f54012bd20d1338e283d0be0eb"),
    (
        ("report", "12345", "7", "--format", "json"),
        "614e96abd6df66fee2cd103adf605e4f0610ff5bd6b40a1e7489b3204e10f864",
    ),
    (("trace", "3001", "2998"), "d6c9e6af03f6f8b0459a0dd6171180452b1435c1aa37ecb12685ad75184579b7"),
    # a [...,a,b,0] drop, a [...,b,1] fold and an unsigned move on the unknot tail
    (
        ("trace", "292", "89", "--stop", "zero"),
        "ce342ac18a8f9a034354bdff40fb1fc8b54c7ae571144f22ed787d7124e5b59f",
    ),
    # four runs, with drops, folds and both signs in the JSON trace rows
    (
        ("report", "292", "89", "--format", "json"),
        "d363e2c31b3ba71e061cfbb93f9753454b06ba18a3b9a2941f86b77bd6a9b9be",
    ),
    # an odd p: the split line and a mixed-sign trace
    (("report", "12345", "7"), "291a97604fae373010ea5a5b2b6bb1077c6083fbb79274da8514ffab7f33530d"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_SHA256, ids=[" ".join(a) for a, _ in GOLDEN_SHA256])
def test_golden_output(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_trace_output_builds_no_per_move_object(monkeypatch, capsys):
    # trace lines and JSON trace rows are formatted from the integers of
    # `PinchTrace.segments`: no record, witness or knot text per move
    trace = PinchTrace(TorusKnot(2000, 1999), StopRule.FIRST_UNKNOT)
    expected = "".join(line + "\n" for line in oracle_trace_lines(trace))

    def fail(*_):
        raise AssertionError("a per-move object was built")

    monkeypatch.setattr(knot_module, "PinchRecord", fail)
    monkeypatch.setattr(knot_module, "PinchWitness", fail)
    monkeypatch.setattr(TorusKnot, "__str__", fail)
    assert run_cli(capsys, "trace", "2000", "1999") == (0, expected, "")
    golden = dict(GOLDEN_SHA256)
    for argv in [
        ("trace", "3001", "2998"),
        ("trace", "292", "89", "--stop", "zero"),
        ("report", "2000", "1999"),
        ("report", "12345", "7", "--format", "json"),
        ("report", "292", "89", "--format", "json"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == golden[argv]


def test_csv_and_json_never_build_a_split(monkeypatch, capsys):
    # only the human report prints the odd split, so CSV and JSON outputs
    # never read `GenusReport.split`; the human `report 12345 7` digest
    # covers the split line
    def fail(*_):
        raise AssertionError("an odd split was built")

    monkeypatch.setattr(genus, "_split", fail)
    golden = dict(GOLDEN_SHA256)
    for argv in [
        ("table", "--pmax", "40", "--qmax", "39"),
        ("table", "--pmax", "40", "--qmax", "39", "--format", "json"),
        ("report", "12345", "7", "--format", "json"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == golden[argv]
    with pytest.raises(AssertionError, match="odd split"):
        main(["report", "12345", "7"])


def test_csv_and_human_tables_build_no_trace(monkeypatch, capsys):
    # a report holds its numbers and no walk: only a JSON table, which
    # prints the trace rows, reads `GenusReport.trace`
    def fail(*_):
        raise AssertionError("a pinch trace was built")

    no_trace = type("NoTrace", (), {"__init__": fail, "_trusted": fail})
    monkeypatch.setattr(genus, "PinchTrace", no_trace)
    golden = dict(GOLDEN_SHA256)
    for argv in [
        ("table", "--pmax", "40", "--qmax", "39"),
        ("table", "--pmax", "40", "--qmax", "39", "--format", "human"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == golden[argv]
    with pytest.raises(AssertionError, match="pinch trace"):
        main(["table", "--pmax", "40", "--qmax", "39", "--format", "json"])


# report and trace refuse, before the first step, a knot with a walk of more
# than MAX_STEPS pinch moves, counted exactly: trace by the `moves` of the
# `PinchTrace` it prints, report by the library's count of the longest walk
# it runs (`crosscap_number` for even p, the report's `beta1_F`, which is
# `pinches_to_unknot`, for odd p).


def forbid_steps(monkeypatch):
    def step(_):
        raise AssertionError("cf.step was called")

    monkeypatch.setattr(cf, "step", step)


def record_refusals(monkeypatch):
    """The list of counts `_refuse_long_walks` is called with, which still
    refuses by each."""
    refusals = []
    real_refuse = cli._refuse_long_walks

    def refuse(knot, moves):
        refusals.append(moves)
        real_refuse(knot, moves)

    monkeypatch.setattr(cli, "_refuse_long_walks", refuse)
    return refusals


@pytest.mark.parametrize(
    "argv",
    [
        ("report", "100000000000000000000", "3"),
        ("report", "100000000000000000000", "3", "--format", "csv"),
        ("trace", "2000000000", "1999999999"),
        ("trace", "100000000000000000000", "1", "--stop", "zero"),
    ],
)
def test_unbounded_work_is_refused_before_any_step(monkeypatch, capsys, argv):
    forbid_steps(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: T(") and f"stop at {MAX_STEPS}" in err


@pytest.mark.parametrize("p, q", [(23, 21), (22, 3)])
def test_report_refuses_by_the_longest_walk_it_runs(monkeypatch, capsys, p, q):
    # gamma3 > beta1_F on both knots.  Odd T(23,21) counts gamma3 from runs,
    # so report runs only the printed trace, beta1_F moves long.  Even
    # T(22,3) steps gamma3 along its walk to T(0,1), gamma3 moves long.
    knot = TorusKnot(p, q)
    beta1_F, gamma3 = pinches_to_unknot(knot), crosscap_number(knot)
    assert beta1_F < gamma3
    longest = gamma3 if p % 2 == 0 else beta1_F
    monkeypatch.setattr(cli, "MAX_STEPS", longest)
    code, out, _ = run_cli(capsys, "report", str(p), str(q))
    assert code == 0 and out
    monkeypatch.setattr(cli, "MAX_STEPS", longest - 1)
    forbid_steps(monkeypatch)
    code, out, err = run_cli(capsys, "report", str(p), str(q))
    assert code == 2 and out == ""
    assert err == (
        f"error: T({p},{q}) takes {longest} pinch moves; report and trace stop at {longest - 1}\n"
    )


def reported_gamma3(out, fmt):
    if fmt == "json":
        return json.loads(out)["gamma3"]
    if fmt == "csv":
        return int(next(csv.DictReader(io.StringIO(out)))["gamma3"])
    return int(re.search(r"^  gamma3: +(\d+) ", out, re.M).group(1))


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
@pytest.mark.parametrize("p", ["12000001", "100000000000000000001"])
def test_odd_report_runs_no_gamma3_walk(monkeypatch, capsys, p, fmt):
    # the gamma3 walks of T(12000001,3) and T(10^20+1,3) are millions and
    # ~10^19 moves long, but report counts odd-p gamma3 from runs and runs
    # only the short printed trace
    forbid_steps(monkeypatch)
    code, out, err = run_cli(capsys, "report", p, "3", "--format", fmt)
    assert code == 0 and err == ""
    assert reported_gamma3(out, fmt) == crosscap_by_splitting(TorusKnot(int(p), 3))


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
@pytest.mark.parametrize("p, q", [(12345, 7), (12346, 7)])
def test_report_expands_once_per_walk_it_counts(monkeypatch, capsys, p, q, fmt):
    # once in `genus_report`, and for even p once more for gamma3's count,
    # which the refusal reads before the report; an odd-p report is refused
    # by its own beta1_F, or, in CSV, by no count
    expansions = []
    real_expand = cf.expand
    monkeypatch.setattr(cf, "expand", lambda x: expansions.append(x) or real_expand(x))
    code, out, err = run_cli(capsys, "report", str(p), str(q), "--format", fmt)
    assert code == 0 and out and err == ""
    assert expansions == [(p, q)] * (1 if p % 2 else 2)


@pytest.mark.parametrize(
    "argv, gamma3",
    [
        (("report", "2", "5000001"), 1),
        (("report", "4", "8000001", "--format", "csv"), 2),
        (("report", "6", "12000001", "--format", "json"), 3),
    ],
)
def test_report_runs_a_short_walk_of_a_long_quotient(capsys, argv, gamma3):
    # p/q = [0, q // p, p] has a coefficient of millions, but both walks
    # that report makes are a few moves long
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    if "json" in argv:
        assert json.loads(out)["gamma3"] == gamma3
    elif "csv" in argv:
        assert int(next(csv.DictReader(io.StringIO(out)))["gamma3"]) == gamma3
    else:
        assert re.search(r"^  gamma3: +(\d+) ", out, re.M).group(1) == str(gamma3)


def test_report_refuses_by_the_walks_it_makes_on_the_box(monkeypatch):
    # beta1_F and gamma3 are the stepwise oracles' counts; `genus_report`
    # makes gamma3 `cf.step` calls for even p and none for odd p, where it
    # counts runs.  report refuses by the longer of the walks it runs: those
    # steps and the printed trace, which a CSV report does not print, so an
    # odd-p CSV report is refused by no count.
    steps, refusals = [], record_refusals(monkeypatch)
    real_step = cf.step
    monkeypatch.setattr(cf, "step", lambda x: steps.append(None) or real_step(x))
    for knot in normalized_knots(150):
        trace_moves = pinches_to_unknot(knot)
        walk_moves = PinchTrace(crosscap_knot(knot), StopRule.ZERO).moves
        assert trace_moves == cf.steps_to_integer((knot.p, knot.q))[0]
        assert walk_moves == crosscap_number(knot)
        steps.clear()
        assert cli.genus_report(knot).gamma3 == walk_moves
        assert len(steps) == (0 if knot.p % 2 else walk_moves), knot
        steps.clear()
        refusals.clear()
        cli._cmd_report(argparse.Namespace(p=knot.p, q=knot.q, format="csv"))
        assert refusals == ([] if knot.p % 2 else [max(len(steps), trace_moves)]), knot


def test_limit_accepts_every_benchmark_size(monkeypatch, capsys):
    # the largest knots the benchmark and the tests run through the CLI: the
    # one count a CSV report refuses by is gamma3's walk for even p, and an
    # odd-p CSV report prints no trace, so it is refused by none
    refusals = record_refusals(monkeypatch)
    for p, q in [(100000, 3), (99999, 5), (10000, 9999)]:
        knot = TorusKnot(p, q)
        counted = [] if p % 2 else [pinches_to_zero(knot)]
        refusals.clear()
        assert run_cli(capsys, "report", str(p), str(q), "--format", "csv")[0] == 0
        assert refusals == counted


def test_odd_csv_report_is_not_refused_by_the_trace_it_does_not_print(monkeypatch, capsys):
    # T(4000005,2000003) expands to [1, 1, 2000002]: its trace to the first
    # unknot is 1000001 moves long, past MAX_STEPS, and its gamma3 of 1000002
    # is counted from runs.  Only the formats that print the trace refuse it.
    forbid_steps(monkeypatch)
    knot = TorusKnot(4000005, 2000003)
    assert pinches_to_unknot(knot) > MAX_STEPS
    code, out, err = run_cli(capsys, "report", "4000005", "2000003", "--format", "csv")
    assert code == 0 and err == ""
    assert reported_gamma3(out, "csv") == crosscap_by_splitting(knot) == 1000002
    refusal = f"error: {knot} takes 1000001 pinch moves; report and trace stop at {MAX_STEPS}\n"
    for fmt in ("human", "json"):
        code, out, err = run_cli(capsys, "report", "4000005", "2000003", "--format", fmt)
        assert (code, out, err) == (2, "", refusal)


# table and verify refuse, before any knot is built, a box of more than
# MAX_BOX parameter pairs: pmax*qmax for table, max*max for verify.

OVERSIZE_BOXES = [
    (("table", "--pmax", "2", "--qmax", "1000000000000"), 2 * 10**12),
    (("table", "--pmax", "1000000000000", "--qmax", "3", "--format", "human"), 3 * 10**12),
    (("table", "--pmax", "1001", "--qmax", "1000"), 1001 * 1000),
    (("verify", "--max", "1001"), 1001 * 1001),
]


def record_boxes(monkeypatch):
    """The list of bounds the box commands enumerate knots with in this
    process; they build none, and a verify slice checks none."""
    boxes = []

    def enumerate_box(*bounds):
        boxes.append(bounds)
        return iter(())

    monkeypatch.setattr(cli, "normalized_knots", enumerate_box)
    monkeypatch.setattr(
        cli, "_run_slice", lambda bound, knots, lo: [CheckOutcome("demo", "synthetic")]
    )
    return boxes


@pytest.mark.parametrize("argv, pairs", OVERSIZE_BOXES, ids=[" ".join(a) for a, _ in OVERSIZE_BOXES])
def test_oversize_box_is_refused_before_any_knot(monkeypatch, capsys, argv, pairs):
    boxes = record_boxes(monkeypatch)
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert time.monotonic() - start < 1
    assert (code, out, boxes) == (2, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"spans {pairs} parameter pairs; table and verify stop at {MAX_BOX}" in err


@pytest.mark.parametrize(
    "argv",
    [
        # the benchmark's boxes, the README's example and the largest boxes
        ("table", "--pmax", "151", "--qmax", "150", "--format", "csv"),
        ("verify", "--max", "151"),
        ("verify", "--max", "300"),
        ("table", "--pmax", "1000", "--qmax", "1000"),
        ("table", "--pmax", "2", "--qmax", "500000"),
        ("verify", "--max", "1000"),
    ],
    ids=" ".join,
)
def test_box_limit_accepts_every_benchmark_box(monkeypatch, capsys, argv):
    boxes = record_boxes(monkeypatch)
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert boxes == [tuple(int(bound) for bound in argv[2:5:2])]


# Python converts an int of at most `sys.get_int_max_str_digits()` digits to
# text and back (4300 by default; 0 is no limit, and before Python 3.10.7
# there is none).  argparse refuses a longer parameter as it parses it, and
# `report` refuses, before any output, a knot whose gamma3 or orientable
# genus is longer than that.

INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not INT_DIGITS, reason="no int string conversion limit")


def unprintable(knot, name, limit):
    """The one line `report` writes on stderr when `name` is too long to
    print; `knot` is its text, in which each parameter of more than 60
    digits reads as its number of digits."""
    return f"error: {knot}: {name} has more than {limit} digits, the most Python converts to text\n"


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
def test_report_too_long_to_print_exits_2(capsys, fmt):
    # coprime and odd, one pinch move, and (p-1)(q-1)/2 has 5998 digits
    p, q = 10**2999 + 1, 10**2999 - 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(capsys, "report", str(p), str(q), "--format", fmt)
        expected = unprintable("T(<3000 digits>,<2999 digits>)", "orientable genus", 4300)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out, err) == (2, "", expected)


def test_an_error_line_writes_a_number_of_more_than_60_digits_as_its_length(capsys):
    p = 10**60
    gamma3 = crosscap_number(TorusKnot(p, 3))
    assert (len(str(p)), len(str(gamma3))) == (61, 60)
    expected = f"error: T(<61 digits>,3) takes {gamma3} pinch moves; report and trace stop at {MAX_STEPS}\n"
    assert run_cli(capsys, "report", str(p), "3") == (2, "", expected)


LONG_TOKEN = "1" * 5000


# A plain run of 5000 digits is a bad int only under the digit limit.
@pytest.mark.parametrize(
    "token",
    [
        pytest.param(LONG_TOKEN + "x", id="digits-then-x"),
        pytest.param(LONG_TOKEN, id="digits", marks=needs_digit_limit),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [("report", "{}", "3"), ("trace", "4", "{}"), ("{}",), ("verify", "--max", "40", "{}")],
    ids=["report-p", "trace-q", "command", "extra-argument"],
)
def test_an_argparse_error_writes_a_number_of_more_than_60_digits_as_its_length(capsys, argv, token):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(token) for arg in argv])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: crosscap") and "error: " in error
    assert "<5000 digits>" in error and len(err) < 200


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
def test_report_prints_up_to_the_digit_limit(capsys, fmt):
    # T(10^320+1, 10^320-1) has an orientable genus of 640 digits, the least
    # limit Python takes, and T(2*10^320+1, 2*10^320-1) one of 641
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        at = run_cli(capsys, "report", str(10**320 + 1), str(10**320 - 1), "--format", fmt)
        p, q = 2 * 10**320 + 1, 2 * 10**320 - 1
        over = run_cli(capsys, "report", str(p), str(q), "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert at[0] == 0 and at[2] == ""
    assert str((10**320 * (10**320 - 2)) // 2) in at[1]
    assert over == (2, "", unprintable("T(<321 digits>,<321 digits>)", "orientable genus", 640))


@needs_digit_limit
def test_a_parameter_of_the_digit_limit_is_read_and_one_more_digit_is_refused(capsys):
    # p = 10^(L-1) + 1 is odd, coprime to 3 and L digits long: its CSV report
    # runs no walk it prints, and its orientable genus p - 1 has L digits too
    p = "1" + "0" * (INT_DIGITS - 2) + "1"
    code, out, err = run_cli(capsys, "report", p, "3", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith(p + ",3,")
    code, out, err = run_fresh("report", "1" + "0" * (INT_DIGITS - 1) + "1", "3")
    assert (code, out) == (2, "")
    assert "invalid int value" in err and "Traceback" not in err
