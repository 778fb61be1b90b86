"""Slow but obviously correct routes that the tests compare fast ones with.

Each builds, as plain Python objects, a value that the library writes or
counts another way; no library code calls this module.
"""

from crosscap import cli


def trace_row(move: tuple) -> dict:
    """The JSON row of one move as `PinchTrace.walk` yields it: the oracle
    for `cli._trace_rows_json`."""
    sp, sq, rp, rq, t, h, sign, _, _ = move
    return {
        "from": [sp, sq],
        "to": [rp, rq],
        "t": t,
        "h": h,
        "sign": None if sign is None else sign.value,
    }


def report_dict(report) -> dict:
    """The JSON report as one object: the oracle for `cli._report_json`,
    which writes the same text as it walks."""
    payload = cli._report_fields(report)
    payload["trace"] = [trace_row(move) for move in report.trace.walk()]
    return payload
