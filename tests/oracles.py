"""Slow but obviously correct routes that the tests compare fast ones with.

Each builds, as plain Python objects, a value that the library writes or
counts another way; no library code calls this module.
"""

from crosscap import cli
from crosscap.knot import TorusKnot


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


def odd_crosscap_pair(p: int, q: int) -> tuple[int, int]:
    """Teragaito's pair (pq-1, p^2) or (pq+1, p^2) of an odd-pq knot T(p,q),
    by the parity of the residue x with xq = -1 (mod p)."""
    x = (-pow(q, -1, p)) % p
    return p * q - 1 if x % 2 == 0 else p * q + 1, p * p


def crosscap_knot(knot: TorusKnot) -> TorusKnot:
    """The knot whose pinch count to T(0,1) is the crosscap number of `knot`
    (Teragaito's formula): T(p,q) itself for even p, and T of
    `odd_crosscap_pair` for odd p, built through the validating constructor.
    Both first parameters are even and coprime to the odd square, so it is
    a knot for every normalized input, trivial ones included.  The oracle
    for `genus._odd_crosscap_form`, which reads the expansion of its pair
    off p/q's own expansion instead of a residue."""
    if knot.p % 2 == 0:
        return knot
    return TorusKnot(*odd_crosscap_pair(knot.p, knot.q))
