"""Slow but obviously correct routes that the tests compare fast ones with.

Each builds, as plain Python objects, a value that the library writes or
counts another way; no library code calls this module.
"""

import functools

from crosscap.knot import StopRule, TorusKnot, is_unknot, pinch


def oracle_sequence(knot, stop):
    """The residue walk: apply `pinch` (modular residues, two `pow` calls)
    until the stop rule is met.  The oracle for `pinch_sequence`, which
    reads the records off the walk's segments.

    Checks no preconditions; call it only where the walk is defined.  Every
    move lowers max(p,q), so p + q moves bound the walk, and a walk that has
    not stopped within them, which only a broken `pinch` makes, raises
    instead of looping.
    """
    records = []
    current = knot
    for _ in range(knot.p + knot.q + 1):
        if is_unknot(current) if stop is StopRule.FIRST_UNKNOT else current.p == 0:
            return records
        record = pinch(current)
        records.append(record)
        current = record.result
    raise RuntimeError(f"the residue walk from {knot} did not stop within {knot.p + knot.q} moves")


def expand_segments(segments):
    """Yield the moves of `segments` as plain tuples
    `(sp, sq, rp, rq, t, h, sign, k, c)`, move j of each segment computed
    from its first by j steps: the move T(sp,sq) -> T(rp,rq), its witness
    (t, h), its sign, and the expansion after it as (k, c), which stands
    for `expansion.coeffs[:k] + (c,)`.  The oracle for `pinch_sequence`,
    which steps from one move to the next, and lazy, so a walk too long to
    list can be read from its start."""
    for n, sp, sq, dp, dq, t, h, dt, dh, sign, k, c, k_end, c_end in segments:
        for j in range(n):
            after = (k_end, c_end) if j == n - 1 else (k, c - 2 * (j + 1))
            source = (sp - j * dp, sq - j * dq)
            result = (sp - (j + 1) * dp, sq - (j + 1) * dq)
            yield (*source, *result, t - j * dt, h - j * dh, sign, *after)


def trace_row(record) -> dict:
    """The JSON row of one `PinchRecord`: the oracle for
    `cli._trace_rows_json`."""
    return {
        "from": [record.source.p, record.source.q],
        "to": [record.result.p, record.result.q],
        "t": record.witness.t,
        "h": record.witness.h,
        "sign": None if record.sign is None else record.sign.name.lower(),
    }


def report_dict(report) -> dict:
    """The JSON report as one object: the oracle for `cli._report_json`,
    which writes the same text as it walks.  Its trace rows come from the
    residue walk, not from the segments that the report's text is read
    from, and its invariants from the report's own attributes, not from
    the CLI's field table."""
    g4, gap = report.gamma4, report.gap_lower_bound
    trace = oracle_sequence(report.knot, StopRule.FIRST_UNKNOT)
    return {
        "knot": {"p": report.knot.p, "q": report.knot.q},
        "k": report.k,
        "a": report.a,
        "ell": report.ell,
        "beta1_F": report.beta1_F,
        "gamma3": report.gamma3,
        "gamma4": {
            "lower": g4.lower,
            "upper": g4.upper,
            "exact": g4.exact,
            "provenance": g4.provenance,
        },
        "gap_lower_bound": {"num": gap.numerator, "den": gap.denominator},
        "orientable_genus": report.orientable_genus,
        "trace": [trace_row(record) for record in trace],
    }


# Each CSV column of a report and the dotted `GenusReport` attribute it
# holds, in column order, written out apart from the CLI's field table.
REPORT_COLUMNS = [
    ("p", "knot.p"),
    ("q", "knot.q"),
    ("k", "k"),
    ("a", "a"),
    ("ell", "ell"),
    ("beta1_F", "beta1_F"),
    ("gamma3", "gamma3"),
    ("gamma4_lower", "gamma4.lower"),
    ("gamma4_upper", "gamma4.upper"),
    ("gamma4_exact", "gamma4.exact"),
    ("gamma4_provenance", "gamma4.provenance"),
    ("gap_lb_num", "gap_lower_bound.numerator"),
    ("gap_lb_den", "gap_lower_bound.denominator"),
    ("orientable_genus", "orientable_genus"),
]


def report_row(report) -> list:
    """The report's CSV row as values, each read through its dotted
    attribute in `REPORT_COLUMNS`: the oracle for `cli._flat_values`.  An
    unknown exact gamma4 stays None, which `csv.writer` writes as an empty
    cell."""
    return [functools.reduce(getattr, path.split("."), report) for _, path in REPORT_COLUMNS]


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
