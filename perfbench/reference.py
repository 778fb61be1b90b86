"""Reference checks for the outputs of the timed calls.

Every check takes the parameters a case was generated from and the text a
call printed, and returns a list of problems (empty when the output is
right).  The expected values come from routes other than the one being
timed: closed forms for the Batson family T(2k,2k-1) and the T(km+1,m)
family, the gap formula ceil(k/2) for even p, the splitting construction
for odd p, the division formula for the terminal unknot, the residue
formula for each pinch record, and a direct count of coprime pairs for the
boxes.  They run outside the timed region.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

from crosscap.genus import crosscap_by_splitting
from crosscap.knot import TorusKnot

VERIFY_CHECKS = (
    "pinch-equivalence",
    "sign-lemma",
    "magnitude-order",
    "sign-parity",
    "terminal-unknot",
    "crosscap-odd-consistency",
    "gap-formula",
)

# Both certificates hold on T(2k,2k-1), whose pinches are all positive; the
# program reports the first one it tries.
BATSON_PROVENANCES = ("batson", "all-positive-pinches")


def normalize(a: int, b: int) -> tuple[int, int]:
    """Even parameter first when ab is even, larger first when both are odd."""
    if a * b % 2 == 0:
        return (a, b) if a % 2 == 0 else (b, a)
    return (a, b) if a >= b else (b, a)


def box_pairs(pmax: int, qmax: int) -> list[tuple[int, int]]:
    """Normalized nontrivial T(p,q) with p <= pmax and q <= qmax, sorted.

    Counted from unordered coprime pairs {a, b} with a, b >= 2, not from
    the program's enumeration.
    """
    top = max(pmax, qmax)
    pairs = []
    for a in range(2, top + 1):
        for b in range(a + 1, top + 1):
            if math.gcd(a, b) == 1:
                p, q = normalize(a, b)
                if p <= pmax and q <= qmax:
                    pairs.append((p, q))
    return sorted(pairs)


def _expansion(a: int, b: int) -> list[int]:
    coeffs = []
    while b:
        c, a, b = a // b, b, a % b
        coeffs.append(c)
    return coeffs


def _pinch(p: int, q: int) -> tuple[int, int, tuple[int, int]]:
    t = -pow(q, -1, p) % p
    h = pow(p, -1, q)
    return t, h, normalize(abs(p - 2 * t), abs(q - 2 * h))


def _check_report(p_in: int, q_in: int, r: dict) -> list[str]:
    """Checks shared by the JSON and the human report of one knot."""
    p, q = normalize(p_in, q_in)
    k = p // q
    ell = k if (p - k) % 2 == 0 else k + 1
    errors = []

    def expect(what: str, got: object, want: object) -> None:
        if got != want:
            errors.append(f"T({p},{q}) {what}: got {got}, want {want}")

    expect("knot", r["knot"], (p, q))
    expect("k", r["k"], k)
    expect("terminal unknot", r["ell"], ell)
    trace = r["trace"]
    expect("beta1_F", r["beta1_F"], len(trace))
    expect("gamma4 upper", r["upper"], r["beta1_F"])
    if r["exact"] is not None and not r["lower"] <= r["exact"] <= r["upper"]:
        errors.append(f"T({p},{q}) gamma4 exact {r['exact']} outside [{r['lower']},{r['upper']}]")
    current = (p, q)
    for source, result, t, h, expansions in trace:
        expect("trace source", source, current)
        want_t, want_h, want_result = _pinch(*source)
        expect(f"pinch of T{source}", (t, h, result), (want_t, want_h, want_result))
        if expansions is not None:
            expect(f"expansions of T{source}", expansions, (_expansion(*source), _expansion(*result)))
        current = result
    expect("trace end", current, (ell, 1))

    if p % 2 == 0 and q == p - 1:
        expect("Batson gamma3", r["gamma3"], p // 2)
        expect("Batson gamma4", r["exact"], p // 2 - 1)
        if r["provenance"] not in BATSON_PROVENANCES:
            errors.append(f"T({p},{q}) Batson provenance {r['provenance']}")
    if p % q == 1 and k % 2 == 1:
        half = (q - 1) // 2
        expect("T(km+1,m) beta1_F", r["beta1_F"], half)
        expect("T(km+1,m) gamma4", r["exact"], half)
        expect("T(km+1,m) gamma3", r["gamma3"], half + (k + 1) // 2)
    if p % 2 == 0:
        expect("gap", r["gamma3"] - r["beta1_F"], (k + 1) // 2)
    else:
        expect("gamma3 by splitting", r["gamma3"], crosscap_by_splitting(TorusKnot(p, q)))
    return errors


def check_report_json(p: int, q: int, text: str) -> list[str]:
    doc = json.loads(text)
    g4 = doc["gamma4"]
    return _check_report(p, q, {
        "knot": (doc["knot"]["p"], doc["knot"]["q"]),
        "k": doc["k"],
        "ell": doc["ell"],
        "beta1_F": doc["beta1_F"],
        "gamma3": doc["gamma3"],
        "lower": g4["lower"],
        "upper": g4["upper"],
        "exact": g4["exact"],
        "provenance": g4["provenance"],
        "trace": [
            (tuple(row["from"]), tuple(row["to"]), row["t"], row["h"], None)
            for row in doc["trace"]
        ],
    })


_HUMAN_FIELDS = {
    "knot": re.compile(r"^T\((\d+),(\d+)\)$", re.M),
    "k": re.compile(r"^  division: .*\(k=(\d+), a=\d+\)$", re.M),
    "ell": re.compile(r"^  terminal unknot: +T\((\d+),1\)", re.M),
    "beta1_F": re.compile(r"^  beta1_F: +(\d+) ", re.M),
    "gamma3": re.compile(r"^  gamma3: +(\d+) ", re.M),
    "gamma4": re.compile(r"^  gamma4: +lower=(\d+) upper=(\d+) exact=(\d+|-) \((\S+)\)$", re.M),
}
_HUMAN_RECORD = re.compile(
    r"^    T\((\d+),(\d+)\) -> T\((\d+),(\d+)\) +t=(\d+) h=(\d+) sign=\S+ +\[([\d,]+)\] -> \[([\d,]+)\]$",
    re.M,
)


def _field(text: str, name: str) -> tuple[str, ...]:
    match = _HUMAN_FIELDS[name].search(text)
    if match is None:
        raise ValueError(f"report has no {name} line")
    return match.groups()


def check_report_human(p: int, q: int, text: str) -> list[str]:
    lower, upper, exact, provenance = _field(text, "gamma4")
    _, trace_text = text.split("  pinch trace:\n", 1)
    trace = []
    for m in _HUMAN_RECORD.finditer(trace_text):
        a, b, c, d, t, h = map(int, m.groups()[:6])
        expansions = tuple([int(x) for x in m.group(i).split(",")] for i in (7, 8))
        trace.append(((a, b), (c, d), t, h, expansions))
    if len(trace) != trace_text.count("\n"):
        return [f"T({p},{q}) trace has unparsed lines"]
    return _check_report(p, q, {
        "knot": tuple(map(int, _field(text, "knot"))),
        "k": int(_field(text, "k")[0]),
        "ell": int(_field(text, "ell")[0]),
        "beta1_F": int(_field(text, "beta1_F")[0]),
        "gamma3": int(_field(text, "gamma3")[0]),
        "lower": int(lower),
        "upper": int(upper),
        "exact": None if exact == "-" else int(exact),
        "provenance": provenance,
        "trace": trace,
    })


_VERIFY_LINE = re.compile(r"^(\S+) +cases=(\d+) +(.*)$")


def check_verify(bound: int, text: str) -> list[str]:
    pairs = box_pairs(bound, bound)
    odd = sum(p % 2 for p, _ in pairs)
    want_cases = {name: len(pairs) for name in VERIFY_CHECKS}
    want_cases["crosscap-odd-consistency"] = odd
    want_cases["gap-formula"] = len(pairs) - odd
    errors = []
    seen = []
    for line in text.splitlines():
        m = _VERIFY_LINE.match(line)
        if m is None:
            errors.append(f"unexpected verify line: {line}")
            continue
        name, cases, status = m.group(1), int(m.group(2)), m.group(3)
        seen.append(name)
        if status != "PASS":
            errors.append(f"{name}: {status}")
        if cases != want_cases.get(name):
            errors.append(f"{name}: cases={cases}, want {want_cases.get(name)}")
    if tuple(seen) != VERIFY_CHECKS:
        errors.append(f"checks {seen}, want {list(VERIFY_CHECKS)}")
    return errors


def check_table_csv(pmax: int, qmax: int, text: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    want = box_pairs(pmax, qmax)
    got = [(int(row["p"]), int(row["q"])) for row in rows]
    if got != want:
        return [f"table rows: got {len(got)}, want {len(want)} (or out of order)"]
    errors = []
    for row in rows:
        p, q = int(row["p"]), int(row["q"])
        k, beta1, gamma3 = p // q, int(row["beta1_F"]), int(row["gamma3"])
        exact = int(row["gamma4_exact"]) if row["gamma4_exact"] else None
        want_row = {}
        if p % 2 == 0:
            want_row["gap"] = (gamma3 - beta1, (k + 1) // 2)
        if p % 2 == 0 and q == p - 1:
            want_row["Batson"] = ((gamma3, exact), (p // 2, p // 2 - 1))
        if p % q == 1 and k % 2 == 1:
            half = (q - 1) // 2
            want_row["T(km+1,m)"] = ((beta1, exact, gamma3), (half, half, half + (k + 1) // 2))
        for what, (got_value, want_value) in want_row.items():
            if got_value != want_value:
                errors.append(f"T({p},{q}) {what}: got {got_value}, want {want_value}")
    return errors
