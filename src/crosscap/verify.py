"""Bounded exhaustive verification of the pinch/step identities.

One pass enumerates the normalized nontrivial torus knots with both
parameters inside a bound (p ascending, then q ascending), evaluates every
claimed identity on each, and reports one CheckOutcome per check.  Checks
never abort on a failure: they keep scanning and collect up to
MAX_COUNTEREXAMPLES offending cases so a broken identity is visible in bulk,
not one case at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .errors import InvalidParameter
from .genus import (
    crosscap_by_splitting,
    crosscap_number,
    euclidean_division,
    terminal_unknot_parameter,
)
from .knot import (
    PinchTrace,
    StopRule,
    TorusKnot,
    normalized_knots,
    pinch,
    pinch_by_step,
    pinch_sign_from_expansion,
)

__all__ = [
    "MAX_COUNTEREXAMPLES",
    "Counterexample",
    "CheckOutcome",
    "check_pinch_equivalence",
    "check_sign_lemma",
    "check_magnitude",
    "check_sign_parity",
    "check_terminal_unknot",
    "check_crosscap_odd_consistency",
    "check_gap_formula",
    "run_all",
]

MAX_COUNTEREXAMPLES = 100


@dataclass(frozen=True)
class Counterexample:
    input: str
    expected: str
    actual: str


@dataclass
class CheckOutcome:
    """Result of one exhaustive check over a parameter range."""

    check_name: str
    range_description: str
    cases_checked: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)
    failures_total: int = 0

    @property
    def passed(self) -> bool:
        return self.failures_total == 0


class _Knot:
    """One knot of the box and the values its checks share, each computed
    once, when the record is built, since a pass of every check reads both
    on every knot:

    * `first`, the residue `pinch`, read by pinch-equivalence, sign-lemma,
      magnitude-order and sign-parity;
    * `trace`, the `PinchTrace` to the first unknot, whose `expansion` is
      the one expansion of p/q that the expansion routes read, and whose
      `final` and `moves` terminal-unknot and gap-formula read.

    Each check still computes the route it compares against: one `cf.step`
    for the residues, the expansion length for the residue sign, the
    division formula for `trace.final`, and `crosscap_by_splitting`, which
    expands and splits p/q itself, for gamma3.  gamma3 is not shared:
    crosscap-odd-consistency (odd p) and gap-formula (even p) run on
    disjoint parities, so each calls `crosscap_number` itself.

    For odd p, `crosscap_number` counts the runs of (pq-+1)/p^2, whose
    expansion it reads off p/q's own as a near-palindrome, with no residue;
    crosscap-odd-consistency keeps an independent route against it,
    `crosscap_by_splitting`, which sums the walks of the two split pieces.
    For even p it counts its walk by runs, as `pinches_to_zero` does, so
    gap-formula compares two counts from the same `knot._runs` loop:
    gamma3 to T(0,1) and `trace.moves` to the first unknot.  The tier-1
    tests pin gamma3 to the stepwise count, `cf.steps_to_zero`, and the
    odd form to Teragaito's residue pair.
    """

    __slots__ = ("knot", "first", "trace")

    def __init__(self, knot: TorusKnot):
        self.knot = knot
        self.first = pinch(knot)
        self.trace = PinchTrace(knot, StopRule.FIRST_UNKNOT)


# A predicate yields one claim (holds, expected, actual) per identity it checks.
_Claims = Iterator[tuple[bool, object, object]]
_Predicate = Callable[[_Knot], _Claims]
_Row = tuple[str, str, Optional[int], _Predicate]  # name, range text, parity filter, predicate
_CHECKS: list[_Row] = []  # in the order run_all reports them
_KNOTS = "normalized nontrivial T(p,q) with p,q <= {}"


def _check(name: str, range_text: str = _KNOTS, parity: Optional[int] = None):
    """Decorator: file the predicate in _CHECKS as check `name`, and bind the
    decorated name to that check's entry point, a function of the bound that
    runs this check alone."""

    def register(predicate: _Predicate) -> Callable[[int], CheckOutcome]:
        row = (name, range_text, parity, predicate)
        _CHECKS.append(row)

        def run_alone(max_param: int) -> CheckOutcome:
            return _scan(max_param, [row])[0]

        run_alone.__name__ = run_alone.__qualname__ = predicate.__name__
        run_alone.__doc__ = predicate.__doc__
        return run_alone
    return register


def _scan(max_param: int, rows: list[_Row]) -> list[CheckOutcome]:
    """Evaluate the given checks on every knot of the box, in a single pass."""
    outcomes = [CheckOutcome(name, text.format(max_param)) for name, text, _, _ in rows]
    for knot in normalized_knots(max_param):
        record = _Knot(knot)
        for (_, _, parity, predicate), outcome in zip(rows, outcomes):
            if parity is None or knot.p % 2 == parity:
                outcome.cases_checked += 1
                for holds, expected, actual in predicate(record):
                    if not holds:
                        outcome.failures_total += 1
                        if outcome.failures_total <= MAX_COUNTEREXAMPLES:
                            case = Counterexample(str(knot), str(expected), str(actual))
                            outcome.counterexamples.append(case)
    return outcomes


@_check("pinch-equivalence")
def check_pinch_equivalence(rec: _Knot) -> _Claims:
    """Pinch via modular residues lands on the same knot as one cf step."""
    via_step = pinch_by_step(rec.trace.expansion)
    yield rec.first.result == via_step, rec.first.result, via_step


@_check("sign-lemma")
def check_sign_lemma(rec: _Knot) -> _Claims:
    """(p-2t)(q-2h) >= 0, with equality exactly when p = 2."""
    wit = rec.first.witness
    product = (rec.knot.p - 2 * wit.t) * (rec.knot.q - 2 * wit.h)
    yield product >= 0, "(p-2t)(q-2h) >= 0", product
    yield (product == 0) == (rec.knot.p == 2), "(p-2t)(q-2h) == 0 iff p == 2", product


@_check("magnitude-order")
def check_magnitude(rec: _Knot) -> _Claims:
    """|p-2t| and |q-2h| are ordered the same way as p and q.

    Checked on the raw residue output, before normalization reorders the
    resulting pair: r >= s when p > q, and r < s when p < q.
    """
    p, q, wit = rec.knot.p, rec.knot.q, rec.first.witness
    r, s = abs(p - 2 * wit.t), abs(q - 2 * wit.h)
    yield not (p > q and r < s), "r >= s for p > q", (r, s)
    yield not (p < q and r >= s), "r < s for p < q", (r, s)


@_check("sign-parity")
def check_sign_parity(rec: _Knot) -> _Claims:
    """Residue-based pinch sign matches the expansion-length parity rule."""
    predicted = pinch_sign_from_expansion(rec.trace.expansion)
    yield rec.first.sign is predicted, predicted, rec.first.sign


@_check("terminal-unknot")
def check_terminal_unknot(rec: _Knot) -> _Claims:
    """The division formula predicts the first unknot a pinch walk reaches."""
    predicted = terminal_unknot_parameter(rec.knot)
    observed = rec.trace.final.p
    yield predicted == observed, predicted, observed


@_check("crosscap-odd-consistency", "odd coprime 3 <= q < p <= {}", parity=1)
def check_crosscap_odd_consistency(rec: _Knot) -> _Claims:
    """Closed-formula crosscap number agrees with the splitting construction."""
    gamma3, geometric = crosscap_number(rec.knot), crosscap_by_splitting(rec.knot)
    yield gamma3 == geometric, geometric, gamma3


@_check("gap-formula", "normalized nontrivial T(p,q), p even, p,q <= {}", parity=0)
def check_gap_formula(rec: _Knot) -> _Claims:
    """gamma3 - beta1_F equals ceil(k/2) and stays >= k/2 for even p."""
    quotient, _ = euclidean_division(rec.knot)
    gap = crosscap_number(rec.knot) - rec.trace.moves
    yield gap == (quotient + 1) // 2, (quotient + 1) // 2, gap
    holds = 2 * gap >= quotient  # gap >= k/2, in integers; the text only on failure
    yield holds, "" if holds else f"gap >= {Fraction(quotient, 2)}", gap


def run_all(max_param: int) -> list[CheckOutcome]:
    """Run every check at the given bound, in a fixed order, in one pass."""
    if max_param < 3:
        raise InvalidParameter(f"verify bound must be at least 3: {max_param}")
    return _scan(max_param, _CHECKS)
