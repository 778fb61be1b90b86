"""Bounded exhaustive verification of the pinch/step identities.

One pass enumerates the normalized nontrivial torus knots with both
parameters inside a bound of at least 3 (p ascending, then q ascending),
evaluates every claimed identity on each, and reports one CheckOutcome per
check.  Each knot that a selected check runs on gets one record, `_Knot`,
holding the values its checks share: the residue pinch, the expansion of
p/q, the quotient k = p // q and the walk counts.  Each check is a
predicate on that record which returns its claims as a tuple of (holds,
expected, actual).  The checks are grouped by the parity of p they run on
once, before the pass; a check's case count is the tally of the knots of
its parity, set after the pass.  Checks never abort on a failure: they keep
scanning and collect up to MAX_COUNTEREXAMPLES offending cases so a broken
identity is visible in bulk, not one case at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import cf
from .errors import InvalidParameter
from .genus import _ell, _gamma3, crosscap_by_splitting
from .knot import (
    TorusKnot,
    _walk_sums,
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
    once, when the record is built, since a pass of every check reads them
    on every knot:

    * `first`, the residue `pinch`, read by pinch-equivalence, sign-lemma,
      magnitude-order and sign-parity;
    * `expansion`, the one expansion of p/q, read by pinch-equivalence and
      sign-parity, and by gamma3 in crosscap-odd-consistency (odd p) and
      gap-formula (even p), which run on disjoint parities;
    * `k`, the quotient p // q, the one division of the knot, read by
      terminal-unknot and gap-formula;
    * `moves` and `ell`, the length of the walk to the first unknot T(l,1)
      and its l, summed over the runs of `expansion` with no `PinchTrace`
      built, read by gap-formula and terminal-unknot.

    Each check still computes the route it compares against: `pinch_by_step`
    (one `cf.step`, `evaluate` and the validating `normalize`) for the
    residues, the expansion length for the residue sign, the division
    formula `genus._ell` on the record's quotient for `ell`, and
    `crosscap_by_splitting`, which expands and splits p/q itself, for
    gamma3.

    For odd p, `genus._gamma3` counts the runs of (pq-+1)/p^2, whose
    expansion it reads off p/q's own as a near-palindrome, with no residue;
    crosscap-odd-consistency keeps an independent route against it,
    `crosscap_by_splitting`, which sums the walks of the two split pieces.
    For even p it is the walk of p/q to the first unknot T(l,1), by the
    same `knot._runs` loop as `moves`, plus the unknot tail's l/2 moves, so
    gap-formula's gap is l/2 by the walk's shape, and its claim is
    terminal-unknot's l in {k, k+1} read for even p.  The tier-1 tests pin
    gamma3 to the stepwise count, `cf.steps_to_zero`, and the odd form to
    Teragaito's residue pair.
    """

    __slots__ = ("knot", "first", "expansion", "k", "moves", "ell")

    def __init__(self, knot: TorusKnot):
        self.knot = knot
        self.first = pinch(knot)
        self.expansion = cf.expand((knot.p, knot.q))  # the box holds no trivial knot
        self.k = knot.p // knot.q
        self.moves, _, self.ell = _walk_sums(self.expansion.coeffs)


# A predicate returns a tuple of claims (holds, expected, actual), one per
# identity it checks.
_Claims = tuple[tuple[bool, object, object], ...]
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
    """Evaluate the given checks on every knot of the box, in a single pass.

    A bound below 3 holds no nontrivial knot and is refused, for every
    entry point alike.  The checks are grouped by the parity of p they run
    on before the pass, and the knots of each parity are tallied; a knot
    whose parity has no check gets no record.  Each check's case count is
    its parity's tally, or both tallies, after the pass."""
    if max_param < 3:
        raise InvalidParameter(f"verify bound must be at least 3: {max_param}")
    outcomes = [CheckOutcome(name, text.format(max_param)) for name, text, _, _ in rows]
    by_parity: tuple[list, list] = ([], [])  # (predicate, outcome) for even p, odd p
    for (_, _, parity, predicate), outcome in zip(rows, outcomes):
        for p in (0, 1):
            if parity is None or parity == p:
                by_parity[p].append((predicate, outcome))
    tallies = [0, 0]
    for knot in normalized_knots(max_param):
        parity = knot.p % 2
        tallies[parity] += 1
        checks = by_parity[parity]
        if not checks:
            continue
        record = _Knot(knot)
        for predicate, outcome in checks:
            for holds, expected, actual in predicate(record):
                if not holds:
                    outcome.failures_total += 1
                    if outcome.failures_total <= MAX_COUNTEREXAMPLES:
                        case = Counterexample(str(knot), str(expected), str(actual))
                        outcome.counterexamples.append(case)
    for (_, _, parity, _), outcome in zip(rows, outcomes):
        outcome.cases_checked = sum(tallies) if parity is None else tallies[parity]
    return outcomes


@_check("pinch-equivalence")
def check_pinch_equivalence(rec: _Knot) -> _Claims:
    """Pinch via modular residues lands on the same knot as one cf step."""
    via_step = pinch_by_step(rec.expansion)
    return ((rec.first.result == via_step, rec.first.result, via_step),)


@_check("sign-lemma")
def check_sign_lemma(rec: _Knot) -> _Claims:
    """(p-2t)(q-2h) >= 0, with equality exactly when p = 2."""
    wit = rec.first.witness
    product = (rec.knot.p - 2 * wit.t) * (rec.knot.q - 2 * wit.h)
    return (
        (product >= 0, "(p-2t)(q-2h) >= 0", product),
        ((product == 0) == (rec.knot.p == 2), "(p-2t)(q-2h) == 0 iff p == 2", product),
    )


@_check("magnitude-order")
def check_magnitude(rec: _Knot) -> _Claims:
    """|p-2t| and |q-2h| are ordered the same way as p and q.

    Checked on the raw residue output, before normalization reorders the
    resulting pair: r >= s when p > q, and r < s when p < q.
    """
    p, q, wit = rec.knot.p, rec.knot.q, rec.first.witness
    r, s = abs(p - 2 * wit.t), abs(q - 2 * wit.h)
    return (
        (not (p > q and r < s), "r >= s for p > q", (r, s)),
        (not (p < q and r >= s), "r < s for p < q", (r, s)),
    )


@_check("sign-parity")
def check_sign_parity(rec: _Knot) -> _Claims:
    """Residue-based pinch sign matches the expansion-length parity rule."""
    predicted = pinch_sign_from_expansion(rec.expansion)
    return ((rec.first.sign is predicted, predicted, rec.first.sign),)


@_check("terminal-unknot")
def check_terminal_unknot(rec: _Knot) -> _Claims:
    """The division formula, read on the record's quotient, predicts the
    first unknot a pinch walk reaches."""
    predicted = _ell(rec.knot.p, rec.k)
    return ((predicted == rec.ell, predicted, rec.ell),)


@_check("crosscap-odd-consistency", "odd coprime 3 <= q < p <= {}", parity=1)
def check_crosscap_odd_consistency(rec: _Knot) -> _Claims:
    """Closed-formula crosscap number agrees with the splitting construction."""
    gamma3 = _gamma3(rec.knot.p, rec.expansion.coeffs)
    geometric = crosscap_by_splitting(rec.knot)
    return ((gamma3 == geometric, geometric, gamma3),)


@_check("gap-formula", "normalized nontrivial T(p,q), p even, p,q <= {}", parity=0)
def check_gap_formula(rec: _Knot) -> _Claims:
    """gamma3 - beta1_F equals ceil(k/2) and stays >= k/2 for even p."""
    k = rec.k
    gap = _gamma3(rec.knot.p, rec.expansion.coeffs) - rec.moves
    holds = 2 * gap >= k  # gap >= k/2, in integers; the text only on failure
    return (
        (gap == (k + 1) // 2, (k + 1) // 2, gap),
        (holds, "" if holds else f"gap >= {Fraction(k, 2)}", gap),
    )


def run_all(max_param: int) -> list[CheckOutcome]:
    """Run every check at the given bound, in a fixed order, in one pass."""
    return _scan(max_param, _CHECKS)
