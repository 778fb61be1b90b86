"""Acceptance gate: seven criteria, exact equality, wall-clock budgets.

Each test prints exactly one line, ACCEPTANCE <n> (<name>): PASS or FAIL,
visible under `pytest -s`.  Budgets are asserted with time.monotonic; the
exact-value assertions use integer/Fraction equality throughout, never a
tolerance.
"""

import time
from fractions import Fraction
from math import gcd

from crosscap import (
    PinchSign,
    StopRule,
    TorusKnot,
    cf,
    crosscap_by_splitting,
    crosscap_number,
    four_genus_bounds,
    gap_report,
    normalize,
    normalized_knots,
    odd_split,
    pinch,
    pinch_sequence,
    pinch_witness,
    pinches_to_unknot,
    pinches_to_zero,
)
from crosscap.verify import (
    check_crosscap_odd_consistency,
    check_gap_formula,
    check_magnitude,
    check_pinch_equivalence,
    check_sign_lemma,
    check_sign_parity,
    check_terminal_unknot,
)


def _run_criterion(number: int, name: str, budget_seconds, body) -> None:
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None and elapsed > budget_seconds:
        print(f"ACCEPTANCE {number} ({name}): FAIL (took {elapsed:.2f}s, budget {budget_seconds:g}s)")
        raise AssertionError(f"over budget: {elapsed:.2f}s > {budget_seconds:g}s")
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_example_values():
    def body():
        trefoil_cable = TorusKnot(4, 3)
        assert crosscap_number(trefoil_cable) == 2
        assert pinches_to_unknot(trefoil_cable) == 1
        assert four_genus_bounds(trefoil_cable).exact == 1
        assert pinches_to_zero(trefoil_cable) == 2
        zero_trace = pinch_sequence(trefoil_cable, StopRule.ZERO)
        assert [r.result for r in zero_trace] == [TorusKnot(2, 1), TorusKnot(0, 1)]

        cinquefoil_cousin = TorusKnot(5, 3)
        assert crosscap_number(cinquefoil_cousin) == 2
        assert crosscap_by_splitting(cinquefoil_cousin) == 2
        split = odd_split(cinquefoil_cousin)
        assert (split.first, split.second) == (TorusKnot(2, 1), TorusKnot(2, 3))

        # one pinch takes (7,4) to (3,2): once on raw parameters, once on
        # the normalized knot
        wit = pinch_witness(7, 4)
        assert {abs(7 - 2 * wit.t), abs(4 - 2 * wit.h)} == {3, 2}
        assert pinch(normalize(7, 4)).result == normalize(3, 2)

    _run_criterion(1, "example-values", 0.25, body)


def test_criterion_2_batson_family():
    def body():
        for k in range(2, 101):
            knot = TorusKnot(2 * k, 2 * k - 1)
            assert crosscap_number(knot) == k
            assert four_genus_bounds(knot).exact == k - 1

    _run_criterion(2, "batson-family", 1.0, body)


def test_criterion_3_km_plus_one_family():
    def body():
        for m in range(3, 20, 2):
            for k in range(1, 20, 2):
                knot = TorusKnot(k * m + 1, m)
                assert pinches_to_unknot(knot) == (m - 1) // 2
                trace = pinch_sequence(knot, StopRule.FIRST_UNKNOT)
                assert all(r.sign is PinchSign.POSITIVE for r in trace)
                bounds = four_genus_bounds(knot)
                assert bounds.exact == (m - 1) // 2
                assert crosscap_number(knot) == (m - 1) // 2 + (k + 1) // 2
                gap, _ = gap_report(knot)
                assert gap == (k + 1) // 2

    _run_criterion(3, "km-plus-one-family", 1.0, body)


def test_criterion_4_pinch_equivalence():
    def body():
        outcome = check_pinch_equivalence(300)
        assert outcome.passed
        assert outcome.failures_total == 0
        assert outcome.cases_checked > 1000

    _run_criterion(4, "pinch-equivalence-300", 10.0, body)


def test_criterion_5_lemma_suite():
    def body():
        for check in (
            check_sign_lemma,
            check_magnitude,
            check_sign_parity,
            check_terminal_unknot,
            check_gap_formula,
        ):
            outcome = check(300)
            assert outcome.passed, outcome.check_name
            assert outcome.counterexamples == []

    _run_criterion(5, "lemma-suite-300", 30.0, body)


def test_criterion_6_odd_case_cross_validation():
    def body():
        outcome = check_crosscap_odd_consistency(200)
        assert outcome.passed
        assert outcome.cases_checked > 1000

    _run_criterion(6, "odd-consistency-200", 30.0, body)


def test_criterion_7_exhaustive_invariants():
    def body():
        # continued-fraction round trip over all coprime a/b with a,b <= 500;
        # constructing the expansion re-validates canonical form
        for b in range(1, 501):
            for a in range(0, 501):
                if gcd(a, b) != 1:
                    continue
                value = Fraction(a, b)
                expansion = cf.expand(value)
                assert cf.evaluate(expansion) == value
                coeffs = tuple(expansion)
                assert coeffs[0] >= 0
                assert all(c >= 1 for c in coeffs[1:-1])
                assert len(coeffs) == 1 or coeffs[-1] >= 2
                # determinant identity along the convergent ladder
                if len(coeffs) >= 2:
                    conv = cf.convergents(expansion)
                    for i in range(1, len(conv)):
                        pi, qi = conv[i].value.numerator, conv[i].value.denominator
                        pj, qj = conv[i - 1].value.numerator, conv[i - 1].value.denominator
                        assert pi * qj - pj * qi == (-1) ** (i - 1)

        # parity preservation, termination, coprimality closure of pinches
        for knot in normalized_knots(300):
            trace = pinch_sequence(knot, StopRule.FIRST_UNKNOT)
            assert len(trace) <= max(knot.p, knot.q)
            for record in trace:
                r = abs(record.source.p - 2 * record.witness.t)
                s = abs(record.source.q - 2 * record.witness.h)
                assert r % 2 == record.source.p % 2
                assert s % 2 == record.source.q % 2
                assert gcd(r, s) == 1
                assert max(r, s) < max(record.source.p, record.source.q)

    _run_criterion(7, "exhaustive-invariants", 30.0, body)
