"""Verification harness: counting semantics, outcome shape, failure capture."""

import pytest

from crosscap import cf, verify
from crosscap.errors import InvalidParameter
from crosscap.knot import TorusKnot, normalize, normalized_knots, pinch
from crosscap.verify import (
    MAX_COUNTEREXAMPLES,
    Counterexample,
    check_crosscap_odd_consistency,
    check_gap_formula,
    check_magnitude,
    check_pinch_equivalence,
    check_sign_lemma,
    check_sign_parity,
    check_terminal_unknot,
    run_all,
)

ALL_CHECK_NAMES = [
    "pinch-equivalence",
    "sign-lemma",
    "magnitude-order",
    "sign-parity",
    "terminal-unknot",
    "crosscap-odd-consistency",
    "gap-formula",
]


def test_pinch_equivalence_case_count_small():
    # coprime pairs 2 <= a, b <= 10: 22 of them after deduplication
    outcome = check_pinch_equivalence(10)
    assert outcome.cases_checked == 22
    assert outcome.passed
    assert outcome.counterexamples == []
    assert outcome.failures_total == 0


@pytest.mark.parametrize(
    "check",
    [
        check_pinch_equivalence,
        check_sign_lemma,
        check_magnitude,
        check_sign_parity,
        check_terminal_unknot,
        check_crosscap_odd_consistency,
        check_gap_formula,
    ],
)
def test_each_check_passes_at_fifty(check):
    outcome = check(50)
    assert outcome.passed
    assert outcome.cases_checked > 0
    assert outcome.failures_total == 0
    assert outcome.range_description


def test_run_all_shape_and_order():
    outcomes = run_all(50)
    assert [o.check_name for o in outcomes] == ALL_CHECK_NAMES
    assert all(o.passed for o in outcomes)


def test_run_all_rejects_tiny_bounds():
    with pytest.raises(InvalidParameter):
        run_all(2)


def test_counterexamples_are_capped_in_a_real_check(monkeypatch):
    # every knot then "pinches" to itself, so every case fails; returning
    # T(0,1) would not do, since some knots below 40 really pinch there.
    # The route reads the knot's expansion, whose value is p/q.
    def to_itself(expansion):
        value = cf.evaluate(expansion)
        return normalize(value.numerator, value.denominator)

    monkeypatch.setattr(verify, "pinch_by_step", to_itself)
    outcome = check_pinch_equivalence(40)
    assert not outcome.passed
    assert outcome.failures_total == outcome.cases_checked > MAX_COUNTEREXAMPLES
    assert len(outcome.counterexamples) == MAX_COUNTEREXAMPLES
    first_knots = list(normalized_knots(40))[:MAX_COUNTEREXAMPLES]
    assert [c.input for c in outcome.counterexamples] == [str(k) for k in first_knots]
    assert outcome.counterexamples[0] == Counterexample("T(2,3)", "T(0,1)", "T(2,3)")


def test_run_all_matches_checks_run_alone():
    alone = [getattr(verify, name) for name in verify.__all__ if name.startswith("check_")]
    assert run_all(40) == [check(40) for check in alone]


def test_failure_stays_inside_its_check(monkeypatch):
    clean = run_all(40)
    bad_knot, wrong = TorusKnot(5, 3), TorusKnot(0, 1)
    bad_expansion = cf.expand(bad_knot.fraction())
    by_step = verify.pinch_by_step
    monkeypatch.setattr(
        verify,
        "pinch_by_step",
        lambda expansion: wrong if expansion == bad_expansion else by_step(expansion),
    )
    outcomes = run_all(40)
    assert [o.cases_checked for o in outcomes] == [o.cases_checked for o in clean]
    assert outcomes[1:] == clean[1:]
    equivalence = outcomes[0]
    assert equivalence.failures_total == 1
    assert equivalence.counterexamples == [
        Counterexample(str(bad_knot), str(pinch(bad_knot).result), str(wrong))
    ]


def test_run_all_enumerates_the_box_once(monkeypatch):
    calls = []
    enumerate_box = verify.normalized_knots

    def counting(*args):
        calls.append(args)
        return enumerate_box(*args)

    monkeypatch.setattr(verify, "normalized_knots", counting)
    run_all(40)
    assert calls == [(40,)]


def test_run_all_expands_each_rational_once(monkeypatch):
    # One record per knot: its trace expands p/q once, and both expansion
    # routes read that expansion.  Besides, gamma3 expands the knot its walk
    # starts from, and for odd p crosscap_by_splitting expands p/q and its
    # two split pieces, as a route of its own: 2 calls per even-p knot and
    # 5 per odd-p knot.
    calls = []
    expand = cf.expand

    def counting(x):
        calls.append(x)
        return expand(x)

    monkeypatch.setattr(cf, "expand", counting)
    run_all(40)
    parities = [knot.p % 2 for knot in normalized_knots(40)]
    assert len(calls) == 2 * parities.count(0) + 5 * parities.count(1)


# The knots on which each entry point computes gamma3: only
# crosscap-odd-consistency (odd p) and gap-formula (even p) read it.
GAMMA3_KNOTS = {
    "check_pinch_equivalence": lambda knot: False,
    "check_sign_lemma": lambda knot: False,
    "check_magnitude": lambda knot: False,
    "check_sign_parity": lambda knot: False,
    "check_terminal_unknot": lambda knot: False,
    "check_crosscap_odd_consistency": lambda knot: knot.p % 2 == 1,
    "check_gap_formula": lambda knot: knot.p % 2 == 0,
    "run_all": lambda knot: True,
}


@pytest.mark.parametrize("name", list(GAMMA3_KNOTS))
def test_gamma3_is_computed_only_where_it_is_read(monkeypatch, name):
    calls = []
    crosscap_number = verify.crosscap_number

    def counting(knot):
        calls.append(knot)
        return crosscap_number(knot)

    monkeypatch.setattr(verify, "crosscap_number", counting)
    getattr(verify, name)(40)
    assert calls == [knot for knot in normalized_knots(40) if GAMMA3_KNOTS[name](knot)]
