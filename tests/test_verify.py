"""Verification harness: counting semantics, outcome shape, failure capture."""

import re

import pytest

from crosscap import cf, genus, verify
from crosscap import knot as knot_module
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


ENTRY_POINTS = [getattr(verify, name) for name in verify.__all__ if name.startswith("check_")]
ENTRY_POINTS.append(run_all)


@pytest.mark.parametrize("bound", [2, 0, -5])
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda entry: entry.__name__)
def test_every_entry_point_rejects_tiny_bounds(entry, bound):
    # a box below 3 holds no nontrivial knot: each check run alone refuses it
    # as run_all does, instead of passing with 0 cases
    message = f"verify bound must be at least 3: {bound}"
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        entry(bound)


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


@pytest.mark.parametrize("bound", [3, 40])
def test_case_counts_are_the_parity_tallies(bound):
    # a check's case count is the number of knots of the box of its parity:
    # all of them, or odd p for crosscap-odd-consistency, even p for gap-formula
    parities = [knot.p % 2 for knot in normalized_knots(bound)]
    everyone, odd, even = len(parities), parities.count(1), parities.count(0)
    expected = [everyone] * 5 + [odd, even]
    alone = [getattr(verify, name) for name in verify.__all__ if name.startswith("check_")]
    assert [outcome.cases_checked for outcome in run_all(bound)] == expected
    assert [check(bound).cases_checked for check in alone] == expected
    if bound == 3:  # T(2,3) alone: crosscap-odd-consistency has no case
        assert expected == [1] * 5 + [0, 1]


def test_run_all_divides_each_knot_once(monkeypatch):
    # the record computes k = p // q once, and terminal-unknot and gap-formula
    # read it: neither divides the knot again
    def divide(knot):
        raise AssertionError(f"{knot} divided again")

    for module in (genus, verify):
        for name in ("euclidean_division", "terminal_unknot_parameter"):
            monkeypatch.setattr(module, name, divide, raising=False)
    assert all(outcome.passed for outcome in run_all(40))


def test_failure_stays_inside_its_check(monkeypatch):
    clean = run_all(40)
    bad_knot, wrong = TorusKnot(5, 3), TorusKnot(0, 1)
    bad_expansion = cf.expand((bad_knot.p, bad_knot.q))
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
    # One record per knot expands p/q once, and both expansion routes, the
    # walk counts and gamma3 read that expansion.  Besides, for odd p
    # crosscap_by_splitting expands p/q and its two split pieces, as a route
    # of its own: 1 call per even-p knot and 4 per odd-p knot.
    calls = []
    expand = cf.expand

    def counting(x):
        calls.append(x)
        return expand(x)

    monkeypatch.setattr(cf, "expand", counting)
    run_all(40)
    parities = [knot.p % 2 for knot in normalized_knots(40)]
    assert len(calls) == parities.count(0) + 4 * parities.count(1)


# The knots for which each entry point builds a record: those of the parity
# its checks run on.
RECORD_KNOTS = {
    "check_sign_lemma": lambda knot: True,
    "check_crosscap_odd_consistency": lambda knot: knot.p % 2 == 1,
    "check_gap_formula": lambda knot: knot.p % 2 == 0,
    "run_all": lambda knot: True,
}


@pytest.mark.parametrize("name", list(RECORD_KNOTS))
def test_records_are_built_only_for_checked_knots(monkeypatch, name):
    # a knot whose parity no selected check runs on gets no record, but still
    # counts in the tallies
    built = []
    record = verify._Knot

    def counting(knot):
        built.append(knot)
        return record(knot)

    monkeypatch.setattr(verify, "_Knot", counting)
    outcome = getattr(verify, name)(40)
    expected = [knot for knot in normalized_knots(40) if RECORD_KNOTS[name](knot)]
    assert built == expected
    if name != "run_all":
        assert outcome.passed and outcome.cases_checked == len(expected)


def test_run_all_builds_no_pinch_trace(monkeypatch):
    # verify reads the walk counts off the one expansion; a `PinchTrace` is
    # for walks that are printed or iterated
    def build(trace):
        raise AssertionError(f"PinchTrace built for {trace.knot}")

    monkeypatch.setattr(knot_module.PinchTrace, "__post_init__", build)
    assert all(outcome.passed for outcome in run_all(40))


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
    # verify counts gamma3 from the expansion its record holds
    calls = []
    gamma3 = verify._gamma3

    def counting(p, coeffs):
        calls.append((p, coeffs))
        return gamma3(p, coeffs)

    monkeypatch.setattr(verify, "_gamma3", counting)
    getattr(verify, name)(40)
    assert calls == [
        (knot.p, cf.expand((knot.p, knot.q)).coeffs)
        for knot in normalized_knots(40)
        if GAMMA3_KNOTS[name](knot)
    ]
