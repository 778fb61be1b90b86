"""Verification harness: counting semantics, outcome shape, failure capture."""

import itertools
import re

import pytest
from hypothesis import given, settings

from crosscap import cf, cli, genus, verify
from crosscap import knot as knot_module
from crosscap.errors import InvalidParameter
from crosscap.genus import odd_split
from crosscap.knot import PinchSign, TorusKnot, normalized_knots, pinch, pinch_by_step
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
from strategies import knots_of_long_expansions

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


@pytest.mark.parametrize("bound", [150.0, True, "150"])
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda entry: entry.__name__)
def test_every_entry_point_rejects_a_bound_that_is_not_an_int(entry, bound):
    # a float or a bool is no verify bound, as it is no knot parameter
    message = f"verify bound must be an int: {bound!r}"
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        entry(bound)


def test_counterexamples_are_capped_in_a_real_check(monkeypatch):
    # every knot then "pinches" to itself by the step route, so every case
    # fails; stepping to [0] would not do, since some knots below 40 really
    # pinch to T(0,1).  The counterexample names the two expansions.
    monkeypatch.setattr(cf, "step", lambda expansion: expansion)
    outcome = check_pinch_equivalence(40)
    assert not outcome.passed
    assert outcome.failures_total == outcome.cases_checked > MAX_COUNTEREXAMPLES
    assert len(outcome.counterexamples) == MAX_COUNTEREXAMPLES
    first_knots = list(normalized_knots(40))[:MAX_COUNTEREXAMPLES]
    assert [c.input for c in outcome.counterexamples] == [str(k) for k in first_knots]
    assert outcome.counterexamples[0] == Counterexample("T(2,3)", "[0]", "[0,1,2]")


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
    bad_knot, wrong = TorusKnot(5, 3), cf.expand(0)
    bad_expansion = cf.expand((bad_knot.p, bad_knot.q))
    step = cf.step
    monkeypatch.setattr(
        cf, "step", lambda expansion: wrong if expansion == bad_expansion else step(expansion)
    )
    outcomes = run_all(40)
    assert [o.cases_checked for o in outcomes] == [o.cases_checked for o in clean]
    assert outcomes[1:] == clean[1:]
    equivalence = outcomes[0]
    assert equivalence.failures_total == 1
    result = pinch(bad_knot).result
    assert equivalence.counterexamples == [
        Counterexample(str(bad_knot), str(cf.expand((result.p, result.q))), str(wrong))
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


def slices_of(bound, *cuts):
    """The outcomes of the contiguous slices of the box's knots, in
    `normalized_knots` order, cut at the positions `cuts`."""
    knots = list(normalized_knots(bound))
    bounds = [0, *cuts, len(knots)]
    return [verify._run_slice(bound, knots[:hi], lo) for lo, hi in itertools.pairwise(bounds)]


def assert_every_split_merges_to_run_all(bound):
    # every cut in two, most of them inside a row of p, and one in three
    whole = run_all(bound)
    size = len(list(normalized_knots(bound)))
    for cut in range(size + 1):
        assert verify._merge(slices_of(bound, cut)) == whole, cut
    assert verify._merge(slices_of(bound, 151, 302)) == whole


def test_merged_slices_are_run_all():
    assert_every_split_merges_to_run_all(40)


def test_merged_slices_keep_the_first_counterexamples(monkeypatch):
    # every knot fails pinch-equivalence: both sides of most cuts hold
    # failures, and a cut at position 300 of the 450 knots leaves more than
    # MAX_COUNTEREXAMPLES on each side, so the merge must drop the second
    # side's
    monkeypatch.setattr(cf, "step", lambda expansion: expansion)
    whole = run_all(40)
    assert whole[0].failures_total > MAX_COUNTEREXAMPLES
    halves = slices_of(40, 300)
    assert [len(half[0].counterexamples) for half in halves] == [MAX_COUNTEREXAMPLES] * 2
    assert_every_split_merges_to_run_all(40)


def test_a_slice_needs_the_walks_of_the_knots_before_it():
    # without its prefix walked, a slice's walks find no entry for the
    # knots it pinches onto below it, and the checks reading them fail
    knots = list(normalized_knots(40))
    lo = next(i for i, knot in enumerate(knots) if knot.p >= 20)
    assert all(outcome.passed for outcome in verify._run_slice(40, knots, lo))
    outcomes = {outcome.check_name: outcome for outcome in verify._run_slice(40, knots[lo:], 0)}
    failed = sorted(name for name, outcome in outcomes.items() if not outcome.passed)
    assert failed == ["crosscap-odd-consistency", "gap-formula", "terminal-unknot"]
    for name in failed:
        for case in outcomes[name].counterexamples:
            assert case.expected.startswith("a walk from T(") and case.actual == "none"


@pytest.mark.parametrize("min_slice", [1, 300, 2048])
@pytest.mark.parametrize("cpus", [1, 2, 3, 4, 8, 32, 64])
def test_one_cut_serves_table_and_verify(monkeypatch, cpus, min_slice):
    # `cli._cut` cuts a table's knots and a verify box's alike: equal
    # slices, none of them small, however many CPUs there are
    monkeypatch.setattr(cli, "_MIN_SLICE", min_slice)
    for size in (0, 1, 2, 3, 7, 14, 100, 300, 301, 450, 2048, 2049, 6708, 303192):
        bounds = cli._cut(size, cpus)
        n = max(1, min(cpus, -(-size // min_slice)))
        assert len(bounds) == n + 1 and bounds[0] == 0 and bounds[-1] == size
        lengths = [hi - lo for lo, hi in itertools.pairwise(bounds)]
        assert max(lengths) - min(lengths) <= 1, bounds
        if n > 1:
            # M + 1 knots in two slices leave the first M/2 for an even M
            assert 2 * lengths[0] >= min_slice, bounds
            assert all(2 * length > min_slice for length in lengths[1:]), bounds


def test_run_all_expands_each_rational_once(monkeypatch):
    # One record per knot expands p/q once, and the step route, the sign
    # parity, the run sums and gamma3 read that expansion.  Besides,
    # pinch-equivalence expands the residue pinch's result, the key the
    # stepped expansion is compared with, and for odd p `odd_split` expands
    # p/q as a route of its own; the split pieces' walks are read from the
    # walk table: 2 calls per even-p knot and 3 per odd-p knot.
    calls = []
    expand = cf.expand

    def counting(x):
        calls.append(x)
        return expand(x)

    monkeypatch.setattr(cf, "expand", counting)
    run_all(40)
    parities = [knot.p % 2 for knot in normalized_knots(40)]
    assert len(calls) == 2 * parities.count(0) + 3 * parities.count(1)


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

    def counting(knot, walks):
        built.append(knot)
        return record(knot, walks)

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


def test_run_all_catches_a_walk_count_bug(monkeypatch):
    # the library's run sums gain a move on every run of 3 or more moves
    # after the third coefficient; gamma3 and beta1_F both read those sums,
    # so only the residue walks of the walk table can tell.  The mutant sums
    # the runs `knot._runs` yields, and both readers of the sums get it.
    runs = knot_module._runs

    def one_move_too_many(coeffs):
        moves, positive, last = 0, True, coeffs[-1]
        for n, k, _, _, last in runs(coeffs):
            moves += n + 1 if k >= 3 and n >= 3 else n
            positive = positive and k % 2 == 1
        return moves, positive, last

    monkeypatch.setattr(verify, "_walk_sums", one_move_too_many)
    monkeypatch.setattr(genus, "_walk_sums", one_move_too_many)
    failed = [outcome.check_name for outcome in run_all(60) if not outcome.passed]
    assert failed == ["terminal-unknot", "crosscap-odd-consistency", "gap-formula"]


def test_a_walk_missing_from_the_table_is_a_failed_claim(monkeypatch):
    # a broken pinch sends T(2,3) off the box order, so the table has no
    # walk from it, nor from the knots whose walks pass through it: the
    # checks that read those walks fail, naming the knot, and the pass goes on
    bad, off = TorusKnot(2, 3), TorusKnot(42, 41)
    real = verify.pinch
    monkeypatch.setattr(
        verify, "pinch", lambda knot: real(knot)._replace(result=off) if knot == bad else real(knot)
    )
    outcomes = {outcome.check_name: outcome for outcome in run_all(40)}
    failed = [name for name in ALL_CHECK_NAMES if not outcomes[name].passed]
    assert failed == [
        "pinch-equivalence",
        "terminal-unknot",
        "crosscap-odd-consistency",
        "gap-formula",
    ]
    assert outcomes["terminal-unknot"].counterexamples[0] == Counterexample(
        "T(2,3)", "a walk from T(42,41)", "none"
    )
    # T(5,3) splits into T(2,1) and T(2,3)
    assert Counterexample("T(5,3)", "a walk from T(2,3)", "none") in (
        outcomes["crosscap-odd-consistency"].counterexamples
    )
    for name in failed[1:]:
        for case in outcomes[name].counterexamples:
            assert case.expected.startswith("a walk from T(") and case.actual == "none"


BOX = 300


def test_box_order_lemma():
    # the induction of the walk table (`verify._Walks`): every first pinch
    # of a box knot lands on an unknot T(l,1), or on a box knot of the same
    # parity with a smaller p, so one enumerated earlier, and an odd-p
    # knot's split pieces are even-p unknots or box knots with a smaller p
    box = set(normalized_knots(BOX))
    for knot in box:
        result = pinch(knot).result
        assert result.p % 2 == knot.p % 2, knot
        assert result.q == 1 or (result in box and result.p < knot.p), knot
        if knot.p % 2:
            split = odd_split(knot)
            for piece in (split.first, split.second):
                assert piece.p % 2 == 0 and piece.p < knot.p and piece.q < knot.p, knot
                assert piece.q == 1 or piece in box, knot


@settings(max_examples=300)
@given(knots_of_long_expansions())
def test_first_pinch_lowers_p_at_large_magnitudes(knot):
    result = pinch(knot).result
    assert result.p % 2 == knot.p % 2
    assert result.q == 1 or (result.p < knot.p and result.q <= knot.q)


def assert_keys_match_the_oracle(knot):
    """The key route of pinch-equivalence, one step of p/q's expansion
    compared as an expansion, says a knot is the pinch result exactly when
    the oracle `pinch_by_step` does: for the residue pinch's result, where
    both agree, and for the knot itself, where neither does."""
    expansion = cf.expand((knot.p, knot.q))
    stepped, by_step = cf.step(expansion), pinch_by_step(expansion)
    result = pinch(knot).result
    for candidate in (result, knot):
        assert (cf.expand((candidate.p, candidate.q)) == stepped) is (candidate == by_step)
    assert cf.expand((result.p, result.q)) == stepped


def test_expansion_keys_match_the_step_oracle_on_the_box():
    for knot in normalized_knots(BOX):
        assert_keys_match_the_oracle(knot)


@settings(max_examples=300)
@given(knots_of_long_expansions())
def test_expansion_keys_match_the_step_oracle_large(knot):
    assert_keys_match_the_oracle(knot)


# Failure output, claim by claim: each case breaks one route on one knot of
# the box of 40, so that one claim (or both claims of a two-claim check)
# fails there, and pins each failing check's count and counterexamples; the
# other checks report as on the clean box.

T53, T45, T73, T97, T103 = (TorusKnot(*pair) for pair in ((5, 3), (4, 5), (7, 3), (9, 7), (10, 3)))


def expansion_of(knot):
    return cf.expand((knot.p, knot.q))


def with_witness(monkeypatch, bad, t, h):
    real = verify.pinch

    def patched(knot):
        record = real(knot)
        return record._replace(witness=record.witness._replace(t=t, h=h)) if knot == bad else record

    monkeypatch.setattr(verify, "pinch", patched)


def with_step(monkeypatch):
    step, bad = cf.step, expansion_of(T53)
    monkeypatch.setattr(cf, "step", lambda e: cf.expand(0) if e == bad else step(e))


def with_sign(monkeypatch):
    predict, bad = verify.pinch_sign_from_expansion, expansion_of(T53)
    flip = {PinchSign.POSITIVE: PinchSign.NEGATIVE, PinchSign.NEGATIVE: PinchSign.POSITIVE}
    monkeypatch.setattr(
        verify, "pinch_sign_from_expansion", lambda e: flip[predict(e)] if e == bad else predict(e)
    )


def with_ell(monkeypatch):
    ell = verify._ell  # (10, 3) is the only (p, p // q) of T(10,3) in the box
    monkeypatch.setattr(
        verify, "_ell", lambda p, k: ell(p, k) + 2 if (p, k) == (10, 3) else ell(p, k)
    )


def with_run_sums(monkeypatch):
    sums, bad = verify._walk_sums, expansion_of(T103).coeffs

    def patched(coeffs):
        moves, all_positive, last = sums(coeffs)
        return (moves + 1 if coeffs == bad else moves), all_positive, last

    monkeypatch.setattr(verify, "_walk_sums", patched)


def with_walk(monkeypatch, bad, change):
    # the table stores the true walk, and the record of `bad` reads `change` of it
    add = verify._Walks.add

    def patched(walks, first):
        walk = add(walks, first)
        return change(walk) if first.source == bad else walk

    monkeypatch.setattr(verify._Walks, "add", patched)


def with_gamma3(monkeypatch, bad, shift):
    gamma3, coeffs = verify._gamma3, expansion_of(bad).coeffs
    monkeypatch.setattr(
        verify, "_gamma3", lambda p, c: gamma3(p, c) + (shift if c == coeffs else 0)
    )


def with_split_piece(monkeypatch):
    split = verify.odd_split
    off = TorusKnot(42, 41)  # outside the box: the table has no walk from it
    monkeypatch.setattr(
        verify,
        "odd_split",
        lambda knot: split(knot)._replace(first=off) if knot == T73 else split(knot),
    )


CLAIM_FAILURES = {
    "pinch-equivalence": (with_step, {"pinch-equivalence": [("T(5,3)", "[1]", "[0]")]}),
    "sign-lemma product >= 0": (
        lambda mp: with_witness(mp, T53, 1, 2),
        {"sign-lemma": [("T(5,3)", "(p-2t)(q-2h) >= 0", "-3")]},
    ),
    "sign-lemma zero iff p == 2": (
        lambda mp: with_witness(mp, T45, 2, 4),
        {"sign-lemma": [("T(4,5)", "(p-2t)(q-2h) == 0 iff p == 2", "0")]},
    ),
    "magnitude-order p > q": (
        lambda mp: with_witness(mp, T53, 3, 3),
        {"magnitude-order": [("T(5,3)", "r >= s for p > q", "(1, 3)")]},
    ),
    "magnitude-order p < q": (
        lambda mp: with_witness(mp, T45, 4, 4),
        {"magnitude-order": [("T(4,5)", "r < s for p < q", "(4, 3)")]},
    ),
    "sign-parity": (
        with_sign,
        {"sign-parity": [("T(5,3)", "positive", "negative")]},
    ),
    "terminal-unknot l": (with_ell, {"terminal-unknot": [("T(10,3)", "6", "4")]}),
    "terminal-unknot run sums": (
        with_run_sums,
        {"terminal-unknot": [("T(10,3)", "(1, 4)", "(2, 4)")]},
    ),
    "terminal-unknot both claims": (
        lambda mp: with_walk(mp, T103, lambda walk: (walk[0], walk[1] + 2)),
        {"terminal-unknot": [("T(10,3)", "4", "6"), ("T(10,3)", "(1, 6)", "(1, 4)")]},
    ),
    "terminal-unknot no walk": (
        lambda mp: with_walk(mp, T97, lambda walk: None),
        {"terminal-unknot": [("T(9,7)", "a walk from T(1,1)", "none")]},
    ),
    "crosscap-odd-consistency": (
        lambda mp: with_gamma3(mp, T73, 1),
        {"crosscap-odd-consistency": [("T(7,3)", "2", "3")]},
    ),
    "crosscap-odd-consistency no walk": (
        with_split_piece,
        {"crosscap-odd-consistency": [("T(7,3)", "a walk from T(42,41)", "none")]},
    ),
    "gap-formula gap": (
        lambda mp: with_gamma3(mp, T103, 1),
        {"gap-formula": [("T(10,3)", "2", "3")]},
    ),
    "gap-formula both claims": (
        lambda mp: with_gamma3(mp, T103, -3),
        {"gap-formula": [("T(10,3)", "2", "-1"), ("T(10,3)", "gap >= 3/2", "-1")]},
    ),
}


@pytest.mark.parametrize("case", list(CLAIM_FAILURES))
def test_failure_output_is_pinned_claim_by_claim(monkeypatch, case):
    clean = run_all(40)
    patch, failures = CLAIM_FAILURES[case]
    patch(monkeypatch)
    outcomes = run_all(40)
    assert [o.cases_checked for o in outcomes] == [o.cases_checked for o in clean]
    for outcome, clean_outcome in zip(outcomes, clean):
        expected = [Counterexample(*row) for row in failures.get(outcome.check_name, [])]
        if not expected:
            assert outcome == clean_outcome
            continue
        assert outcome.failures_total == len(expected)
        assert outcome.counterexamples == expected


# The check protocol: a predicate returns only its failed claims, as
# (expected, actual) pairs, and the constant () when the knot passes.


def test_a_passing_knot_returns_no_claim():
    walks = verify._Walks(60)
    for knot in normalized_knots(60):
        record = verify._Knot(knot, walks)
        for name, _, parity, predicate in verify._CHECKS:
            if parity is None or parity == knot.p % 2:
                assert predicate(record) == (), (name, knot)


def test_a_passing_box_builds_no_counterexample(monkeypatch):
    def build(*args):
        raise AssertionError(f"a counterexample was built: {args}")

    monkeypatch.setattr(verify, "Counterexample", build)
    assert all(outcome.passed for outcome in run_all(150))
