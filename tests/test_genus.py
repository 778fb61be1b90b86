"""Genus invariants: frozen example values plus structural properties."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crosscap import (
    EXACT_BY_COLLAPSE,
    EXACT_BY_POSITIVE_PINCHES,
    EXACT_UNKNOWN,
    FourGenusBounds,
    GenusReport,
    OddSplit,
    PinchSign,
    PinchTrace,
    StopRule,
    TorusKnot,
    cf,
    crosscap_by_splitting,
    crosscap_number,
    euclidean_division,
    four_genus_bounds,
    gap_report,
    genus,
    genus_report,
    normalize,
    normalized_knots,
    odd_split,
    orientable_genus,
    pinch_sequence,
    pinches_to_unknot,
    pinches_to_zero,
    terminal_unknot_parameter,
)
from crosscap import knot as knot_module
from crosscap.errors import (
    EvenParity,
    OddParity,
    UnknotInput,
)

from math import gcd

from oracles import crosscap_knot, odd_crosscap_pair, oracle_sequence
from strategies import knots_of_long_expansions


@st.composite
def nontrivial_knots(draw, max_param=200):
    a = draw(st.integers(min_value=2, max_value=max_param))
    b = draw(st.integers(min_value=2, max_value=max_param))
    assume(gcd(a, b) == 1)
    return normalize(a, b)


@pytest.mark.parametrize(
    "knot, expected",
    [
        ((4, 3), (1, 1)),
        ((8, 3), (2, 2)),
        ((4, 7), (0, 4)),
        ((5, 3), (1, 2)),
        ((14, 3), (4, 2)),
    ],
)
def test_euclidean_division_examples(knot, expected):
    assert euclidean_division(TorusKnot(*knot)) == expected


def test_euclidean_division_requires_q_above_one():
    with pytest.raises(UnknotInput):
        euclidean_division(TorusKnot(5, 1))


@pytest.mark.parametrize(
    "knot, ell",
    [
        ((4, 3), 2),
        ((4, 7), 0),
        ((5, 3), 1),
        ((16, 5), 4),
        ((14, 3), 4),
        ((8, 3), 2),
        ((7, 5), 1),
    ],
)
def test_terminal_unknot_parameter_examples(knot, ell):
    assert terminal_unknot_parameter(TorusKnot(*knot)) == ell


@pytest.mark.parametrize(
    "knot, count",
    [
        ((4, 3), 1),
        ((16, 5), 2),
        ((4, 7), 2),
        ((5, 3), 1),
        ((11, 5), 2),
    ],
)
def test_pinches_to_unknot_examples(knot, count):
    assert pinches_to_unknot(TorusKnot(*knot)) == count


def test_pinches_to_unknot_rejects_unknots():
    with pytest.raises(UnknotInput):
        pinches_to_unknot(TorusKnot(2, 1))


@pytest.mark.parametrize(
    "knot, count",
    [
        ((4, 3), 2),
        ((2, 3), 1),
        ((8, 3), 2),
        ((2, 1), 1),  # Moebius band: one pinch
        ((0, 1), 0),
        ((16, 5), 4),
    ],
)
def test_pinches_to_zero_examples(knot, count):
    assert pinches_to_zero(TorusKnot(*knot)) == count


def test_pinches_to_zero_requires_even_p():
    with pytest.raises(OddParity):
        pinches_to_zero(TorusKnot(5, 3))


def test_odd_split_examples():
    split = odd_split(TorusKnot(5, 3))
    assert (split.first, split.second) == (TorusKnot(2, 1), TorusKnot(2, 3))
    split = odd_split(TorusKnot(7, 5))
    assert (split.first, split.second) == (TorusKnot(2, 3), TorusKnot(4, 3))


def test_odd_split_errors():
    with pytest.raises(UnknotInput):
        odd_split(TorusKnot(3, 1))
    with pytest.raises(EvenParity):
        odd_split(TorusKnot(4, 3))


def test_odd_split_structure():
    for knot in normalized_knots(60):
        if knot.p % 2 == 0:
            continue
        split = odd_split(knot)
        # each piece keeps exactly one even parameter, and the raw pieces
        # sum back to the original parameters
        assert split.first.p % 2 == 0 and split.first.q % 2 == 1
        assert split.second.p % 2 == 0 and split.second.q % 2 == 1


# `genus._split` writes its pieces through their slots: each one
# re-validates through the constructor, and equals the piece `normalize`
# builds from the raw convergent pair and its complement.  The split is
# built by `tuple.__new__`, which checks neither type nor field count, and
# a NamedTuple equals any tuple of its values, so it must be an `OddSplit`
# that rebuilds through its constructor; so must a report and its bounds.


def assert_is_its_type(value, cls):
    assert type(value) is cls and cls(*value) == value, value


def assert_split_pieces_revalidate(knot):
    split = odd_split(knot)
    assert_is_its_type(split, OddSplit)
    ps, qs = cf.convergent_terms(cf.expand((knot.p, knot.q)).coeffs[:-1])
    raw = ((ps[-1], qs[-1]), (knot.p - ps[-1], knot.q - qs[-1]))
    for piece, (a, b) in zip((split.first, split.second), raw):
        assert type(piece.p) is int and type(piece.q) is int, knot
        assert piece == TorusKnot(piece.p, piece.q) == normalize(a, b), knot
    assert genus_report(knot).split == split


def test_split_pieces_revalidate_on_the_box():
    for knot in normalized_knots(300):
        if knot.p % 2:
            assert_split_pieces_revalidate(knot)


@settings(max_examples=200, deadline=None)
@given(knots_of_long_expansions().filter(lambda knot: knot.p % 2))
def test_split_pieces_revalidate_large(knot):
    assert_split_pieces_revalidate(knot)


@pytest.mark.parametrize("knot, value", [((5, 3), 2), ((7, 5), 3)])
def test_crosscap_by_splitting_examples(knot, value):
    assert crosscap_by_splitting(TorusKnot(*knot)) == value


@pytest.mark.parametrize(
    "knot, value",
    [
        ((4, 3), 2),
        ((5, 3), 2),
        ((7, 5), 3),
        ((16, 5), 4),
        ((2, 3), 1),
        ((14, 3), 3),
    ],
)
def test_crosscap_number_examples(knot, value):
    assert crosscap_number(TorusKnot(*knot)) == value


def test_crosscap_number_rejects_unknots():
    with pytest.raises(UnknotInput):
        crosscap_number(TorusKnot(5, 1))


def crosscap_fraction(knot):
    """Test oracle for `crosscap_knot`: the rational Teragaito's formula
    walks, p/q for even p and (pq-1)/p^2 or (pq+1)/p^2 for odd p, chosen by
    the parity of x with xq = -1 (mod p)."""
    p, q = knot.p, knot.q
    if p % 2 == 0:
        return Fraction(p, q)
    x = (-pow(q, -1, p)) % p
    return Fraction(p * q - 1 if x % 2 == 0 else p * q + 1, p * p)


def test_crosscap_knot_matches_the_formula_on_the_box():
    for knot in normalized_knots(300):
        walked = crosscap_knot(knot)
        expected = crosscap_fraction(knot)
        assert (walked.p, walked.q) == (expected.numerator, expected.denominator)
        assert crosscap_number(knot) == cf.steps_to_zero(expected)


def test_crosscap_knot_is_a_knot_on_the_unknots():
    # `crosscap_number`, and so `report`, rejects a trivial knot, but
    # `crosscap_knot` itself is defined on the unknots too
    for knot in [TorusKnot(0, 1), TorusKnot(1, 1)] + [TorusKnot(l, 1) for l in range(2, 51)]:
        walked = crosscap_knot(knot)
        expected = crosscap_fraction(knot)
        assert walked == TorusKnot(walked.p, walked.q)
        assert (walked.p, walked.q) == (expected.numerator, expected.denominator)
        assert pinches_to_zero(walked) >= 0


def test_crosscap_knot_revalidates_on_the_box():
    # the oracle builds its knot through the constructor; every one of the
    # p,q <= 150 box, trivial knots included, passes its checks
    unknots = [TorusKnot(0, 1), TorusKnot(1, 1)] + [TorusKnot(l, 1) for l in range(2, 151)]
    for knot in unknots + list(normalized_knots(150)):
        walked = crosscap_knot(knot)
        assert type(walked.p) is int and type(walked.q) is int
        assert walked == TorusKnot(walked.p, walked.q)


def test_batson_family_small():
    for k in range(2, 30):
        knot = TorusKnot(2 * k, 2 * k - 1)
        assert crosscap_number(knot) == k
        bounds = four_genus_bounds(knot)
        assert bounds.exact == k - 1


@pytest.mark.parametrize(
    "knot, lower, upper, exact, provenance",
    [
        ((4, 3), 1, 1, 1, EXACT_BY_POSITIVE_PINCHES),
        ((16, 5), 1, 2, 2, EXACT_BY_POSITIVE_PINCHES),
        ((5, 3), 1, 1, 1, EXACT_BY_COLLAPSE),
        ((14, 3), 1, 1, 1, EXACT_BY_COLLAPSE),  # single pinch, but a negative one
        ((6, 5), 1, 2, 2, EXACT_BY_POSITIVE_PINCHES),
        ((10, 7), 1, 2, None, EXACT_UNKNOWN),
        ((11, 5), 1, 2, None, EXACT_UNKNOWN),
    ],
)
def test_four_genus_bounds_examples(knot, lower, upper, exact, provenance):
    bounds = four_genus_bounds(TorusKnot(*knot))
    assert (bounds.lower, bounds.upper, bounds.exact, bounds.provenance) == (
        lower,
        upper,
        exact,
        provenance,
    )


def test_lobb_counterexample_is_not_certified():
    # Lobb, "A counterexample to Batson's conjecture" (2019): gamma4(T(4,9))
    # is 1 while beta1_F is 2, so no certificate may call gamma4 exact at 2
    report = genus_report(TorusKnot(4, 9))
    assert report.beta1_F == 2
    assert (report.gamma4.exact, report.gamma4.provenance) == (None, EXACT_UNKNOWN)


def test_four_genus_batson_provenance():
    # q = p-1 with more than one pinch and a negative somewhere is impossible,
    # so the all-positive rule usually wins; force the batson label off a knot
    # where the trace is longer than one move
    bounds = four_genus_bounds(TorusKnot(8, 7))
    assert bounds.exact == 3
    assert bounds.provenance == EXACT_BY_POSITIVE_PINCHES


@pytest.mark.parametrize(
    "knot, gap, bound",
    [
        ((4, 3), 1, Fraction(1, 2)),
        ((8, 3), 1, Fraction(1)),
        ((4, 7), 0, Fraction(0)),
        ((14, 3), 2, Fraction(2)),
        ((16, 5), 2, Fraction(3, 2)),
    ],
)
def test_gap_report_examples(knot, gap, bound):
    assert gap_report(TorusKnot(*knot)) == (gap, bound)


def test_gap_report_errors():
    with pytest.raises(OddParity):
        gap_report(TorusKnot(5, 3))
    with pytest.raises(UnknotInput):
        gap_report(TorusKnot(2, 1))


def test_gap_report_expands_once(monkeypatch):
    # the gap is read off one expansion of p/q; a trivial knot is refused
    # by the division before an odd one by its parity, with no expansion
    calls = []
    expand = cf.expand
    monkeypatch.setattr(cf, "expand", lambda x: calls.append(x) or expand(x))
    assert gap_report(TorusKnot(16, 5)) == (2, Fraction(3, 2))
    assert calls == [(16, 5)]
    with pytest.raises(UnknotInput):
        gap_report(TorusKnot(3, 1))
    with pytest.raises(OddParity):
        gap_report(TorusKnot(5, 3))
    assert calls == [(16, 5)]


def test_gap_is_gamma3_less_beta1_on_the_box():
    # `gap_report` reads the gap off the walk's shape, as the unknot tail l/2;
    # it must be the difference of the two invariants, each pinned to its
    # stepwise oracle by the tests above
    for knot in normalized_knots(150):
        if knot.p % 2 == 0:
            assert gap_report(knot)[0] == crosscap_number(knot) - pinches_to_unknot(knot)


@pytest.mark.parametrize(
    "knot, genus",
    [
        ((4, 3), 3),
        ((5, 3), 4),
        ((2, 3), 1),
        ((0, 1), 0),
        ((1, 1), 0),
    ],
)
def test_orientable_genus_examples(knot, genus):
    assert orientable_genus(TorusKnot(*knot)) == genus


def test_genus_report_assembly():
    report = genus_report(TorusKnot(4, 3))
    assert (report.k, report.a, report.ell) == (1, 1, 2)
    assert report.beta1_F == 1
    assert report.gamma3 == 2
    assert report.gamma4.upper == report.beta1_F
    assert report.gap_lower_bound == Fraction(1, 2)
    assert report.orientable_genus == 3
    assert report.split is None
    assert report.trace.moves == 1

    report = genus_report(TorusKnot(5, 3))
    assert report.split is not None
    assert (report.split.first, report.split.second) == (
        TorusKnot(2, 1),
        TorusKnot(2, 3),
    )


def test_report_trace_is_the_lazy_trace(monkeypatch):
    report = genus_report(TorusKnot(16, 5))
    assert report.trace == PinchTrace(TorusKnot(16, 5), StopRule.FIRST_UNKNOT)
    records = pinch_sequence(report.trace.knot, report.trace.stop)
    assert records == oracle_sequence(TorusKnot(16, 5), StopRule.FIRST_UNKNOT)
    assert report == genus_report(TorusKnot(16, 5))
    # the trace is built from the report's expansion, as the constructor
    # builds it from its own
    knots = list(normalized_knots(40))
    pairs = [(genus_report(knot), PinchTrace(knot, StopRule.FIRST_UNKNOT)) for knot in knots]
    def expand(_):
        raise AssertionError("p/q was expanded again")

    monkeypatch.setattr(cf, "expand", expand)
    for report, fresh in pairs:
        trace = report.trace
        assert trace.expansion is report.expansion
        assert (trace.moves, trace.all_positive, trace.final) == (
            fresh.moves,
            fresh.all_positive,
            fresh.final,
        )
        assert list(trace.segments()) == list(fresh.segments())
    monkeypatch.undo()
    # a report and its bounds are immutable values
    for knot in (TorusKnot(16, 5), TorusKnot(17, 5), TorusKnot(8, 7)):
        report = genus_report(knot)
        again = genus_report(TorusKnot(knot.p, knot.q))
        assert report == again and hash(report) == hash(again)
        assert report.gamma4 == again.gamma4 and hash(report.gamma4) == hash(again.gamma4)
        assert report.expansion == cf.expand((knot.p, knot.q))
        assert report == tuple(report)
        for value, name in ((report, "gamma3"), (report, "expansion"), (report.gamma4, "exact")):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
    assert genus_report(TorusKnot(16, 5)) != genus_report(TorusKnot(17, 5))


def test_four_genus_bounds_read_the_runs():
    # a Batson knot with 10^30 - 1 pinches: its certificate comes from one run,
    # where a walk of one record per pinch would never finish
    k = 10**30
    bounds = four_genus_bounds(TorusKnot(2 * k, 2 * k - 1))
    assert (bounds.upper, bounds.exact) == (k - 1, k - 1)
    assert bounds.provenance == EXACT_BY_POSITIVE_PINCHES
    for knot in normalized_knots(60):
        trace = pinch_sequence(knot, StopRule.FIRST_UNKNOT)
        bounds = four_genus_bounds(knot)
        assert bounds.upper == len(trace)
        positive = all(r.sign is PinchSign.POSITIVE for r in trace)
        assert (bounds.provenance == EXACT_BY_POSITIVE_PINCHES) == (knot.p % 2 == 0 and positive)


def test_genus_report_rejects_unknots():
    with pytest.raises(UnknotInput):
        genus_report(TorusKnot(1, 1))


# Structural properties over exhaustive small ranges.


def test_even_case_consistency():
    # crosscap number, pinches to zero, and the trace-based count agree
    for knot in normalized_knots(60):
        if knot.p % 2:
            continue
        gamma3 = crosscap_number(knot)
        assert gamma3 == pinches_to_zero(knot)
        ell = terminal_unknot_parameter(knot)
        assert ell % 2 == 0
        assert gamma3 == pinches_to_unknot(knot) + ell // 2


def test_terminal_parameter_matches_trace():
    for knot in normalized_knots(60):
        observed = pinch_sequence(knot, StopRule.FIRST_UNKNOT)[-1].result.p
        assert terminal_unknot_parameter(knot) == observed


def test_odd_case_consistency_small():
    for knot in normalized_knots(60):
        if knot.p % 2 == 0:
            continue
        assert crosscap_number(knot) == crosscap_by_splitting(knot)


def test_sandwich_and_exactness_flags():
    for knot in normalized_knots(60):
        bounds = four_genus_bounds(knot)
        gamma3 = crosscap_number(knot)
        assert 1 <= bounds.lower <= bounds.upper <= gamma3
        if bounds.exact is None:
            assert bounds.provenance == EXACT_UNKNOWN
            assert bounds.lower < bounds.upper
        else:
            assert bounds.provenance != EXACT_UNKNOWN
            assert bounds.lower <= bounds.exact <= bounds.upper


def test_family_km1_small():
    for m in range(3, 14, 2):
        for k in range(1, 14, 2):
            knot = normalize(k * m + 1, m)
            assert knot == TorusKnot(k * m + 1, m)
            assert pinches_to_unknot(knot) == (m - 1) // 2
            trace = pinch_sequence(knot, StopRule.FIRST_UNKNOT)
            assert all(r.sign is PinchSign.POSITIVE for r in trace)
            bounds = four_genus_bounds(knot)
            assert bounds.exact == (m - 1) // 2
            assert bounds.provenance == EXACT_BY_POSITIVE_PINCHES
            assert crosscap_number(knot) == (m - 1) // 2 + (k + 1) // 2
            gap, _ = gap_report(knot)
            assert gap == (k + 1) // 2


@settings(max_examples=100)
@given(nontrivial_knots())
def test_report_internal_consistency_random(knot):
    report = genus_report(knot)
    assert report.gamma4.upper == report.beta1_F == report.trace.moves
    assert 1 <= report.gamma4.lower <= report.gamma4.upper <= report.gamma3
    assert report.gap_lower_bound == Fraction(report.k, 2)
    if knot.p % 2 == 0:
        assert report.gamma3 - report.beta1_F == report.ell // 2
        assert Fraction(report.gamma3 - report.beta1_F) >= report.gap_lower_bound
        assert report.split is None
    else:
        assert report.split is not None


# `genus_report` shares one expansion between its walk sums and gamma3, derives
# ell from its own division, and splits only when `split` is read.  Each
# field must equal its independent public route.


def assert_report_matches_the_routes(knot):
    report = genus_report(knot)
    assert_is_its_type(report, GenusReport)
    bounds = four_genus_bounds(knot)
    assert_is_its_type(report.gamma4, FourGenusBounds)
    assert_is_its_type(bounds, FourGenusBounds)
    assert report.gamma4 == bounds
    assert report.gamma3 == crosscap_number(knot)
    assert report.split == (odd_split(knot) if knot.p % 2 else None)
    assert report.ell == terminal_unknot_parameter(knot)
    assert report.beta1_F == pinches_to_unknot(knot)
    assert (report.k, report.a) == euclidean_division(knot)
    assert_gap_bound_is_half_of_k(report)


def assert_gap_bound_is_half_of_k(report):
    # reports with one quotient share one k/2, which is still a Fraction
    assert type(report.gap_lower_bound) is Fraction, report.knot
    assert report.gap_lower_bound == Fraction(report.k, 2), report.knot


def test_genus_report_matches_the_routes_on_the_box():
    for knot in normalized_knots(150):
        assert_report_matches_the_routes(knot)


@st.composite
def knots_below(draw, bound):
    p = draw(st.integers(min_value=3, max_value=bound - 1))
    q = draw(st.integers(min_value=2, max_value=p - 1))
    assume(gcd(p, q) == 1)
    return normalize(p, q)


@settings(max_examples=60, deadline=None)
@given(knots_below(10**5))
def test_genus_report_matches_the_routes_large(knot):
    assert_report_matches_the_routes(knot)


@settings(max_examples=200, deadline=None)
@given(knots_of_long_expansions(), st.integers(min_value=0, max_value=10**30))
def test_gap_bound_is_half_of_k_large(knot, shift):
    # an odd p moves by 2*shift*q, which keeps it odd and coprime to q and
    # raises k by 2*shift; an even p keeps its k, since its gamma3 steps
    if knot.p % 2:
        knot = TorusKnot(knot.p + 2 * shift * knot.q, knot.q)
    assert_gap_bound_is_half_of_k(genus_report(knot))


def test_gap_bound_cache_stays_bounded():
    # T(6j+1, 3) has quotient 2j: more distinct quotients than the cache
    # holds leave it full, not larger
    maxsize = genus._half.cache_info().maxsize
    assert maxsize is not None
    for j in range(1, maxsize + 100):
        report = genus_report(TorusKnot(6 * j + 1, 3))
        assert report.gap_lower_bound is genus._half(2 * j)
    assert genus._half.cache_info().currsize == maxsize


def test_genus_report_expands_once_per_walk(monkeypatch):
    # the trace expands p/q; gamma3 reads that expansion for every p, and
    # the split is not built
    calls = []
    expand = cf.expand

    def counting(x):
        calls.append(x)
        return expand(x)

    monkeypatch.setattr(cf, "expand", counting)
    for knot in normalized_knots(40):
        calls.clear()
        genus_report(knot)
        assert len(calls) == 1, knot


# `pinches_to_zero` counts the ZERO walk by runs; `cf.steps_to_zero`, one
# `cf.step` per move, is its oracle.  Every even-p gamma3 route but
# `genus_report` reads it.


def assert_runs_count_the_steps(knot):
    assert pinches_to_zero(knot) == cf.steps_to_zero((knot.p, knot.q)), knot


def test_pinches_to_zero_matches_the_steps_on_the_box():
    # the `crosscap_knot` of every knot of the box, every even-p knot among
    # them, is walked in test_crosscap_knot_matches_the_formula_on_the_box
    for knot in normalized_knots(300):
        if knot.p % 2:
            split = odd_split(knot)
            assert_runs_count_the_steps(split.first)
            assert_runs_count_the_steps(split.second)
    for ell in range(0, 301, 2):
        assert_runs_count_the_steps(TorusKnot(ell, 1))


@st.composite
def even_expansions(draw, max_coeff=8, max_len=160):
    """A canonical expansion [c0, ..., cm] as its coefficient list, of a
    rational with an even numerator.  When the drawn numerator p_m is odd,
    one coefficient c >= 2 is appended with the parity of p_(m-1), so that
    p_(m+1) = c * p_m + p_(m-1) is even.  The coefficient sum is at most
    max_coeff * (max_len + 3), which bounds the stepwise walk, while runs of
    small coefficients take p past 10^30."""
    head = draw(st.integers(min_value=0, max_value=max_coeff))
    size = draw(st.integers(min_value=0, max_value=max_len))  # long ones as often as short
    coeff = st.integers(min_value=1, max_value=max_coeff)
    body = draw(st.lists(coeff, min_size=size, max_size=size))
    if body or head < 2:
        body.append(draw(st.integers(min_value=2, max_value=max_coeff)))
    before, numerator = 1, head  # p_(-1) and p_0
    for c in body:
        before, numerator = numerator, c * numerator + before
    if numerator % 2:
        odd = before % 2
        body.append(2 * draw(st.integers(min_value=1, max_value=(max_coeff - odd) // 2)) + odd)
    return [head] + body


@settings(max_examples=100, deadline=None)
@given(even_expansions())
@example([0] + [1] * 150 + [2, 2])  # p, q > 10^30
def test_pinches_to_zero_matches_the_steps_large(coeffs):
    value = cf.evaluate(coeffs)
    assert_runs_count_the_steps(TorusKnot(value.numerator, value.denominator))


# The fast route never steps, so it returns at sizes where a stepwise walk
# would not finish.


def forbid_steps(monkeypatch):
    def step(_):
        raise AssertionError("cf.step was called")

    monkeypatch.setattr(cf, "step", step)


BIG = 10**30


def test_gamma3_routes_do_not_step(monkeypatch):
    forbid_steps(monkeypatch)
    assert crosscap_number(TorusKnot(10**6, 3)) == 166668
    even, k = TorusKnot(2 * BIG, 3), 2 * BIG // 3
    assert gap_report(even) == ((k + 1) // 2, Fraction(k, 2))
    odd = TorusKnot(BIG + 1, BIG - 1)
    assert crosscap_number(odd) == crosscap_by_splitting(odd)


def test_closed_forms_at_large_k(monkeypatch):
    forbid_steps(monkeypatch)
    for k in (BIG, BIG + 1, 3 * BIG + 7):
        assert crosscap_number(TorusKnot(2 * k, 2 * k - 1)) == k
    for k in (BIG + 1, BIG + 3, 7 * BIG + 1):
        for m in (3, 5, 7, 99):
            knot = TorusKnot(k * m + 1, m)
            assert crosscap_number(knot) == (m - 1) // 2 + (k + 1) // 2
            assert gap_report(knot)[0] == (k + 1) // 2


@st.composite
def large_odd_knots(draw):
    a = draw(st.integers(min_value=BIG, max_value=BIG * 10**6))
    b = draw(st.integers(min_value=1, max_value=a - 1))
    p, q = 2 * a + 1, 2 * b + 1
    assume(gcd(p, q) == 1)
    return TorusKnot(p, q)


@settings(max_examples=100, deadline=None)
@given(large_odd_knots())
@example(TorusKnot(BIG + 1, BIG - 1))
@example(TorusKnot(2 * BIG + 1, 7))
def test_crosscap_routes_agree_on_large_odd_knots(knot):
    assert crosscap_number(knot) == crosscap_by_splitting(knot)


# Odd p: gamma3 walks (pq-+1)/p^2, whose expansion `genus._odd_crosscap_form`
# reads off p/q's own expansion as a near-palindrome; Teragaito's residue
# pair, `oracles.odd_crosscap_pair`, expanded, is its oracle.


def odd_knots(pmax):
    return (knot for knot in normalized_knots(pmax) if knot.p % 2)


def assert_form_is_the_oracle_expansion(knot):
    form = genus._odd_crosscap_form(cf.expand((knot.p, knot.q)).coeffs)
    assert form == cf.expand(odd_crosscap_pair(knot.p, knot.q)).coeffs, knot


def test_odd_crosscap_form_matches_the_oracle_on_the_box():
    for knot in odd_knots(300):
        assert_form_is_the_oracle_expansion(knot)


@st.composite
def odd_knots_below(draw, bound):
    a = draw(st.integers(min_value=2, max_value=bound // 2))
    b = draw(st.integers(min_value=1, max_value=a - 1))
    p, q = 2 * a + 1, 2 * b + 1
    assume(gcd(p, q) == 1)
    return TorusKnot(p, q)


@settings(max_examples=200, deadline=None)
@given(odd_knots_below(10**36))
@example(TorusKnot(5, 3))  # c0 = 1: the trailing 1 is folded
@example(TorusKnot(BIG + 1, 3))
def test_odd_crosscap_form_matches_the_oracle_large(knot):
    assert_form_is_the_oracle_expansion(knot)


def test_odd_crosscap_form_parity_rule_is_teragaitos_residue():
    # x = -q^(-1) mod p is the first pinch's witness t: p_{m-1} for odd m
    # and p - p_{m-1} for even m.  The middle pair is (c_m - 1, c_m + 1)
    # exactly when p_{m-1} is even, and that picks pq - 1 exactly when x is
    # even, whatever the parity of m
    both_orders = set()
    for knot in odd_knots(200):
        p, q = knot.p, knot.q
        coeffs = cf.expand((p, q)).coeffs
        m, last = len(coeffs) - 1, coeffs[-1]
        ps, _ = cf.convergent_terms(coeffs[:-1])
        x = (-pow(q, -1, p)) % p
        assert x == (ps[-1] if m % 2 else p - ps[-1]), knot
        first_order = genus._odd_crosscap_form(coeffs)[m + 1 : m + 3] == (last - 1, last + 1)
        assert first_order == (ps[-1] % 2 == 0), knot
        assert first_order == ((x % 2 == 0) == (m % 2 == 1)), knot
        both_orders.add((first_order, m % 2))
    assert both_orders == {(True, 0), (True, 1), (False, 0), (False, 1)}


def test_odd_genus_report_computes_no_residue(monkeypatch):
    # Teragaito's sign is read off p/q's expansion: no `pow`, and no step
    forbid_steps(monkeypatch)

    def no_pow(*args):
        raise AssertionError("pow was called")

    for module in (cf, genus, knot_module):
        monkeypatch.setattr(module, "pow", no_pow, raising=False)
    for knot in odd_knots(60):
        assert genus_report(knot).gamma3 == crosscap_by_splitting(knot), knot


def test_odd_genus_report_counts_a_walk_no_stepping_could_finish(monkeypatch):
    # the ZERO walk of T(10^30 + 1, 3)'s crosscap knot is about 10^29 moves
    forbid_steps(monkeypatch)
    knot = TorusKnot(BIG + 1, 3)
    assert genus_report(knot).gamma3 == crosscap_by_splitting(knot)
