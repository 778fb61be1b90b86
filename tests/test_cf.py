"""Continued-fraction layer: frozen examples, independent oracles, properties.

Oracles defined here deliberately avoid the library's code paths: values are
recomputed by building the nested fraction top-down, and expansions by greedy
floor-and-invert on Fractions rather than integer divmod.
"""

import itertools
import re
import time
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscap import cf as cf_module
from crosscap import (
    ContinuedFraction,
    canonicalize,
    convergents,
    evaluate,
    expand,
    step,
    steps_to_integer,
    steps_to_zero,
)
from crosscap.errors import (
    CrosscapError,
    InvalidParameter,
    NotCanonicalizable,
    OddParity,
    StepUndefined,
    ZeroDenominator,
)


def oracle_value(coeffs):
    """Test oracle for `evaluate`: nested Fraction division, right to left.

    Raises ZeroDivisionError where `evaluate` raises ZeroDenominator.
    """
    value = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        value = c + Fraction(1, 1) / value
    return value


def oracle_expand(x):
    coeffs = []
    while True:
        floor = x.numerator // x.denominator
        coeffs.append(floor)
        remainder = x - floor
        if remainder == 0:
            break
        x = 1 / remainder
    if len(coeffs) > 1 and coeffs[-1] == 1:
        coeffs.pop()
        coeffs[-1] += 1
    return tuple(coeffs)


def canonical_sequences(max_total):
    """Every canonical coefficient sequence with coefficient sum <= max_total."""

    def tails(prefix, budget):
        for last in range(2, budget + 1):
            yield prefix + (last,)
        for interior in range(1, budget - 1):
            yield from tails(prefix + (interior,), budget - interior)

    for c0 in range(max_total + 1):
        yield (c0,)
        yield from tails((c0,), max_total - c0)


def coprime_fractions(max_num, max_den):
    for b in range(1, max_den + 1):
        for a in range(0, max_num + 1):
            if gcd(a, b) == 1:
                yield Fraction(a, b)


nonneg_fractions = st.fractions(min_value=0, max_value=10**9, max_denominator=10**4)
huge_fractions = st.builds(Fraction, st.integers(0, 10**30), st.integers(1, 10**30))


@pytest.mark.parametrize(
    "value, coeffs",
    [
        (Fraction(7, 4), (1, 1, 3)),
        (Fraction(0), (0,)),
        (Fraction(1), (1,)),
        (Fraction(1, 2), (0, 2)),
        (Fraction(16, 25), (0, 1, 1, 1, 3, 2)),
        (Fraction(5), (5,)),
        (Fraction(8, 3), (2, 1, 2)),
    ],
)
def test_expand_examples(value, coeffs):
    assert expand(value).coeffs == coeffs
    assert oracle_expand(value) == coeffs


def test_expand_rejects_negatives():
    with pytest.raises(InvalidParameter):
        expand(Fraction(-1, 2))


@pytest.mark.parametrize(
    "coeffs, value",
    [
        ((1, 1, 3), Fraction(7, 4)),
        ((0,), Fraction(0)),
        ((2, 1, 2), Fraction(8, 3)),
        ((0, 1, 2), Fraction(2, 3)),
    ],
)
def test_evaluate_examples(coeffs, value):
    assert evaluate(coeffs) == value
    assert oracle_value(coeffs) == value


def test_evaluate_accepts_noncanonical_sequences():
    assert evaluate([1, 1, 1]) == Fraction(3, 2)
    assert evaluate([2, 3, 1]) == evaluate([2, 4])


def test_evaluate_zero_denominator():
    with pytest.raises(ZeroDenominator):
        evaluate([1, 0])
    with pytest.raises(ZeroDenominator):
        evaluate([0, 1, 1, 0])


def test_evaluate_empty_sequence():
    with pytest.raises(NotCanonicalizable):
        evaluate([])


@pytest.mark.parametrize(
    "raw, coeffs",
    [
        ([1, 1, 1], (1, 2)),
        ([0, 1, 0], (0,)),
        ([1, 3], (1, 3)),
        ([0, 1, 1, 1, 3, 0], (0, 1, 2)),
        ([5], (5,)),
        ([0], (0,)),
        ([2, 1], (3,)),
        ([4, 1, 2, 0], (5,)),  # drop [2,0], then fold the trailing 1

    ],
)
def test_canonicalize_examples(raw, coeffs):
    assert canonicalize(raw).coeffs == coeffs


@pytest.mark.parametrize(
    "raw",
    [
        [],
        [-1],
        [1, 0],  # would be the image of a half-integer, which has no step
        [2, 0, 5],
        [3, -2, 4],
        [1, 1, -1],
    ],
)
def test_canonicalize_rejects_bad_shapes(raw):
    with pytest.raises(NotCanonicalizable):
        canonicalize(raw)


def test_canonicalize_preserves_value_when_tail_is_one():
    for cf in canonical_sequences(9):
        raw = cf[:-1] + (cf[-1] - 2,)
        if raw[-1] >= 1:  # direct evaluation defined
            assert evaluate(canonicalize(raw)) == oracle_value(raw)


@pytest.mark.parametrize("coeffs", [(True, 3), (1, True, 3), (2.0, 3)])
def test_constructor_rejects_coefficients_that_are_not_ints(coeffs):
    # a bool is an int subclass, yet no coefficient: it would print as
    # [True,3]; `expand` still reads a bool as the Fraction it stands for
    with pytest.raises(TypeError, match="^coefficients must be integers$"):
        ContinuedFraction(coeffs)
    assert expand(True) == ContinuedFraction((1,))


def test_constructor_enforces_canonical_form():
    with pytest.raises(NotCanonicalizable):
        ContinuedFraction((1, 1))
    with pytest.raises(NotCanonicalizable):
        ContinuedFraction((-2,))
    with pytest.raises(NotCanonicalizable):
        ContinuedFraction((2, 0, 2))
    with pytest.raises(NotCanonicalizable):
        ContinuedFraction(())


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ((1, 1, 3), [(1, 1), (2, 1), (7, 4)]),
        ((0, 1, 2), [(0, 1), (1, 1), (2, 3)]),
        ((5,), [(5, 1)]),
        ((0, 2), [(0, 1), (1, 2)]),
    ],
)
def test_convergents_examples(coeffs, expected):
    got = [
        (c.value.numerator, c.value.denominator)
        for c in convergents(ContinuedFraction(coeffs))
    ]
    assert got == expected


def test_convergents_indices_and_final_value():
    cf = expand(Fraction(34, 49))
    cv = convergents(cf)
    assert [c.index for c in cv] == list(range(len(cf.coeffs)))
    assert cv[-1].value == Fraction(34, 49)


@pytest.mark.parametrize(
    "before, after",
    [
        ((1, 1, 3), (1, 2)),
        ((1, 3), (2,)),
        ((0, 1, 1, 1, 3, 2), (0, 1, 2)),
        ((2,), (0,)),
        ((3,), (1,)),
        ((7,), (5,)),
        ((0, 1, 2), (0,)),
        ((1, 9999), (1, 9997)),
        ((10**39 + 7,), (10**39 + 5,)),
    ],
)
def test_step_examples(before, after):
    assert step(ContinuedFraction(before)).coeffs == after


@pytest.mark.parametrize("coeffs", [(0,), (1,), (2, 2), (0, 2), (5, 2)])
def test_step_undefined(coeffs):
    # [0] and [1] have no step, and [c0, 2] is a half-integer
    reason = "no step from" if len(coeffs) == 1 else "step undefined for half-integer values:"
    text = ",".join(map(str, coeffs))
    with pytest.raises(StepUndefined, match=f"^{re.escape(f'{reason} [{text}]')}$"):
        step(ContinuedFraction(coeffs))


@pytest.mark.parametrize(
    "value, count",
    [
        (Fraction(4, 3), 2),
        (Fraction(0), 0),
        (Fraction(16, 25), 2),
        (Fraction(34, 49), 3),
        (Fraction(2), 1),
        (Fraction(2, 5), 1),
        (Fraction(8, 3), 2),
    ],
)
def test_steps_to_zero_examples(value, count):
    assert steps_to_zero(value) == count


@pytest.mark.parametrize("value", [Fraction(3, 5), Fraction(1), Fraction(7, 4), 3, "3/4"])
def test_steps_to_zero_rejects_odd_numerators(value):
    with pytest.raises(OddParity):
        steps_to_zero(value)


@pytest.mark.parametrize(
    "value, expected",
    [
        (Fraction(4, 3), (1, 2)),
        (Fraction(4, 7), (2, 0)),
        (Fraction(5), (0, 5)),
        (Fraction(16, 5), (2, 4)),
        (Fraction(0), (0, 0)),
    ],
)
def test_steps_to_integer_examples(value, expected):
    assert steps_to_integer(value) == expected


def test_quotient_shift_lemma():
    # p = qk + a gives p/q = [k; tail] with the tail fixed by a/q, and a step
    # reads c0 only once the expansion is one entry.  So the walk from p/q
    # is the walk from a/q, and ends at k more; for odd q that end is a mod 2.
    cases = 0
    for q in range(3, 40, 2):
        for a in range(1, q):
            if gcd(a, q) != 1:
                continue
            count, delta = steps_to_integer(Fraction(a, q))
            assert delta == a % 2
            for k in range(12):
                assert steps_to_integer(Fraction(q * k + a, q)) == (count, delta + k)
                cases += 1
    assert cases == 3792


# Properties.


def test_round_trip_exhaustive_small():
    for x in coprime_fractions(60, 60):
        cf = expand(x)
        assert evaluate(cf) == x
        assert cf.coeffs == oracle_expand(x)


@given(nonneg_fractions)
def test_round_trip_random(x):
    assert evaluate(expand(x)) == x


@given(nonneg_fractions)
def test_expand_matches_oracle(x):
    assert expand(x).coeffs == oracle_expand(x)


def test_uniqueness_by_enumeration():
    seqs = list(canonical_sequences(11))
    values = [oracle_value(s) for s in seqs]
    assert len(set(values)) == len(seqs)
    # completeness of canonical form: expanding each value recovers its sequence
    for seq, value in zip(seqs, values):
        assert expand(value).coeffs == seq


def test_determinant_identity_exhaustive_small():
    for x in coprime_fractions(80, 80):
        cv = convergents(expand(x))
        for i in range(1, len(cv)):
            p_i, q_i = cv[i].value.numerator, cv[i].value.denominator
            p_j, q_j = cv[i - 1].value.numerator, cv[i - 1].value.denominator
            assert p_i * q_j - p_j * q_i == (-1) ** (i - 1)


@given(nonneg_fractions)
def test_determinant_identity_random(x):
    cv = convergents(expand(x))
    for i in range(1, len(cv)):
        p_i, q_i = cv[i].value.numerator, cv[i].value.denominator
        p_j, q_j = cv[i - 1].value.numerator, cv[i - 1].value.denominator
        assert p_i * q_j - p_j * q_i == (-1) ** (i - 1)


def test_step_parity_and_descent_exhaustive():
    for x in coprime_fractions(60, 60):
        if x in (0, 1) or x.denominator == 2:
            continue
        before = expand(x)
        after = evaluate(step(before))
        assert after.numerator % 2 == x.numerator % 2
        assert after.denominator % 2 == x.denominator % 2
        if x.denominator == 1:
            assert after.numerator == x.numerator - 2
        elif x.numerator == 1:
            # 1/q steps to 1/s with s < q; the numerator cannot drop further
            assert after.numerator == 1
            assert after.denominator < x.denominator
        else:
            assert after.numerator < x.numerator


@settings(max_examples=300)
@given(nonneg_fractions)
def test_step_parity_random(x):
    if x in (0, 1) or x.denominator == 2:
        return
    after = evaluate(step(expand(x)))
    assert after.numerator % 2 == x.numerator % 2
    assert after.denominator % 2 == x.denominator % 2


@given(st.integers(1, 500), st.integers(1, 500))
def test_steps_to_integer_terminates_consistently(a, b):
    # even denominators can walk onto q = 2, where the step is undefined;
    # knot normalization keeps q odd, so that is the domain exercised here
    if gcd(a, b) != 1 or b % 2 == 0:
        return
    count, terminal = steps_to_integer(Fraction(a, b))
    assert count >= 0
    assert terminal >= 0
    if b == 1:
        assert (count, terminal) == (0, a)
    else:
        # walking the steps by hand reaches the same single entry
        cf = expand(Fraction(a, b))
        for _ in range(count):
            cf = step(cf)
        assert cf.coeffs == (terminal,)


# The trusted hot path: `expand` and `step` build expansions without
# validation, so every output is re-validated here and `step` is compared
# with `canonicalize`, the validating route.


def assert_revalidates(out):
    again = ContinuedFraction(out.coeffs)
    assert again == out
    assert hash(again) == hash(out)


def assert_step_matches_canonicalize(x):
    before = expand(x)
    assert_revalidates(before)
    c = before.coeffs
    try:
        oracle = canonicalize(c[:-1] + (c[-1] - 2,))
    except NotCanonicalizable:
        # exactly the inputs `step` refuses up front: [0], [1] and [c0, 2]
        with pytest.raises(StepUndefined):
            step(before)
        return
    after = step(before)
    assert after == oracle
    assert_revalidates(after)


def test_step_matches_canonicalize_on_the_box():
    for x in coprime_fractions(300, 300):
        assert_step_matches_canonicalize(x)


@settings(max_examples=500)
@given(huge_fractions)
def test_step_matches_canonicalize_large(x):
    assert_step_matches_canonicalize(x)


# `expand` reads an int or a Fraction without building a Fraction first, and
# coerces anything else with Fraction(x).


@pytest.mark.parametrize(
    "x", [0, 1, 7, 10**30 + 1, False, True, Fraction(16, 25), Fraction(10**30, 7), Fraction(3)]
)
def test_expand_reads_ints_bools_and_fractions_as_fraction_would(x):
    out = expand(x)
    assert out == expand(Fraction(x))
    assert out.coeffs == oracle_expand(Fraction(x))
    assert_revalidates(out)


@pytest.mark.parametrize(
    "x, coeffs",
    [("3/4", (0, 1, 3)), (0.5, (0, 2)), (Decimal("2.25"), (2, 4)), ("7", (7,))],
)
def test_expand_coerces_other_inputs(x, coeffs):
    assert expand(x).coeffs == coeffs
    assert_revalidates(expand(x))


@pytest.mark.parametrize("x", [-1, -(10**30), Fraction(-(10**30), 7), "-3/4", -0.5])
def test_expand_rejects_negative_input_of_every_type(x):
    with pytest.raises(InvalidParameter, match="nonnegative"):
        expand(x)


def test_step_counters_read_ints_and_fractions_directly():
    assert steps_to_zero(6) == steps_to_zero(Fraction(6)) == steps_to_zero("6")
    assert steps_to_zero(Fraction(16, 25)) == steps_to_zero("16/25")
    assert steps_to_integer(Fraction(8, 3)) == steps_to_integer("8/3") == (1, 2)
    assert steps_to_integer(True) == (0, 1)


# `evaluate` runs an integer recurrence; `oracle_value` divides nested
# Fractions.  They must agree on every value and on which inputs raise.


def assert_evaluate_matches_oracle(coeffs):
    try:
        expected = oracle_value(coeffs)
    except ZeroDivisionError:
        with pytest.raises(ZeroDenominator):
            evaluate(coeffs)
        return
    got = evaluate(coeffs)
    assert type(got) is Fraction
    assert got == expected


def test_evaluate_matches_oracle_on_canonical_sequences():
    for coeffs in canonical_sequences(13):
        assert_evaluate_matches_oracle(coeffs)
        assert evaluate(ContinuedFraction(coeffs)) == oracle_value(coeffs)


def test_evaluate_matches_oracle_on_small_noncanonical_sequences():
    entries = range(-2, 3)
    for length in range(1, 5):
        for coeffs in itertools.product(entries, repeat=length):
            assert_evaluate_matches_oracle(coeffs)


coefficient_entries = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))


@settings(max_examples=500)
@given(st.lists(coefficient_entries, min_size=1, max_size=12))
def test_evaluate_matches_oracle_large(coeffs):
    assert_evaluate_matches_oracle(coeffs)


# The CLI bounds a walk by half the coefficient sum; that rests on every
# step lowering the sum by at least 2.


def test_step_lowers_the_coefficient_sum_by_at_least_two():
    for coeffs in canonical_sequences(14):
        cf = ContinuedFraction(coeffs)
        try:
            after = step(cf)
        except StepUndefined:
            continue
        assert sum(after) <= sum(cf) - 2


# `expand` reads a pair (a, b) as a/b, reduced or not, and `steps_to_zero`
# walks a canonical expansion as it is, with the parity check of a/b.


def test_expand_reads_pairs_as_their_quotient():
    for x in coprime_fractions(40, 40):
        a, b = x.numerator, x.denominator
        assert expand((a, b)) == expand(x)
        assert expand((3 * a, 3 * b)) == expand(x)
    assert expand((10**30 + 1, 7)).coeffs == oracle_expand(Fraction(10**30 + 1, 7))
    assert_revalidates(expand((34, 49)))


@pytest.mark.parametrize("pair", [(1, 0), (3, -4), (-3, 4), (1.5, 2), (3, 2.0), (True, 1)])
def test_expand_rejects_bad_pairs(pair):
    with pytest.raises(InvalidParameter):
        expand(pair)


def test_steps_to_zero_walks_a_held_expansion():
    for x in coprime_fractions(60, 60):
        if x.numerator % 2:
            with pytest.raises(OddParity, match=f"even: {x}$"):
                steps_to_zero(expand(x))
        else:
            assert steps_to_zero(expand(x)) == steps_to_zero(x) == steps_to_integer_zero(x)


def steps_to_integer_zero(x):
    """Oracle for `steps_to_zero` of an even numerator: steps to an integer
    2m, then m more steps, each taking 2 from it."""
    count, last = steps_to_integer(x)
    return count + last // 2


@settings(max_examples=200)
@given(huge_fractions)
def test_steps_to_zero_parity_check_reads_the_expansion(x):
    assert cf_module._numerator_is_odd(expand(x).coeffs) == x.numerator % 2
    if x.numerator % 2:
        with pytest.raises(OddParity):
            steps_to_zero(expand(x))


@pytest.mark.parametrize("walk", [steps_to_zero, steps_to_integer])
def test_walks_raise_on_a_step_with_a_fixed_point(monkeypatch, walk):
    # a broken `step` that returns its input: each walk gives up after its
    # budget of sum(coeffs) // 2 steps, with an error that names where it
    # started and is not a bad-input CrosscapError.  The stand-in fails the
    # test itself, long after the budget, on a walk that does not give up.
    start = expand((10**6, 3))  # [333333, 3]
    budget = sum(start.coeffs) // 2
    calls = 0

    def stuck(expansion):
        nonlocal calls
        calls += 1
        if calls > 10 * budget:
            pytest.fail("the walk ran past its budget")
        return expansion

    monkeypatch.setattr(cf_module, "step", stuck)
    began = time.perf_counter()
    with pytest.raises(RuntimeError, match=re.escape(f"from {start} ")) as raised:
        walk((10**6, 3))
    assert time.perf_counter() - began < 1
    assert not isinstance(raised.value, CrosscapError)
    assert calls == budget + 1
