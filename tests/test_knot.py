"""Torus-knot layer: normalization, pinch moves, signs, sequences.

The modular residues (t, h) are cross-checked against a brute-force linear
search, the residue-based pinch against the continued-fraction route, and
the run-length `PinchTrace` against one residue pinch per move.
"""

import dataclasses
import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crosscap import (
    PinchSign,
    PinchTrace,
    StopRule,
    TorusKnot,
    evaluate,
    expand,
    is_unknot,
    normalize,
    normalized_knots,
    pinch,
    pinch_by_step,
    pinch_sequence,
    pinch_sign_from_expansion,
    pinch_witness,
    step,
    steps_to_integer,
    steps_to_zero,
)
from crosscap import cf
from crosscap.errors import InvalidParameter, NotCoprime, OddParity, PinchUndefined, UnknotInput
from strategies import knots_of_long_expansions


def oracle_witness(p, q):
    """Linear search for the residues, independent of pow(-1, mod)."""
    t = next(t for t in range(max(p, 1)) if (t * q + 1) % p == 0) if p > 1 else 0
    h = next(h for h in range(max(q, 1)) if (h * p - 1) % q == 0) if q > 1 else 0
    return t, h


def coprime_pairs(limit):
    for a in range(2, limit + 1):
        for b in range(1, limit + 1):
            if gcd(a, b) == 1:
                yield a, b


def expansion_of(knot):
    """The expansion of p/q that the expansion routes read."""
    return expand((knot.p, knot.q))


@st.composite
def knots(draw, max_param=400):
    a = draw(st.integers(min_value=2, max_value=max_param))
    b = draw(st.integers(min_value=2, max_value=max_param))
    assume(gcd(a, b) == 1)
    return normalize(a, b)


@pytest.mark.parametrize(
    "pair, expected",
    [
        ((3, 4), (4, 3)),
        ((4, 3), (4, 3)),
        ((3, 5), (5, 3)),
        ((5, 3), (5, 3)),
        ((7, 4), (4, 7)),
        ((2, 3), (2, 3)),
        ((1, 1), (1, 1)),
        ((0, 1), (0, 1)),
        ((1, 0), (0, 1)),
        ((1, 6), (6, 1)),
        ((5, 1), (5, 1)),
        ((1, 5), (5, 1)),
    ],
)
def test_normalize_examples(pair, expected):
    assert normalize(*pair) == TorusKnot(*expected)


@pytest.mark.parametrize("pair", [(2, 4), (0, 0), (0, 3), (9, 3), (6, 4)])
def test_normalize_rejects_noncoprime(pair):
    with pytest.raises(NotCoprime):
        normalize(*pair)


def test_normalize_rejects_negatives():
    for pair in [(-2, 3), (3, -2), (-3, -5)]:
        with pytest.raises(InvalidParameter):
            normalize(*pair)


@pytest.mark.parametrize("pair", [(True, 4), (4, True), (4.0, 3), (4, 3.0), ("4", 3), (None, 3)])
def test_non_int_parameters_are_rejected(pair):
    with pytest.raises(InvalidParameter):
        normalize(*pair)
    with pytest.raises(InvalidParameter):
        TorusKnot(*pair)


def test_direct_construction_enforces_convention():
    with pytest.raises(ValueError):
        TorusKnot(3, 4)  # even parameter must come first
    with pytest.raises(ValueError):
        TorusKnot(3, 5)  # larger odd parameter must come first
    with pytest.raises(NotCoprime):
        TorusKnot(6, 3)
    with pytest.raises(NotCoprime):
        TorusKnot(0, 0)  # coprimality is checked before range


@pytest.mark.parametrize(
    "knot, trivial",
    [
        (TorusKnot(0, 1), True),
        (TorusKnot(1, 1), True),
        (TorusKnot(5, 1), True),
        (TorusKnot(2, 1), True),
        (TorusKnot(2, 3), False),
        (TorusKnot(5, 3), False),
    ],
)
def test_is_unknot(knot, trivial):
    assert is_unknot(knot) is trivial


def test_pinch_witness_raw_pair():
    # raw pairs are accepted in either order and are not normalized
    wit = pinch_witness(7, 4)
    assert (wit.t, wit.h) == (5, 3)
    assert (abs(7 - 2 * wit.t), abs(4 - 2 * wit.h)) == (3, 2)
    wit = pinch_witness(4, 7)
    assert (wit.t, wit.h) == (1, 2)
    assert (abs(4 - 2 * wit.t), abs(7 - 2 * wit.h)) == (2, 3)


def test_pinch_witness_rejects_bad_input():
    with pytest.raises(NotCoprime):
        pinch_witness(6, 4)
    with pytest.raises(ValueError):
        pinch_witness(0, 1)


@pytest.mark.parametrize(
    "knot, result, t, h, sign",
    [
        ((4, 3), (2, 1), 1, 1, PinchSign.POSITIVE),
        ((2, 3), (0, 1), 1, 2, PinchSign.NEGATIVE),
        ((5, 3), (1, 1), 3, 2, PinchSign.NEGATIVE),
        ((4, 7), (2, 3), 1, 2, PinchSign.POSITIVE),
        ((7, 5), (1, 1), 4, 3, PinchSign.NEGATIVE),
        ((2, 1), (0, 1), 1, 0, PinchSign.POSITIVE),
        ((6, 1), (4, 1), 5, 0, None),
        ((14, 3), (4, 1), 9, 2, PinchSign.NEGATIVE),
    ],
)
def test_pinch_examples(knot, result, t, h, sign):
    record = pinch(TorusKnot(*knot))
    assert record.result == TorusKnot(*result)
    assert (record.witness.t, record.witness.h) == (t, h)
    assert record.sign is sign


def test_pinch_unknot_tail():
    # T(l,1) drops to T(l-2,1) with witness (l-1, 0)
    for ell in range(2, 30):
        record = pinch(TorusKnot(ell, 1))
        assert record.result == TorusKnot(ell - 2, 1)
        assert (record.witness.t, record.witness.h) == (ell - 1, 0)


@pytest.mark.parametrize("knot", [(0, 1), (1, 1)])
def test_pinch_undefined_on_terminal_unknots(knot):
    with pytest.raises(PinchUndefined):
        pinch(TorusKnot(*knot))
    with pytest.raises(PinchUndefined):
        pinch_by_step(expansion_of(TorusKnot(*knot)))


@pytest.mark.parametrize(
    "knot, result",
    [
        ((4, 3), (2, 1)),
        ((5, 3), (1, 1)),
        ((4, 7), (2, 3)),
        ((2, 3), (0, 1)),
        ((6, 1), (4, 1)),
    ],
)
def test_pinch_by_step_examples(knot, result):
    assert pinch_by_step(expansion_of(TorusKnot(*knot))) == TorusKnot(*result)


@pytest.mark.parametrize(
    "knot, sign",
    [
        ((4, 3), PinchSign.POSITIVE),
        ((2, 3), PinchSign.NEGATIVE),
        ((7, 5), PinchSign.NEGATIVE),
        ((16, 5), PinchSign.POSITIVE),
    ],
)
def test_pinch_sign_from_expansion_examples(knot, sign):
    assert pinch_sign_from_expansion(expansion_of(TorusKnot(*knot))) is sign


def test_pinch_sign_from_expansion_rejects_unknots():
    with pytest.raises(PinchUndefined):
        pinch_sign_from_expansion(expansion_of(TorusKnot(5, 1)))


def test_expansion_routes_expand_nothing(monkeypatch):
    # both routes read the expansion they are given and expand no rational
    cases = [(knot, expansion_of(knot)) for knot in normalized_knots(40)]

    def forbidden(x):
        raise AssertionError("cf.expand was called")

    monkeypatch.setattr(cf, "expand", forbidden)
    for knot, expansion in cases:
        record = pinch(knot)
        assert pinch_by_step(expansion) == record.result
        assert pinch_sign_from_expansion(expansion) is record.sign
    # the unknots T(0,1), T(1,1) and T(6,1) expand to [0], [1] and [6]
    for coeffs in [(0,), (1,)]:
        with pytest.raises(PinchUndefined):
            pinch_by_step(cf.ContinuedFraction(coeffs))
    for coeffs in [(0,), (1,), (6,)]:
        with pytest.raises(PinchUndefined):
            pinch_sign_from_expansion(cf.ContinuedFraction(coeffs))


def test_pinch_sequence_first_unknot():
    records = pinch_sequence(TorusKnot(4, 3), StopRule.FIRST_UNKNOT)
    assert [str(r.result) for r in records] == ["T(2,1)"]
    records = pinch_sequence(TorusKnot(4, 7), StopRule.FIRST_UNKNOT)
    assert [str(r.result) for r in records] == ["T(2,3)", "T(0,1)"]


def test_pinch_sequence_zero():
    records = pinch_sequence(TorusKnot(4, 3), StopRule.ZERO)
    assert [str(r.result) for r in records] == ["T(2,1)", "T(0,1)"]
    # walks straight through the unknot tail, where signs stop being defined
    records = pinch_sequence(TorusKnot(14, 3), StopRule.ZERO)
    assert [str(r.result) for r in records] == ["T(4,1)", "T(2,1)", "T(0,1)"]
    assert [r.sign for r in records] == [PinchSign.NEGATIVE, None, PinchSign.POSITIVE]
    assert pinch_sequence(TorusKnot(0, 1), StopRule.ZERO) == []


def test_pinch_sequence_errors():
    with pytest.raises(UnknotInput):
        pinch_sequence(TorusKnot(1, 1), StopRule.FIRST_UNKNOT)
    with pytest.raises(OddParity):
        pinch_sequence(TorusKnot(5, 3), StopRule.ZERO)


# Properties.


def test_witness_matches_linear_search():
    for p, q in coprime_pairs(60):
        wit = pinch_witness(p, q)
        assert (wit.t, wit.h) == oracle_witness(p, q)


def test_pinch_routes_agree_exhaustive():
    for knot in normalized_knots(80):
        assert pinch(knot).result == pinch_by_step(expansion_of(knot))


def test_step_value_matches_residue_formula():
    # the stepped fraction is |p-2t| / |q-2h| on the nose
    for knot in normalized_knots(80):
        wit = pinch_witness(knot.p, knot.q)
        stepped = evaluate(step(expand((knot.p, knot.q))))
        assert stepped == Fraction(
            abs(knot.p - 2 * wit.t), abs(knot.q - 2 * wit.h)
        )


def test_pinch_preserves_parities_and_coprimality():
    for knot in normalized_knots(80):
        result = pinch(knot).result
        assert gcd(result.p, result.q) == 1
        before = sorted((knot.p % 2, knot.q % 2))
        after = sorted((result.p % 2, result.q % 2))
        assert before == after


def test_magnitude_order_before_normalization():
    for knot in normalized_knots(80):
        wit = pinch_witness(knot.p, knot.q)
        r, s = abs(knot.p - 2 * wit.t), abs(knot.q - 2 * wit.h)
        if knot.p > knot.q:
            assert r >= s
        else:
            assert r < s


def test_sign_matches_expansion_parity():
    for knot in normalized_knots(80):
        assert pinch(knot).sign is pinch_sign_from_expansion(expansion_of(knot))


def test_pinch_strictly_shrinks_max():
    for knot in normalized_knots(60):
        result = pinch(knot).result
        assert max(result.p, result.q) < max(knot.p, knot.q)


@settings(max_examples=150)
@given(knots())
def test_sequences_terminate_and_land_correctly(knot):
    records = pinch_sequence(knot, StopRule.FIRST_UNKNOT)
    assert len(records) <= max(knot.p, knot.q)
    assert is_unknot(records[-1].result)
    assert all(not is_unknot(r.source) for r in records)
    # consecutive records chain together
    for first, second in zip(records, records[1:]):
        assert first.result == second.source
    if knot.p % 2 == 0:
        zero_records = pinch_sequence(knot, StopRule.ZERO)
        assert zero_records[-1].result == TorusKnot(0, 1)
        assert zero_records[: len(records)] == records


@settings(max_examples=150)
@given(knots())
def test_single_pinch_properties_random(knot):
    record = pinch(knot)
    assert record.result == pinch_by_step(expansion_of(knot))
    assert record.sign is pinch_sign_from_expansion(expansion_of(knot))
    assert gcd(record.result.p, record.result.q) == 1


def test_enumeration_matches_brute_force():
    limit = 40
    expected = set()
    for a in range(limit + 1):
        for b in range(limit + 1):
            if gcd(a, b) != 1:
                continue
            knot = normalize(a, b)
            if not is_unknot(knot):
                expected.add(knot)
    listed = list(normalized_knots(limit))
    assert set(listed) == expected
    assert listed == sorted(listed, key=lambda k: (k.p, k.q))
    assert len(listed) == len(set(listed))


@pytest.mark.parametrize("pmax, qmax", [(200, 200), (20, 301), (301, 21)])
def test_enumeration_is_the_constructor_filtered_box(pmax, qmax):
    # `normalized_knots` builds its knots without re-validation: they must be
    # exactly the nontrivial pairs the constructor accepts, in p-then-q order,
    # and each must pass the constructor again and hash the same
    expected = []
    for p in range(pmax + 1):
        for q in range(qmax + 1):
            try:
                knot = TorusKnot(p, q)
            except (InvalidParameter, NotCoprime):
                continue
            if not is_unknot(knot):
                expected.append(knot)
    listed = list(normalized_knots(pmax, qmax))
    assert listed == expected
    for knot in listed:
        again = TorusKnot(knot.p, knot.q)
        assert again == knot and hash(again) == hash(knot)


def test_enumeration_respects_qmax():
    listed = list(normalized_knots(20, 5))
    assert all(k.q <= 5 for k in listed)
    assert TorusKnot(16, 5) in listed
    assert TorusKnot(4, 7) not in listed


# `pinch` builds its result without re-validation; it must be the knot that
# the validating route `normalize` builds from the witness `pinch_witness`
# computes, pass the constructor's checks, and hash the same.


def assert_pinch_result_is_valid(knot):
    wit = pinch_witness(knot.p, knot.q)
    result = pinch(knot).result
    assert result == normalize(abs(knot.p - 2 * wit.t), abs(knot.q - 2 * wit.h))
    again = TorusKnot(result.p, result.q)
    assert again == result
    assert hash(again) == hash(result)
    assert type(result.p) is int and type(result.q) is int


def test_pinch_results_revalidate_on_the_box():
    for p in range(2, 301):
        assert_pinch_result_is_valid(TorusKnot(p, 1))
    for knot in normalized_knots(300):
        assert_pinch_result_is_valid(knot)


@settings(max_examples=500)
@given(st.integers(2, 10**30), st.integers(1, 10**30))
def test_pinch_results_revalidate_large(a, b):
    assume(gcd(a, b) == 1)
    knot = normalize(a, b)
    assume(knot.p > 1)
    assert_pinch_result_is_valid(knot)


# `PinchTrace` walks the expansion as runs; its oracle is the residue walk,
# one `pinch` per move, which is how `pinch_sequence` ran before the runs.


def oracle_sequence(knot, stop):
    """Test oracle for `PinchTrace` and `pinch_sequence`: apply `pinch`
    (modular residues, two `pow` calls) until the stop rule is met.

    Checks no preconditions; call it only where the trace is defined.
    """
    records = []
    current = knot
    while not (is_unknot(current) if stop is StopRule.FIRST_UNKNOT else current.p == 0):
        record = pinch(current)
        records.append(record)
        current = record.result
    return records


def assert_trace_matches_oracle(knot, stop):
    trace = PinchTrace(knot, stop)
    expected = oracle_sequence(knot, stop)
    records = list(trace)
    # PinchRecord equality compares source, result, witness and sign
    assert records == expected
    assert len(trace) == trace.moves == len(expected)
    assert trace.all_positive == all(r.sign is PinchSign.POSITIVE for r in expected)
    assert trace.final == (expected[-1].result if expected else knot)
    if stop is StopRule.FIRST_UNKNOT:
        assert (trace.moves, trace.final.p) == steps_to_integer((knot.p, knot.q))
    else:
        assert trace.moves == steps_to_zero((knot.p, knot.q))
    # iteration chains: each source is the previous result, the first is the knot
    assert all(a.result is b.source for a, b in zip(records, records[1:]))
    if expected:
        assert records[0].source is knot


def test_trace_matches_oracle_on_the_box():
    for knot in normalized_knots(300):
        assert_trace_matches_oracle(knot, StopRule.FIRST_UNKNOT)
        if knot.p % 2 == 0:
            assert_trace_matches_oracle(knot, StopRule.ZERO)
    for l in range(0, 301, 2):
        assert_trace_matches_oracle(TorusKnot(l, 1), StopRule.ZERO)


@st.composite
def knots_from_expansions(draw, bound=10**30):
    """Knots whose p/q has a random expansion with small coefficients, cut
    where the next convergent would pass the bound: the parameters reach
    10^30 while the walks stay short."""
    coeffs = draw(st.lists(st.integers(1, 12), min_size=1, max_size=80))
    c0 = draw(st.integers(0, 12))
    p, q, p0, q0 = c0, 1, 1, 0
    for c in coeffs:
        if c * p + p0 > bound or c * q + q0 > bound:
            break
        p, q, p0, q0 = c * p + p0, c * q + q0, p, q
    knot = normalize(p, q)
    assume(not is_unknot(knot))
    return knot


@settings(max_examples=300)
@given(knots_from_expansions())
def test_trace_matches_oracle_large(knot):
    assert_trace_matches_oracle(knot, StopRule.FIRST_UNKNOT)
    assert_walk_matches_steps(knot, StopRule.FIRST_UNKNOT)
    if knot.p % 2 == 0:
        assert_trace_matches_oracle(knot, StopRule.ZERO)
        assert_walk_matches_steps(knot, StopRule.ZERO)


def assert_walk_matches_steps(knot, stop):
    # `walk` yields each move as ints: source, result, witness, sign and the
    # expansion (k, c) after the move.  The residue walk of one `pinch` per
    # move is the oracle for the move, and one `cf.step` per move, from the
    # trace's expansion, for the expansions.
    trace = PinchTrace(knot, stop)
    coeffs = trace.expansion.coeffs
    moves = list(trace.walk())
    expected = oracle_sequence(knot, stop)
    assert len(moves) == len(expected)
    expansion = trace.expansion
    for move, record in zip(moves, expected):
        sp, sq, rp, rq, t, h, sign, k, c = move
        assert all(type(x) is int for x in move[:6] + move[7:])
        assert (sp, sq) == (record.source.p, record.source.q)
        assert (rp, rq) == (record.result.p, record.result.q)
        assert (t, h, sign) == (record.witness.t, record.witness.h, record.sign)
        expansion = step(expansion)
        assert coeffs[:k] + (c,) == expansion.coeffs
    assert expansion == expand((trace.final.p, trace.final.q))


def test_walk_matches_steps_on_the_box():
    for knot in normalized_knots(60):
        assert_walk_matches_steps(knot, StopRule.FIRST_UNKNOT)
        if knot.p % 2 == 0:
            assert_walk_matches_steps(knot, StopRule.ZERO)
    for l in range(0, 61, 2):
        assert_walk_matches_steps(TorusKnot(l, 1), StopRule.ZERO)


def expand_segments(segments):
    """The moves of `segments`, move j of each computed from the segment's
    first by j steps: the oracle for `PinchTrace.walk`, which expands them
    one move at a time."""
    moves = []
    for n, sp, sq, dp, dq, t, h, dt, dh, sign, k, c, k_end, c_end in segments:
        for j in range(n):
            after = (k_end, c_end) if j == n - 1 else (k, c - 2 * (j + 1))
            source = (sp - j * dp, sq - j * dq)
            result = (sp - (j + 1) * dp, sq - (j + 1) * dq)
            moves.append((*source, *result, t - j * dt, h - j * dh, sign, *after))
    return moves


def assert_segments_expand_to_the_walk(knot, stop):
    # `walk` is exactly the moves of `segments`; each segment starts where
    # the one before ends and keeps its sign, a positive one its witness;
    # each unknot tail ends with its one signed move, from T(2,1)
    trace = PinchTrace(knot, stop)
    segments = list(trace.segments())
    assert list(trace.walk()) == expand_segments(segments)
    start = (len(trace.expansion) - 1, trace.expansion.coeffs[-1])
    for n, sp, sq, dp, dq, t, h, dt, dh, sign, k, c, k_end, c_end in segments:
        assert n >= 1 and (k, c) == start
        start = (k_end, c_end)
        if sign is PinchSign.POSITIVE and k:
            assert (dt, dh) == (0, 0) and k % 2
        else:
            assert (dt, dh) == (dp, dq)
    assert start == (0, trace.final.p)
    tail = [segment for segment in segments if segment[10] == 0]
    if stop is StopRule.FIRST_UNKNOT:
        assert tail == []
    elif tail:  # T(2,3) = [0,1,2] pinches to T(0,1) with no tail
        *unsigned, last = tail
        assert last == segments[-1] == (1, 2, 1, 2, 0, 1, 0, 2, 0, PinchSign.POSITIVE, 0, 2, 0, 0)
        assert [segment[9] for segment in unsigned] == [None] * len(unsigned)


def test_segments_expand_to_the_walk_on_the_box():
    for knot in normalized_knots(60):
        assert_segments_expand_to_the_walk(knot, StopRule.FIRST_UNKNOT)
        if knot.p % 2 == 0:
            assert_segments_expand_to_the_walk(knot, StopRule.ZERO)
    for l in range(0, 61, 2):
        assert_segments_expand_to_the_walk(TorusKnot(l, 1), StopRule.ZERO)


@settings(max_examples=200)
@given(knots_of_long_expansions())
def test_segments_expand_to_the_walk_large(knot):
    assert_segments_expand_to_the_walk(knot, StopRule.FIRST_UNKNOT)
    if knot.p % 2 == 0:
        assert_segments_expand_to_the_walk(knot, StopRule.ZERO)


def test_trace_records_need_no_expansion(monkeypatch):
    trace = PinchTrace(TorusKnot(2000, 1999), StopRule.FIRST_UNKNOT)

    def expand(_):
        raise AssertionError("a record was built by expanding")

    monkeypatch.setattr(cf, "expand", expand)
    records = list(trace)
    assert len(records) == len(trace) == 999
    assert records[-1].result == trace.final == TorusKnot(2, 1)


def test_trace_of_a_huge_walk_is_cheap():
    # T(2k,2k-1) = [1, 2k-1] pinches k-1 times, all positive, to T(2,1)
    k = 10**30
    trace = PinchTrace(TorusKnot(2 * k, 2 * k - 1), StopRule.FIRST_UNKNOT)
    assert trace.moves == k - 1 and trace.all_positive
    assert trace.final == TorusKnot(2, 1)


def assert_walk_starts_as_pinches(trace, n):
    # the first n moves of `walk`, against the chain of residue pinches
    moves = list(itertools.islice(trace.walk(), n))
    assert len(moves) == n
    record = pinch(trace.knot)
    for sp, sq, rp, rq, t, h, sign, _, _ in moves:
        assert record.source == TorusKnot(sp, sq) and record.result == TorusKnot(rp, rq)
        assert (record.witness.t, record.witness.h, record.sign) == (t, h, sign)
        record = pinch(record.result)


def test_zero_walks_of_huge_knots_are_cheap():
    k = 10**30
    # T(2k,2k-1) = [1, 2k-1] pinches k-1 times to T(2,1), then once more,
    # positively, to T(0,1): gamma3 of the Batson knot is k
    batson = PinchTrace(TorusKnot(2 * k, 2 * k - 1), StopRule.ZERO)
    assert batson.moves == k and batson.all_positive
    assert batson.final == TorusKnot(0, 1)
    assert_walk_starts_as_pinches(batson, 3)
    # T(2k,1) = [2k] is the unknot tail alone: k moves, all unsigned but the last
    tail = PinchTrace(TorusKnot(2 * k, 1), StopRule.ZERO)
    assert tail.moves == k and not tail.all_positive
    assert tail.final == TorusKnot(0, 1)
    assert_walk_starts_as_pinches(tail, 3)


def test_trace_is_an_immutable_value():
    trace = PinchTrace(TorusKnot(16, 5), StopRule.FIRST_UNKNOT)
    assert trace == PinchTrace(TorusKnot(16, 5), StopRule.FIRST_UNKNOT)
    assert hash(trace) == hash(PinchTrace(TorusKnot(16, 5), StopRule.FIRST_UNKNOT))
    assert trace != PinchTrace(TorusKnot(16, 5), StopRule.ZERO)
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.moves = 0
    assert list(PinchTrace(TorusKnot(0, 1), StopRule.ZERO)) == []


def test_trace_preconditions_match_pinch_sequence():
    with pytest.raises(UnknotInput):
        PinchTrace(TorusKnot(5, 1), StopRule.FIRST_UNKNOT)
    with pytest.raises(OddParity):
        PinchTrace(TorusKnot(5, 3), StopRule.ZERO)
    with pytest.raises(ValueError):
        PinchTrace(TorusKnot(5, 3), "first-unknot")
    with pytest.raises(ValueError):
        pinch_sequence(TorusKnot(5, 3), "first-unknot")
