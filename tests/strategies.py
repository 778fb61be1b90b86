"""Hypothesis strategies that more than one test module draws from."""

from hypothesis import assume
from hypothesis import strategies as st

from crosscap import cf
from crosscap.knot import is_unknot, normalize


@st.composite
def knots_of_long_expansions(draw):
    """Knots whose p/q expands to up to 30 coefficients, each 1 to 9 and the
    last at least 2, so that p and q reach about 10^30."""
    coeffs = draw(st.lists(st.integers(1, 9), max_size=29)) + [draw(st.integers(2, 9))]
    value = cf.evaluate(coeffs)
    knot = normalize(value.numerator, value.denominator)
    assume(not is_unknot(knot))
    return knot
