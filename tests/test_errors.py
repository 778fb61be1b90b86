"""One error class per precondition, whichever entry point checks it.

A trivial knot raises UnknotInput, an odd p on the walk to T(0,1) (or an
odd numerator on the walk to [0]) raises OddParity, an even p where both
parameters must be odd raises EvenParity, and a knot with no pinch move
raises PinchUndefined.  The table names every public function that checks
one of these, with the inputs that fail it.
"""

from fractions import Fraction

import pytest

from crosscap import cf, errors, genus, knot
from crosscap.cli import main
from crosscap.errors import EvenParity, OddParity, PinchUndefined, UnknotInput
from crosscap.knot import PinchTrace, StopRule, TorusKnot

TRIVIAL = [TorusKnot(0, 1), TorusKnot(1, 1), TorusKnot(4, 1), TorusKnot(5, 1)]
ODD = [TorusKnot(5, 3), TorusKnot(5, 1)]


def first_unknot_trace(k):
    return PinchTrace(k, StopRule.FIRST_UNKNOT)


def zero_trace(k):
    return PinchTrace(k, StopRule.ZERO)


def first_unknot_sequence(k):
    return knot.pinch_sequence(k, StopRule.FIRST_UNKNOT)


def zero_sequence(k):
    return knot.pinch_sequence(k, StopRule.ZERO)


def expansion_of(k):
    return cf.expand((k.p, k.q))


def pinch_by_step(k):
    return knot.pinch_by_step(expansion_of(k))


def pinch_sign_from_expansion(k):
    return knot.pinch_sign_from_expansion(expansion_of(k))


NEEDS_NONTRIVIAL = [
    first_unknot_trace,
    first_unknot_sequence,
    genus.euclidean_division,
    genus.terminal_unknot_parameter,
    genus.pinches_to_unknot,
    genus.four_genus_bounds,
    genus.genus_report,
    genus.crosscap_number,
    genus.odd_split,
    genus.crosscap_by_splitting,
    genus.gap_report,
]

NEEDS_EVEN = [zero_trace, zero_sequence, genus.pinches_to_zero]

NEEDS_ODD = [genus.odd_split, genus.crosscap_by_splitting]

CASES = (
    [(entry, k, UnknotInput) for entry in NEEDS_NONTRIVIAL for k in TRIVIAL]
    + [(entry, k, OddParity) for entry in NEEDS_EVEN for k in ODD]
    + [(genus.gap_report, TorusKnot(5, 3), OddParity)]  # T(5,1) is refused as trivial first
    + [(cf.steps_to_zero, Fraction(3, 5), OddParity)]
    + [(entry, TorusKnot(4, 3), EvenParity) for entry in NEEDS_ODD]
    + [(knot.pinch, k, PinchUndefined) for k in TRIVIAL[:2]]
    + [(pinch_by_step, k, PinchUndefined) for k in TRIVIAL[:2]]
    + [(pinch_sign_from_expansion, k, PinchUndefined) for k in TRIVIAL]
)


@pytest.mark.parametrize(
    "entry, value, expected",
    CASES,
    ids=[f"{entry.__name__}-{value}-{expected.__name__}" for entry, value, expected in CASES],
)
def test_each_precondition_raises_its_one_class(entry, value, expected):
    with pytest.raises(errors.CrosscapError) as excinfo:
        entry(value)
    assert excinfo.type is expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (["trace", "4", "1"], "T(4,1) is trivial"),
        (["trace", "5", "3", "--stop", "zero"], "reaching T(0,1) requires even p: T(5,3)"),
        (["report", "5", "1"], "T(5,1) is trivial"),
    ]
    + [
        (["report", str(10**20), "1", "--format", fmt], f"T({10**20},1) is trivial")
        for fmt in ["human", "json", "csv"]
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else "",
)
def test_cli_reports_the_precondition_in_one_line(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
