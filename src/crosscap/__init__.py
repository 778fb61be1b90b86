"""Exact crosscap numbers and nonorientable four-genus bounds of torus knots.

The package reduces torus knots with pinch moves, tracks the moves as
continued-fraction steps, and derives the crosscap number gamma3, bounds
for the nonorientable four-genus gamma4, and the gap between them, all in
exact integer arithmetic.
"""

from . import cf, errors, genus, knot
from .cf import *
from .errors import *
from .genus import *
from .knot import *
from .verify import CheckOutcome, Counterexample, run_all

__version__ = "0.1.0"

__all__ = [
    *cf.__all__,
    *errors.__all__,
    *genus.__all__,
    *knot.__all__,
    "CheckOutcome",
    "Counterexample",
    "run_all",
]
