"""Exception types shared across the package.

Everything derives from CrosscapError (itself a ValueError), so callers can
catch domain errors with a single except clause while ordinary ValueError
semantics still apply.
"""

__all__ = [
    "CrosscapError",
    "InvalidParameter",
    "ZeroDenominator",
    "NotCanonicalizable",
    "StepUndefined",
    "InvalidParity",
    "NotCoprime",
    "PinchUndefined",
    "StopUnreachable",
    "DegenerateModulus",
    "OddParity",
    "EvenParity",
    "UnknotInput",
]


class CrosscapError(ValueError):
    """Base class for all domain errors raised by this package."""


class InvalidParameter(CrosscapError):
    """A knot parameter or a verify bound is not an int (bools included), out of
    range or misordered; a table bound is below 2; a rational to expand is
    negative; or a knot would take more steps than the CLI allows."""


class ZeroDenominator(CrosscapError):
    """Continued-fraction evaluation divided by zero (non-canonical input)."""


class NotCanonicalizable(CrosscapError):
    """Coefficient sequence cannot be brought to canonical form."""


class StepUndefined(CrosscapError):
    """The reduction step is not defined for this expansion."""


class InvalidParity(CrosscapError):
    """A numerator parity precondition was violated."""


class NotCoprime(CrosscapError):
    """Torus-knot parameters must be coprime."""


class PinchUndefined(CrosscapError):
    """No pinch move is available for this knot."""


class StopUnreachable(CrosscapError):
    """The requested stopping condition can never be met."""


class DegenerateModulus(CrosscapError):
    """Division by q requires q > 1."""


class OddParity(CrosscapError):
    """Operation requires an even-parameter torus knot."""


class EvenParity(CrosscapError):
    """Operation requires a torus knot with both parameters odd."""


class UnknotInput(CrosscapError):
    """Operation is only defined for nontrivial torus knots."""
