"""Exception types shared across the package.

Everything derives from CrosscapError (itself a ValueError), so callers can
catch domain errors with a single except clause while ordinary ValueError
semantics still apply.  Each precondition has one class, raised by the
layer that owns its check; the functions above that layer let it through:

* InvalidParameter: bad type, range or order; `TorusKnot`, `normalize`,
  `pinch_witness`, `normalized_knots`, `cf.expand`, `run_all` and the
  CLI's bounds.
* NotCoprime: a pair with a common factor; `TorusKnot`, `pinch_witness`.
* ZeroDenominator: a zero denominator; `cf.evaluate`.
* NotCanonicalizable: no canonical form; `ContinuedFraction`,
  `cf.canonicalize`, `cf.evaluate`.
* StepUndefined: no step from [0], [1] or [c0, 2]; `cf.step`.
* PinchUndefined: no move from T(0,1), T(1,1) or a one-entry expansion;
  `pinch`, `pinch_by_step`, `pinch_sign_from_expansion`.
* UnknotInput: a trivial knot; raised at one site, `knot._require_nontrivial`,
  which the walk start under FIRST_UNKNOT (`PinchTrace`, the genus counts,
  `crosscap_number`), `euclidean_division` and `odd_split` call.
* OddParity: odd p, or an odd numerator, on a walk to T(0,1) or [0];
  the walk start under ZERO (`PinchTrace`, `pinches_to_zero`, and
  `gap_report`, whose odd p it refuses before any expansion) and
  `cf.steps_to_zero`.
* EvenParity: even p where both parameters must be odd; `odd_split`.
"""

__all__ = [
    "CrosscapError",
    "InvalidParameter",
    "ZeroDenominator",
    "NotCanonicalizable",
    "StepUndefined",
    "NotCoprime",
    "PinchUndefined",
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


class NotCoprime(CrosscapError):
    """Torus-knot parameters must be coprime."""


class PinchUndefined(CrosscapError):
    """No pinch move is available for this knot."""


class OddParity(CrosscapError):
    """Operation requires an even first parameter or numerator."""


class EvenParity(CrosscapError):
    """Operation requires a torus knot with both parameters odd."""


class UnknotInput(CrosscapError):
    """Operation is only defined for nontrivial torus knots."""
