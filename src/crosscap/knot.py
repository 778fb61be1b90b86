"""Torus knots and pinch moves.

A torus knot T(p,q) is determined by an unordered coprime pair, so every
knot is kept in a fixed normalized form: when pq is even the even parameter
comes first (making q odd), and when pq is odd the larger parameter comes
first.  The unknots T(0,1), T(1,1) and T(l,1) are allowed as terminal
objects of pinch sequences.

A pinch move compresses one band of a knot diagram and takes T(p,q) to
T(|p-2t|, |q-2h|), where t and h are the canonical residues

    t = -q^(-1) mod p  (0 <= t < p),     h = p^(-1) mod q  (0 <= h < q).

The move is positive when p-2t and q-2h are both >= 0 and negative when
both are <= 0; for nontrivial knots exactly one of these holds, and the
outcome is decided by the parity of the expansion length of p/q alone.
Equivalently, one pinch move is one `step` on the continued fraction of
p/q, and that equivalence is what the verification module stress-tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, auto
from fractions import Fraction
from typing import Iterator, Optional

from . import cf
from .errors import InvalidParameter, NotCoprime, PinchUndefined, StopUnreachable

__all__ = [
    "TorusKnot",
    "PinchWitness",
    "PinchRecord",
    "PinchSign",
    "StopRule",
    "normalize",
    "is_unknot",
    "pinch_witness",
    "pinch",
    "pinch_by_step",
    "pinch_sign_from_expansion",
    "pinch_sequence",
    "normalized_knots",
]


class PinchSign(Enum):
    POSITIVE = auto()
    NEGATIVE = auto()

    def __str__(self) -> str:
        return self.name.lower()


class StopRule(Enum):
    """Where a pinch sequence stops: at the first unknot, or at T(0,1)."""

    FIRST_UNKNOT = auto()
    ZERO = auto()


@dataclass(frozen=True, order=True)
class TorusKnot:
    """A normalized torus knot T(p,q).

    Use `normalize` to build one from an unordered parameter pair; direct
    construction insists the pair is already in normalized order.  Both
    parameters must be of type int; bools and other numbers are rejected.
    The constructor is the one place a knot's parameters are validated:
    type, then coprimality, then range, then order.  `pinch` builds its
    results through `_trusted` instead: a pinch result is a nonnegative,
    coprime pair of ints by construction, and `pinch` puts it in order
    itself.  The tests re-validate pinch results through the constructor.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if type(self.p) is not int or type(self.q) is not int:
            raise InvalidParameter(f"parameters must be integers: ({self.p!r},{self.q!r})")
        if math.gcd(self.p, self.q) != 1:
            raise NotCoprime(f"({self.p},{self.q}) is not a coprime pair")
        if self.p < 0 or self.q < 1:
            raise InvalidParameter(f"parameters out of range: ({self.p},{self.q})")
        if self.p * self.q % 2 == 0:
            if self.p % 2 != 0:
                raise InvalidParameter(f"({self.p},{self.q}): even parameter must come first")
        elif self.p < self.q:
            raise InvalidParameter(f"({self.p},{self.q}): larger odd parameter must come first")

    @classmethod
    def _trusted(cls, p: int, q: int) -> TorusKnot:
        """Wrap a pair that is normalized by construction, without checks."""
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        return self

    def fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __str__(self) -> str:
        return f"T({self.p},{self.q})"


@dataclass(frozen=True)
class PinchWitness:
    """The residues (t, h) that locate a pinch move."""

    t: int
    h: int


@dataclass(frozen=True)
class PinchRecord:
    """One pinch move: source knot, resulting knot, witness and sign.

    `sign` is None only for moves between unknots T(l,1) with l >= 3, where
    p-2t and q-2h have opposite signs and the classification does not apply.
    Such moves occur only in the tail of a ZERO-stopped sequence.
    """

    source: TorusKnot
    result: TorusKnot
    witness: PinchWitness
    sign: Optional[PinchSign]


def normalize(a: int, b: int) -> TorusKnot:
    """Build the normalized torus knot with parameter pair {a, b}.

    Even parameter first when the product is even, larger first when both
    are odd.  Non-int parameters (bools included) are rejected here, before
    the ordering compares them; `TorusKnot` rejects the ordered pair when it
    is not coprime, including (0,0), or has a negative parameter.
    """
    if type(a) is not int or type(b) is not int:
        raise InvalidParameter(f"parameters must be integers: ({a!r},{b!r})")
    return TorusKnot(*_ordered(a, b))


def _ordered(a: int, b: int) -> tuple[int, int]:
    """The pair {a, b} in normalized order: even first, else larger first."""
    if a * b % 2 == 0:
        return (a, b) if a % 2 == 0 else (b, a)
    return (a, b) if a >= b else (b, a)


def is_unknot(knot: TorusKnot) -> bool:
    """True when T(p,q) is a trivial knot, i.e. min(p,q) <= 1."""
    return min(knot.p, knot.q) <= 1


def pinch_witness(p: int, q: int) -> PinchWitness:
    """Return the canonical residues (t, h) for a pinch on coprime (p, q).

    Works on raw pairs in either order; no normalization is applied.  For a
    modulus of 1 the only residue is 0, which pow() already returns.
    """
    if p < 1 or q < 1:
        raise InvalidParameter(f"parameters must be positive: ({p},{q})")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"({p},{q}) is not a coprime pair")
    return PinchWitness(*_residues(p, q))


def _residues(p: int, q: int) -> tuple[int, int]:
    """(t, h) for a coprime pair of positive ints, unchecked."""
    return (-pow(q, -1, p)) % p, pow(p, -1, q)


def pinch(knot: TorusKnot) -> PinchRecord:
    """Apply one pinch move via the modular-residue formula.

    Defined for every knot except T(0,1) and T(1,1).  On T(l,1) the formula
    gives t = l-1, h = 0 and the move lands on T(l-2,1).  The knot was
    validated when it was built, so the residues need no checks, and the
    result (|p-2t|, |q-2h|) is a nonnegative coprime pair that only needs
    ordering; it is built without re-validation.
    """
    p, q = knot.p, knot.q
    if p <= 1:
        raise PinchUndefined(f"no pinch move on {knot}")
    t, h = _residues(p, q)
    dp = p - 2 * t
    dq = q - 2 * h
    if dp >= 0 and dq >= 0:
        sign: Optional[PinchSign] = PinchSign.POSITIVE
    elif dp <= 0 and dq <= 0:
        sign = PinchSign.NEGATIVE
    else:
        sign = None
    result = TorusKnot._trusted(*_ordered(abs(dp), abs(dq)))
    return PinchRecord(knot, result, PinchWitness(t, h), sign)


def pinch_by_step(knot: TorusKnot) -> TorusKnot:
    """Apply one pinch move by stepping the expansion of p/q instead.

    Independent route to the same knot as `pinch`; the denominator-2 guard
    in `step` never fires because normalized knots have odd q.
    """
    if knot.p <= 1:
        raise PinchUndefined(f"no pinch move on {knot}")
    value = cf.evaluate(cf.step(cf.expand(knot.fraction())))
    return normalize(value.numerator, value.denominator)


def pinch_sign_from_expansion(knot: TorusKnot) -> PinchSign:
    """Predict the sign of the next pinch from the expansion length alone.

    For a nontrivial normalized knot with expansion [c0, ..., cm], the pinch
    is positive exactly when m is odd.
    """
    if is_unknot(knot):
        raise PinchUndefined(f"no pinch move on {knot}")
    m = len(cf.expand(knot.fraction())) - 1
    return PinchSign.POSITIVE if m % 2 else PinchSign.NEGATIVE


def pinch_sequence(knot: TorusKnot, stop: StopRule) -> list[PinchRecord]:
    """Pinch repeatedly until the stop rule is met and return the records.

    FIRST_UNKNOT requires a nontrivial starting knot and stops as soon as
    the result is trivial.  ZERO requires even p (odd p never reaches 0,
    since pinching preserves parameter parities) and continues through the
    unknots T(l,1) until T(0,1).  Each move strictly decreases max(p,q), so
    both walks terminate.
    """
    if stop is StopRule.FIRST_UNKNOT:
        if is_unknot(knot):
            raise PinchUndefined(f"{knot} is already trivial")
    elif stop is StopRule.ZERO:
        if knot.p % 2:
            raise StopUnreachable(f"{knot} has odd parameters; T(0,1) is unreachable")
    else:
        raise ValueError(f"unknown stop rule: {stop!r}")
    records = []
    current = knot
    while not (is_unknot(current) if stop is StopRule.FIRST_UNKNOT else current.p == 0):
        record = pinch(current)
        records.append(record)
        current = record.result
    return records


def normalized_knots(pmax: int, qmax: Optional[int] = None) -> Iterator[TorusKnot]:
    """Yield every nontrivial normalized T(p,q) with p <= pmax and q <= qmax.

    Order is p ascending, then q ascending.  qmax defaults to pmax.
    Nontrivial normalized knots have odd q >= 3, with q < p in the odd-odd
    case, so that is all the loop visits.
    """
    if qmax is None:
        qmax = pmax
    for p in range(2, pmax + 1):
        for q in range(3, qmax + 1, 2):
            if p % 2 and q >= p:
                break
            if math.gcd(p, q) == 1:
                yield TorusKnot(p, q)
