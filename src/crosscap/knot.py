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
The two expansion routes, `pinch_by_step` and `pinch_sign_from_expansion`,
take that expansion from the caller rather than expanding p/q again.

A whole walk is read off the expansion as runs of moves over which the
expansion keeps its length, so its length, its signs and the knot it ends
at cost O(len(expansion)) integer operations: `_walk_start` checks the
walk's precondition and expands p/q, and `_walk_sums` sums the runs.  A
`PinchTrace` holds those sums for a walk that is printed or iterated.  Its
`walk` reads the runs again to compute the moves one at a time, each a tuple
of ints with the expansion after the move; iterating it builds `PinchRecord`s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Iterator, Optional

from . import cf
from .errors import InvalidParameter, NotCoprime, OddParity, PinchUndefined, UnknotInput

__all__ = [
    "TorusKnot",
    "PinchWitness",
    "PinchRecord",
    "PinchSign",
    "PinchTrace",
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
    """The sign of a pinch move.  Its value is the word the outputs print,
    and `str()` returns it as stored."""

    POSITIVE = "positive"
    NEGATIVE = "negative"

    def __str__(self) -> str:
        return self._value_


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
    itself.  `normalized_knots` does the same with the pairs its loop
    admits.  The tests re-validate both through the constructor.
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


def pinch_by_step(expansion: cf.ContinuedFraction) -> TorusKnot:
    """Apply one pinch move to the knot whose p/q expands to `expansion`, by
    one `cf.step` of that expansion instead of the residues.

    Independent route to the same knot as `pinch`: it reads only the
    expansion, which the caller has at hand (a `PinchTrace` holds it), and
    builds its result through the validating `normalize`.  [0] and [1] are
    T(0,1) and T(1,1), which have no pinch; the denominator-2 guard in
    `step` never fires because normalized knots have odd q.
    """
    if expansion.coeffs in ((0,), (1,)):
        raise PinchUndefined(f"no pinch move on the knot of {expansion}")
    value = cf.evaluate(cf.step(expansion))
    return normalize(value.numerator, value.denominator)


def pinch_sign_from_expansion(expansion: cf.ContinuedFraction) -> PinchSign:
    """Predict the sign of the next pinch from the expansion length alone.

    For a nontrivial normalized knot whose p/q expands to [c0, ..., cm],
    the pinch is positive exactly when m is odd.  A one-entry expansion is
    an unknot, T(l,1) or T(0,1), where the sign is undefined.
    """
    m = len(expansion) - 1
    if not m:
        raise PinchUndefined(f"no pinch move on the knot of {expansion}")
    return PinchSign.POSITIVE if m % 2 else PinchSign.NEGATIVE


# One pinch move as `PinchTrace.walk` yields it: (sp, sq, rp, rq, t, h, sign, k, c).
_Move = tuple[int, int, int, int, int, int, Optional[PinchSign], int, int]


def _runs(coeffs: tuple[int, ...], stop: StopRule) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield the runs of the walk from `coeffs` as (moves, k, c, k_end, c_end).

    A run is the moves over which the expansion [c0, ..., c_{k-1}, c] keeps
    its length k+1, and so its sign.  Its prefix is the first k coefficients
    of the starting expansion, so one list of their convergents serves every
    run.  With P/Q and P0/Q0 the prefix's last two convergents, move j starts
    at [c0, ..., c_{k-1}, c-2j] = ((c-2j)*P + P0) / ((c-2j)*Q + Q0): each
    move subtracts 2P and 2Q.  The run has c // 2 moves; the last leaves a
    last coefficient 0 or 1, which this loop, the only one that folds runs,
    drops or folds as `cf.step` does, to (k_end, c_end): the next run's
    (k, c), or (0, l) for the final T(l,1).  The empty prefix (k = 0,
    P/Q = 1/0, P0/Q0 = 0/1) is the unknot tail T(c,1) -> ... -> T(0,1).
    """
    k = len(coeffs) - 1
    c = coeffs[k]
    while k or (c and stop is StopRule.ZERO):
        moves = c // 2
        k_end, c_end = k, c - 2 * moves
        while k_end and c_end < 2:
            if c_end == 1:  # [..., b, 1] == [..., b+1]
                k_end -= 1
                c_end = coeffs[k_end] + 1
            else:  # [..., a, b, 0] == [..., a]
                k_end -= 2
                c_end = coeffs[k_end]
        yield moves, k, c, k_end, c_end
        k, c = k_end, c_end


def _walk_start(knot: TorusKnot, stop: StopRule) -> cf.ContinuedFraction:
    """Check the precondition of the walk from `knot` under `stop` and
    return the expansion of p/q it starts from.

    FIRST_UNKNOT needs a nontrivial knot (UnknotInput) and ZERO an even p
    (OddParity).  Every walk, a `PinchTrace` or a bare count, starts here,
    so each precondition has one class and one message.
    """
    if stop is StopRule.FIRST_UNKNOT:
        if is_unknot(knot):
            raise UnknotInput(f"{knot} is trivial")
    elif stop is StopRule.ZERO:
        if knot.p % 2:
            raise OddParity(f"reaching T(0,1) requires even p: {knot}")
    else:
        raise ValueError(f"unknown stop rule: {stop!r}")
    return cf.expand((knot.p, knot.q))


def _walk_sums(coeffs: tuple[int, ...], stop: StopRule) -> tuple[int, bool, int]:
    """(moves, all_positive, l) of the walk from `coeffs` under `stop`, with
    T(l,1) the knot it ends at, summed over its `_runs` in O(len(coeffs))
    integer operations."""
    last = coeffs[-1]
    moves = 0
    positive = True
    for n, k, c, _, last in _runs(coeffs, stop):
        moves += n
        # a negative run, or an unknot tail with unsigned moves before T(2,1)
        if k % 2 == 0 and (k or c != 2):
            positive = False
    return moves, positive, last


@dataclass(frozen=True, slots=True)
class PinchTrace:
    """The pinch moves from `knot` until `stop` is met, read as runs.

    This is the fast route to a pinch walk.  Building it expands p/q once
    and walks the coefficients right to left, so `moves` (which `len()`
    returns), `all_positive` and `final`, the knot the walk ends at, cost
    O(len(expansion)) integer operations however long the walk is.  Runs
    and moves are not kept: `walk` reads the runs again and computes each
    move from its run and the expansion's convergents, with no `pow` and no
    `expand`.  Two traces are equal when their knot and stop rule are.

    Within a run the expansion length, and so the sign, is fixed (the
    sign-parity lemma: positive exactly when the length is even), and the
    knot is linear in the last coefficient; see `_runs`.  `walk` is the one
    loop over the moves: it yields each move as a plain tuple of ints (its
    knots, witness, sign and the expansion after it), and iteration builds a
    chained `PinchRecord` from each.  The residue walk of one `pinch` per
    move is the test oracle for the moves, and one `cf.step` per move for
    the expansions.

    Building a trace is `_walk_start`, which checks the walk's precondition
    and expands p/q, then `_walk_sums` over that expansion.  A caller that
    needs only the counts (`genus.pinches_to_unknot`, `pinches_to_zero`,
    `four_genus_bounds`, gamma3 and verify) calls those two itself and
    builds no trace; a trace is for a walk that is printed or iterated.
    """

    knot: TorusKnot
    stop: StopRule
    expansion: cf.ContinuedFraction = field(init=False, repr=False, compare=False)
    moves: int = field(init=False, repr=False, compare=False)
    all_positive: bool = field(init=False, repr=False, compare=False)
    _last: int = field(init=False, repr=False, compare=False)  # l of the final T(l,1)

    def __post_init__(self) -> None:
        expansion = _walk_start(self.knot, self.stop)
        moves, positive, last = _walk_sums(expansion.coeffs, self.stop)
        put = object.__setattr__
        put(self, "expansion", expansion)
        put(self, "moves", moves)
        put(self, "all_positive", positive)
        put(self, "_last", last)

    @property
    def final(self) -> TorusKnot:
        """The knot the walk ends at: the first unknot T(l,1), or T(0,1)."""
        return TorusKnot._trusted(self._last, 1)

    def __len__(self) -> int:
        return self.moves

    def __iter__(self) -> Iterator[PinchRecord]:
        source = self.knot
        for _, _, rp, rq, t, h, sign, _, _ in self.walk():
            result = TorusKnot._trusted(rp, rq)
            yield PinchRecord(source, result, PinchWitness(t, h), sign)
            source = result

    def walk(self) -> Iterator[_Move]:
        """Yield each move as a plain tuple `(sp, sq, rp, rq, t, h, sign, k, c)`.

        T(sp,sq) -> T(rp,rq) is the move, (t, h) its witness and `sign` its
        `PinchSign` or None, as in its `PinchRecord`.  (k, c) is the
        expansion after the move, which stands for
        `expansion.coeffs[:k] + (c,)`: inside a run a move takes (k, c) to
        (k, c-2), and a run's last move ends at the pair (k_end, c_end) that
        `_runs` gives it: the next run's first pair, or (0, l) for the final
        T(l,1).  So each move is yielded as soon as it
        is computed, with nothing read ahead, and k never rises along a walk.

        With P/Q the run's convergent, the result is the source minus
        (2P, 2Q).  The residues are t = (sp - sigma*rp)/2 and
        h = (sq - sigma*rq)/2 for the sign sigma = +1 or -1: (P, Q) for a
        positive move (k odd) and (sp - P, sq - Q) for a negative one.  On
        the unknot tail (k = 0), T(l,1) -> T(l-2,1) has t = l-1 and h = 0,
        and only its last move, from T(2,1), has a sign: positive.
        """
        coeffs = self.expansion.coeffs
        ps, qs = cf.convergent_terms(coeffs[:-1])
        sp, sq = self.knot.p, self.knot.q
        positive, negative = PinchSign.POSITIVE, PinchSign.NEGATIVE
        for moves, k, c, k_end, c_end in _runs(coeffs, self.stop):
            P, Q = ps[k + 1], qs[k + 1]
            P2, Q2 = 2 * P, 2 * Q
            odd = k % 2
            last = c - 2 * moves
            for c in range(c - 2, last - 1, -2):
                rp, rq = sp - P2, sq - Q2
                if odd:
                    t, h, sign = P, Q, positive
                elif k:
                    t, h, sign = sp - P, sq - Q, negative
                else:
                    t, h, sign = sp - 1, 0, positive if sp == 2 else None
                if c == last:
                    k, c = k_end, c_end
                yield sp, sq, rp, rq, t, h, sign, k, c
                sp, sq = rp, rq


def pinch_sequence(knot: TorusKnot, stop: StopRule) -> list[PinchRecord]:
    """Pinch repeatedly until the stop rule is met and return the records.

    FIRST_UNKNOT requires a nontrivial starting knot (UnknotInput) and stops
    as soon as the result is trivial.  ZERO requires even p (OddParity: odd
    p never reaches 0, since pinching preserves parameter parities) and
    continues through the unknots T(l,1) until T(0,1).  Each move strictly
    decreases max(p,q), so both walks terminate.

    This is `list(PinchTrace(knot, stop))`, the records of the fast route;
    a caller that needs only the length, the signs or the last knot reads
    them from the `PinchTrace` instead.  One `pinch` per move, residues and
    all, is the test oracle.
    """
    return list(PinchTrace(knot, stop))


def normalized_knots(pmax: int, qmax: Optional[int] = None) -> Iterator[TorusKnot]:
    """Yield every nontrivial normalized T(p,q) with p <= pmax and q <= qmax.

    Order is p ascending, then q ascending.  qmax defaults to pmax.
    Nontrivial normalized knots have odd q >= 3, with q < p in the odd-odd
    case, so that is all the loop visits.  Those tests and the gcd make
    every pair it yields valid, so knots are built through `_trusted`; the
    tests re-validate them through the constructor.
    """
    if qmax is None:
        qmax = pmax
    trusted = TorusKnot._trusted
    for p in range(2, pmax + 1):
        for q in range(3, qmax + 1, 2):
            if p % 2 and q >= p:
                break
            if math.gcd(p, q) == 1:
                yield trusted(p, q)
