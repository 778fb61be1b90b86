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
p/q, and that equivalence is what the verification module stress-tests: it
compares the step of p/q's expansion with the expansion of the pinch's
result, as exact keys.  The two expansion routes, `pinch_by_step` (the
tests' oracle for that comparison) and `pinch_sign_from_expansion`, take
that expansion from the caller rather than expanding p/q again.

A whole walk is read off the expansion as runs of moves over which the
expansion keeps its length, so its length, its signs and the knot it ends
at cost O(len(expansion)) integer operations: `_walk_start` checks the
walk's precondition and expands p/q, and `_walk_sums` sums the runs to the
first unknot T(l,1) in one loop over the coefficients, with no run built.
The walk on to T(0,1) is that walk plus the unknot tail, l/2 more moves,
so no run depends on where the walk stops.  A `PinchTrace` holds those
sums for a walk that is printed.  Its `segments` reads the runs as `_runs`
yields them, as segments, stretches of moves with one sign over which the
knots and witnesses change by a fixed step: the CLI's printers cut each
segment into pieces and format a piece at a time, and `pinch_sequence`, the
one loop over single moves, builds a chained `PinchRecord` for each move.

Every knot that is valid by construction is built, unchecked, by one
builder, `_normalized`, and records and witnesses by `tuple.__new__`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Iterator, NamedTuple, Optional

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


def _require_ints(a: object, b: object) -> None:
    """Reject a parameter pair unless both are ints (a bool is not): the one
    type check of `TorusKnot`, `normalize` and `pinch_witness`."""
    if type(a) is not int or type(b) is not int:
        raise InvalidParameter(f"parameters must be integers: ({a!r},{b!r})")


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


@dataclass(frozen=True, order=True, slots=True)
class TorusKnot:
    """A normalized torus knot T(p,q).

    Use `normalize` to build one from an unordered parameter pair; direct
    construction insists the pair is already in normalized order.  Both
    parameters must be of type int; bools and other numbers are rejected.
    The constructor is the one place a knot's parameters are validated:
    type, then coprimality, then range, then order.  The knots that are
    valid by construction are built by `_normalized` instead, unchecked.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        _require_ints(self.p, self.q)
        if math.gcd(self.p, self.q) != 1:
            raise NotCoprime(f"({self.p},{self.q}) is not a coprime pair")
        if self.p < 0 or self.q < 1:
            raise InvalidParameter(f"parameters out of range: ({self.p},{self.q})")
        if self.p * self.q % 2 == 0:
            if self.p % 2 != 0:
                raise InvalidParameter(f"({self.p},{self.q}): even parameter must come first")
        elif self.p < self.q:
            raise InvalidParameter(f"({self.p},{self.q}): larger odd parameter must come first")

    def __str__(self) -> str:
        return f"T({self.p},{self.q})"


# `_normalized` writes a knot through the slots' member descriptors, which
# the frozen `__setattr__` does not guard; they and `object.__new__` are bound
# once here, and so is `tuple.__new__`, which builds records and witnesses.
_new = object.__new__
_set_p = TorusKnot.p.__set__
_set_q = TorusKnot.q.__set__
_tuple_new = tuple.__new__


def _normalized(a: int, b: int) -> TorusKnot:
    """The knot with parameter pair {a, b} in normalized order, unchecked.

    An odd a gives way to an even or a larger b: even parameter first, else
    the larger first.  This is the one builder of the knots that are valid
    by construction: a pinch's result, each move of a walk, the knots of
    the enumerated box and the two pieces of an odd split.  Those are built
    once per knot or per move, on the paths that walk a whole box or a
    whole walk, so no constructor runs for them: the slots are written
    directly and nothing is checked.  `normalize` builds through it too,
    then validates.  The tests re-validate every route's knots through the
    constructor.
    """
    if a % 2 and (b % 2 == 0 or a < b):
        a, b = b, a
    knot = _new(TorusKnot)
    _set_p(knot, a)
    _set_q(knot, b)
    return knot


class PinchWitness(NamedTuple):
    """The residues (t, h) that locate a pinch move.

    A witness is a tuple, so it compares equal to the plain tuple (t, h).
    """

    t: int
    h: int


class PinchRecord(NamedTuple):
    """One pinch move: source knot, resulting knot, witness and sign.

    `sign` is None only for moves between unknots T(l,1) with l >= 3, where
    p-2t and q-2h have opposite signs and the classification does not apply.
    Such moves occur only in the tail of a ZERO-stopped sequence.  A record
    is a tuple, so it compares equal to a plain tuple of its fields, in this
    order.
    """

    source: TorusKnot
    result: TorusKnot
    witness: PinchWitness
    sign: Optional[PinchSign]


def normalize(a: int, b: int) -> TorusKnot:
    """Build the normalized torus knot with parameter pair {a, b}.

    Even parameter first when the product is even, larger first when both
    are odd.  Non-int parameters (bools included) are rejected here, before
    the ordering compares them; the constructor's own checks then reject
    the ordered pair when it is not coprime, including (0,0), or has a
    negative parameter.
    """
    _require_ints(a, b)
    knot = _normalized(a, b)
    knot.__post_init__()
    return knot


def is_unknot(knot: TorusKnot) -> bool:
    """True when T(p,q) is a trivial knot, i.e. min(p,q) <= 1."""
    return min(knot.p, knot.q) <= 1


def _require_nontrivial(knot: TorusKnot) -> None:
    """Raise UnknotInput for a trivial knot.  This is the one place that
    class is raised: the walks to the first unknot, the division and the
    odd split of module genus all check through here."""
    if is_unknot(knot):
        raise UnknotInput(f"{knot} is trivial")


def pinch_witness(p: int, q: int) -> PinchWitness:
    """Return the canonical residues (t, h) for a pinch on coprime (p, q).

    Works on raw pairs in either order; no normalization is applied.  For a
    modulus of 1 the only residue is 0, which pow() already returns.
    Non-int parameters (bools included) are rejected as `TorusKnot` rejects
    them.
    """
    _require_ints(p, q)
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
    result (|p-2t|, |q-2h|) is a nonnegative coprime pair, built by
    `_normalized`.
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
    result = _normalized(abs(dp), abs(dq))
    return _tuple_new(PinchRecord, (knot, result, _tuple_new(PinchWitness, (t, h)), sign))


def pinch_by_step(expansion: cf.ContinuedFraction) -> TorusKnot:
    """Apply one pinch move to the knot whose p/q expands to `expansion`, by
    one `cf.step` of that expansion instead of the residues.

    Independent route to the same knot as `pinch`: it reads only the
    expansion, which the caller has at hand (a `PinchTrace` holds it), and
    builds its result through the validating `normalize`.  [0] and [1] are
    T(0,1) and T(1,1), which have no pinch; the denominator-2 guard in
    `step` never fires because normalized knots have odd q.

    A test oracle: verify's pinch-equivalence compares the stepped
    expansion with the expansion of `pinch`'s result directly, with no
    `Fraction` and no re-validated knot, and the tests check that this
    comparison agrees with this route.  It stays public because a
    benchmark row (`BENCHMARK.json`) names it.
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


# One segment as `PinchTrace.segments` yields it:
# (moves, sp, sq, dp, dq, t, h, dt, dh, sign, k, c, k_end, c_end).
_Segment = tuple[
    int, int, int, int, int, int, int, int, int, Optional[PinchSign], int, int, int, int
]


def _runs(coeffs: tuple[int, ...]) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield the runs of the walk from `coeffs` to its first unknot as
    (moves, k, c, k_end, c_end).

    A run is the moves over which the expansion [c0, ..., c_{k-1}, c] keeps
    its length k+1, and so its sign.  Its prefix is the first k coefficients
    of the starting expansion, so one list of their convergents serves every
    run.  With P/Q and P0/Q0 the prefix's last two convergents, move j starts
    at [c0, ..., c_{k-1}, c-2j] = ((c-2j)*P + P0) / ((c-2j)*Q + Q0): each
    move subtracts 2P and 2Q.  The run has c // 2 moves; the last leaves a
    last coefficient 0 or 1, which this loop drops or folds as `cf.step`
    does, to (k_end, c_end): the next run's (k, c), or (0, l) for the first
    unknot T(l,1), where the walk stops: once k = 0 the expansion is the
    one-entry [l].  The walk on to T(0,1) is the unknot tail, l/2 moves,
    which the callers add themselves.

    Only `PinchTrace.segments` reads the runs one at a time.  The counts
    read `_walk_sums`, which scans the same runs, with the same drop and
    fold, in one loop that yields nothing; the tests check that the two
    agree.
    """
    k = len(coeffs) - 1
    c = coeffs[k]
    while k:
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
    (OddParity).  Every walk from a knot that may miss its precondition, a
    `PinchTrace` or a bare count, starts here, so each precondition has one
    class and one message.  Two callers expand p/q directly: verify's
    records, built only for the nontrivial knots of its box, and
    `genus.genus_report`, which checks its knot with `_require_nontrivial`.
    """
    if stop is StopRule.FIRST_UNKNOT:
        _require_nontrivial(knot)
    elif stop is StopRule.ZERO:
        if knot.p % 2:
            raise OddParity(f"reaching T(0,1) requires even p: {knot}")
    else:
        raise ValueError(f"unknown stop rule: {stop!r}")
    return cf.expand((knot.p, knot.q))


def _walk_sums(coeffs: tuple[int, ...]) -> tuple[int, bool, int]:
    """(moves, all_positive, l) of the walk from `coeffs` to its first
    unknot T(l,1), in O(len(coeffs)) integer operations.

    These are the sums over the runs of `_runs`, scanned right to left in
    one loop, with no generator and no tuple per run: the run on
    [c0, ..., c_{k-1}, c] makes c // 2 moves, negative ones when k is even,
    and leaves c % 2, which is dropped or folded as `cf.step` does.  Every
    count reads this, twice per even-p knot of verify, while only
    `PinchTrace.segments` reads `_runs`.  The walk on to T(0,1) adds the
    unknot tail: l/2 moves, all unsigned but the positive one from T(2,1)."""
    k = len(coeffs) - 1
    c = coeffs[k]
    moves = 0
    positive = True
    while k:
        moves += c // 2
        if not k & 1:  # a negative run
            positive = False
        c &= 1
        while k and c < 2:
            if c:  # [..., b, 1] == [..., b+1]
                k -= 1
                c = coeffs[k] + 1
            else:  # [..., a, b, 0] == [..., a]
                k -= 2
                c = coeffs[k]
    return moves, positive, c


@dataclass(frozen=True, slots=True)
class PinchTrace:
    """The pinch moves from `knot` until `stop` is met, read as runs.

    This is the fast route to a pinch walk.  Building it expands p/q once
    and walks the coefficients right to left, so `moves`, `all_positive`
    and `final`, the knot the walk ends at, cost O(len(expansion)) integer
    operations however long the walk is.  Runs and moves are not kept:
    `segments` reads the runs again, with no `pow` and no `expand`.  Two
    traces are equal when their knot and stop rule are.

    Within a run the expansion length, and so the sign, is fixed (the
    sign-parity lemma: positive exactly when the length is even), and the
    knot is linear in the last coefficient; see `_runs`.  `segments` yields
    the walk a run at a time, as the step each move takes: the printers
    format pieces of a segment, each a segment itself, and `pinch_sequence`
    builds a `PinchRecord` for each move.  The residue walk of one `pinch`
    per move is the test oracle for the moves, and one `cf.step` per move
    for the expansions.

    The walk to T(0,1) is the walk to the first unknot T(l,1) followed by
    the unknot tail T(l,1) -> T(l-2,1) -> ... -> T(0,1): l/2 moves (l is
    even, as p is), unsigned but for the last, positive one from T(2,1).
    So under ZERO `moves` is the first-unknot count plus l // 2,
    `all_positive` holds when the first-unknot walk's does and l <= 2, and
    `final` is T(0,1); the runs themselves never depend on the stop rule.

    Building a trace is `_walk_start`, which checks the walk's precondition
    and expands p/q, then `_walk_sums` over that expansion; `_trusted`
    skips the first step for a caller that has done it already, as a
    `genus.GenusReport` has.  A caller that needs only the counts
    (`genus.pinches_to_unknot`, `pinches_to_zero`, `four_genus_bounds`,
    `genus_report`, gamma3 and verify) calls those two itself and builds
    no trace; a trace is for a walk that is printed or listed.
    """

    knot: TorusKnot
    stop: StopRule
    expansion: cf.ContinuedFraction = field(init=False, repr=False, compare=False)
    moves: int = field(init=False, repr=False, compare=False)
    all_positive: bool = field(init=False, repr=False, compare=False)
    _last: int = field(init=False, repr=False, compare=False)  # l of the final T(l,1)

    def __post_init__(self) -> None:
        self._hold(_walk_start(self.knot, self.stop))

    @classmethod
    def _trusted(
        cls, knot: TorusKnot, stop: StopRule, expansion: cf.ContinuedFraction
    ) -> PinchTrace:
        """The trace from `knot` under `stop`, unchecked: the caller vouches
        for the walk's precondition and hands over `expansion`, the expansion
        of p/q it already has, so p/q is not expanded again."""
        self = object.__new__(cls)
        object.__setattr__(self, "knot", knot)
        object.__setattr__(self, "stop", stop)
        self._hold(expansion)
        return self

    def _hold(self, expansion: cf.ContinuedFraction) -> None:
        """Keep `expansion` and the walk's sums over it."""
        moves, positive, last = _walk_sums(expansion.coeffs)
        if self.stop is StopRule.ZERO:  # the unknot tail T(l,1) -> ... -> T(0,1)
            moves, positive, last = moves + last // 2, positive and last <= 2, 0
        put = object.__setattr__
        put(self, "expansion", expansion)
        put(self, "moves", moves)
        put(self, "all_positive", positive)
        put(self, "_last", last)

    @property
    def final(self) -> TorusKnot:
        """The knot the walk ends at: the first unknot T(l,1), or T(0,1)."""
        return _normalized(self._last, 1)

    def segments(self) -> Iterator[_Segment]:
        """Yield the walk as segments, each a tuple
        `(moves, sp, sq, dp, dq, t, h, dt, dh, sign, k, c, k_end, c_end)`.

        A segment is `moves` >= 1 moves with one sign.  Its move j (from 0)
        takes T(sp - j*dp, sq - j*dq) to T(sp - (j+1)*dp, sq - (j+1)*dq),
        with witness (t - j*dt, h - j*dh) and `sign`, a `PinchSign` or None.
        (k, c) is the expansion before the first move, standing for
        `expansion.coeffs[:k] + (c,)`; move j ends at (k, c - 2*(j+1)),
        except the last, which ends at (k_end, c_end): the next segment's
        (k, c), or (0, l) for the first unknot T(l,1).  k never rises along
        a walk.

        A segment is a run of `_runs`, with P/Q its prefix's last
        convergent: each move subtracts (dp, dq) = (2P, 2Q).  The residues
        of a move T(sp,sq) -> T(rp,rq) of sign sigma = +1 or -1 are
        t = (sp - sigma*rp)/2 and h = (sq - sigma*rq)/2, so a positive run
        (k odd) has the constant witness (P, Q), with dt = dh = 0, and a
        negative run (k even) has witness (sp - P, sq - Q), which drops with
        the knot.  Under ZERO, when l > 0, the runs are followed by the
        unknot tail (k = 0, P/Q = 1/0) T(l,1) -> T(l-2,1) -> ... -> T(0,1),
        whose moves have t = l-1 and h = 0; only its move from T(2,1) has a
        sign, positive, so it is yielded in two segments: its l/2 - 1
        unsigned moves, when l > 2, then that one move.  This is the one
        place that decides a move's knots, witness and sign:
        `pinch_sequence` reads them from here, and the printers read pieces
        of these segments.
        """
        coeffs = self.expansion.coeffs
        ps, qs = cf.convergent_terms(coeffs[:-1])
        sp, sq = self.knot.p, self.knot.q
        positive, negative = PinchSign.POSITIVE, PinchSign.NEGATIVE
        for moves, k, c, k_end, c_end in _runs(coeffs):
            P, Q = ps[k + 1], qs[k + 1]
            dp, dq = 2 * P, 2 * Q
            if k % 2:
                yield moves, sp, sq, dp, dq, P, Q, 0, 0, positive, k, c, k_end, c_end
            else:
                yield moves, sp, sq, dp, dq, sp - P, sq - Q, dp, dq, negative, k, c, k_end, c_end
            sp -= moves * dp
            sq -= moves * dq
        if self.stop is StopRule.ZERO and sp:  # the unknot tail from T(sp,1)
            if sp > 2:
                yield sp // 2 - 1, sp, 1, 2, 0, sp - 1, 0, 2, 0, None, 0, sp, 0, 2
            yield 1, 2, 1, 2, 0, 1, 0, 2, 0, positive, 0, 2, 0, 0


def pinch_sequence(knot: TorusKnot, stop: StopRule) -> list[PinchRecord]:
    """Pinch repeatedly until the stop rule is met and return the records.

    FIRST_UNKNOT requires a nontrivial starting knot (UnknotInput) and stops
    as soon as the result is trivial.  ZERO requires even p (OddParity: odd
    p never reaches 0, since pinching preserves parameter parities) and
    continues through the unknots T(l,1) until T(0,1).  Each move strictly
    decreases max(p,q), so both walks terminate.

    This is the library's one loop over single moves: move j of each of
    the trace's `segments` is built from the segment's first move and step,
    its knot by `_normalized`.
    A caller that needs only the length, the signs or the last knot reads
    them from the `PinchTrace` instead.  One `pinch` per move, residues and
    all, is the test oracle.
    """
    records = []
    source = knot
    for moves, sp, sq, dp, dq, t, h, dt, dh, sign, *_ in PinchTrace(knot, stop).segments():
        for j in range(1, moves + 1):
            result = _normalized(sp - j * dp, sq - j * dq)
            witness = _tuple_new(PinchWitness, (t, h))
            records.append(_tuple_new(PinchRecord, (source, result, witness, sign)))
            source, t, h = result, t - dt, h - dh
    return records


def normalized_knots(pmax: int, qmax: Optional[int] = None) -> Iterator[TorusKnot]:
    """Yield every nontrivial normalized T(p,q) with p <= pmax and q <= qmax.

    Order is p ascending, then q ascending.  qmax defaults to pmax.
    Nontrivial normalized knots have odd q >= 3, with q < p in the odd-odd
    case, so that is all the loop visits.  Those tests and the gcd make
    every pair it yields valid, so its knots are built by `_normalized`.
    A bound that is not an int, bools included, raises InvalidParameter
    naming it when the function is called, before anything is iterated.
    """
    if qmax is None:
        qmax = pmax
    for name, bound in (("pmax", pmax), ("qmax", qmax)):
        if type(bound) is not int:
            raise InvalidParameter(f"{name} must be an int: {bound!r}")
    return _box(qmax, (2, 3), (pmax + 1, 3))


def _box(qmax: int, start: tuple[int, int], stop: tuple[int, int]) -> Iterator[TorusKnot]:
    """The knots `normalized_knots(pmax, qmax)` yields, once it has checked
    both bounds, at the pairs (p, q) it visits from `start` on and before
    `stop`, in its order; (2, 3) and (pmax + 1, 3) bound the whole box.

    Row p visits the odd q from 3 to qmax, and only those below p when p is
    odd, so its bounds are set once per row and every pair it visits is
    tested by its gcd alone."""
    (p0, q0), (p1, q1) = start, stop
    for p in range(p0, p1 + 1):
        top = q1 if p == p1 else qmax + 1
        if p % 2 and top > p:
            top = p
        for q in range(q0 if p == p0 else 3, top, 2):
            if math.gcd(p, q) == 1:
                yield _normalized(p, q)
