"""Bounded exhaustive verification of the pinch/step identities.

One pass enumerates the normalized nontrivial torus knots with both
parameters inside a bound of at least 3 (p ascending, then q ascending),
evaluates every claimed identity on each, and reports one CheckOutcome per
check.  Each knot that a selected check runs on gets one record, `_Knot`,
holding the values its checks share: the residue pinch, the knot's walk
from the pass's walk table, the expansion of p/q, the quotient k = p // q
and the library's walk counts.  Each check is a predicate on that record
which decides its claims itself and returns only the failed ones, as
(expected, actual) pairs: the constant () when the knot passes, so a
passing knot builds no claim object, and the expected and actual values
are built only on failure.  The checks are grouped by the parity of p they
run on once, before the pass; a check's case count is the tally of the
knots of its parity, set after the pass.  Checks never abort on a
failure: they keep scanning and collect up to MAX_COUNTEREXAMPLES
offending cases so a broken identity is visible in bulk, not one case at a
time.

The walk table, `_Walks`, is an induction over the box.  The walk from a
knot to its first unknot is its first residue `pinch` followed by the walk
from the knot that pinch lands on, an unknot or a box knot with a smaller
p.  The table reads that knot's walk, and walks it first, by the same
rule, when it has no entry for it yet.  So each walk is counted in O(1)
from the residues alone, once the walks below it are stored, apart from
`knot._walk_sums`, which the library counts walks and gamma3 with:
terminal-unknot, gap-formula and crosscap-odd-consistency compare the two
routes, and pinch-equivalence checks the residue pinch against one
`cf.step`, so every move of every walk in the box is checked.

A pass can also check one slice of the box, any contiguous run of its
knots in `normalized_knots` order (`_run_slice`), and needs only those
knots: the table walks the knots below the slice that the slice's walks
pass through when they are first read.  The outcomes of contiguous slices
merge (`_merge`) into those of one pass.  `crosscap verify` cuts its box
into equal slices and checks them in parallel processes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from . import cf
from .errors import InvalidParameter
from .genus import _ell, _gamma3, odd_split
from .knot import (
    PinchRecord,
    TorusKnot,
    _walk_sums,
    normalized_knots,
    pinch,
    pinch_sign_from_expansion,
)

__all__ = [
    "MAX_COUNTEREXAMPLES",
    "Counterexample",
    "CheckOutcome",
    "check_pinch_equivalence",
    "check_sign_lemma",
    "check_magnitude",
    "check_sign_parity",
    "check_terminal_unknot",
    "check_crosscap_odd_consistency",
    "check_gap_formula",
    "run_all",
]

MAX_COUNTEREXAMPLES = 100


@dataclass(frozen=True)
class Counterexample:
    input: str
    expected: str
    actual: str


@dataclass
class CheckOutcome:
    """Result of one exhaustive check over a parameter range."""

    check_name: str
    range_description: str
    cases_checked: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)
    failures_total: int = 0

    @property
    def passed(self) -> bool:
        return self.failures_total == 0


class _Walks:
    """The walk table of one pass: for each knot walked so far, (moves, l)
    of its residue walk to the first unknot T(l,1).

    `add(first)` stores the entry of `first.source` from its first pinch:
    one move, then the walk from `first.result`, which is (0, l) for an
    unknot T(l,1) and the table's entry otherwise.  When that knot has no
    entry yet, `add` walks it first, with no recursion: it pinches on down
    to a knot that has an entry or to an unknot, and stores the walk of
    each knot on the way.  `get` walks a knot it has no entry for in the
    same way.  A walk follows a pinch only to an unknot or to a knot with a
    smaller first parameter, as every correct pinch goes by the order
    lemma below, so it ends whatever `pinch` returns.  A pass over the
    whole box, p ascending, so finds stored every walk it reads of a
    parity it checks, and a slice walks only the knots below it that its
    walks pass through.

    The order lemma: the normalized first pinch T(|p-2t|, |q-2h|) of a
    box knot T(p,q) is an unknot, or a box knot with a smaller first
    parameter and a q no larger:

    * for even p, t = -q^(-1) mod p lies in [1, p-1], so the even
      parameter |p-2t| <= p-2 comes first, and |q-2h| <= q since
      0 <= h < q;
    * for odd p, where q < p, t and h = p^(-1) mod q lie in [1, p-1] and
      [1, q-1], so |p-2t| <= p-2 and |q-2h| <= q-2, and the larger of the
      two comes first;
    * p-2t and q-2h have the parities of p and q, so a pinch keeps p's
      parity.

    The two `odd_split` pieces of an odd-p knot, T(p', q') and
    T(p-p', q-q') with p'/q' the second-to-last convergent of p/q, have
    both parameters below p.  Since p'q - pq' = +-1 with p and q odd,
    p' + q' is odd, and so is (p-p') + (q-q'): each piece has one even
    parameter, its first, so it is an even-p knot of the box or an unknot
    T(l,1) with l even, which `get` reads or walks.

    A walk misses only when a broken `pinch` leaves the order above, or a
    broken `odd_split` yields a piece outside the box: `get` and `add` then
    return None, which the checks that read it report as a failed claim,
    and store no entry on the way, so a later read walks those knots
    again.  `get` refuses every knot the layout
    cannot hold, so a wrong knot never reads the entry of another one.

    Layout: two flat `array("i")`s, of moves and of l, indexed by
    p * (bound // 2 + 1) + q // 2 for odd q, where 0 moves marks a slot
    with no entry.  Both are allocated whole, for every p of the box, when
    the table is made, so a slot not yet written reads as no entry: 8 bytes
    per (p, odd q) slot, about 4 MB at the largest box `verify --max`
    accepts.
    """

    __slots__ = ("_max", "_width", "_moves", "_ells")

    def __init__(self, max_param: int):
        self._max = max_param
        self._width = max_param // 2 + 1
        size = (max_param + 1) * self._width
        self._moves = array("i", [0]) * size
        self._ells = array("i", [0]) * size

    def get(self, knot: TorusKnot) -> Optional[tuple[int, int]]:
        """(moves, l) of the walk from `knot` to its first unknot T(l,1):
        (0, l) for an unknot T(l,1) with l inside the bound, the table's
        entry for a box knot, walked now if it has none, and None for any
        other knot or a walk that leaves the order (see `add`)."""
        p, q = knot.p, knot.q
        if q == 1:
            return (0, p) if 0 <= p <= self._max else None
        if q & 1 and 3 <= q <= self._max and 0 <= p <= self._max:
            i = p * self._width + (q >> 1)
            if self._moves[i]:
                return self._moves[i], self._ells[i]
            return self.add(pinch(knot))
        return None

    def add(self, first: PinchRecord) -> Optional[tuple[int, int]]:
        """Store and return (moves, l) of the walk from `first.source`, a
        knot of the box, one move longer than the walk from `first.result`,
        and the walk of each knot without an entry that it passes through.
        None, and no entry, when a pinch on the way lands on a knot that is
        neither an unknot inside the bound nor a knot of the layout with a
        smaller first parameter."""
        width, moves, ells = self._width, self._moves, self._ells
        slots = []  # of the knots walked, each one move before the next
        while True:
            knot, result = first.source, first.result
            slots.append(knot.p * width + (knot.q >> 1))
            p, q = result.p, result.q
            if q == 1 and 0 <= p <= self._max:
                walk = 0, p
                break
            if not (q & 1 and 3 <= q <= self._max and 0 <= p < knot.p):
                return None
            i = p * width + (q >> 1)
            if moves[i]:
                walk = moves[i], ells[i]
                break
            first = pinch(result)
        n, ell = walk
        for i in reversed(slots):
            n += 1
            moves[i], ells[i] = n, ell
        return n, ell


class _Knot:
    """One knot of the box and the values its checks share, each computed
    once, when the record is built, since a pass of every check reads them
    on every knot:

    * `first`, the residue `pinch`, read by pinch-equivalence, sign-lemma,
      magnitude-order and sign-parity;
    * `walk`, (moves, l) of the residue walk to the first unknot T(l,1),
      which `walks.add` reads off `first` and the table, walking what the
      table lacks, or None when the walk leaves the box order; read by
      terminal-unknot and gap-formula;
    * `walks`, the pass's walk table, from which crosscap-odd-consistency
      reads the walks of the split pieces;
    * `expansion`, the one expansion of p/q, read by pinch-equivalence and
      sign-parity, and by gamma3 in crosscap-odd-consistency (odd p) and
      gap-formula (even p), which run on disjoint parities;
    * `k`, the quotient p // q, the one division of the knot, read by
      terminal-unknot and gap-formula;
    * `runs`, the library's (moves, all_positive, l) of the walk to the
      first unknot, summed by `knot._walk_sums` over the runs of
      `expansion`, read by terminal-unknot.

    Each check compares a library route with one apart from it: the
    residue pinch with one `cf.step` of `expansion`, as expansions, which
    are exact keys; the residue sign with the expansion length; `runs` and
    the division formula `genus._ell` on the record's quotient with the
    residue walk; and `genus._gamma3`, which sums the runs of `expansion`
    (or, for odd p, of its near-palindrome form), with the residue walks:
    for even p, gamma3 minus the walk's moves is the gap, and for odd p
    gamma3 is the sum of the ZERO counts of the two `odd_split` pieces,
    moves + l // 2 each.  So a pass expands two rationals per even-p knot,
    p/q here and the residue pinch's result in pinch-equivalence, and three
    per odd-p knot, since `odd_split` expands p/q again.
    """

    __slots__ = ("knot", "first", "walk", "walks", "expansion", "k", "runs")

    def __init__(self, knot: TorusKnot, walks: _Walks):
        self.knot = knot
        self.first = pinch(knot)
        self.walk = walks.add(self.first)
        self.walks = walks
        self.expansion = cf.expand((knot.p, knot.q))  # the box holds no trivial knot
        self.k = knot.p // knot.q
        self.runs = _walk_sums(self.expansion.coeffs)


# A predicate returns its failed claims, one (expected, actual) pair per
# identity that does not hold on the knot, and () when all of them hold.
_Claims = tuple[tuple[object, object], ...]
_Predicate = Callable[[_Knot], _Claims]
_Row = tuple[str, str, Optional[int], _Predicate]  # name, range text, parity filter, predicate
_CHECKS: list[_Row] = []  # in the order run_all reports them
_KNOTS = "normalized nontrivial T(p,q) with p,q <= {}"


def _check(name: str, range_text: str = _KNOTS, parity: Optional[int] = None):
    """Decorator: file the predicate in _CHECKS as check `name`, and bind the
    decorated name to that check's entry point, a function of the bound that
    runs this check alone.  The predicate returns the (expected, actual)
    pair of each claim that fails on the record, and () when the knot
    passes."""

    def register(predicate: _Predicate) -> Callable[[int], CheckOutcome]:
        row = (name, range_text, parity, predicate)
        _CHECKS.append(row)

        def run_alone(max_param: int) -> CheckOutcome:
            return _scan(max_param, [row])[0]

        run_alone.__name__ = run_alone.__qualname__ = predicate.__name__
        run_alone.__doc__ = predicate.__doc__
        return run_alone
    return register


def _scan(
    max_param: int, rows: list[_Row], knots: Optional[Iterable[TorusKnot]] = None
) -> list[CheckOutcome]:
    """Evaluate the given checks on `knots`, knots of the box in
    `normalized_knots` order (None: the whole box), in a single pass.

    A bound that is not an int (bools included), or is below 3 and so
    holds no nontrivial knot, is refused, for every entry point alike.
    The checks are grouped by the parity of p they run on before the pass,
    and the knots of each parity are tallied; a knot whose parity has no
    check gets no record.  Each check's case count is its parity's tally,
    or both tallies, after the pass.  A record's knot is walked as the
    record is built, and the table walks every other knot that a walk or
    a split piece reads when it is first read (see `_Walks`).  Each
    (expected, actual) pair a predicate returns is one failure of its
    check, and the first MAX_COUNTEREXAMPLES become its counterexamples."""
    if type(max_param) is not int:
        raise InvalidParameter(f"verify bound must be an int: {max_param!r}")
    if max_param < 3:
        raise InvalidParameter(f"verify bound must be at least 3: {max_param}")
    outcomes = [CheckOutcome(name, text.format(max_param)) for name, text, _, _ in rows]
    by_parity: tuple[list, list] = ([], [])  # (predicate, outcome) for even p, odd p
    for (_, _, parity, predicate), outcome in zip(rows, outcomes):
        for p in (0, 1):
            if parity is None or parity == p:
                by_parity[p].append((predicate, outcome))
    walks = _Walks(max_param)
    tallies = [0, 0]
    for knot in normalized_knots(max_param) if knots is None else knots:
        parity = knot.p % 2
        checks = by_parity[parity]
        if not checks:
            continue
        tallies[parity] += 1
        record = _Knot(knot, walks)
        for predicate, outcome in checks:
            for expected, actual in predicate(record):
                outcome.failures_total += 1
                if outcome.failures_total <= MAX_COUNTEREXAMPLES:
                    case = Counterexample(str(knot), str(expected), str(actual))
                    outcome.counterexamples.append(case)
    for (_, _, parity, _), outcome in zip(rows, outcomes):
        outcome.cases_checked = sum(tallies) if parity is None else tallies[parity]
    return outcomes


def _no_walk(knot: TorusKnot) -> _Claims:
    """The failed claims of a check that reads the walk from `knot` when
    the walk table finds none (see `_Walks`): one failure, naming the knot."""
    return ((f"a walk from {knot}", "none"),)


def _failed(*claims: tuple[bool, object, object]) -> _Claims:
    """The (expected, actual) pairs of the claims (holds, expected, actual)
    that do not hold.  A predicate with more than one claim calls it only
    once it has found a failure, so a passing knot builds no claim."""
    return tuple((expected, actual) for holds, expected, actual in claims if not holds)


@_check("pinch-equivalence")
def check_pinch_equivalence(rec: _Knot) -> _Claims:
    """Pinch via modular residues lands on the same knot as one cf step.

    The knots are compared as expansions, which are exact keys: one step
    of p/q's expansion is the expansion of the residue pinch's result.
    A step keeps the parities of numerator and denominator and, for odd
    p > q, a value of at least 1, so the stepped rational is already in
    normalized order."""
    result = rec.first.result
    by_residues = cf.expand((result.p, result.q))
    by_step = cf.step(rec.expansion)
    return () if by_step.coeffs == by_residues.coeffs else ((by_residues, by_step),)


@_check("sign-lemma")
def check_sign_lemma(rec: _Knot) -> _Claims:
    """(p-2t)(q-2h) >= 0, with equality exactly when p = 2."""
    p, wit = rec.knot.p, rec.first.witness
    product = (p - 2 * wit.t) * (rec.knot.q - 2 * wit.h)
    signed, zero = product >= 0, (product == 0) == (p == 2)
    if signed and zero:
        return ()
    return _failed(
        (signed, "(p-2t)(q-2h) >= 0", product),
        (zero, "(p-2t)(q-2h) == 0 iff p == 2", product),
    )


@_check("magnitude-order")
def check_magnitude(rec: _Knot) -> _Claims:
    """|p-2t| and |q-2h| are ordered the same way as p and q.

    Checked on the raw residue output, before normalization reorders the
    resulting pair: r >= s when p > q, and r < s when p < q.
    """
    p, q, wit = rec.knot.p, rec.knot.q, rec.first.witness
    r, s = abs(p - 2 * wit.t), abs(q - 2 * wit.h)
    larger, smaller = not (p > q and r < s), not (p < q and r >= s)
    if larger and smaller:
        return ()
    return _failed((larger, "r >= s for p > q", (r, s)), (smaller, "r < s for p < q", (r, s)))


@_check("sign-parity")
def check_sign_parity(rec: _Knot) -> _Claims:
    """Residue-based pinch sign matches the expansion-length parity rule."""
    predicted = pinch_sign_from_expansion(rec.expansion)
    return () if rec.first.sign is predicted else ((predicted, rec.first.sign),)


@_check("terminal-unknot")
def check_terminal_unknot(rec: _Knot) -> _Claims:
    """The division formula, read on the record's quotient, predicts the
    first unknot T(l,1) the residue walk reaches, and the library's run
    sums count that walk: its moves and its l."""
    walk = rec.walk
    if walk is None:
        return _no_walk(rec.first.result)
    moves, ell = walk
    predicted = _ell(rec.knot.p, rec.k)
    run_moves, _, run_ell = rec.runs
    by_ell, by_runs = predicted == ell, run_moves == moves and run_ell == ell
    if by_ell and by_runs:
        return ()
    return _failed((by_ell, predicted, ell), (by_runs, walk, (run_moves, run_ell)))


@_check("crosscap-odd-consistency", "odd coprime 3 <= q < p <= {}", parity=1)
def check_crosscap_odd_consistency(rec: _Knot) -> _Claims:
    """Closed-formula crosscap number agrees with the splitting
    construction: the sum of the ZERO counts, moves + l // 2, of the two
    `odd_split` pieces, whose residue walks the table holds."""
    gamma3 = _gamma3(rec.knot.p, rec.expansion.coeffs)
    split = odd_split(rec.knot)
    geometric = 0
    for piece in (split.first, split.second):
        walk = rec.walks.get(piece)
        if walk is None:
            return _no_walk(piece)
        geometric += walk[0] + walk[1] // 2
    return () if gamma3 == geometric else ((geometric, gamma3),)


@_check("gap-formula", "normalized nontrivial T(p,q), p even, p,q <= {}", parity=0)
def check_gap_formula(rec: _Knot) -> _Claims:
    """gamma3 - beta1_F equals ceil(k/2) and stays >= k/2 for even p:
    the library's gamma3 less the moves of the residue walk."""
    if rec.walk is None:
        return _no_walk(rec.first.result)
    k = rec.k
    gap = _gamma3(rec.knot.p, rec.expansion.coeffs) - rec.walk[0]
    if gap == (k + 1) // 2:  # and so gap >= k/2
        return ()
    bound = 2 * gap >= k  # gap >= k/2, in integers
    return _failed((False, (k + 1) // 2, gap), (bound, f"gap >= {Fraction(k, 2)}", gap))


def run_all(max_param: int) -> list[CheckOutcome]:
    """Run every check at the given bound, in a fixed order, in one pass."""
    return _scan(max_param, _CHECKS)


def _run_slice(max_param: int, knots: Iterable[TorusKnot]) -> list[CheckOutcome]:
    """`run_all(max_param)` on `knots`, a contiguous run of the box's knots
    in `normalized_knots` order: each outcome's cases, failures and
    counterexamples are the slice's.  The walks the slice reads below it
    are walked on demand (see `_Walks`), so `_merge` of the outcomes of
    contiguous slices that cover the box is `run_all`."""
    return _scan(max_param, _CHECKS, knots)


def _merge(slices: list[list[CheckOutcome]]) -> list[CheckOutcome]:
    """The outcomes of one pass over the box, from those of its contiguous
    slices in p order: each check's cases and failures summed, and its
    counterexamples concatenated in slice order, the first
    MAX_COUNTEREXAMPLES kept.  A slice keeps its own first ones, so these
    are the sequential pass's."""
    merged = []
    for parts in zip(*slices):
        outcome = CheckOutcome(parts[0].check_name, parts[0].range_description)
        for part in parts:
            outcome.cases_checked += part.cases_checked
            outcome.failures_total += part.failures_total
            outcome.counterexamples += part.counterexamples
        del outcome.counterexamples[MAX_COUNTEREXAMPLES:]
        merged.append(outcome)
    return merged

