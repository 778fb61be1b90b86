"""Nonorientable genus invariants of torus knots.

For a nontrivial T(p,q) this module computes, all in exact arithmetic:

* beta1_F   - the number of pinch moves needed to reach the first unknot.
              Capping the pinch cobordism in the four-ball gives a
              nonorientable surface with this first Betti number, so it is
              an upper bound for the nonorientable four-genus gamma4.
* gamma3    - the crosscap number (nonorientable three-genus), from
              Teragaito's step-count formula: N(p,q) when pq is even, and
              N(pq-+1, p^2) when pq is odd, the sign picked by the parity
              of x with xq = -1 mod p.  N(a,b) counts reduction steps from
              a/b to 0: the walk to the first one-entry expansion [l],
              summed run by run by `knot._walk_sums`, plus the unknot tail
              of l/2 steps, in O(len(expansion)) integer operations and
              with no stop rule and no `PinchTrace`.  For odd pq the
              expansion of (pq-+1)/p^2 is p/q's own expansion rearranged
              into a near-palindrome (`_odd_crosscap_form`), whose runs are
              counted as they stand: no p^2, no residue, no second
              expansion.  `_gamma3` counts either walk from an expansion of
              p/q the caller already has; `crosscap_number` expands p/q
              once and calls it, and so do `pinches_to_zero` and module
              verify.  Only `genus_report` on even p still counts one
              cf.step per move; its even branch says why.
* gamma4    - bounds for the nonorientable four-genus: lower 1, upper
              beta1_F, marked exact by the first certificate that applies:
              all positive pinches, then interval collapse.
* the gap   - gamma3 - beta1_F, which for even p equals ell/2 where T(ell,1)
              is the unknot the pinch sequence first reaches: the walk to
              T(0,1) is the walk to T(ell,1) plus its unknot tail.  The gap
              grows linearly in p//q, so the three- and four-dimensional
              invariants diverge along fixed-q families.

The odd-pq crosscap number also has a geometric form: split T(p,q) along
the second-to-last convergent of p/q and sum the pinch counts of the two
pieces (Teragaito again).  `odd_split` gives the pieces, and the
verification module cross-checks the closed formula with their residue
walks from its walk table; `crosscap_by_splitting`, which counts each
piece's walk with `pinches_to_zero`, is the tests' oracle for it.

`genus_report` computes each value once per knot: it divides p by q once,
expands p/q once, sums that expansion's runs for beta1_F and the gamma4
certificate, and reads gamma3 off the same expansion: stepped when p is
even, rearranged into the near-palindrome when p is odd.  It builds no
`PinchTrace`: the report is one tuple of its values, its only Fraction,
the gap bound k/2, is shared by every report with the same quotient k
(`_half`), and the printed trace and the odd split are built from the
report's expansion only when `trace` and `split` are read.

The library does not re-prove the paper's identities at run time: the
gap's closed form and the agreement of overlapping gamma4 certificates are
checked by module verify and the tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from . import cf
from .errors import EvenParity
from .knot import PinchTrace, StopRule, TorusKnot, _ordered, _walk_start, _walk_sums
from .knot import _new, _require_nontrivial, _set_p, _set_q

__all__ = [
    "OddSplit",
    "FourGenusBounds",
    "GenusReport",
    "EXACT_BY_POSITIVE_PINCHES",
    "EXACT_BY_COLLAPSE",
    "EXACT_UNKNOWN",
    "euclidean_division",
    "terminal_unknot_parameter",
    "pinches_to_unknot",
    "pinches_to_zero",
    "odd_split",
    "crosscap_by_splitting",
    "crosscap_number",
    "four_genus_bounds",
    "gap_report",
    "orientable_genus",
    "genus_report",
]

# Provenance labels for an exact gamma4 value.
EXACT_BY_POSITIVE_PINCHES = "all-positive-pinches"
EXACT_BY_COLLAPSE = "interval-collapse"
EXACT_UNKNOWN = "none"

# The splits, bounds and reports this module builds are its tuple types,
# written by `tuple.__new__` with no Python-level constructor run; the
# public constructors build the same types from outside.
_tuple_new = tuple.__new__


class OddSplit(NamedTuple):
    """Decomposition of an odd-parameter T(p,q) into two torus knots.

    `first` comes from the second-to-last convergent of p/q, `second` from
    the complementary parameters; each piece has exactly one even parameter.
    A split is a tuple, so it compares equal to the plain tuple
    (first, second).
    """

    first: TorusKnot
    second: TorusKnot


class FourGenusBounds(NamedTuple):
    """Bounds for the nonorientable four-genus, with an exactness verdict.

    `exact` is set by the first recognized criterion that applies, tried in
    this order, and `provenance` records which one: "all-positive-pinches"
    (even p, every pinch to the first unknot positive) or
    "interval-collapse" (lower == upper, no theorem needed).  Otherwise
    exact is None and provenance is "none".  Batson's gamma4 = k-1 for
    T(2k,2k-1) needs no certificate of its own: that knot expands to
    [1, 2k-1], one positive run of k-1 moves.
    """

    lower: int
    upper: int
    exact: Optional[int]
    provenance: str


class GenusReport(NamedTuple):
    """Everything this package knows about one nontrivial torus knot.

    A report is a tuple of its values, so it compares equal to a plain
    tuple of the same values, in this order.  `expansion` is the expansion
    of p/q that `beta1_F`, `gamma3` and the gamma4 certificate were read
    from.  Neither the printed walk nor the odd split is stored: `trace`
    builds the `PinchTrace` to the first unknot and `split` the odd split,
    both from `expansion`, each time they are read.  Of the outputs, only a
    JSON table reads `trace` and only the human report reads `split`.
    """

    knot: TorusKnot
    k: int
    a: int
    ell: int
    beta1_F: int
    gamma3: int
    gamma4: FourGenusBounds
    gap_lower_bound: Fraction
    orientable_genus: int
    expansion: cf.ContinuedFraction

    @property
    def trace(self) -> PinchTrace:
        """The `PinchTrace` of the walk to the first unknot, built on read
        from the report's expansion, with no second expansion."""
        return PinchTrace._trusted(self.knot, StopRule.FIRST_UNKNOT, self.expansion)

    @property
    def split(self) -> Optional[OddSplit]:
        """The `odd_split` of an odd-p knot, from the report's expansion;
        None for even p."""
        return _split(self.knot, self.expansion) if self.knot.p % 2 else None


def euclidean_division(knot: TorusKnot) -> tuple[int, int]:
    """Write p = q*k + a with 0 < a < q and return (k, a).

    A normalized knot has q <= 1 exactly when it is trivial, so the one
    check is that it is not."""
    _require_nontrivial(knot)
    return divmod(knot.p, knot.q)


def terminal_unknot_parameter(knot: TorusKnot) -> int:
    """Predict the l of the first unknot T(l,1) a pinch sequence reaches.

    With p = q*k + a, the answer is k when p and k share parity and k+1
    otherwise.
    """
    k, _ = euclidean_division(knot)
    return _ell(knot.p, k)


def _ell(p: int, k: int) -> int:
    """`terminal_unknot_parameter` of a knot with first parameter p and
    quotient k = p // q."""
    return k if (p - k) % 2 == 0 else k + 1


def pinches_to_unknot(knot: TorusKnot) -> int:
    """Number of pinch moves from a nontrivial knot to the first unknot.

    This is the `moves` of its `PinchTrace`, the beta1_F that `genus_report`
    reports, counted by runs without building the trace.  The stepwise count
    of cf.steps_to_integer(p/q) is its test oracle, and module verify checks
    one pinch per step.
    """
    return _walk_sums(_walk_start(knot, StopRule.FIRST_UNKNOT).coeffs)[0]


def pinches_to_zero(knot: TorusKnot) -> int:
    """Number of pinch moves from T(p,q), p even, all the way to T(0,1).

    This is N(p,q) in step-count terms, the `moves` of the knot's ZERO
    `PinchTrace`: `_gamma3` counts the walk to the first unknot T(l,1) run
    by run and adds the unknot tail's l/2 moves, in O(len(expansion))
    integer operations, with no `cf.step` and no trace built.
    `cf.steps_to_zero`, one step per move, is its test oracle.  Unknots
    with even p are accepted: T(2,1) needs one move and T(0,1) none, and
    both show up as split pieces of odd-parameter knots.
    """
    return _gamma3(knot.p, _walk_start(knot, StopRule.ZERO).coeffs)


def odd_split(knot: TorusKnot) -> OddSplit:
    """Split an odd-parameter T(p,q) into the two knots whose pinch
    surfaces glue to a crosscap-realizing surface for it.

    With p_i/q_i the convergents of p/q = [c0, ..., cm], the pieces are
    T(p_{m-1}, q_{m-1}) and T(p - p_{m-1}, q - q_{m-1}), normalized.
    This expands p/q itself, so verify's crosscap-odd-consistency and
    `crosscap_by_splitting` split apart from the expansion they check, and
    from a `GenusReport`, whose `split` reads the report's own expansion.
    The knot is checked here; `_split` then builds the pieces without
    re-validating them, since they are valid by construction.
    """
    _require_nontrivial(knot)
    if knot.p % 2 == 0:
        raise EvenParity(f"splitting is defined for odd parameters only: {knot}")
    return _split(knot, cf.expand((knot.p, knot.q)))


def _split(knot: TorusKnot, expansion: cf.ContinuedFraction) -> OddSplit:
    """`odd_split` of a nontrivial odd-p knot whose expansion is already at
    hand, unchecked: the caller vouches for the knot, and the pieces are
    written through their slots, as `knot.pinch` writes its result, in
    `_ordered` order, since both are valid pairs by construction.  With
    p'/q' the second-to-last convergent of p/q = [c0, ..., cm] (m >= 1,
    since q >= 3):

    * p q' - p' q = +-1, so (p', q') is a coprime pair, and so is
      (p - p', q - q'), since p (q - q') - (p - p') q = -(p q' - p' q);
    * c0 >= 1, since p > q, gives p' >= 1 and q' >= 1, and p = cm p' + p''
      and q = cm q' + q'', with cm >= 2 the last entry of a canonical
      expansion and the earlier terms p'', q'' >= 0, so 0 < p' < p and
      1 <= q' < q: all four parameters are positive.

    The tests re-validate both pieces through the constructor."""
    ps, qs = cf.convergent_terms(expansion.coeffs[:-1])
    p1, q1 = ps[-1], qs[-1]
    first, second = _new(TorusKnot), _new(TorusKnot)
    p, q = _ordered(p1, q1)
    _set_p(first, p)
    _set_q(first, q)
    p, q = _ordered(knot.p - p1, knot.q - q1)
    _set_p(second, p)
    _set_q(second, q)
    return _tuple_new(OddSplit, (first, second))


def crosscap_by_splitting(knot: TorusKnot) -> int:
    """Crosscap number of an odd-parameter knot via its split pieces.

    Geometric route: sum of the pinches-to-zero counts of the two split
    knots.  A test oracle for `crosscap_number`: verify's
    crosscap-odd-consistency reads the same two counts from its walk
    table, with no expansion of the pieces.  It stays public because a
    benchmark row (`BENCHMARK.json`) names it.
    """
    split = odd_split(knot)
    return pinches_to_zero(split.first) + pinches_to_zero(split.second)


def _odd_crosscap_form(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical expansion of (pq-+1)/p^2, Teragaito's rational for an
    odd-pq knot T(p,q), read off the expansion [c0, ..., cm] of p/q.

    With C = [c0, ..., c_{m-1}] and p_{m-1} the numerator of C's last
    convergent, the form is

        [0, *C, c_m - 1, c_m + 1, *reversed(C)]   when p_{m-1} is even,
        [0, *C, c_m + 1, c_m - 1, *reversed(C)]   when p_{m-1} is odd,

    with a trailing 1 (c0 = 1) folded into the entry before it, as `cf.step`
    folds it.  It costs O(m) integer operations: no `pow`, no second
    expansion and no `cf.step`.

    Proof.  Let A(x) = [[x,1],[1,0]]; an expansion's matrix, the product
    of A over its entries, has its value's numerator and denominator as
    first column, and its transpose is the matrix of the reversed
    expansion.  Let M_C = [[a,b],[c,d]] be C's matrix, so a = p_{m-1},
    M_C A(c_m) has first column (p, q), and ad - bc = (-1)^m.  Since
    A(c_m - 1) A(c_m + 1) = A(c_m)^2 + [[-1,-1],[1,0]], the matrix
    M_C A(c_m - 1) A(c_m + 1) M_C^T of [*C, c_m - 1, c_m + 1, *reversed(C)]
    has first column (p^2 + a^2, pq + ac) + (-a^2, ad - bc - ac) =
    (p^2, pq + (-1)^m).  Swapping the middle pair transposes the middle
    factor and gives (p^2, pq - (-1)^m); the leading 0 inverts either.
    Teragaito takes pq - 1 when x = -q^(-1) mod p is even and pq + 1 when
    it is odd, and x is the witness t of the first pinch.  By
    `PinchTrace.segments`, a positive run from T(sp,sq) has witness (P, Q)
    and a negative one (sp - P, sq - Q), with P/Q the last convergent of
    the run's prefix.  The first run starts at T(p,q) with prefix C and is
    positive exactly when m is odd, so t = p_{m-1} when m is odd and
    t = p - p_{m-1}, of the other parity since p is odd, when m is even.
    So x is even exactly when p_{m-1} and m differ in parity, and the
    first order gives pq - 1 exactly when m is odd: the first order is
    Teragaito's iff p_{m-1} is even, whatever the parity of m.  The form
    is canonical: p > q makes c0 >= 1, c_m - 1 >= 1, and once a trailing
    1 is folded the last entry is at least 2.
    """
    head, last = coeffs[:-1], coeffs[-1]
    if cf._numerator_is_odd(head):
        middle = (last + 1, last - 1)
    else:
        middle = (last - 1, last + 1)
    form = (0,) + head + middle + head[::-1]
    if form[-1] == 1:  # [..., b, 1] == [..., b+1]
        form = form[:-2] + (form[-2] + 1,)
    return form


def _gamma3(p: int, coeffs: tuple[int, ...]) -> int:
    """gamma3 of a T(p,q) whose p/q expands to `coeffs`, which the caller
    already has: the moves of a walk to [0], which is the walk to the first
    one-entry expansion [l], counted by runs, plus the unknot tail's l // 2
    moves.  For even p it is the walk of p/q itself, `pinches_to_zero`; for
    odd p the walk of (pq-+1)/p^2, whose expansion `_odd_crosscap_form`
    reads off `coeffs`, and whose numerator is even."""
    if p % 2:
        coeffs = _odd_crosscap_form(coeffs)
    moves, _, last = _walk_sums(coeffs)
    return moves + last // 2


def crosscap_number(knot: TorusKnot) -> int:
    """Crosscap number gamma3 of a nontrivial torus knot (Teragaito's
    formula): `pinches_to_zero` of the knot for even p, and for odd p the
    ZERO walk of (pq-+1)/p^2, read off p/q's expansion."""
    return _gamma3(knot.p, _walk_start(knot, StopRule.FIRST_UNKNOT).coeffs)


def _bounds(p: int, moves: int, all_positive: bool) -> FourGenusBounds:
    """The bounds of a knot with first parameter p whose walk to the first
    unknot is `moves` long, with all its pinches positive or not."""
    upper = moves
    lower = 1
    if p % 2 == 0 and all_positive:
        return _tuple_new(FourGenusBounds, (lower, upper, upper, EXACT_BY_POSITIVE_PINCHES))
    if lower == upper:
        return _tuple_new(FourGenusBounds, (lower, upper, upper, EXACT_BY_COLLAPSE))
    return _tuple_new(FourGenusBounds, (lower, upper, None, EXACT_UNKNOWN))


def four_genus_bounds(knot: TorusKnot) -> FourGenusBounds:
    """Bounds (and, when known, the exact value) of the nonorientable
    four-genus of a nontrivial torus knot."""
    moves, all_positive, _ = _walk_sums(_walk_start(knot, StopRule.FIRST_UNKNOT).coeffs)
    return _bounds(knot.p, moves, all_positive)


@lru_cache(maxsize=1024)
def _half(k: int) -> Fraction:
    """The gap bound k/2 of a knot with quotient k.  A Fraction is
    immutable, so every report with the same k shares one; the cache keeps
    the last 1024 quotients, so a long-running process stays bounded."""
    return Fraction(k, 2)


def gap_report(knot: TorusKnot) -> tuple[int, Fraction]:
    """Return (gamma3 - beta1_F, k/2) for an even-parameter knot.

    The first component measures how far the crosscap number exceeds the
    four-genus upper bound.  It is ell/2, with T(ell,1) the first unknot,
    by the shape of the walk: gamma3 counts the walk to T(0,1), which is
    the beta1_F moves to T(ell,1) followed by the unknot tail of ell/2
    moves, so one pass of `_walk_sums` over p/q's expansion gives it.
    That ell is k or k+1, whichever is even (the terminal-unknot check of
    module verify), is what makes it ceil(k/2) >= k/2, the paper's bound;
    the second component is that exact rational lower bound k/2.  A
    trivial knot is refused by the division, before the walk start refuses
    an odd p.
    """
    k, _ = euclidean_division(knot)
    return _walk_sums(_walk_start(knot, StopRule.ZERO).coeffs)[2] // 2, _half(k)


def orientable_genus(knot: TorusKnot) -> int:
    """Seifert genus (p-1)(q-1)/2 of T(p,q)."""
    return (knot.p - 1) * (knot.q - 1) // 2


def genus_report(knot: TorusKnot) -> GenusReport:
    """Assemble the full invariant report for a nontrivial torus knot.

    The knot is checked once and p/q expanded once, and every count reads
    that expansion: beta1_F and the gamma4 certificate from its runs to the
    first unknot, and gamma3 by the runs of its near-palindrome form when p
    is odd and one `cf.step` per move when p is even; the tests compare it
    with `crosscap_number`.  No `PinchTrace` is built.
    """
    _require_nontrivial(knot)
    p = knot.p
    k, a = divmod(p, knot.q)
    expansion = cf.expand((p, knot.q))
    moves, all_positive, _ = _walk_sums(expansion.coeffs)
    if p % 2:
        gamma3 = _gamma3(p, expansion.coeffs)
    else:
        # Even p still steps: `pinches_to_zero` counts it by runs (ROADMAP
        # item 2), which waits until the benchmark harness keeps constant
        # memory per call (item 1).
        gamma3 = cf.steps_to_zero(expansion)
    return _tuple_new(
        GenusReport,
        (
            knot,
            k,
            a,
            _ell(p, k),
            moves,
            gamma3,
            _bounds(p, moves, all_positive),
            _half(k),
            orientable_genus(knot),
            expansion,
        ),
    )
