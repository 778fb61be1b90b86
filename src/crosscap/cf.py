"""Exact continued-fraction arithmetic for nonnegative rationals.

A nonnegative rational p/q in lowest terms is stored as its canonical
expansion [c0, c1, ..., cm]:

    p/q = c0 + 1/(c1 + 1/(... + 1/cm))

with c0 >= 0, interior coefficients >= 1, and cm >= 2 whenever m >= 1.
The integers 0 and 1 expand to [0] and [1].  Under these constraints the
expansion of each rational is unique, so expansions can serve as exact keys.

The reduction `step` subtracts 2 from the last coefficient and restores
canonical form.  On the knot side a step corresponds to one pinch move on a
torus knot, which is why everything here is exact integer arithmetic: a
single rounding error would silently change a genus count.

Canonical form is validated once, where coefficients enter from outside:
the `ContinuedFraction(...)` constructor and `canonicalize`.  The two
producers on the hot path, `expand` (Euclid's algorithm) and `step`
(rewriting a canonical tail), emit canonical expansions by construction and
build them without re-validating; the tests re-validate every output of
both against the constructor and compare `step` with `canonicalize`.

Values are plain integer pairs on the hot path.  `expand` and the step
counters read an `int`, a `Fraction` (bools included) or a pair (a, b) of
ints as it is, and only coerce other inputs with `Fraction(x)`;
`steps_to_zero` also walks an expansion the caller already holds.
`evaluate` runs an integer recurrence and builds a single `Fraction` at the
end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import InvalidParameter, NotCanonicalizable, OddParity, StepUndefined, ZeroDenominator

__all__ = [
    "ContinuedFraction",
    "Convergent",
    "expand",
    "evaluate",
    "canonicalize",
    "convergents",
    "convergent_terms",
    "step",
    "steps_to_zero",
    "steps_to_integer",
]


@dataclass(frozen=True)
class ContinuedFraction:
    """A canonical expansion [c0, ..., cm] of a nonnegative rational.

    Construction validates canonical form: c0 >= 0, interior coefficients
    >= 1, final coefficient >= 2 when the expansion has more than one entry.
    Instances are immutable and hashable.  `expand` and `step` build theirs
    through `_trusted`, which skips the checks their construction already
    guarantees.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise NotCanonicalizable("coefficient sequence is empty")
        if any(not isinstance(c, int) for c in coeffs):
            raise TypeError("coefficients must be integers")
        if coeffs[0] < 0:
            raise NotCanonicalizable(f"leading coefficient must be >= 0: {list(coeffs)}")
        if len(coeffs) > 1:
            if any(c < 1 for c in coeffs[1:-1]):
                raise NotCanonicalizable(f"interior coefficients must be >= 1: {list(coeffs)}")
            if coeffs[-1] < 2:
                raise NotCanonicalizable(f"final coefficient must be >= 2: {list(coeffs)}")

    @classmethod
    def _trusted(cls, coeffs: tuple[int, ...]) -> ContinuedFraction:
        """Wrap a tuple that is canonical by construction, without checks."""
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __str__(self) -> str:
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"


@dataclass(frozen=True)
class Convergent:
    """The i-th convergent p_i/q_i of an expansion, stored exactly."""

    index: int
    value: Fraction


Coefficients = Union[ContinuedFraction, Sequence[int], Iterable[int]]


def _as_tuple(cf: Coefficients) -> tuple[int, ...]:
    if isinstance(cf, ContinuedFraction):
        return cf.coeffs
    return tuple(cf)


def _exact(x: object) -> Union[Fraction, int]:
    """x itself when it is an int or a Fraction, else Fraction(x)."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def expand(x: Union[Fraction, int, tuple[int, int]]) -> ContinuedFraction:
    """Return the canonical continued-fraction expansion of x >= 0.

    An int or a Fraction (bools included) is read through its numerator and
    denominator, and a pair (a, b) of ints with b >= 1 as a/b, without
    building a new Fraction; the pair need not be in lowest terms, since
    Euclid's algorithm gives a/b the quotients of its reduced form.  Any
    other input that `Fraction()` accepts, such as "3/4" or 0.5, is coerced
    first.  Negative values, and pairs that are not two ints with b >= 1,
    raise InvalidParameter.

    Repeated Euclidean division yields a canonical expansion: every
    quotient after the first is >= 1, and the last one is >= 2 because it
    divides the previous remainder by a strictly smaller one.
    """
    if type(x) is tuple:
        a, b = x
        if type(a) is not int or type(b) is not int or b < 1:
            raise InvalidParameter(f"a pair must hold ints a and b >= 1: {x!r}")
    else:
        x = _exact(x)
        a, b = x.numerator, x.denominator
    if a < 0:
        raise InvalidParameter(
            f"expansion is defined for nonnegative rationals only: {Fraction(a, b)}"
        )
    coeffs = []
    while b:
        c, r = divmod(a, b)
        coeffs.append(c)
        a, b = b, r
    return ContinuedFraction._trusted(tuple(coeffs))


def evaluate(cf: Coefficients) -> Fraction:
    """Evaluate an integer coefficient sequence exactly, right to left.

    The tail value is kept as an integer pair num/den and folded in with
    num, den = c*num + den, num; one Fraction is built at the end.  The
    input need not be canonical, and entries may be negative, but every
    intermediate denominator must be nonzero; otherwise ZeroDenominator is
    raised.  (Canonical input never trips this: all tails evaluate to values
    >= 1.)  An empty sequence raises NotCanonicalizable.
    """
    coeffs = _as_tuple(cf)
    if not coeffs:
        raise NotCanonicalizable("cannot evaluate an empty coefficient sequence")
    num, den = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        if num == 0:
            raise ZeroDenominator(f"zero denominator while evaluating {list(coeffs)}")
        num, den = c * num + den, num
    return Fraction(num, den)


def canonicalize(raw: Coefficients) -> ContinuedFraction:
    """Restore canonical form after the last coefficient was decreased by 2.

    Accepts a sequence that is canonical except its final entry may be 0 or 1,
    and rewrites the tail until the canonical constraints hold:

        [..., c, 0] == [...]          (drop the last two entries)
        [..., c, 1] == [..., c + 1]   (fold a trailing 1)

    Both rewrites preserve the represented value.  A two-entry sequence
    ending in 0 has no finite value and is rejected; it can only arise from a
    value with denominator 2, which `step` refuses up front.

    This is the validating route and the test oracle for `step`, which
    rewrites the tail of an already canonical expansion directly.
    """
    seq = list(_as_tuple(raw))
    if not seq:
        raise NotCanonicalizable("coefficient sequence is empty")
    if seq[0] < 0 or (len(seq) > 1 and seq[-1] < 0) or any(c < 1 for c in seq[1:-1]):
        raise NotCanonicalizable(f"not a step image of a canonical sequence: {seq}")
    while len(seq) > 1 and seq[-1] < 2:
        if seq[-1] == 1:
            seq.pop()
            seq[-1] += 1
        else:
            if len(seq) == 2:
                raise NotCanonicalizable(f"{seq} does not represent a finite rational")
            del seq[-2:]
    return ContinuedFraction(tuple(seq))


def convergent_terms(coeffs: Iterable[int]) -> tuple[list[int], list[int]]:
    """Numerators and denominators of the convergents of a coefficient
    sequence, after the seeds 0/1 and 1/0.

    They follow the standard recursion

        p_i = c_i * p_{i-1} + p_{i-2},   q_i = c_i * q_{i-1} + q_{i-2}

    from p_{-2}/q_{-2} = 0/1 and p_{-1}/q_{-1} = 1/0, so ps[i+2]/qs[i+2] is
    the i-th convergent and a prefix of length k ends in ps[k+1]/qs[k+1]
    and ps[k]/qs[k].  Only integers are built.
    """
    ps, qs = [0, 1], [1, 0]
    for c in coeffs:
        ps.append(c * ps[-1] + ps[-2])
        qs.append(c * qs[-1] + qs[-2])
    return ps, qs


def convergents(cf: ContinuedFraction) -> list[Convergent]:
    """Return all convergents p_i/q_i of a canonical expansion.

    The terms come from `convergent_terms`.  Consecutive convergents satisfy
    p_i q_{i-1} - p_{i-1} q_i = (-1)^(i-1), so each p_i/q_i is automatically
    in lowest terms and the final convergent equals the value of the
    expansion.  No library code calls this (the library reads the integer
    `convergent_terms`); the tests use it for the determinant identity.
    """
    ps, qs = convergent_terms(cf.coeffs)
    return [Convergent(i, Fraction(p, q)) for i, (p, q) in enumerate(zip(ps[2:], qs[2:]))]


def step(cf: ContinuedFraction) -> ContinuedFraction:
    """Subtract 2 from the last coefficient and recanonicalize.

    Undefined for [0] and [1] (nothing left to reduce) and for values with
    denominator 2, where the rewrite rules cannot produce a finite value.  A
    canonical expansion has denominator 2 exactly when it reads [c0, 2], so
    the check is structural.

    The input is canonical, so only its tail needs the rewrites of
    `canonicalize`, and at most two of them: a new last entry 1 is folded,
    and a new last entry 0 drops the last two entries, after which a
    trailing 1 is folded.  The entries left are untouched canonical ones,
    so the result is canonical without validation.
    """
    c = cf.coeffs
    if c == (0,) or c == (1,):
        raise StepUndefined(f"no step from {cf}")
    if len(c) == 2 and c[1] == 2:
        raise StepUndefined(f"step undefined for half-integer values: {cf}")
    last = c[-1] - 2
    if last >= 2 or len(c) == 1:
        return ContinuedFraction._trusted(c[:-1] + (last,))
    if last == 0:
        c = c[:-2]
        if len(c) == 1 or c[-1] >= 2:
            return ContinuedFraction._trusted(c)
    return ContinuedFraction._trusted(c[:-2] + (c[-2] + 1,))


def _numerator_is_odd(coeffs: tuple[int, ...]) -> int:
    """The parity of the numerator of [c0, ..., cm], from the convergent
    recurrence p_i = c_i * p_{i-1} + p_{i-2} taken mod 2."""
    prev, num = 1, coeffs[0] & 1
    for c in coeffs[1:]:
        prev, num = num, (c & num) ^ prev
    return num


def steps_to_zero(x: Union[Fraction, int, tuple[int, int], ContinuedFraction]) -> int:
    """Count reduction steps from a/b down to [0], for even a and odd b;
    an odd a raises OddParity.

    x is read as `expand` reads it, or it is the canonical expansion of a/b,
    which is walked as it is: a caller that holds it (a `PinchTrace` does)
    need not expand a/b again.  The walk is one `step` per count either way.

    The fast route is `genus.pinches_to_zero`, which counts the same walk
    by runs; this walk is its test oracle.  It is also the interim gamma3
    route of `genus.genus_report` for even p, which steps until the
    benchmark harness keeps constant memory per call; odd p counts runs
    there already, from p/q's own expansion.

    Coprimality makes b odd automatically once a is even.  Each step
    preserves the parities of numerator and denominator, so the walk can
    never strand on [1] or on a denominator-2 value, and the strictly
    decreasing numerator forces termination at [0].
    """
    cf = x if isinstance(x, ContinuedFraction) else expand(x)
    if _numerator_is_odd(cf.coeffs):
        raise OddParity(f"numerator must be even: {evaluate(cf)}")
    n = 0
    while cf.coeffs != (0,):
        cf = step(cf)
        n += 1
    return n


def steps_to_integer(x: Union[Fraction, int]) -> tuple[int, int]:
    """Count reduction steps until the expansion first becomes a single entry.

    Returns (count, value of that entry).  Integer inputs need no steps at
    all and report themselves.

    The library reads both from `knot.PinchTrace` (`moves` and `final`);
    this stepwise walk is kept as the test oracle for them.
    """
    cf = expand(x)
    n = 0
    while len(cf.coeffs) > 1:
        cf = step(cf)
        n += 1
    return n, cf.coeffs[0]
