"""Seeded inputs for the four workloads.

Each workload turns a seed into a list of `Case`s: the argv handed to
`crosscap.cli.main`, the number of knots one call handles, and the reference
check its output must pass.  Parameters are drawn stratified (one draw per
equal-width slice of the range, log scale where the range spans a decade),
so every seed covers the same mix of sizes and the figures of two seeds are
comparable.  `tiny=True` shrinks every range for the smoke tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import reference

ODD_Q = (3, 5, 7, 9, 11, 13, 15)


@dataclass(frozen=True)
class Case:
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]
    box: Optional[tuple[int, int]] = None  # (pmax, qmax) of a box command

    def knots(self) -> int:
        """Knots one call handles: the box's size, or 1 for a report."""
        return 1 if self.box is None else len(reference.box_pairs(*self.box))


def _log_stratum(rng: random.Random, i: int, n: int, lo: int, hi: int) -> int:
    u = (i + rng.random()) / n
    return int(lo * (hi / lo) ** u)


def deep_quotient(rng: random.Random, tiny: bool) -> list[Case]:
    """`report p q --format json` with q odd in [3,15] and p in [1e4, 1e5].

    Every eighth knot is a T(km+1, m) family member (k, m odd); the rest
    alternate between even and odd p.
    """
    n, lo, hi = (16, 100, 1000) if tiny else (200, 10**4, 10**5)
    cases = []
    for i in range(n):
        q = ODD_Q[i % len(ODD_Q)]
        p = _log_stratum(rng, i, n, lo, hi)
        if i % 8 == 0:
            k = p // q | 1
            p = k * q + 1
        else:
            p += (p - i) % 2
            while math.gcd(p, q) != 1:
                p += 2
        argv = ("report", str(p), str(q), "--format", "json")
        cases.append(Case(argv, partial(reference.check_report_json, p, q)))
    return cases


def long_trace(rng: random.Random, tiny: bool) -> list[Case]:
    """`report p p-d` (human format) with d in 1..5 and p in [1e3, 1e4].

    d has the opposite parity of p, so the normalized knot is T(p, p-d) with
    quotient k = 1.  Every fourth knot is a Batson member T(2k, 2k-1).  d
    follows from the index, not from a draw, because the pinch trace of
    T(p, p-1) is far longer than that of T(p, p-3): every seed gets the same
    mix of d.
    """
    n, lo, hi = (16, 20, 200) if tiny else (200, 10**3, 10**4)
    cases = []
    for i in range(n):
        p = _log_stratum(rng, i, n, lo, hi)
        if i % 4 == 0:
            p += p % 2
            d = 1
        else:
            p += (p - i) % 2
            d = (1, 3, 5)[i // 4 % 3] if p % 2 == 0 else (2, 4)[i // 2 % 2]
            while math.gcd(p, d) != 1:
                p += 2
        argv = ("report", str(p), str(p - d))
        cases.append(Case(argv, partial(reference.check_report_human, p, p - d)))
    return cases


def box_verify(rng: random.Random, tiny: bool) -> list[Case]:
    """`verify --max M` with M in [149, 151]: about 6,700 knots.

    The window is narrow so that one call costs about the same on every
    seed; the knot count grows with M squared.
    """
    bound = (20 if tiny else 149) + rng.randrange(3)
    argv = ("verify", "--max", str(bound))
    return [Case(argv, partial(reference.check_verify, bound), (bound, bound))]


def box_table(rng: random.Random, tiny: bool) -> list[Case]:
    """`table --pmax P --qmax P-1 --format csv` with P in [149, 151]."""
    pmax = (20 if tiny else 149) + rng.randrange(3)
    argv = ("table", "--pmax", str(pmax), "--qmax", str(pmax - 1), "--format", "csv")
    box = (pmax, pmax - 1)
    return [Case(argv, partial(reference.check_table_csv, *box), box)]


GENERATORS = {f.__name__: f for f in (deep_quotient, long_trace, box_verify, box_table)}


def generate(name: str, seed: int, tiny: bool = False) -> list[Case]:
    """The cases of one workload, in stratum order; same seed, same cases."""
    return GENERATORS[name](random.Random(f"{name}:{seed}"), tiny)
