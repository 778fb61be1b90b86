"""Census of pinch-sign patterns over all normalized knots in a box.

Counts, for each trace length, how many knots reach their first unknot
through positive pinches only; those are exactly the knots where the
four-ball bound collapses to an exact value by the positivity rule.

    python scripts/sign_census.py --max 120
"""

import argparse
from collections import Counter

from crosscap import PinchTrace, StopRule, normalized_knots


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max", type=int, default=120, help="bound on both parameters")
    args = parser.parse_args()
    if args.max < 3:
        parser.error("--max must be at least 3")

    totals: Counter[int] = Counter()
    all_positive: Counter[int] = Counter()
    for knot in normalized_knots(args.max):
        trace = PinchTrace(knot, StopRule.FIRST_UNKNOT)
        totals[trace.moves] += 1
        if trace.all_positive:
            all_positive[trace.moves] += 1

    print(f"{'trace len':>9} {'knots':>7} {'all positive':>13} {'share':>7}")
    for length in sorted(totals):
        n, pos = totals[length], all_positive[length]
        print(f"{length:>9} {n:>7} {pos:>13} {pos / n:>7.1%}")
    n, pos = sum(totals.values()), sum(all_positive.values())
    print(f"{'total':>9} {n:>7} {pos:>13} {pos / n:>7.1%}")


if __name__ == "__main__":
    main()
