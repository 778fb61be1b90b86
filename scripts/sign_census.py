"""Census of gamma4 provenance over all normalized knots in a box.

Counts how many knots have their nonorientable four-genus fixed by each
certificate, tried in the order all positive pinches, Batson, interval
collapse, and how many are left with no exact value.

    python scripts/sign_census.py --max 120
"""

import argparse
from collections import Counter

from crosscap import (
    EXACT_BY_BATSON,
    EXACT_BY_COLLAPSE,
    EXACT_BY_POSITIVE_PINCHES,
    EXACT_UNKNOWN,
    four_genus_bounds,
    normalized_knots,
)

PROVENANCES = (EXACT_BY_POSITIVE_PINCHES, EXACT_BY_BATSON, EXACT_BY_COLLAPSE, EXACT_UNKNOWN)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max", type=int, default=120, help="bound on both parameters")
    args = parser.parse_args()
    if args.max < 3:
        parser.error("--max must be at least 3")

    counts = Counter(four_genus_bounds(knot).provenance for knot in normalized_knots(args.max))
    total = sum(counts.values())
    print(f"{'provenance':<20} {'knots':>7} {'share':>7}")
    for provenance in PROVENANCES:
        print(f"{provenance:<20} {counts[provenance]:>7} {counts[provenance] / total:>7.1%}")
    print(f"{'total':<20} {total:>7} {1:>7.1%}")


if __name__ == "__main__":
    main()
