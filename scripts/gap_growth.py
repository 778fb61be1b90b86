"""Tabulate how far the crosscap number outruns the four-ball bound.

For a fixed odd q, walk even p through a residue class mod 2q: each row
adds 2q to p, so the division quotient k grows by 2 and the gap
gamma3 - beta1_F by 1 per row, while beta1_F stays put.  Run as

    python scripts/gap_growth.py --q 3 --residue 4 --rows 12
"""

import argparse
import math

from crosscap import TorusKnot, genus_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q", type=int, default=3, help="odd parameter, fixed per table")
    parser.add_argument(
        "--residue",
        type=int,
        default=4,
        help="starting p, even and coprime to q; each later row adds 2q",
    )
    parser.add_argument("--rows", type=int, default=12)
    args = parser.parse_args()
    if args.q < 3 or args.q % 2 == 0:
        parser.error("--q must be odd and at least 3")
    if args.residue % 2 or args.residue < 2:
        parser.error("--residue must be even and at least 2")
    if math.gcd(args.residue, args.q) != 1:
        parser.error("--residue must be coprime to --q")

    print(f"{'p':>6} {'q':>4} {'k':>4} {'beta1_F':>8} {'gamma3':>7} {'gap':>5}")
    p = args.residue
    for _ in range(args.rows):
        r = genus_report(TorusKnot(p, args.q))
        print(
            f"{r.knot.p:>6} {r.knot.q:>4} {r.k:>4}"
            f" {r.beta1_F:>8} {r.gamma3:>7} {r.gamma3 - r.beta1_F:>5}"
        )
        p += 2 * args.q


if __name__ == "__main__":
    main()
