#!/usr/bin/env python3
"""Tabulate pair counts and graph invariants over a range of moduli.

Example:
    python scripts/invariant_table.py --start 2 --stop 20
"""

import argparse

from gcdpairs.graph import analyze, build
from gcdpairs.pairs import count_pairs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--start", type=int, default=2)
    parser.add_argument("--stop", type=int, default=30)
    args = parser.parse_args()

    header = f"{'n':>4} {'pairs':>7} {'zd-pairs':>8} {'edges':>6} {'omega':>5} {'chi':>4} {'ham':>4} {'planar':>6}"
    print(header)
    print("-" * len(header))
    for n in range(max(args.start, 2), args.stop + 1):
        pairs, zd_pairs = count_pairs(n)
        g = build(n)
        invariants, _ = analyze(g)
        omega = invariants["clique_number"]
        chi = invariants["chromatic_number"]
        print(
            f"{n:>4} {pairs:>7} {zd_pairs:>8} {g.edge_count():>6} "
            f"{'-' if omega is None else omega:>5} {'-' if chi is None else chi:>4} "
            f"{'yes' if invariants['hamiltonian'] else 'no':>4} "
            f"{'yes' if invariants['planar'] else 'no':>6}"
        )


if __name__ == "__main__":
    main()
