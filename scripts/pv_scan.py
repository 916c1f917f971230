#!/usr/bin/env python3
"""Exhaustive short-sum sharpness scan for quadratic characters.

For every odd prime q up to --limit, computes the exact maximum of
|sum_{M<n<=M+N} chi(n)| over ALL window starts and lengths (read off the
quadratic residues in [1, (q-1)/2], through buffers sized once for the
largest prime), and reports the ratio against sqrt(q) log q.  Optionally
writes per-prime rows to CSV for plotting.  Exit 1 if any ratio is >= 1,
2 on invalid input: no prime to scan, a limit above the table or sieve
cap, or a negative --top.
"""

import argparse
import csv
import math
import sys
import time

from burgess.bounds import pv_ratio_scan
from burgess.errors import BurgessError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limit", type=int, default=10 ** 4)
    ap.add_argument("--csv", default=None, help="write per-prime rows here")
    ap.add_argument("--top", type=int, default=15,
                    help="how many extreme primes to print")
    args = ap.parse_args()
    if args.top < 0:
        ap.error("--top must be at least 0")  # exit 2

    t0 = time.time()
    try:
        worst, worst_q, ratios = pv_ratio_scan(args.limit)
    except (ValueError, BurgessError) as exc:
        ap.error(str(exc))  # exit 2
    dt = time.time() - t0

    print(f"primes scanned : {len(ratios)} (odd q <= {args.limit})")
    print(f"worst ratio    : {worst:.6f} at q = {worst_q}")
    print(f"elapsed        : {dt:.2f}s")
    print()
    print(f"{'q':>8} {'max|S|':>10} {'sqrt(q)logq':>12} {'ratio':>8}")
    for q, ratio in sorted(ratios, key=lambda t: -t[1])[: args.top]:
        bound = math.sqrt(q) * math.log(q)
        print(f"{q:>8} {ratio * bound:>10.1f} {bound:>12.1f} {ratio:>8.4f}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["q", "max_abs_sum", "pv_bound", "ratio"])
            for q, ratio in ratios:
                bound = math.sqrt(q) * math.log(q)
                writer.writerow([q, ratio * bound, bound, ratio])
        print(f"\nwrote {len(ratios)} rows to {args.csv}")
    return 0 if worst < 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
