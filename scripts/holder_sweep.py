#!/usr/bin/env python3
"""Sweep the averaging inequality chain over window lengths.

For a fixed prime and r, runs the chain at N = floor(q^a) for a grid of
exponents a, printing how much slack the inequality leaves (log10 of
rhs/lhs, from the exact integers, so it is finite at any r) and how the
doubly averaged sum W compares to the refined shape value.  Emits JSON
lines with --jsonl for downstream analysis.
"""

import argparse
import json
import math
import random
import sys

from burgess.bounds import bound_value, holder_chain, resolve_params
from burgess.chars import build_modulus
from burgess.errors import BurgessError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=10007)
    ap.add_argument("--r", type=int, default=2)
    ap.add_argument("--windows", type=int, default=10,
                    help="seeded window starts per N")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--exponents", default="0.30,0.35,0.40,0.45,0.50",
                    help="comma list of exponents a in N = floor(q^a)")
    ap.add_argument("--jsonl", default=None)
    args = ap.parse_args()
    if args.windows < 1:
        ap.error("--windows must be at least 1")  # exit 2
    if args.r < 2:
        ap.error("--r must be at least 2")
    try:
        exponents = [(a_str, float(a_str))
                     for a_str in args.exponents.split(",")]
        chi = build_modulus(args.q).legendre()
    except (ValueError, BurgessError) as exc:
        ap.error(str(exc))  # exit 2
    rows = []
    print(f"{'a':>5} {'N':>6} {'U':>5} {'V':>5} {'z':>7} {'max W':>8} "
          f"{'min_slack_log10':>15} {'W/(|U|V)':>9} {'refined':>9}")
    for a_str, a in exponents:
        n = max(1, int(args.q ** a))
        params = resolve_params(n, args.q, args.r)
        if params.degenerate:
            print(f"{a:>5.2f} {n:>6} {'-':>5} {'-':>5}   degenerate, skipped")
            continue
        rng = random.Random(f"{args.seed}:{a_str}")
        worst_w, min_slack = -1, float("inf")
        for _ in range(args.windows):
            m = rng.randrange(args.q)
            rep = holder_chain(chi, m, n, args.r, params=params)
            if not rep.passed:
                print(f"chain FAILED at q={args.q} N={n} M={m}",
                      file=sys.stderr)
                return 1
            worst_w = max(worst_w, rep.W)
            if rep.holder_lhs > 0:
                min_slack = min(min_slack, math.log10(rep.holder_rhs)
                                - math.log10(rep.holder_lhs))
        refined = bound_value("refined_14r", n, args.q, r=args.r)
        avg = worst_w / (rep.rough_count * params.V)
        rows.append({"a": a, "N": n, "U": params.U, "V": params.V,
                     "z": params.z, "max_W": worst_w,
                     "min_slack_log10": min_slack, "normalized_avg": avg,
                     "refined_shape": refined})
        print(f"{a:>5.2f} {n:>6} {params.U:>5} {params.V:>5} {params.z:>7.3f} "
              f"{worst_w:>8} {min_slack:>15.3f} {avg:>9.3f} {refined:>9.1f}")
    if not rows:
        print("no exponent gave a non-degenerate cell; no row produced",
              file=sys.stderr)
        return 2
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"wrote {len(rows)} rows to {args.jsonl}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
