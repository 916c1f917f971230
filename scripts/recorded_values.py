#!/usr/bin/env python3
"""Check, or re-record, the recorded values in tests/recorded_values.json.

The file is a list of groups, each of one cell kind.  A cell holds the
inputs of one computation and, under "want", the values it gave when it
was recorded.  By default every cell is computed again and compared; the
script exits 1 naming each cell whose values moved or that overran its
time limit.  --record computes every cell the same way and rewrites the
values that moved, printing each.

A cell of the "cli" kind is one `burgess` argv, run in-process through
cli.main; its values are the exit code, the stdout records and, for exit
2, the error line.

Values are stored as JSON: ints as ints, or as decimal strings past 2^53;
a complex number as [re, im]; a Fraction past the double range as a
decimal string with 17 significant digits; lists and dicts (a CLI
record) item by item, None as null.  Every value is compared bit
for bit (the same JSON text), except the float or Fraction fields named
in ROUGH, held to FLOAT_RTOL.  A group's "limit_s" bounds the seconds of
all its cells, "cell_limit_s" those of each cell, both timed around the
computation alone.

  PYTHONPATH=src python scripts/recorded_values.py            # check every cell
  PYTHONPATH=src python scripts/recorded_values.py --record   # rewrite what moved
"""

import argparse
import hashlib
import io
import json
import math
import os
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from burgess import chars
from burgess.acceptance import holder_cells
from burgess.bounds import (bound_value, holder_chain, max_window_spread,
                            pv_ratio_scan)
from burgess.chars import build_modulus, prefix_table
from burgess.cli import main as burgess_main, run_subcommand
from burgess.congruence import pair_collision_count
from burgess.moments import moment_sum
from burgess.sieve import (count_rough_divisible, enumerate_rough,
                           mertens_product, primes_below, primorial)

RECORDED = Path(__file__).resolve().parents[1] / "tests" / "recorded_values.json"
FLOAT_RTOL = 1e-9  # the relative tolerance of perfbench/workloads.py


def _strict(constant):
    raise ValueError(f"{constant} is not strict JSON")


def cli(argv):
    """The `burgess` run of argv, in-process: its exit code, its stdout
    records parsed as strict JSON without their timings, and for exit 2
    its error line (the last on stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = burgess_main(argv)
    records = [json.loads(line, parse_constant=_strict)
               for line in out.getvalue().splitlines()]
    for rec in records:
        del rec["timings"]
    values = {"code": code, "records": records}
    if code == 2:
        values["error"] = err.getvalue().splitlines()[-1]
    return values


def interval_sum(q, index, m, n):
    """chars.interval_sum over (m, m+n]: an int, a pair of ints or a
    complex number."""
    return {"sum": chars.interval_sum(build_modulus(q).character(index), m, n)}


def prefix_digest(q, index, span=None):
    """sha256 of the prefix table's sums, as its bytes lie."""
    sums = prefix_table(build_modulus(q).character(index), span).sums
    return {"sha256": hashlib.sha256(sums.tobytes()).hexdigest()}


def spread(route, limit):
    """The exhaustive Polya-Vinogradov spreads of every odd prime up to
    limit, summed, through max_window_spread or through pv_ratio_scan."""
    primes = primes_below(limit + 1)[1:]
    if route == "max_window_spread":
        return {"checksum": sum(int(max_window_spread(q)) for q in primes)}
    _, _, ratios = pv_ratio_scan(limit)
    return {"primes_match": [q for q, _ in ratios] == primes,
            "checksum": sum(round(x * math.sqrt(q) * math.log(q))
                            for q, x in ratios)}


def holder(q, index, r, N, M):
    """One Hölder chain on a fresh modulus: its path, verdict and W."""
    rep = holder_chain(build_modulus(q).character(index), M, N, r)
    return {"path": rep.path, "passed": rep.passed, "W": rep.W}


def moment(q, index, V, r, table):
    """The complete moment, read from a built prefix table if table is set,
    else streamed, and its verdict."""
    chi = build_modulus(q).character(index)
    if table:
        chi.prefix_for(V)
    rep = moment_sum(chi, V, r)
    return {"moment": rep.moment, "passed": rep.passed}


def nonresidue(q):
    """The `burgess nonresidue` run, and its longest run of residues over
    ceil(q^(1/4) log q)."""
    code, records = run_subcommand(["nonresidue", "--q", str(q),
                                    "--output", os.devnull])
    out = records[0]["outputs"]
    return {"code": code, "least": out["least"], "max_gap": out["max_gap"],
            "gap_start": out["gap_start"],
            "constant": out["max_gap"] / math.ceil(q ** 0.25 * math.log(q))}


def holder_c0(primes, m_count):
    """The stand-in for the inductive step's constant: the largest
    W / (|rough| V) over the criterion-4 cells, each divided by its
    refined shape value."""
    worst = -math.inf
    for q, r, n, m_values in holder_cells(primes, m_count):
        chi = build_modulus(q).legendre()
        refined = bound_value("refined_14r", n, q, r=r)
        for m in m_values:
            rep = holder_chain(chi, m, n, r)
            worst = max(worst, rep.W / (rep.rough_count * rep.params.V)
                        / refined)
    return {"constant": worst}


def divisible_count(A, z, U, t):
    """The divisibility-count constant: the largest count * t / (U V(z))
    over the z-rough sets of [1, U], V(z) the Mertens product, for each t
    coprime to the primes below z with z < (U/t)^A."""
    worst = 0.0
    for zi in z:
        block = primorial(zi)
        for u_cap in U:
            rough = enumerate_rough(zi, u_cap)
            vz = mertens_product(zi).value
            for ti in t:
                if math.gcd(ti, block) == 1 and zi < (u_cap / ti) ** A:
                    worst = max(worst, count_rough_divisible(rough, ti)
                                * ti / (u_cap * vz))
    return {"constant": worst}


def pair_collision(q, seed, draws):
    """The pairwise collision constant: the largest (J(u1, u2) - 1) u2 /
    (N gcd(u1, u2)) over seeded draws of u1 < u2, N and M with U N <= q."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(draws):
        n = rng.randint(2, 60)
        u2 = rng.randint(2, max(2, min(60, q // n)))
        u1 = rng.randint(1, u2 - 1)
        m = rng.randint(-q, q)
        j = pair_collision_count(u1, u2, m, n, q)
        worst = max(worst, (j - 1) * u2 / (n * math.gcd(u1, u2)))
    return {"constant": worst}


COMPUTE = {f.__name__: f for f in (
    cli, interval_sum, prefix_digest, spread, holder, moment, nonresidue,
    holder_c0, divisible_count, pair_collision)}
ROUGH = {"holder": {"W"}, "moment": {"moment"}}


def encode(x):
    """A computed value in its stored form."""
    if x is None or isinstance(x, (bool, str, float)):
        return x
    if isinstance(x, int):
        return x if abs(x) <= 2 ** 53 else str(x)
    if isinstance(x, (tuple, list)):
        return [encode(v) for v in x]
    if isinstance(x, dict):
        return {k: encode(v) for k, v in x.items()}
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, Fraction) and x >= 1:  # a float sum past the range
        e = len(str(x.numerator // x.denominator)) - 1
        return f"{float(x / 10 ** e)!r}e{e}"
    raise TypeError(f"no stored form for {type(x).__name__} {x!r}")


def _approximate(v) -> bool:
    """A stored float, or a Fraction's decimal string (not an int's)."""
    return isinstance(v, float) or (
        isinstance(v, str) and not v.lstrip("-").isdigit())


def agrees(got, want, rough: bool = False) -> bool:
    """got (encoded) is want: the same JSON text, or for two approximate
    values in a rough field, within FLOAT_RTOL of want."""
    if rough and _approximate(got) and _approximate(want):
        got, want = Fraction(got), Fraction(want)
        return abs(got - want) <= Fraction(FLOAT_RTOL) * abs(want)
    return json.dumps(got) == json.dumps(want)


def inputs(cell: dict) -> dict:
    return {k: v for k, v in cell.items() if k != "want"}


def cell_name(kind: str, cell: dict) -> str:
    return kind + " " + " ".join(f"{k}={v}" for k, v in inputs(cell).items())


def run(groups: list, select=None, record: bool = False) -> list[str]:
    """Compute every cell that select(kind, inputs) keeps (all by default),
    and return one line per moved value or overrun time limit.  With
    record, the moved values are written into the cells instead, and the
    lines name them; time limits are not checked."""
    problems = []
    for group in groups:
        kind, total = group["kind"], 0.0
        for cell in group["cells"]:
            if select is not None and not select(kind, inputs(cell)):
                continue
            name = cell_name(kind, cell)
            t0 = time.perf_counter()
            try:
                got = {k: encode(v)
                       for k, v in COMPUTE[kind](**inputs(cell)).items()}
            except Exception as exc:  # a cell that fails names itself
                if record:
                    raise
                problems.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            took = time.perf_counter() - t0
            total += took
            want = cell.get("want", {})
            moved = [k for k in sorted(set(got) | set(want))
                     if k not in got or k not in want
                     or not agrees(got[k], want[k], k in ROUGH.get(kind, ()))]
            problems += [f"{name}: {k} {want.get(k, '(none)')} -> "
                         f"{got.get(k, '(none)')}" for k in moved]
            if record:
                cell["want"] = {k: want[k] if k in want and k not in moved
                                else v for k, v in got.items()}
            elif took > group.get("cell_limit_s", math.inf):
                problems.append(f"{name}: {took:.2f} s, over its "
                                f"{group['cell_limit_s']} s limit")
        if not record and total > group.get("limit_s", math.inf):
            problems.append(f"{kind} group: {total:.2f} s, over its "
                            f"{group['limit_s']} s limit")
    return problems


def dumps(groups: list) -> str:
    """The file's text: one group head per line, then one cell per line."""
    parts = []
    for group in groups:
        head = json.dumps({k: v for k, v in group.items() if k != "cells"},
                          ensure_ascii=False)
        cells = ",\n  ".join(json.dumps(c, ensure_ascii=False, allow_nan=False)
                             for c in group["cells"])
        parts.append(f'{head[:-1]}, "cells": [\n  {cells}]}}')
    return "[\n" + ",\n".join(parts) + "\n]\n"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="check the recorded values, or re-record them")
    ap.add_argument("--record", action="store_true",
                    help="rewrite the values that moved instead of failing")
    args = ap.parse_args(argv)
    groups = json.loads(RECORDED.read_text())
    t0 = time.perf_counter()
    problems = run(groups, record=args.record)
    cells = sum(len(g["cells"]) for g in groups)
    if args.record:
        RECORDED.write_text(dumps(groups))
        for line in problems:
            print(f"recorded {line}")
        print(f"{cells} cells, {len(problems)} values moved")
        return 0
    for line in problems:
        print(line, file=sys.stderr)
    print(f"{cells} cells in {time.perf_counter() - t0:.1f} s, "
          f"{len(problems)} problems")
    return 1 if problems else 0

if __name__ == "__main__":
    sys.exit(main())
