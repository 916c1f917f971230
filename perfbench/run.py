#!/usr/bin/env python3
"""Benchmark of the burgess library: one workload per invocation.

    python3 perfbench/run.py --workload holder-legendre --seed 1 \\
        --seconds 25 --trace 0

Run it from the root of a checkout; it imports burgess from ./src.  The
workloads are defined in perfbench/workloads.py; the reason for each is its
"why" in BENCHMARK.json.

Each invocation starts fresh processes one after another, never in
parallel: SETUP_PROBES processes that only import burgess and generate the
seeded inputs, then one worker that also runs the workload.  The worker
repeats the workload's fixed work (a round) until --seconds have passed.
wall_s is the median round time and setup_s the median, over all the
processes, of the time from process start until import and input
generation are done.  Both are stated in nominal seconds: each time is
scaled by the yardstick (yardstick.py) timed next to it, this process's
before each start and the worker's around each round, so that the host's
changes of speed cancel.  The measured seconds are printed beside them.
peak_rss_mb is the worker's ru_maxrss.  Every unit is checked; failed_frac and
exact_frac are printed, and any failure makes the result "correct": false
and the exit code 1.

With --trace 1 the worker wraps the library's public functions and the
metrics are the per-layer ones: calls and exact counters, and each
function's inclusive and self seconds per traced round (medians over the
rounds).  The spans are written to .perfbench/trace-<workload>-seed<seed>.json.

The last line of stdout is the JSON result.  Exit codes: 0 all units
correct, 1 a check failed or the worker died, 2 usage error or no
src/burgess in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402
from yardstick import nominal, yardstick_s  # noqa: E402

SETUP_PROBES = 10
TIME_LIMIT_S = 170.0

# The metrics, their units and their order come from BENCHMARK.json at the
# root of the checkout, the benchmark's definition.
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def start_worker(args, deadline: float, *extra: str):
    """Start a worker and wait for its "ready" line; returns (proc, setup_s)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(deadline - time.monotonic(), 0.0))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"worker did not start: {line.strip()!r}")
    return proc, setup


def stop(proc) -> None:
    """Kill the worker if it still runs and wait until it has ended."""
    if proc.poll() is None:
        proc.kill()
        proc.communicate()


def run(args) -> tuple[dict, list[tuple[float, float]]]:
    """Returns the worker's result and (setup seconds, yardstick seconds)
    per process started."""
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    for i in range(SETUP_PROBES + 1):
        extra = (("--seconds", str(args.seconds), "--trace", str(args.trace))
                 if i == SETUP_PROBES else ("--setup-only",))
        yard = yardstick_s()
        proc, setup = start_worker(args, deadline, *extra)
        setups.append((setup, yard))
        try:
            out, _ = proc.communicate(
                timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded {TIME_LIMIT_S:.0f} s") from None
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
    if not out.strip():
        raise BenchError("worker printed no result")
    return json.loads(out.strip().splitlines()[-1]), setups


def metric_line(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = quartiles(values)
    return (f"{name:<42} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}"
            f"  n={len(values)}")


def print_trace_report(per_round: dict[str, list[float]]) -> None:
    """Per-function medians over the traced rounds, then the counters."""
    med = {k: statistics.median(v) for k, v in per_round.items()}
    funcs = sorted({k.rsplit(".", 1)[0] for k in per_round
                    if k.endswith(".calls")})
    print(f"{'traced function':<36} {'calls':>9} {'s':>9} {'self_s':>9}")
    idle = []
    for fn in funcs:
        if not med[f"{fn}.calls"]:
            idle.append(fn)
            continue
        varies = "  (calls vary by round)" if len(
            set(per_round[f"{fn}.calls"])) > 1 else ""
        print(f"{fn:<36} {med[f'{fn}.calls']:>9.0f} {med[f'{fn}.s']:>9.4f} "
              f"{med[f'{fn}.self_s']:>9.4f}{varies}")
    print(f"not called: {', '.join(idle) or '-'}")
    for name in sorted(per_round):
        if name.rsplit(".", 1)[-1] in ("calls", "s", "self_s"):
            continue
        vals = per_round[name]
        if name.endswith("_s"):
            print(metric_line(name, vals, "s"))
        elif len(set(vals)) == 1:
            print(f"{name:<42} {vals[0]:.10g}  (every round)")
        else:
            print(metric_line(name, vals, "") + "  (varies by round)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "burgess", "__init__.py")):
        print("error: run from the root of a burgess checkout "
              "(src/burgess not found)", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    try:
        res, setups = run(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = res["rounds"]
    walls = [r["wall_s"] for r in rounds]
    nominal_walls = [nominal(r["wall_s"], r["yardstick_s"]) for r in rounds]
    nominal_setups = [nominal(t, y) for t, y in setups]
    attempted, failed = res["attempted"], res["failed"]
    exact_frac = res["exact"] / attempted
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} units, {failed} failed")
    for err in res["errors"]:
        print(f"  FAIL {err}")
    print(metric_line("wall_s (nominal)", nominal_walls, "s"))
    print(metric_line("wall_s (measured)", walls, "s"))
    print(metric_line("process.cpu_s", [r["cpu_s"] for r in rounds], "s"))
    print(metric_line("peak_rss_mb", [res["peak_rss_mb"]], "MB"))
    print(metric_line("setup_s (nominal)", nominal_setups, "s"))
    print(metric_line("setup_s (measured)", [t for t, _ in setups], "s"))
    print(metric_line("yardstick_s (worker)",
                      [r["yardstick_s"] for r in rounds], "s"))
    print(metric_line("yardstick_s (set-up)", [y for _, y in setups], "s"))
    print(f"{'failed_frac':<42} {failed / attempted:.6g}  "
          f"({failed}/{attempted} units)")
    print(f"{'exact_frac':<42} {exact_frac:.6g}  "
          f"({res['exact']}/{attempted} units)")

    if args.trace:
        per_round = {k: [r["layers"][k] for r in rounds]
                     for k in rounds[0]["layers"]}
        per_round["process.cpu_s"] = [r["cpu_s"] for r in rounds]
        per_round["trace.round_s"] = walls
        per_round["exact_frac"] = [exact_frac]
        print_trace_report(per_round)
        chosen = {m["name"]: (statistics.median(per_round[m["name"]]), m["unit"])
                  for m in spec["per_layer"]}
    else:
        value = {"wall_s": statistics.median(nominal_walls),
                 "peak_rss_mb": res["peak_rss_mb"],
                 "setup_s": statistics.median(nominal_setups)}
        chosen = {m["name"]: (value[m["name"]], m["unit"])
                  for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
