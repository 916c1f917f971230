"""One workload run in a fresh process; started by run.py, not by hand.

Protocol on stdout: the line "ready" once burgess is imported from the
checkout's src/ and the inputs are generated (run.py times process start to
that line as setup_s), then, unless --setup-only, one JSON line with the
rounds and checks.  Rounds of the workload's fixed work repeat until
--seconds have passed, with a garbage collection between rounds so that
each starts from the same heap.  Outputs are checked after each round,
outside the timed region.  The yardstick (yardstick.py) is timed before
the first round and after every round; each round records the mean of the
two yardstick times around it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

import workloads as wl
from tracer import TRACED, Tracer, calibrate
from yardstick import yardstick_s

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_DIR = ".perfbench"

def import_burgess():
    """Import burgess from ./src of the checkout, never from elsewhere."""
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import burgess
    from burgess import baselines, bounds, chars, moments  # noqa: F401
    if not os.path.abspath(burgess.__file__).startswith(src + os.sep):
        raise ImportError(f"burgess imported from {burgess.__file__}")
    return burgess


def layer_metrics(tracer, inp, overhead: tuple) -> dict:
    """Per-layer numbers of one traced round."""
    st = tracer.stats

    def calls(name):
        return st[name][0] if name in st else 0

    def seconds(name):
        return st[name][1] if name in st else 0.0

    def self_seconds(name):
        return st[name][2] if name in st else 0.0

    def useful(name):
        n = calls(name)
        return len(tracer.keys[name]) / n if n else 0.0

    out = {}
    for modname, fname, _ in TRACED:
        name = f"{modname}.{fname}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = seconds(name)
        out[f"{name}.self_s"] = self_seconds(name)
    out["moments.moment_sum.useful_ratio"] = useful("moments.moment_sum")
    out["chars.build_modulus.useful_ratio"] = useful("chars.build_modulus")
    starts = inp.window_starts
    out["chars.window_sum.calls_per_window"] = (
        calls("chars.window_sum") / starts if starts else 0.0)
    out["congruence.lambda_buckets"] = tracer.lambda_buckets
    out["chars.table_bytes"] = tracer.table_bytes
    leaf_calls = sum(calls(f"{m}.{f}") for m, f, leaf in TRACED if leaf)
    span_calls = sum(v[0] for v in st.values()) - leaf_calls
    out["trace.overhead_s"] = leaf_calls * overhead[0] + span_calls * overhead[1]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    burgess = import_burgess()
    inp = wl.make_inputs(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    oracle = wl.scan_oracle(inp) if args.workload == "scan-small" else None
    tracer = overhead = None
    if args.trace:
        overhead = calibrate()
        tracer = Tracer()
        tracer.install()

    tally = wl.Tally()
    rounds = []
    gc.collect()
    yard_before = yardstick_s()
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < args.seconds:
        if tracer:
            tracer.start_round()
        c0, t0 = time.process_time(), time.perf_counter()
        outputs = wl.run_round(burgess, inp)
        t1, c1 = time.perf_counter(), time.process_time()
        row = {"wall_s": t1 - t0, "cpu_s": c1 - c0}
        if tracer:
            tracer.close_round(t0, t1)
            row["layers"] = layer_metrics(tracer, inp, overhead)
        wl.check_round(inp, outputs, ref, oracle, tally)
        del outputs
        gc.collect()
        yard_after = yardstick_s()
        row["yardstick_s"] = (yard_before + yard_after) / 2
        rounds.append(row)
        yard_before = yard_after
    if tracer:
        tracer.uninstall()
    if args.workload == "scan-small":
        wl.check_pv_baseline(burgess, tally)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR,
                            f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "span_fields": ["id", "parent", "name", "start_s",
                                       "end_s", "leaves {name: [calls, s]}"],
                       "spans": tracer.spans, "rounds": rounds}, fh)
        print(f"trace written to {path}", file=sys.stderr)

    print(json.dumps({"rounds": rounds, "attempted": tally.attempted,
                      "failed": tally.failed, "exact": tally.exact,
                      "errors": tally.errors,
                      "peak_rss_mb": peak_kb / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
