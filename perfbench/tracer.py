"""Spans and counters around the library's public functions, from outside.

Tracer.install wraps each traced function and rebinds the wrapper under
every burgess module that holds the original, the defining module and each
module that imported the name (bounds.window_sum, moments.window_array,
...), so calls through either name are seen.  Character.prefix reaches
chars.prefix_table through the chars module globals, which are patched too.

Span functions record one span each (id, parent id, name, start, end).
Leaf functions, the hot ones like window_sum with about a million calls per
round, are aggregated into a count and a total under the enclosing span
instead.  Every function also adds to per-round totals: calls, inclusive
seconds and self seconds (inclusive minus the time covered by wrapped
child calls).  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

perf_counter = time.perf_counter

# (module, function, is_leaf)
TRACED = (
    ("bounds", "holder_chain", False),
    ("bounds", "extremal_scan", False),
    ("bounds", "pv_ratio_scan", False),
    ("bounds", "max_window_spread", True),
    ("moments", "moment_check", False),
    ("moments", "moment_sum", False),
    ("moments", "window_array", False),
    ("chars", "build_modulus", False),
    ("chars", "prefix_table", False),
    ("chars", "window_sum", True),
    ("chars", "legendre_value_array", True),
    ("congruence", "collision_distribution", False),
    ("sieve", "enumerate_rough", False),
    ("sieve", "build_spf", False),
)


def array_bytes(*objs) -> int:
    """Total nbytes of the ndarray attributes of the given objects."""
    seen: dict[int, int] = {}
    for obj in objs:
        for val in vars(obj).values():
            if isinstance(val, np.ndarray):
                seen[id(val)] = val.nbytes
    return sum(seen.values())


class Frame:
    __slots__ = ("child", "leaves", "sid")

    def __init__(self, sid: int, leaves: dict):
        self.child = 0.0
        self.sid = sid
        self.leaves = leaves


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.restore: list[tuple] = []
        self._next_id = 0
        self.start_round()

    # -- per-round state ----------------------------------------------------

    def start_round(self) -> None:
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.keys: dict[str, set] = defaultdict(set)
        self.table_bytes = 0
        self.lambda_buckets = 0
        self._next_id += 1
        self.stack = [Frame(self._next_id, defaultdict(lambda: [0, 0.0]))]
        self.root = self.stack[0]

    # -- hooks that record exact counters -----------------------------------

    def _keyed(self, name: str):
        if name == "moments.moment_sum":
            return lambda chi, V, r, *a, **k: (chi.q, chi.index, V, r)
        if name == "chars.build_modulus":
            return lambda q, *a, **k: q
        return None

    def _post(self, name: str):
        if name == "chars.prefix_table":
            def post(result, chi, *a, **k):
                size = array_bytes(chi.modulus, chi, result)
                self.table_bytes = max(self.table_bytes, size)
            return post
        if name == "chars.legendre_value_array":
            def post(result, *a, **k):
                self.table_bytes = max(self.table_bytes, result.nbytes)
            return post
        if name == "congruence.collision_distribution":
            def post(result, *a, **k):
                self.lambda_buckets += len(result.counts)
            return post
        return None

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, leaf: bool):
        key, post = self._keyed(name), self._post(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            if leaf:
                frame = Frame(parent.sid, parent.leaves)
            else:
                tracer._next_id += 1
                frame = Frame(tracer._next_id, defaultdict(lambda: [0, 0.0]))
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                st = tracer.stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame.child
                parent.child += dur
                if leaf:
                    agg = parent.leaves[name]
                    agg[0] += 1
                    agg[1] += dur
                else:
                    tracer.spans.append(
                        (frame.sid, parent.sid, name, t0, t1,
                         {k: tuple(v) for k, v in frame.leaves.items()}))
            if key is not None:
                tracer.keys[name].add(key(*args, **kwargs))
            if post is not None:
                post(result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function under each burgess module holding it."""
        mods = [m for n, m in sys.modules.items()
                if n == "burgess" or n.startswith("burgess.")]
        for modname, fname, leaf in TRACED:
            owner = sys.modules[f"burgess.{modname}"]
            orig = getattr(owner, fname)
            wrapper = self.wrap(f"{modname}.{fname}", orig, leaf)
            for mod in mods:
                if getattr(mod, fname, None) is orig:
                    setattr(mod, fname, wrapper)
                    self.restore.append((mod, fname, orig))

    def uninstall(self) -> None:
        for mod, fname, orig in reversed(self.restore):
            setattr(mod, fname, orig)
        self.restore.clear()

    def close_round(self, t0: float, t1: float) -> None:
        """Record the round itself as the root span."""
        self.spans.append((self.root.sid, 0, "round", t0, t1,
                           {k: tuple(v) for k, v in self.root.leaves.items()}))


def calibrate(n: int = 50_000) -> tuple[float, float]:
    """Seconds a leaf and a span wrapper add per call, measured here."""
    def noop(*args, **kwargs):
        return None

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            for _ in range(n):
                fn(1, 2)
            best = min(best, perf_counter() - t0)
            tracer.spans.clear()
        return best / n

    tracer = Tracer()
    bare = per_call(noop)
    leaf = per_call(tracer.wrap("calibrate.leaf", noop, True))
    span = per_call(tracer.wrap("calibrate.span", noop, False))
    return max(leaf - bare, 0.0), max(span - bare, 0.0)
