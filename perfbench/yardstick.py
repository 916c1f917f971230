"""The yardstick: a fixed loop of interpreted Python that calls nothing in
burgess, timed next to each measurement so that times can be stated at one
nominal host speed.

On a shared 2-core machine the rounds of unchanged code drifted by up to a
factor of 2 within one run, and the median of ten runs by 27% between two
sets of runs twenty minutes apart; set-up times moved by as much.  A time t
measured when the yardstick takes y seconds is reported as
t * NOMINAL_S / y, which cancels much of that drift.  In trials on these
workloads, numpy passes added to the loop tracked the drift no better
overall, and a pass over an array larger than the caches would raise the
peak RSS of scan-small.
"""

from __future__ import annotations

import time

LOOP = 1_000_000
# About the yardstick's time on the machine the benchmark was defined on;
# it only sets the scale of the nominal seconds.
NOMINAL_S = 0.08


def yardstick_s() -> float:
    """Seconds the yardstick loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


def nominal(t: float, y: float) -> float:
    """Time t, measured while the yardstick took y seconds, at nominal speed."""
    return t * NOMINAL_S / y
