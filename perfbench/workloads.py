"""The benchmark's workloads: seeded inputs, one round of fixed work, checks.

A round is the workload's fixed work, run as one closed loop: each library
call starts when the previous one returns, in one thread.  A unit is one
holder_chain window, one moment_check cell or one scanned prime; every unit
is checked against the reference outputs recorded from the seed code
(reference.json) or, for the seeded extremal scan starts, against an
independent integer oracle computed here.

The reason for each workload is its "why" in BENCHMARK.json.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("holder-legendre", "holder-cubic", "moments-scale", "scan-small")

# holder cells: character order and, per modulus, the values of r and the
# windows per (q, r) cell, with N = window_length(q).  At q ~ 10^7, where
# building the modulus and the O(q) moment take about a second, one cell of
# one window keeps a round near 2 s, so a run has enough rounds for a steady
# median; the q ~ 10^6 cells keep five windows each, so the moment that is
# recomputed for every window still shows.
HOLDER_CELLS = {
    "holder-legendre": (2, ((1000003, (2, 3), 5), (10000019, (2,), 1))),
    "holder-cubic": (3, ((1000003, (2, 3), 5), (10000141, (2,), 1))),
}
N_EXPONENT = 0.4
# Window starts are drawn by the seed from a fixed pool per cell whose
# outputs were recorded once from the seed code.
POOL_SIZE = 32

# moment_check cells: (q, character order, r), V = auto.
MOMENT_CELLS = ((10000019, 2, 2), (10000019, 2, 3), (10000141, 3, 2))

# Sized, like the holder cells, for a round of about 2 s.
PV_LIMIT = 4 * 10 ** 4
PV_BASELINE_LIMIT = 10 ** 4
SCAN_RANGE = (10 ** 4, 15 * 10 ** 3)
SCAN_STARTS = 50

# Relative tolerance for quantities the library computes in floating point.
# The float path reads window sums off a complex prefix table built by q ~
# 10^7 sequential additions; the seed code's W and moment differ from the
# exactly computed values (integer window sums in Z[omega], see
# record_reference.py) by at most the relative amounts stored in
# reference.json (2e-13 for W, 2e-14 for the moment), so 1e-9 leaves a
# factor of 5000 for summation orders a later implementation may choose.
# Powers x^k scale it by k.
FLOAT_RTOL = 1e-9


def holder_pool(q: int, order: int, r: int) -> list[int]:
    """The fixed pool of window starts for one holder cell."""
    rng = random.Random(f"pool:{q}:{order}:{r}")
    return [rng.randrange(q) for _ in range(POOL_SIZE)]


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by a plain sieve, independent of the library."""
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return [int(p) for p in np.flatnonzero(sieve) if p >= lo]


def window_length(q: int) -> int:
    """N = floor(q^0.4), as the CLI derives it from N_spec = q^0.4."""
    return max(1, int(q ** N_EXPONENT))


@dataclass
class Inputs:
    workload: str
    seed: int
    cells: list = field(default_factory=list)

    @property
    def window_starts(self) -> int:
        """Window starts handed to the program in one round."""
        if self.workload.startswith("holder"):
            return sum(len(c[4]) for c in self.cells)
        if self.workload == "scan-small":
            return sum(len(c[2]) for c in self.cells)
        return 0


def make_inputs(workload: str, seed: int) -> Inputs:
    """Everything a round needs, generated from the seed alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inp = Inputs(workload, seed)
    if workload in HOLDER_CELLS:
        order, moduli = HOLDER_CELLS[workload]
        for q, r_values, windows in moduli:
            n = window_length(q)
            for r in r_values:
                rng = random.Random(f"{seed}:{q}:{order}:{r}")
                starts = rng.sample(holder_pool(q, order, r), windows)
                inp.cells.append((q, order, r, n, starts))
    elif workload == "moments-scale":
        # No seeded input: a complete moment has no window start.  The order
        # is fixed because peak RSS depends on it (tables of earlier cells
        # may still await the cycle collector when the order-3 cell runs).
        inp.cells = list(MOMENT_CELLS)
    else:
        for p in primes_in(*SCAN_RANGE):
            rng = random.Random(f"{seed}:{p}")
            starts = [rng.randrange(p) for _ in range(SCAN_STARTS)]
            inp.cells.append((p, window_length(p), starts))
    return inp


# --- one round ------------------------------------------------------------

def run_round(burgess, inp: Inputs) -> list:
    """One pass over the workload's fixed work; returns raw outputs.

    Exceptions are kept per unit, so one failing call does not stop the
    round and counts against failed_frac.
    """
    bounds, chars, moments = burgess.bounds, burgess.chars, burgess.moments
    out: list = []
    if inp.workload in HOLDER_CELLS:
        for q, order, r, n, starts in inp.cells:
            try:
                chi = chars.build_modulus(q).character((q - 1) // order)
            except Exception as exc:  # every window of the cell fails
                out.extend(exc for _ in starts)
                continue
            for m in starts:
                try:
                    out.append(bounds.holder_chain(chi, m, n, r))
                except Exception as exc:
                    out.append(exc)
    elif inp.workload == "moments-scale":
        for q, order, r in inp.cells:
            try:
                out.append(moments.moment_check(q, (q - 1) // order, V="auto",
                                                r=r))
            except Exception as exc:
                out.append(exc)
    else:
        try:
            out.append(bounds.pv_ratio_scan(PV_LIMIT))
        except Exception as exc:
            out.append(exc)
        for p, n, starts in inp.cells:
            try:
                out.append(bounds.extremal_scan(p, (p - 1) // 2, n, starts))
            except Exception as exc:
                out.append(exc)
    return out


# --- checks ---------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    exact: int = 0
    errors: list = field(default_factory=list)

    def unit(self, problems: list[str], exact: bool, label: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {'; '.join(problems)}")
        elif exact:
            self.exact += 1


def is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def compare(name: str, got, ref: dict, problems: list, power: int = 1) -> bool:
    """Compare one quantity; returns True when it was an exact integer.

    ref holds "int", the exact value where one exists; on the float path
    also "float", the seed code's value, and "accurate", a correctly summed
    value where the quantity has no integer form (W is a sum of square
    roots).  An integer result must match "int" bit for bit; a float result
    is held to FLOAT_RTOL, scaled by the power the quantity was raised to.
    """
    exact_ref = ref.get("int")
    if is_int(got):
        if exact_ref is None or int(got) != exact_ref:
            problems.append(f"{name}={got} want {exact_ref}")
        return True
    if ref.get("float") is None:
        problems.append(f"{name} lost exactness: {got!r}")
        return False
    want = exact_ref if exact_ref is not None else ref["accurate"]
    if not isinstance(got, float) or not close(got, want, FLOAT_RTOL * power):
        problems.append(f"{name}={got!r} want {want!r}")
    return False


def check_round(inp: Inputs, outputs: list, ref: dict, oracle,
                tally: Tally) -> None:
    if inp.workload in HOLDER_CELLS:
        _check_holder(inp, outputs, ref, tally)
    elif inp.workload == "moments-scale":
        _check_moments(inp, outputs, ref, tally)
    else:
        _check_scan(inp, outputs, ref, oracle, tally)


def holder_key(q: int, order: int, r: int, m: int) -> str:
    return f"{q}:{order}:{r}:{m}"


def _check_holder(inp, outputs, ref, tally):
    units = [(q, order, r, m) for q, order, r, _, starts in inp.cells
             for m in starts]
    for (q, order, r, m), rep in zip(units, outputs, strict=True):
        label = f"holder q={q} order={order} r={r} M={m}"
        if isinstance(rep, Exception):
            tally.unit([f"raised {rep!r}"], False, label)
            continue
        want = ref["holder"][holder_key(q, order, r, m)]
        problems: list[str] = []
        if not rep.passed:
            problems.append("chain inequality failed")
        for name in ("U", "V"):
            if getattr(rep.params, name) != want[name]:
                problems.append(f"{name}={getattr(rep.params, name)}")
        if rep.rough_count != want["rough_count"]:
            problems.append(f"rough_count={rep.rough_count}")
        exact = True
        for name, power in (("W", 1), ("first_moment", 1),
                            ("second_moment", 1), ("moment2r", 1),
                            ("holder_lhs", 2 * r), ("holder_rhs", 1)):
            exact &= compare(name, getattr(rep, name), want[name], problems,
                             power)
        tally.unit(problems, exact, label)


def _check_moments(inp, outputs, ref, tally):
    for (q, order, r), rep in zip(inp.cells, outputs, strict=True):
        label = f"moments q={q} order={order} r={r}"
        if isinstance(rep, Exception):
            tally.unit([f"raised {rep!r}"], False, label)
            continue
        want = ref["moments"][f"{q}:{order}:{r}"]
        problems: list[str] = []
        if not (rep.passed and rep.specialized_passed):
            problems.append("moment bound failed")
        if rep.V != want["V"]:
            problems.append(f"V={rep.V}")
        if not close(rep.bound, want["bound"], 1e-12):
            problems.append(f"bound={rep.bound!r}")
        exact = compare("moment", rep.moment, want["moment"], problems)
        tally.unit(problems, exact, label)


def scan_oracle(inp: Inputs) -> list[tuple[float, int]]:
    """(max |window sum|, first argmax start) per scanned prime, by integer
    prefix sums of the Legendre symbol from the squares, not the dlog."""
    out = []
    for p, n, starts in inp.cells:
        vals = np.full(p, -1, dtype=np.int64)
        vals[0] = 0
        k = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
        vals[(k * k) % p] = 1
        prefix = np.concatenate([[0], np.cumsum(vals[1:]), [0]])
        m = np.asarray(starts, dtype=np.int64)
        rem = n % p
        hi = m + rem
        sums = np.where(hi <= p, prefix[np.minimum(hi, p)] - prefix[m],
                        prefix[p] - prefix[m] + prefix[np.maximum(hi - p, 0)])
        mags = np.abs(sums)
        best = int(mags.argmax())
        out.append((float(mags[best]), starts[best]))
    return out


def _check_scan(inp, outputs, ref, oracle, tally):
    pv, ext = outputs[0], outputs[1:]
    primes = primes_in(3, PV_LIMIT)
    if isinstance(pv, Exception):
        for q in primes:
            tally.unit([f"raised {pv!r}"], False, f"pv q={q}")
    else:
        worst, worst_q, ratios = pv
        got = dict(ratios)
        for q, spread in zip(primes, ref["pv"]["spreads"], strict=True):
            problems: list[str] = []
            ratio = got.pop(q, None)
            den = math.sqrt(q) * math.log(q)
            if ratio is None:
                problems.append("missing")
            elif not close(ratio, spread / den, 1e-12):
                problems.append(f"ratio={ratio!r} want spread {spread}")
            tally.unit(problems, False, f"pv q={q}")
        problems = [f"unexpected primes {sorted(got)[:5]}"] if got else []
        if worst_q != ref["pv"]["worst_q"] or not close(
                worst, ref["pv"]["worst"], 1e-12):
            problems.append(f"worst {worst!r} at {worst_q}")
        tally.unit(problems, False, "pv worst")
    for (p, n, starts), res, (best, best_m) in zip(inp.cells, ext, oracle,
                                                   strict=True):
        label = f"extremal q={p}"
        if isinstance(res, Exception):
            tally.unit([f"raised {res!r}"], False, label)
            continue
        problems = []
        if res.max_abs_sum != best or res.argmax_M != best_m:
            problems.append(f"max {res.max_abs_sum!r} at {res.argmax_M}, "
                            f"oracle {best} at {best_m}")
        if res.windows != len(starts):
            problems.append(f"windows={res.windows}")
        tally.unit(problems, is_int(res.max_abs_sum), label)


def check_pv_baseline(burgess, tally: Tally) -> None:
    """pv_ratio_scan(10^4) must reproduce the frozen baseline at q = 5."""
    try:
        worst, worst_q, _ = burgess.bounds.pv_ratio_scan(PV_BASELINE_LIMIT)
    except Exception as exc:
        tally.unit([f"raised {exc!r}"], False, "pv baseline")
        return
    base = burgess.baselines
    problems = []
    if worst_q != base.PV_WORST_PRIME or not close(
            worst, base.PV_WORST_RATIO, 1e-12):
        problems.append(f"{worst!r} at {worst_q}, baseline "
                        f"{base.PV_WORST_RATIO!r} at {base.PV_WORST_PRIME}")
    tally.unit(problems, False, "pv baseline")
