"""The acceptance suite: nine checks, each with its stated tolerance.

Each criterion function is self-contained, seeds its own randomness from
SUITE_SEED, and returns a result object with the measured details, so the
CLI `verify` subcommand and the pytest gate share one implementation.  The
"small" suite runs reduced-scale versions for a quick smoke signal; the
"full" suite is the gate.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import baselines
from .bounds import (
    REFINEMENT_ORDER,
    bound_value,
    extremal_scan,
    holder_chain,
    pv_ratio_scan,
    resolve_params,
)
from .chars import (
    LATTICE,
    Character,
    build_modulus,
    interval_sum,
    mirror_classes,
    window_array,
)
from .congruence import (
    CollisionInstance,
    brute_force_congruence_count,
    congruence_count,
)
from .moments import moment_check, moment_sum
from .sieve import (
    enumerate_rough,
    mertens_product,
    primes_below,
    rough_density_ratio,
)

SUITE_SEED = 101009

PRIMES_SMALL = primes_below(98)[1:]


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    elapsed: float
    details: dict = field(default_factory=dict)


def format_line(res: CriterionResult) -> str:
    tag = "PASS" if res.passed else "FAIL"
    return f"{tag} criterion {res.cid}: {res.name} ({res.elapsed:.2f}s)"


def _timed(cid: int, name: str, fn,
           limit_s: float | None = None) -> CriterionResult:
    t0 = time.perf_counter()
    passed, details = fn()
    elapsed = time.perf_counter() - t0
    if limit_s is not None:
        details["runtime_limit_s"] = limit_s
        passed = passed and elapsed < limit_s
    return CriterionResult(cid=cid, name=name, passed=passed,
                           elapsed=elapsed, details=details)


def _full_period_ok(chi: Character, starts) -> bool:
    """Orthogonality, read off q - 1 gathered values: the sum over
    (m, m + q - 1] misses only the residue m, so it equals -chi(m); exactly
    for orders 2, 3, 4 and 6, whose sums are integers or LATTICE points."""
    q, d = chi.q, chi.order
    for m in starts:
        s, v = interval_sum(chi, m, q - 1), chi(m)
        if chi.is_quadratic:
            ok = s == -v.as_int()
        elif d in LATTICE:
            ok = s == tuple(0 if v.is_zero else -c[v.num] for c in LATTICE[d])
        else:
            ok = abs(s + v.as_complex()) <= 1e-9 * q
        if not ok:
            return False
    return True


def _char_algebra_ok(chi: Character, pairs: int,
                     rng: random.Random) -> bool:
    """Order and multiplicativity of the classes read by mirror_classes:
    each lies in [0, d), chi(g) has order d, and c(ab) = c(a) + c(b) mod d
    over every pair of units a, b, or over `pairs` random ones."""
    q, d = chi.q, chi.order
    if pairs >= (q - 1) ** 2:  # exhaustive multiplicativity
        a, b = np.indices((q - 1, q - 1)).reshape(2, -1) + 1
    else:
        a, b = np.array([(rng.randrange(1, q), rng.randrange(1, q))
                         for _ in range(pairs)]).T
    g = np.full_like(a, chi.modulus.g)  # a row of g: one class table read
    c = mirror_classes(chi, np.stack([a, b, a * b % q, g]))
    return bool(0 <= c.min() and c.max() < d
                and math.gcd(int(c[3, 0]), d) == 1
                and np.array_equal(c[2], (c[0] + c[1]) % d))


def criterion_1(primes=(101, 1009, 10007)) -> CriterionResult:
    """Character algebra: multiplicativity, order, full-period orthogonality."""
    def run():
        rng = random.Random(SUITE_SEED + 1)
        details = {"checked": 0}
        ok = True
        for q in primes:
            mod = build_modulus(q)
            starts = [0, 1, q // 2, q - 1, -3]
            if q == 101:
                indices = range(1, q - 1)
            else:
                indices = {(q - 1) // 2} | {rng.randrange(1, q - 1)
                                            for _ in range(3)}
            for m in indices:
                chi = mod.character(m)
                pairs = (q - 1) ** 2 if q == 101 else 1000
                if not _char_algebra_ok(chi, pairs, rng):
                    ok = False
                if not _full_period_ok(chi, starts):
                    ok = False
                conj = chi.conjugate()
                for n in (2, 3, q - 1):
                    v, w = chi.value(n), conj.value(n)
                    if (v.num + w.num) % v.den != 0:
                        ok = False
                details["checked"] += 1
        return ok and details["checked"] > 0, details
    return _timed(1, "character algebra suite", run, limit_s=5.0)


def criterion_2(primes=(101, 1009, 10007)) -> CriterionResult:
    """Complete-moment inequality, exact margin >= 0 in every configuration."""
    def run():
        ok = True
        cells = []
        for q in primes:
            mod = build_modulus(q)
            chis = [mod.legendre()]
            if (q - 1) % 3 == 0:
                chis.append(mod.character((q - 1) // 3))  # order 3
            for chi in chis:
                for r in (1, 2, 3):
                    t0 = time.perf_counter()
                    rep = moment_check(chi, r=r)  # V auto: both bounds
                    dt = time.perf_counter() - t0
                    cell_ok = rep.passed and rep.margin >= 0 and dt < 10.0
                    ok = ok and cell_ok
                    cells.append({"q": q, "m": chi.index, "r": r, "V": rep.V,
                                  "moment": rep.moment, "bound": rep.bound,
                                  "specialized_bound": rep.specialized_bound,
                                  "ok": cell_ok})
        return ok, {"cells": cells}
    return _timed(2, "moment bound exact verification", run)


def _random_instances(count: int, rng: random.Random):
    for _ in range(count):
        q = rng.choice(PRIMES_SMALL)
        n = rng.randint(1, 12)
        u = rng.randint(1, min(10, q - 1))  # keep every shift invertible
        z = rng.choice([2, 3, 5])
        m = rng.randint(-30, 30)
        rough = enumerate_rough(z, u)
        yield CollisionInstance(q=q, M=m, N=n, rough=rough)


def criterion_3(count=200) -> CriterionResult:
    """Collision-count oracle equivalence (the second moment against the
    quadruple loop) plus the first-moment identity."""
    def run():
        rng = random.Random(SUITE_SEED + 3)
        ok = True
        checked = 0
        for inst in _random_instances(count, rng):
            report = congruence_count(inst)
            if report.I_value != brute_force_congruence_count(inst):
                ok = False
            if report.first_moment != inst.N * inst.rough.count:
                ok = False
            checked += 1
        return ok and checked == count, {"instances": checked}
    return _timed(3, "congruence oracle equivalence", run)


def holder_cells(primes=(101, 1009, 10007), m_count=20):
    """The criterion-4 cell list: (q, r, N, seeded M values), r in {2, 3}."""
    cells = []
    for q in primes:
        n = int(q ** 0.4)
        for r in (2, 3):
            rng = random.Random(f"{SUITE_SEED}:holder:{q}:{r}")
            cells.append((q, r, n, [rng.randrange(q) for _ in range(m_count)]))
    return cells


def criterion_4(primes=(101, 1009, 10007), m_count=20) -> CriterionResult:
    """Averaging-chain inequality, exact on the quadratic path, every cell."""
    def run():
        ok = True
        rows = []
        for q, r, n, m_values in holder_cells(primes, m_count=m_count):
            mod = build_modulus(q)
            chi = mod.legendre()
            for m in m_values:
                rep = holder_chain(chi, m, n, r)
                cell_ok = rep.passed and rep.exact
                ok = ok and cell_ok
            rows.append({"q": q, "r": r, "N": n,
                         "params_source": rep.params.source,
                         "U": rep.params.U, "V": rep.params.V})
        return ok, {"cells": rows}
    return _timed(4, "averaging chain inequality", run, limit_s=30.0)


def criterion_5(U_values=(10 ** 4, 10 ** 5, 10 ** 6)) -> CriterionResult:
    """Rough-set density ratio at z=10 inside the [0.3, 3] bracket.

    The default guard C=10 would reject z=10 at U=10^4 (10^10 > 10^4), so
    this suite runs the exposed guard at C=4, the largest integer the
    smallest stated U admits.
    """
    def run():
        ok = True
        rows = []
        expected = float(mertens_product(10).value) * math.log(10)
        for u in U_values:
            ratio = rough_density_ratio(10.0, u, C=4.0)
            rows.append({"U": u, "ratio": ratio})
            ok = ok and 0.3 <= ratio <= 3.0
        return ok, {"rows": rows, "expected_near": expected}
    return _timed(5, "rough-set density bracket", run, limit_s=5.0)


def collision_ratio_instance():
    """The recorded collision-count instance: q=10007, N=floor(q^0.45)."""
    q = baselines.COLLISION_Q
    n = int(q ** 0.45)
    params = resolve_params(n, q, 2)
    rng = random.Random(SUITE_SEED + 6)
    m = rng.randrange(q)
    rough = enumerate_rough(params.z, params.U)
    return CollisionInstance(q=q, M=m, N=n, rough=rough), params


def criterion_6() -> CriterionResult:
    """Collision-count ratio against its recorded envelope, bit-reproducible."""
    def run():
        inst, params = collision_ratio_instance()
        rep1 = congruence_count(inst)
        inst2, _ = collision_ratio_instance()
        rep2 = congruence_count(inst2)
        reproducible = (rep1.I_value == rep2.I_value
                        and rep1.ratio == rep2.ratio
                        and inst.M == inst2.M)
        ok = (rep1.ratio <= baselines.COLLISION_RATIO_ENVELOPE
              and rep1.I_value == baselines.COLLISION_I_VALUE
              and rep1.ratio == baselines.COLLISION_RATIO
              and reproducible)
        return ok, {"M": inst.M, "N": inst.N, "U": params.U, "z": params.z,
                    "I_value": rep1.I_value, "ratio": rep1.ratio,
                    "bound": rep1.bound, "reproducible": reproducible}
    return _timed(6, "collision-count ratio regression", run)


def criterion_7(limit=10 ** 4) -> CriterionResult:
    """Exhaustive max-sum over all windows for all odd primes up to limit."""
    def run():
        worst, worst_q, _ = pv_ratio_scan(limit)
        ok = worst < 1.0
        if limit == 10 ** 4:
            ok = ok and worst_q == baselines.PV_WORST_PRIME
            ok = ok and worst == baselines.PV_WORST_RATIO
        return ok, {"worst_ratio": worst, "worst_prime": worst_q}
    return _timed(7, "Polya-Vinogradov empirical check", run,
                  limit_s=60.0)


def criterion_8() -> CriterionResult:
    """O(q) moment pass at scale; the folded moment equals the one summed
    over every start's window."""
    def run():
        q, v = 10 ** 6 + 3, 10 ** 3
        chi = build_modulus(q).legendre()
        table = chi.prefix_for(v)  # built outside the timed window pass
        t0 = time.perf_counter()
        folded = moment_sum(chi, v, 2)
        dt = time.perf_counter() - t0
        counts = np.bincount(np.abs(window_array(table, v)))
        unfolded = sum(c * k ** 4 for k, c in enumerate(counts.tolist()))
        ok = dt < 5.0 and folded.moment == unfolded and folded.passed
        return ok, {"q": q, "elapsed_s": dt, "moment": folded.moment,
                    "unfolded_identical": folded.moment == unfolded}
    return _timed(8, "moment scan performance", run)


def criterion_9(primes=(101, 1009, 10007), m_count=20) -> CriterionResult:
    """Refined-shape worst ratio finite and stable; variant ordering holds."""
    def run():
        def sweep():
            worst = -math.inf
            ordering_ok = True
            for q, r, n, m_values in holder_cells(primes, m_count=m_count):
                res = extremal_scan(q, (q - 1) // 2, n, m_values, r=r)
                worst = max(worst, res.worst_ratio["refined_14r"])
                vals = [bound_value(v, n, q, r=r) for v in REFINEMENT_ORDER]
                ordering_ok &= all(a <= b for a, b in zip(vals, vals[1:]))
            return worst, ordering_ok
        worst1, ord1 = sweep()
        worst2, ord2 = sweep()
        stable = worst1 == worst2
        ok = (math.isfinite(worst1) and stable and ord1 and ord2)
        if primes == (101, 1009, 10007) and m_count == 20:
            ok = ok and worst1 == baselines.REFINED_WORST_RATIO
        return ok, {"worst_ratio": worst1, "stable": stable,
                    "ordering": ord1}
    return _timed(9, "refined-shape scan regression", run)


def run_suite(suite: str = "full"):
    """Yield each criterion's result as soon as it finishes."""
    if suite == "small":
        yield criterion_1(primes=(101,))
        yield criterion_2(primes=(101,))
        yield criterion_3(count=40)
        yield criterion_4(primes=(101,), m_count=5)
        yield criterion_5(U_values=(10 ** 4,))
        yield criterion_6()
        yield criterion_7(limit=500)
        yield criterion_9(primes=(101,), m_count=5)
        return
    yield criterion_1()
    yield criterion_2()
    yield criterion_3()
    yield criterion_4()
    yield criterion_5()
    yield criterion_6()
    yield criterion_7()
    yield criterion_8()
    yield criterion_9()
