"""The acceptance suite: nine checks, each with its stated tolerance.

Each criterion function is self-contained, seeds its own randomness from
SUITE_SEED, and returns whether it passed and the details it measured, so
the CLI `verify` subcommand and the pytest gate share one implementation.
Each runs at one stated scale, and criteria 6, 7 and 9 compare what they
measure with the frozen numbers in baselines.  No criterion reads a clock:
each passes or fails on its numbers alone, and `verify` reports the seconds
of each in its record's timings.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

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
    details: dict


def format_line(res: CriterionResult) -> str:
    tag = "PASS" if res.passed else "FAIL"
    return f"{tag} criterion {res.cid}: {res.name}"


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


def criterion_1() -> tuple[bool, dict]:
    """Character algebra: multiplicativity, order, full-period orthogonality."""
    rng = random.Random(SUITE_SEED + 1)
    ok, checked = True, 0
    for q in (101, 1009, 10007):
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
            checked += 1
    return ok, {"checked": checked}


def criterion_2() -> tuple[bool, dict]:
    """Complete-moment inequality, decided exactly against the Weil and the
    specialized bound in every configuration."""
    cells = []
    for q in (101, 1009, 10007):
        mod = build_modulus(q)
        chis = [mod.legendre()]
        if (q - 1) % 3 == 0:
            chis.append(mod.character((q - 1) // 3))  # order 3
        for chi in chis:
            for r in (1, 2, 3):
                rep = moment_check(chi, r=r)  # V auto: both bounds
                cells.append({"q": q, "m": chi.index, "r": r, "V": rep.V,
                              "moment": rep.moment, "bound": rep.bound,
                              "specialized_bound": rep.specialized_bound,
                              "ok": rep.passed})
    return all(c["ok"] for c in cells), {"cells": cells}


def _random_instances(count: int, rng: random.Random):
    for _ in range(count):
        q = rng.choice(PRIMES_SMALL)
        n = rng.randint(1, 12)
        u = rng.randint(1, min(10, q - 1))  # keep every shift invertible
        z = rng.choice([2, 3, 5])
        m = rng.randint(-30, 30)
        rough = enumerate_rough(z, u)
        yield CollisionInstance(q=q, M=m, N=n, rough=rough)


def criterion_3() -> tuple[bool, dict]:
    """Collision-count oracle equivalence: the second moment against the
    quadruple loop."""
    rng = random.Random(SUITE_SEED + 3)
    matches = [congruence_count(inst).I_value
               == brute_force_congruence_count(inst)
               for inst in _random_instances(200, rng)]
    return all(matches), {"instances": len(matches)}


def holder_cells(primes=(101, 1009, 10007), m_count=20):
    """The criterion-4 cell list: (q, r, N, seeded M values), r in {2, 3}."""
    cells = []
    for q in primes:
        n = int(q ** 0.4)
        for r in (2, 3):
            rng = random.Random(f"{SUITE_SEED}:holder:{q}:{r}")
            cells.append((q, r, n, [rng.randrange(q) for _ in range(m_count)]))
    return cells


def criterion_4() -> tuple[bool, dict]:
    """Averaging-chain inequality, exact on the quadratic path, every cell."""
    ok = True
    rows = []
    for q, r, n, m_values in holder_cells():
        mod = build_modulus(q)
        chi = mod.legendre()
        for m in m_values:
            rep = holder_chain(chi, m, n, r)
            ok = ok and rep.passed and rep.exact
        rows.append({"q": q, "r": r, "N": n,
                     "params_source": rep.params.source,
                     "U": rep.params.U, "V": rep.params.V})
    return ok, {"cells": rows}


def criterion_5() -> tuple[bool, dict]:
    """Rough-set density ratio at z=10 inside the [0.3, 3] bracket.

    The default guard C=10 would reject z=10 at U=10^4 (10^10 > 10^4), so
    this suite runs the exposed guard at C=4, the largest integer the
    smallest stated U admits.
    """
    ok = True
    rows = []
    expected = float(mertens_product(10).value) * math.log(10)
    for u in (10 ** 4, 10 ** 5, 10 ** 6):
        ratio = rough_density_ratio(10.0, u, C=4.0)
        rows.append({"U": u, "ratio": ratio})
        ok = ok and 0.3 <= ratio <= 3.0
    return ok, {"rows": rows, "expected_near": expected}


def collision_ratio_instance():
    """The recorded collision-count instance: q=10007, N=floor(q^0.45)."""
    q = baselines.COLLISION_Q
    n = int(q ** 0.45)
    params = resolve_params(n, q, 2)
    rng = random.Random(SUITE_SEED + 6)
    m = rng.randrange(q)
    rough = enumerate_rough(params.z, params.U)
    return CollisionInstance(q=q, M=m, N=n, rough=rough), params


def criterion_6() -> tuple[bool, dict]:
    """Collision count and ratio equal to their recorded values, bit for
    bit, and the ratio inside its envelope."""
    inst, params = collision_ratio_instance()
    rep = congruence_count(inst)
    ok = (rep.ratio <= baselines.COLLISION_RATIO_ENVELOPE
          and rep.I_value == baselines.COLLISION_I_VALUE
          and rep.ratio == baselines.COLLISION_RATIO)
    return ok, {"M": inst.M, "N": inst.N, "U": params.U, "z": params.z,
                "I_value": rep.I_value, "ratio": rep.ratio,
                "bound": rep.bound}


def criterion_7() -> tuple[bool, dict]:
    """Exhaustive max-sum over all windows for all odd primes up to 10^4,
    the worst ratio and its prime equal to their recorded values."""
    worst, worst_q, _ = pv_ratio_scan(10 ** 4)
    ok = (worst < 1.0 and worst_q == baselines.PV_WORST_PRIME
          and worst == baselines.PV_WORST_RATIO)
    return ok, {"worst_ratio": worst, "worst_prime": worst_q}


def criterion_8() -> tuple[bool, dict]:
    """O(q) moment pass at scale; the folded moment, from streamed prefix
    sums, equals the one summed over every start's window of the table."""
    q, v = 10 ** 6 + 3, 10 ** 3
    chi = build_modulus(q).legendre()
    folded = moment_sum(chi, v, 2)  # streamed: no table is built yet
    counts = np.bincount(np.abs(window_array(chi.prefix_for(v), v)))
    unfolded = sum(c * k ** 4 for k, c in enumerate(counts.tolist()))
    ok = folded.moment == unfolded and folded.passed
    return ok, {"q": q, "moment": folded.moment,
                "unfolded_identical": folded.moment == unfolded}


def criterion_9() -> tuple[bool, dict]:
    """Refined-shape worst ratio over the criterion-4 cells equal to its
    recorded value; variant ordering holds."""
    worst = -math.inf
    ordering = True
    for q, r, n, m_values in holder_cells():
        res = extremal_scan(q, (q - 1) // 2, n, m_values, r=r)
        worst = max(worst, res.worst_ratio["refined_14r"])
        vals = [bound_value(v, n, q, r=r) for v in REFINEMENT_ORDER]
        ordering &= all(a <= b for a, b in zip(vals, vals[1:]))
    ok = worst == baselines.REFINED_WORST_RATIO and ordering
    return ok, {"worst_ratio": worst, "ordering": ordering}


def run_suite():
    """Yield each criterion's result as soon as it finishes.  The table is
    built per run, so it calls whatever criterion_n this module holds then."""
    for cid, name, fn in (
            (1, "character algebra suite", criterion_1),
            (2, "moment bound exact verification", criterion_2),
            (3, "congruence oracle equivalence", criterion_3),
            (4, "averaging chain inequality", criterion_4),
            (5, "rough-set density bracket", criterion_5),
            (6, "collision-count ratio regression", criterion_6),
            (7, "Polya-Vinogradov empirical check", criterion_7),
            (8, "moment scan at scale", criterion_8),
            (9, "refined-shape scan regression", criterion_9)):
        passed, details = fn()
        yield CriterionResult(cid, name, passed, details)
