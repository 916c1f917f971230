"""Recorded regression baselines.

Every number here was measured once by scripts/record_baselines.py (fixed
families, fixed seeds) and then frozen.  Tests re-measure and assert
stability against these values; none of them is a claim from the
literature, only a record of what this code produced on these instances.
"""

from __future__ import annotations

import math
import random

# Exhaustive scan over all odd primes q <= 10^4, quadratic character:
# worst max|S| / (sqrt(q) log q) and the prime attaining it.
PV_WORST_RATIO = 0.5557388601882701
PV_WORST_PRIME = 5

# Collision-count instance q=10007, N=floor(q^0.45)=63, feasibility
# parameters (U=63, z=exp(sqrt(log 63))), window start drawn by the fixed
# acceptance seed.  Exact count and its shape-bound ratio.
COLLISION_Q = 10007
COLLISION_I_VALUE = 1101
COLLISION_RATIO = 0.5825396825396826
COLLISION_RATIO_ENVELOPE = 5.0  # build-time empirical cap, not a claimed constant

# Worst refined-shape ratio max|S| / (N^{1-1/r} q^{(r+1)/4r^2} (log q)^{1/4r})
# over the averaging-chain acceptance cells (criterion-4 sweep).
REFINED_WORST_RATIO = 0.8516134008383849

# Empirical normalized-average constant: max over the criterion-4 cells of
# (W / (|rough| V)) divided by the refined shape value.  Stand-in for the
# unevaluated absolute constant of the inductive step.
HOLDER_C0_STANDIN = 0.6519231025740793

# Divisibility counts in rough sets: max of count * t / (U * mertens(z))
# over the family below, restricted to z < (U/t)^A with A = 0.1.
DIVISIBLE_COUNT_CONSTANT = 1.0
DIVISIBLE_COUNT_A = 0.1

# Pairwise collision counts: max of (J(u1,u2) - 1) * u2 / (N * gcd(u1,u2))
# over the seeded family below (u1 < u2, U*N <= q).
PAIR_COLLISION_CONSTANT = 0.9811320754716981
PAIR_COLLISION_SEED = 9

# Longest nonresidue-free run at q=10007, and that gap divided by
# ceil(q^{1/4} log q).
NONRESIDUE_GAP_Q10007 = 14
NONRESIDUE_GAP_CONSTANT = 0.15053763440860216


def measure_divisible_count_constant() -> float:
    """Re-measure the divisibility-count constant over its fixed family."""
    from .sieve import count_rough_divisible, enumerate_rough, mertens_product
    worst = 0.0
    for z in (2, 3, 5, 7, 10):
        block = math.prod(p for p in (2, 3, 5, 7) if p < z)
        for u_cap in (10 ** 4, 10 ** 5):
            rough = enumerate_rough(z, u_cap)
            vz = mertens_product(z).value
            for t in (1, 7, 11, 13, 29, 97, 101, 143):
                if t > 1 and math.gcd(t, block) != 1:
                    continue
                if z >= (u_cap / t) ** DIVISIBLE_COUNT_A:
                    continue
                cnt = count_rough_divisible(rough, t)
                worst = max(worst, cnt * t / (u_cap * vz))
    return worst


def measure_pair_collision_constant() -> float:
    """Re-measure the pairwise collision constant over its seeded family."""
    from .congruence import pair_collision_count
    rng = random.Random(PAIR_COLLISION_SEED)
    worst = 0.0
    q = 10007
    for _ in range(3000):
        n = rng.randint(2, 60)
        u_cap = max(2, min(60, q // n))
        u2 = rng.randint(2, u_cap)
        u1 = rng.randint(1, u2 - 1)
        m = rng.randint(-q, q)
        j = pair_collision_count(u1, u2, m, n, q)
        worst = max(worst, (j - 1) * u2 / (n * math.gcd(u1, u2)))
    return worst


def measure_holder_c0_standin() -> float:
    """Re-measure the inductive-step constant stand-in over criterion-4 cells."""
    from .acceptance import holder_cells
    from .bounds import bound_value, holder_chain
    from .chars import build_modulus
    worst = -math.inf
    for q, r, n, m_values in holder_cells():
        chi = build_modulus(q).legendre()
        refined = bound_value("refined_14r", n, q, r=r)
        for m in m_values:
            rep = holder_chain(chi, m, n, r)
            worst = max(worst, rep.W / (rep.rough_count * rep.params.V)
                        / refined)
    return worst
