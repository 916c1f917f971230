"""Desk-scale experiments on short multiplicative character sums.

Exact character algebra over a prime modulus, z-rough shift sets, collision
counting, complete moment sums against their bound, and the averaging
inequality chain, all with brute-force oracles and a reproducible CLI.
"""

from .bounds import (
    BoundReport,
    BurgessParams,
    HolderChainReport,
    ScanResult,
    bound_value,
    derive_params,
    extremal_scan,
    feasible_params,
    holder_chain,
    least_nonresidue,
    nonresidue_max_gap,
    pv_ratio_scan,
)
from .chars import (
    CharValue,
    Character,
    PrefixTable,
    PrimeModulus,
    build_modulus,
    find_primitive_root,
    interval_sum,
    is_prime,
    prefix_table,
    window_sum,
)
from .congruence import (
    CollisionDistribution,
    CollisionInstance,
    CongruenceReport,
    brute_force_congruence_count,
    collision_distribution,
    congruence_count,
    pair_collision_count,
)
from .errors import (
    BurgessError,
    CompositeModulus,
    DegenerateParams,
    GuardViolated,
    InstanceTooLarge,
    LimitTooLarge,
    TableLimitExceeded,
    TrivialCharacter,
    UnknownVariant,
    WindowTooLarge,
)
from .moments import MomentReport, moment_check, moment_sum, weil_bound
from .sieve import (
    MertensValue,
    RoughSet,
    SpfTable,
    build_spf,
    count_rough_divisible,
    enumerate_rough,
    mertens_product,
    primes_below,
    primorial,
    rough_density_ratio,
)

__version__ = "0.1.0"
