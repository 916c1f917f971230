"""Short-sum bound formulas, the averaging parameter choices, and the
inequality chain that turns a collision distribution plus a complete moment
into a bound on one short sum.

All bound formulas are reported with implied constant 1 ("shape values");
measured constants live in scan results and the recorded baselines, never
asserted against the literature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chars import (
    Character,
    build_modulus,
    lattice_norm,
    legendre_value_array,
    window_sum,
)
from .congruence import CollisionInstance, collision_distribution
from .errors import DegenerateParams, UnknownVariant
from .moments import auto_window, moment_sum
from .sieve import enumerate_rough, primes_below

VARIANTS = ("polya_vinogradov", "grh", "mv_loglog", "burgess_classic",
            "ik_1r", "ik_12r", "refined_14r")
# The r-dependent variants from the sharpest shape value to the weakest; at
# every (N, q, r) their shape values ascend in this order.
REFINEMENT_ORDER = ("refined_14r", "ik_12r", "ik_1r", "burgess_classic")

GRH_DELTA_DEFAULT = 0.05  # computable stand-in for the o(1) exponent


def iroot(n: int, k: int) -> int:
    """Largest integer x with x^k <= n (n >= 0), by bisection in integers
    alone, so exact for any n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    lo, hi = 0, 1 << -(-n.bit_length() // k)  # lo^k <= n < hi^k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass
class BurgessParams:
    """Averaging parameters (U, V, z) for one (N, q, r) configuration.

    source records whether the inductive-step formulas produced them
    ("derived"), or the feasibility fallback did ("fallback"), or the caller
    overrode them ("override").  in_refined_range marks N <= q^{1/2+1/4r},
    the window lengths the refined bound is stated for; longer windows are
    still computed, just labeled.
    """

    N: int
    q: int
    r: int
    U: int
    V: int
    z: float
    degenerate: bool
    in_refined_range: bool
    source: str = "derived"


def _z_from_u(U: int) -> float:
    return math.exp(math.sqrt(math.log(U))) if U >= 2 else 1.0


def _params(N: int, q: int, r: int, source: str, rule) -> BurgessParams:
    """Checks r >= 2 and N >= 1 before U = rule() is taken; V comes from
    auto_window, z = exp(sqrt(log U)) from U."""
    if r < 2:
        raise ValueError("r must be >= 2 for the averaging parameters")
    if N < 1:
        raise ValueError("N must be >= 1")
    U = rule()
    return BurgessParams(
        N=N, q=q, r=r, U=U, V=auto_window(r, q), z=_z_from_u(U),
        degenerate=U < 2, in_refined_range=N ** (4 * r) <= q ** (2 * r + 1),
        source=source)


def derive_params(N: int, q: int, r: int) -> BurgessParams:
    """Exact floors U = floor(N / (16 r q^{1/2r})), V = floor(r q^{1/2r}).

    Floors are taken with pure integer arithmetic so boundary cases never
    depend on floating-point rounding.  U < 2 is flagged degenerate, not an
    error: sweeps over N must keep going.
    """
    # (16 r U)^{2r} * q <= N^{2r}  <=>  U <= N / (16 r q^{1/2r})
    return _params(N, q, r, "derived",
                   lambda: iroot(N ** (2 * r) // q, 2 * r) // (16 * r))


def feasible_params(N: int, q: int, r: int) -> BurgessParams:
    """Largest U obeying U <= N and U*N <= q, with z and V as usual.

    At desk scale the derived U is below 2 for every in-range N (the 16r
    q^{1/2r} divisor only leaves room asymptotically), so verification runs
    use the largest U for which the collision-count hypotheses still hold.
    """
    return _params(N, q, r, "fallback",
                   lambda: min(N, q // N) if N <= q else 0)


def resolve_params(N: int, q: int, r: int,
                   params: BurgessParams | None = None) -> BurgessParams:
    """Derived parameters when viable, feasibility fallback otherwise."""
    if params is not None:
        return params
    derived = derive_params(N, q, r)
    if not derived.degenerate:
        return derived
    return feasible_params(N, q, r)


def bound_value(variant: str, N: int, q: int, r: int | None = None,
                grh_delta: float = GRH_DELTA_DEFAULT) -> float:
    """Shape value (implied constant 1) of one comparison bound; the
    polya_vinogradov, grh and mv_loglog values ignore r."""
    if q < 3:
        raise ValueError("q must be >= 3")
    if variant not in VARIANTS:
        raise UnknownVariant(f"unknown bound variant {variant!r}")
    logq = math.log(q)
    if variant == "polya_vinogradov":
        return math.sqrt(q) * logq
    if variant == "mv_loglog":
        return math.sqrt(q) * math.log(logq)
    if variant == "grh":
        try:
            return math.sqrt(N) * q ** grh_delta
        except OverflowError:  # N past the double range
            return _exp(math.log(N) / 2 + grh_delta * logq)
    if r is None:
        raise ValueError(f"variant {variant} needs r")
    min_r = 1 if variant == "burgess_classic" else 2
    if r < min_r:
        raise ValueError(f"variant {variant} needs r >= {min_r}")
    power = {"burgess_classic": 1.0, "ik_1r": 1 / r,
             "ik_12r": 1 / (2 * r), "refined_14r": 1 / (4 * r)}[variant]
    try:
        core = N ** (1 - 1 / r) * q ** ((r + 1) / (4 * r * r))
    except OverflowError:  # N past the double range
        return _exp((1 - 1 / r) * math.log(N) + (r + 1) / (4 * r * r) * logq
                    + power * math.log(logq))
    return core * logq ** power


def _exp(x: float) -> float:
    """e^x, inf past the double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# Fractional bits of the certificate for W^{2r} <= rhs on the rank-2 path.
CERT_BITS = 20


@dataclass
class HolderChainReport:
    """Every quantity in the one-step averaging inequality, plus the verdict.

    W is the doubly averaged absolute window sum; the chain asserts
    W^{2r} <= (sum I)^{2r-2} * (sum I^2) * (moment sum).  path says how the
    verdict was reached.  On the quadratic path all six quantities are
    integers and the comparison is exact ("exact").  For characters of
    order 3, 4 and 6 the moment and rhs are exact integers and W, a sum of
    square roots of integer norms, is a float; the verdict is certified in
    integers from an upper bound on W ("certified") and falls back to the
    float comparison only when that is inconclusive ("float"), as it always
    does for characters of other orders.
    """

    params: BurgessParams
    char_index: int
    M: int
    N: int
    r: int
    rough_count: int
    W: int | float
    first_moment: int
    second_moment: int
    moment2r: int | float
    holder_lhs: int | float
    holder_rhs: int | float
    exact: bool
    passed: bool
    path: str


def holder_chain(chi: Character, M: int, N: int, r: int,
                 params: BurgessParams | None = None) -> HolderChainReport:
    """Compute W by lambda-collection and verify the chain inequality."""
    q = chi.q
    params = resolve_params(N, q, r, params)
    if params.degenerate:
        raise DegenerateParams(
            f"U={params.U} leaves no room for averaging (N={N}, q={q}, r={r})")
    rough = enumerate_rough(params.z, params.U)
    dist = collision_distribution(
        CollisionInstance(q=q, M=M, N=N, rough=rough))
    table = chi.prefix
    w = window_sum(table, dist.lams, params.V)
    # W = sum_lam I(lam) |w(lam)|; a Python int on the rank-1 path so that
    # W^{2r} below is exact; float sums are a pairwise np.sum on one thread,
    # where a float @ would go to threaded BLAS
    if table.rank == 1:
        W: int | float = int(lattice_norm(table, w) @ dist.counts)
    elif table.rank == 2:
        norm = lattice_norm(table, w)
        W = float((np.sqrt(norm) * dist.counts).sum())
    else:
        W = float((np.abs(w) * dist.counts).sum())
    # the complete moment does not depend on M: one per (chi, V, r)
    key = (params.V, r)
    if key not in chi.moments:
        chi.moments[key] = moment_sum(chi, params.V, r).moment
    moment = chi.moments[key]
    base = dist.first_moment ** (2 * r - 2) * dist.second_moment
    try:
        lhs = W ** (2 * r)
    except OverflowError:  # a float W^{2r} past the double range
        lhs = math.inf
    try:
        rhs = base * moment
    except OverflowError:  # a float moment times an int past the range
        rhs = math.inf
    if table.rank == 1:
        passed, path = lhs <= rhs, "exact"
    elif table.rank == 2 and _certified(norm, dist.counts, r, rhs):
        passed, path = True, "certified"
    else:
        passed, path = _float_leq(W, r, base, moment), "float"
    return HolderChainReport(
        params=params, char_index=chi.index, M=M, N=N, r=r,
        rough_count=rough.count, W=W, first_moment=dist.first_moment,
        second_moment=dist.second_moment, moment2r=moment,
        holder_lhs=lhs, holder_rhs=rhs, exact=table.rank == 1,
        passed=passed, path=path)


def _float_leq(W: float, r: int, base: int, moment: int | float) -> bool:
    """W^{2r} <= base moment (1 + 1e-9) in doubles; where a double would
    overflow (W^{2r}, or an int past the double range), the same comparison
    in exact rationals, an inf float moment admitting any W."""
    try:
        return W ** (2 * r) <= base * moment * (1 + 1e-9)
    except OverflowError:
        if moment == math.inf:
            return True
        return (Fraction(W) ** (2 * r)
                <= base * Fraction(moment) * Fraction(1 + 1e-9))


def _certified(norm: np.ndarray, counts: np.ndarray, r: int,
               rhs: int) -> bool:
    """Whether W^{2r} <= rhs follows, in integers, from the upper bound
    2^k W+ = sum c ceil(2^k sqrt(norm)) >= 2^k W with k = CERT_BITS;
    False when inconclusive, including when int64 would not hold it."""
    k = CERT_BITS
    if norm.size == 0 or int(norm.max()) >= 1 << (62 - 2 * k):
        return False
    m = norm << (2 * k)  # below 2^62, so every square below stays in int64
    x = np.sqrt(m).astype(np.int64)  # floor(sqrt(m)), give or take one
    x -= x * x > m
    x += (x + 1) * (x + 1) <= m
    ceil = x + (x * x < m)
    if int(counts.sum()) * int(ceil.max()) >= 1 << 63:
        return False
    return int(ceil @ counts) ** (2 * r) <= rhs << (2 * r * k)


@dataclass
class ScanResult:
    q: int
    N: int
    r: int
    char_index: int
    windows: int
    max_abs_sum: float
    argmax_M: int
    worst_ratio: dict[str, float]


def extremal_scan(q: int, char_index: int, N: int, M_values: list[int],
                  r: int = 2) -> ScanResult:
    """Max |short sum| over the given window starts, with per-bound ratios.

    One prefix table serves every window, read in one gather (full periods
    drop out, so only N mod q terms remain); all variant ratios are measured
    against the same scan data.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not M_values:
        raise ValueError("extremal scan needs at least one window start")
    mod = build_modulus(q)
    chi = mod.character(char_index)
    rem = N % q
    if rem:
        # reduced as Python ints, so starts beyond int64 are accepted
        starts = np.array([m % q for m in M_values], dtype=np.int64)
        table = chi.prefix
        w = window_sum(table, starts, rem)
        mags = lattice_norm(table, w) if table.exact else np.abs(w)
        i = int(mags.argmax())
        best = (math.sqrt(int(mags[i])) if table.rank == 2
                else float(mags[i]))
    else:
        i, best = 0, 0.0
    best_m = M_values[i]
    ratios = {}
    for variant in VARIANTS:
        b = bound_value(variant, N, q, r=r)
        ratios[variant] = best / b if b > 0 else math.inf
    return ScanResult(q=q, N=N, r=r, char_index=char_index,
                      windows=len(M_values), max_abs_sum=best,
                      argmax_M=best_m, worst_ratio=ratios)


def max_window_spread(q: int) -> float:
    """Exhaustive max |sum over (M, M+N]| for the quadratic character mod q,
    over every window start and length.

    For a real character the prefix sums are integers and the max over all
    windows is just max(S) - min(S), since any window sum is a difference of
    two prefix values once wraparound (S_q = 0) is folded in.  On [0, h]
    S is a +-1 walk read off the residues r_1 < ... < r_R in [1, h] with no
    prefix table: its maximum is 2j - r_j at some residue r_j, its minimum
    2j - 1 - r_j just before one or S_h = 2R - h at the end.  The rest of
    the period is S_{q-1-k} = -chi(-1) S_k (PrefixTable.sign): for q = 1
    (mod 4) the values are +-S_k, whose spread is 2 max(max S, -min S); for
    q = 3 (mod 4) they repeat S_k.
    """
    vals = legendre_value_array(q)
    h = len(vals) - 1
    res = np.flatnonzero(vals > 0)  # r_1 = 1 < ... < r_R
    walk = np.arange(2, 2 * len(res) + 1, 2) - res  # S at each r_j
    hi = int(walk.max())
    lo = min(int(walk.min()) - 1, 2 * len(res) - h)
    return float(hi - lo if q % 4 == 3 else 2 * max(hi, -lo))


def pv_ratio_scan(limit: int) -> tuple[float, int, list[tuple[int, float]]]:
    """Pólya-Vinogradov sharpness over all odd primes q <= limit.

    Returns (worst ratio, argmax prime, per-prime ratios) where the ratio is
    the exhaustive max |short sum| divided by sqrt(q) log q.
    """
    ratios = []
    worst, worst_q = -1.0, 0
    for q in primes_below(limit + 1)[1:]:  # odd primes: drop 2
        ratio = max_window_spread(q) / (math.sqrt(q) * math.log(q))
        ratios.append((q, ratio))
        if ratio > worst:
            worst, worst_q = ratio, q
    return worst, worst_q, ratios


def least_nonresidue(q: int) -> int:
    """Smallest n >= 2 that is a quadratic nonresidue mod the odd prime q."""
    if q < 3 or q % 2 == 0:
        raise ValueError("q must be an odd prime")
    e = (q - 1) // 2
    n = 2
    while pow(n, e, q) == 1:
        n += 1
    return n


def nonresidue_max_gap(q: int) -> tuple[int, int]:
    """Longest run of consecutive n in [1, q-1] avoiding nonresidues, and
    where it starts.  The half value table gives the nonresidues n <= h;
    n > h is one exactly when chi(q-n) = -chi(-1)."""
    vals = legendre_value_array(q)
    h = len(vals) - 1
    low = np.flatnonzero(vals == -1)
    high = q - np.flatnonzero(vals == -(-1) ** h)[::-1]
    edges = np.concatenate([[0], low, high, [q]])
    runs = np.diff(edges) - 1
    best = int(runs.argmax())
    return int(runs[best]), int(edges[best]) + 1
