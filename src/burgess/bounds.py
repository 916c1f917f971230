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
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import numpy as np

from .chars import (
    GATHER,
    Character,
    build_modulus,
    certify_modulus,
    check_table_size,
    is_prime,
    lattice_norm,
    legendre_value_array,
    mark_squares,
    square_buffers,
    window_sum,
)
from .congruence import CollisionInstance, collision_distribution
from .errors import DegenerateParams, UnknownVariant
from .moments import auto_window, leq, moment_sum
from .sieve import check_limit, enumerate_rough, primes_below

VARIANTS = ("polya_vinogradov", "grh", "mv_loglog", "burgess_classic",
            "ik_1r", "ik_12r", "refined_14r")
# The r-dependent variants from the sharpest shape value to the weakest; at
# every (N, q, r) their shape values ascend in this order.
REFINEMENT_ORDER = ("refined_14r", "ik_12r", "ik_1r", "burgess_classic")

GRH_DELTA_DEFAULT = 0.05  # computable stand-in for the o(1) exponent


def iroot(n: int, k: int) -> int:
    """Largest integer x with x^k <= n (n >= 0, k >= 1), exact for any n.

    A float seed x from the top 64 bits of n (_root_seed) is within
    x 2^-27 + 1/2 of the real root while n has fewer than 2^26 bits, so
    below 2^26 the root is x or x - 1, told apart by one check x^k <= n.
    A larger seed is raised by x 2^-24 + 1 above the root (doubled while
    the check still holds, which only an n of 2^26 bits or more needs),
    and integer Newton steps, each below the last, fall from there to the
    root in O(log bits) steps.  Each check is _pow_leq, so it takes an
    exact power only where x^k and n are within about a bit."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < 2 or k == 1:
        return n
    x = _root_seed(n, k)
    if x < 1 << 26:
        return x if _pow_leq(x, k, n, 1) else x - 1
    x += (x >> 24) + 1
    while _pow_leq(x, k, n, 1):
        x *= 2
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def _root_seed(n: int, k: int) -> int:
    """n^(1/k) rounded, to double precision, for n >= 2 and k >= 2: from
    log2 n read off the top 64 bits of n, and 2^x taken as 2^(x - s) << s
    with x - s <= 52, so no float overflows whatever the size of n."""
    e = max(n.bit_length() - 64, 0)
    x = (math.log2(n >> e) + e) / k
    s = max(int(x) - 52, 0)
    return round(2.0 ** (x - s)) << s


def _pow_leq(a: int, i: int, b: int, j: int, c: int = 1, d: int = 1
             ) -> bool:
    """a^i c <= b^j d for a, b, c, d >= 1 and i, j >= 0, exactly: from the
    bit counts i log2 a + log2 c and j log2 b + log2 d where they are more
    than a bit apart, with a margin of 2^-30 of their size far above the
    float error; else from decimal logs (_log_leq) where the exact products
    would have more bits than the square of the logs' digits; else, and
    where the logs cannot tell, from exact products."""
    lhs = i * math.log2(a) + math.log2(c)
    rhs = j * math.log2(b) + math.log2(d)
    if abs(lhs - rhs) > 1 + max(lhs, rhs) / (1 << 30):
        return lhs < rhs
    prec = _log_digits(a, b, c, d)
    if prec * prec < max(lhs, rhs):
        leq = _log_leq(prec, a, i, b, j, c, d)
        if leq is not None:
            return leq
    return a ** i * c <= b ** j * d


def _log_digits(*n: int) -> int:
    """The decimal digits at which _log_leq takes the logs of n: those of
    the largest, plus 30.  Beside a root x, where the logs of x^k and
    (x+1)^k lie about k/x apart, the error bound, about 2k ln x
    10^(1-prec), is then about 10^-28 ln x of that gap, so only a root
    within about that of an integer is left to exact powers."""
    return 30 + math.ceil(max(n).bit_length() * math.log10(2))


def _log_leq(prec: int, a: int, i: int, b: int, j: int, c: int, d: int
             ) -> bool | None:
    """a^i c <= b^j d from L = i ln a + ln c and R = j ln b + ln d taken in
    decimal to prec digits, or None where the error bound cannot tell.
    ln is correctly rounded, as is each product, sum and the difference
    L - R, each within u = 5 10^-prec of its size, so the computed L - R is
    off by at most (3.01 L + 3.01 R + |L - R|) u < 10^(1-prec) (L + R)."""
    ctx = Context(prec=prec, rounding=ROUND_HALF_EVEN)
    lhs = ctx.add(ctx.multiply(i, ctx.ln(a)), ctx.ln(c))
    rhs = ctx.add(ctx.multiply(j, ctx.ln(b)), ctx.ln(d))
    diff = ctx.subtract(lhs, rhs)
    if abs(diff) <= ctx.multiply(ctx.add(lhs, rhs), Decimal(1).scaleb(1 - prec)):
        return None
    return diff < 0


def scaled_root(b: int, k: int, num: int, den: int = 1) -> int:
    """floor(b (num/den)^(1/k)) for b, num, den >= 1 and k >= 1, exactly:
    the largest x >= 0 with x^k den <= b^k num.  The root is walked to
    from a seed, each step decided by _pow_leq, so b^k is built only where
    the two sides are within the logs' error bound.  A root below 2^26
    seeds from floats; a larger one from decimal logs (_log_digits) where
    b^k num has more bits than the square of their digits, and is else
    iroot's of b^k num // den, which is then the shorter."""
    t = math.log2(b) + (math.log2(num) - math.log2(den)) / k
    if t < 26:
        x = round(2 ** t)
    else:
        prec = _log_digits(b, num, den)
        if prec * prec >= k * math.log2(b) + math.log2(num):
            return iroot(b ** k * num // den, k)
        ctx = Context(prec=prec, rounding=ROUND_HALF_EVEN)
        x = int(ctx.multiply(b, ctx.exp(ctx.divide(
            ctx.subtract(ctx.ln(num), ctx.ln(den)), k))))
    while x and not _pow_leq(x, k, b, k, den, num):
        x -= 1
    while _pow_leq(x + 1, k, b, k, den, num):
        x += 1
    return x


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
        degenerate=U < 2, in_refined_range=_pow_leq(N, 4 * r, q, 2 * r + 1),
        source=source)


def derive_params(N: int, q: int, r: int) -> BurgessParams:
    """Exact floors U = floor(N / (16 r q^{1/2r})), V = floor(r q^{1/2r}).

    Floors are taken with pure integer arithmetic so boundary cases never
    depend on floating-point rounding.  U < 2 is flagged degenerate, not an
    error: sweeps over N must keep going.
    """
    # (16 r U)^{2r} * q <= N^{2r}  <=>  U <= N / (16 r q^{1/2r})
    return _params(N, q, r, "derived",
                   lambda: scaled_root(N, 2 * r, 1, q) // (16 * r))


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
    if not math.isfinite(grh_delta):
        raise ValueError(f"grh_delta must be finite, not {grh_delta}")
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
# The float path's relative slack: W^{2r} <= rhs (1 + 1e-9), exactly.
FLOAT_SLACK = Fraction(1 + 1e-9)


@dataclass
class HolderChainReport:
    """Every quantity in the one-step averaging inequality, plus the verdict.

    W is the doubly averaged absolute window sum; the chain asserts
    W^{2r} <= (sum I)^{2r-2} * (sum I^2) * (moment sum).  path says how the
    verdict was reached, each by moments.leq: on the quadratic path all six
    quantities are integers and W^{2r} <= rhs is exact ("exact").  For
    characters of order 3, 4 and 6 the moment and rhs are exact integers
    and W, a sum of square roots of integer norms, is a float; the chain
    passes as W+^{2r} <= rhs for an upper bound W+ on W (_w_upper,
    "certified"), and else, as for characters of other orders, as
    W^{2r} <= rhs FLOAT_SLACK with W read as its exact rational ("float");
    there a moment past the double range is an exact Fraction
    (moments.moment_sum), and so is rhs.
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
    moment2r: int | float | Fraction
    holder_lhs: int | float
    holder_rhs: int | float | Fraction
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
    # Stages in order: the rough set (one per chi, z, U) and the buckets,
    # so np.unique's sort of the products is not held on top of the table;
    # the table; the complete moment (one per chi, V, r), so its block
    # temporaries are not held beside w, norm and sqrt(norm); then W.
    key = (params.z, params.U)
    if key not in chi.rough:
        chi.rough[key] = enumerate_rough(*key)
    rough = chi.rough[key]
    dist = collision_distribution(
        CollisionInstance(q=q, M=M, N=N, rough=rough))
    table = chi.prefix_for(params.V)
    key = (params.V, r)
    if key not in chi.moments:
        chi.moments[key] = moment_sum(chi, params.V, r).moment
    moment = chi.moments[key]
    w = window_sum(table, dist.lams, params.V)
    # W = sum_lam I(lam) |w(lam)|; a Python int on the rank-1 path so that
    # W^{2r} below is exact
    if table.rank == 1:
        W: int | float = int(lattice_norm(table, w) @ dist.counts)
    elif table.rank == 2:
        norm = lattice_norm(table, w)
        W = _weighted_sum(np.sqrt(norm), dist.counts)
    else:
        W = _weighted_sum(np.abs(w), dist.counts)
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
        passed, path = leq(lhs, rhs), "exact"
    elif (table.rank == 2 and (up := _w_upper(norm, dist.counts)) is not None
          and leq(up ** (2 * r), rhs)):
        passed, path = True, "certified"
    else:
        passed = leq(Fraction(W) ** (2 * r),
                     base * Fraction(moment) * FLOAT_SLACK)
        path = "float"
    return HolderChainReport(
        params=params, char_index=chi.index, M=M, N=N, r=r,
        rough_count=rough.count, W=W, first_moment=dist.first_moment,
        second_moment=dist.second_moment, moment2r=moment,
        holder_lhs=lhs, holder_rhs=rhs, exact=table.rank == 1,
        passed=passed, path=path)


def _weighted_sum(x: np.ndarray, counts: np.ndarray) -> float:
    """sum x c, x scaled in place: a pairwise np.sum on one thread, where a
    float @ would go to threaded BLAS."""
    x *= counts
    return float(x.sum())


def _w_upper(norm: np.ndarray, counts: np.ndarray) -> Fraction | None:
    """The upper bound W+ = sum c ceil(2^k sqrt(norm)) / 2^k >= W, k =
    CERT_BITS, its numerator summed in int64 GATHER norms at a time; None
    where int64 would not hold it."""
    k = CERT_BITS
    top = int(norm.max(initial=0))
    if top >= 1 << (62 - 2 * k):
        return None
    top <<= 2 * k
    top = math.isqrt(top - 1) + 1 if top else 0  # the largest ceil below
    if int(counts.sum(dtype=np.int64)) * top >= 1 << 63:
        return None
    total = 0
    for lo in range(0, norm.size, GATHER):
        # below 2^62, so every square below stays in int64
        m = norm[lo:lo + GATHER].astype(np.int64) << 2 * k
        x = np.sqrt(m).astype(np.int64)  # floor(sqrt(m)), give or take one
        x -= x * x > m
        x += (x + 1) * (x + 1) <= m
        x += x * x < m  # ceil(sqrt(m))
        total += int(x @ counts[lo:lo + GATHER])
    return Fraction(total, 1 << k)


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


def extremal_scan(q_or_char: int | Character, char_index: int | None,
                  N: int, M_values: list[int], r: int = 2) -> ScanResult:
    """Max |short sum| over the given window starts, with per-bound ratios,
    for a Character (char_index None) or the index char_index mod a prime q.

    One prefix table, kept on the character, serves every window, read in
    one gather (full periods drop out, so only N mod q terms remain); all
    variant ratios are measured against the same scan data.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not M_values:
        raise ValueError("extremal scan needs at least one window start")
    chi = (q_or_char if isinstance(q_or_char, Character)
           else build_modulus(q_or_char).character(char_index))
    q, rem = chi.q, N % chi.q
    if rem:
        # reduced as Python ints, so starts beyond int64 are accepted
        starts = np.array([m % q for m in M_values], dtype=np.int64)
        table = chi.prefix_for(rem)
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
    return ScanResult(q=q, N=N, r=r, char_index=chi.index,
                      windows=len(M_values), max_abs_sum=best,
                      argmax_M=best_m, worst_ratio=ratios)


def max_window_spread(q: int) -> float:
    """Exhaustive max |sum over (M, M+N]| for the quadratic character mod q,
    over every window start and length (_spread)."""
    certify_modulus(q)
    return float(_spread(q, np.zeros((q + 3) // 2, dtype=bool)))


def _spread(q: int, mark: np.ndarray, ramp: np.ndarray | None = None,
            squares: tuple = ()) -> int:
    """max(S) - min(S) over the prefix sums S of the quadratic character
    mod an odd prime q (any window sum is a difference of two once S_q = 0
    folds in wraparound), uncertified.  mark_squares marks the residues r_j
    in [1, h] in mark (all False, of h+2 entries or at least q, and cleared
    again), and the odd ramp 1, 3, ... is built if not given.  S is a +-1 walk on [0, h]: its maximum is
    2j - r_j, its minimum 2j - 1 - r_j or S_h = 2R - h; S_{q-1-k} = -chi(-1)
    S_k (PrefixTable.sign) gives a spread of 2 max(max S, -min S) for q = 1
    (mod 4), max S - min S for q = 3 (mod 4)."""
    h = (q - 1) // 2
    mark_squares(q, mark, True, squares)
    walk = np.flatnonzero(mark[1:h + 1])  # r_j - 1
    mark[:q] = False
    if ramp is None:
        ramp = np.arange(1, 2 * len(walk), 2)
    walk -= ramp[:len(walk)]  # r_j - 2j = -S at each r_j, in place
    hi = -int(walk.min())
    lo = min(-int(walk.max()) - 1, 2 * len(walk) - h)
    return hi - lo if q % 4 == 3 else 2 * max(hi, -lo)


def pv_ratio_scan(limit: int) -> tuple[float, int, list[tuple[int, float]]]:
    """Pólya-Vinogradov sharpness over all odd primes q <= limit.

    Returns (worst ratio, argmax prime, per-prime ratios) where the ratio is
    the exhaustive max |short sum| divided by sqrt(q) log q.  A limit below
    3 (no prime) raises ValueError.  A limit above the sieve cap, then a
    largest prime above the table cap, found by trial division from the
    top, is refused before the sieve runs.  The sieved primes need no
    certificate, and one set of buffers sized for the largest serves all.
    """
    if limit < 3:
        raise ValueError(f"no odd prime q <= {limit} to scan")
    check_limit(limit - 1)  # the numbers primes_below sieves
    top = next(q for q in range(limit, 2, -1) if is_prime(q))
    check_table_size(top)
    primes = primes_below(limit + 1)[1:]  # odd primes: drop 2
    buffers = (np.zeros(top, dtype=bool), np.arange(1, top - 1, 2),
               square_buffers(top))
    ratios = [(q, _spread(q, *buffers) / (math.sqrt(q) * math.log(q)))
              for q in primes]
    worst_q, worst = max(ratios, key=lambda t: t[1])  # the first on a tie
    return worst, worst_q, ratios


def least_nonresidue(q: int) -> int:
    """Smallest n >= 2 that is a quadratic nonresidue mod the odd prime q."""
    certify_modulus(q)
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
