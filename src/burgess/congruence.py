"""Collision distributions and congruence collision counts.

For a window (M, M+N] and a rough set of shift multipliers, I(lam) counts
the pairs (n, u) with n = lam * u (mod q).  Its first moment is N times the
rough-set size, and its second moment equals the number of solutions of
n1*u1 = n2*u2 (mod q) over the same ranges (swap u1 and u2 to see the two
counts agree pair for pair).  Everything is exact integer arithmetic; the
brute-force oracle is a literal quadruple loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InstanceTooLarge
from .chars import is_prime, reduce_mod, window_residues
from .sieve import RoughSet

BRUTE_FORCE_GUARD = 10_000
# Products of two residues below q stay inside int64 while q <= this.
MAX_INT64_Q = math.isqrt(2 ** 63 - 1)  # 3,037,000,499


def _check_int64_q(q: int) -> None:
    if q > MAX_INT64_Q:
        raise InstanceTooLarge(
            f"q={q} above {MAX_INT64_Q}: residue products overflow int64")


@dataclass
class CollisionInstance:
    """One congruence-count configuration (q, window, rough multipliers).

    The collision-bound hypotheses (U <= N, U*N <= q, 1 < z <= U^A) are
    recorded, not enforced: out-of-hypothesis instances are computed but
    labeled, since probing sharpness outside that range is a primary use of
    the tool.
    """

    q: int
    M: int
    N: int
    rough: RoughSet
    A: float = 0.1
    hypotheses: dict[str, bool] = field(init=False)

    def __post_init__(self):
        _check_int64_q(self.q)
        if not is_prime(self.q):
            raise ValueError(f"q={self.q} is not prime")
        if self.N < 0:
            raise ValueError("N must be >= 0")
        z, U = self.rough.z, self.rough.U
        self.hypotheses = {
            "U_le_N": U <= self.N,
            "UN_le_q": U * self.N <= self.q,
            "z_in_range": 1 < z <= U ** self.A if U >= 1 else False,
        }

    @property
    def in_hypothesis(self) -> bool:
        return all(self.hypotheses.values())


@dataclass
class CollisionDistribution:
    """I(lam) as parallel arrays: the distinct buckets lams, ascending, in
    int32 (int64 for q > 2^31), and int64 counts[i] = I(lams[i]) > 0."""

    lams: np.ndarray
    counts: np.ndarray
    first_moment: int
    second_moment: int


def collision_distribution(inst: CollisionInstance) -> CollisionDistribution:
    """Bucket lam = n * u^{-1} (mod q) over the window and the rough set.

    The products (below q^2, inside int64 as q <= MAX_INT64_Q) are reduced
    in one step and sorted in lams' dtype."""
    q, M, N = inst.q, inst.M, inst.N
    members = inst.rough.members
    bad = members[members % q == 0]
    if bad.size:
        raise ValueError(f"multiplier {int(bad[0])} not invertible mod {q}")
    inverses = np.array([pow(int(u), -1, q) for u in members], dtype=np.int64)
    residues = window_residues(M, N, q)
    grid = reduce_mod(inverses[:, None] * residues, q).astype(
        np.int32 if q <= 1 << 31 else np.int64, copy=False)
    lams, counts = np.unique(grid, return_counts=True)
    return CollisionDistribution(
        lams=lams, counts=counts, first_moment=int(counts.sum()),
        second_moment=int(counts @ counts))


@dataclass
class CongruenceReport:
    """The collision distribution's first moment (N times the rough-set
    size) and second moment I_value, the exact collision count."""

    first_moment: int
    I_value: int
    diagonal: int
    bound: float
    ratio: float
    in_hypothesis: bool


def collision_count_bound(N: int, rough_count: int, U: int, z: float) -> float:
    """Shape value N * |rough| * (1 + log U / (log z)^2), implied constant 1."""
    if U < 1 or z <= 1:
        return math.inf
    return N * rough_count * (1.0 + math.log(U) / math.log(z) ** 2)


def congruence_count(inst: CollisionInstance) -> CongruenceReport:
    """Exact collision count as the second moment of the bucket distribution."""
    dist = collision_distribution(inst)
    diagonal = inst.N * inst.rough.count
    bound = collision_count_bound(inst.N, inst.rough.count,
                                  inst.rough.U, inst.rough.z)
    ratio = dist.second_moment / bound if bound not in (0, math.inf) else 0.0
    return CongruenceReport(first_moment=dist.first_moment,
                            I_value=dist.second_moment,
                            diagonal=diagonal, bound=bound, ratio=ratio,
                            in_hypothesis=inst.in_hypothesis)


def brute_force_congruence_count(inst: CollisionInstance) -> int:
    """Literal quadruple loop counting n1*u1 = n2*u2 (mod q); the oracle."""
    q, M, N = inst.q, inst.M, inst.N
    members = [int(u) for u in inst.rough]
    if N * len(members) > BRUTE_FORCE_GUARD:
        raise InstanceTooLarge(
            f"N*|rough| = {N * len(members)} above guard {BRUTE_FORCE_GUARD}")
    total = 0
    for n1 in range(M + 1, M + N + 1):
        for u1 in members:
            a = (n1 * u1) % q
            for n2 in range(M + 1, M + N + 1):
                for u2 in members:
                    if (n2 * u2) % q == a:
                        total += 1
    return total


def pair_collision_count(u1: int, u2: int, M: int, N: int, q: int) -> int:
    """Count pairs (n1, n2) in (M, M+N]^2 with n1*u1 = n2*u2 (mod q)."""
    _check_int64_q(q)
    if u1 < 1 or u2 < 1:
        raise ValueError("multipliers must be >= 1")
    if u1 % q == 0 or u2 % q == 0:
        raise ValueError("multipliers must be invertible mod q")
    if N <= 0:
        return 0
    k = (u1 % q) * pow(u2 % q, -1, q) % q
    n1 = window_residues(M, N, q)
    c = n1 * k % q
    # integers n2 = c (mod q) with M < n2 <= M+N: M+1+o, M+1+o+q, ...
    o = (c - n1[0]) % q
    cnt = (N - 1 - o) // q + 1
    return int(cnt.sum())
