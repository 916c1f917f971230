"""Primes, rough numbers, primorials and the Mertens product.

Primes are sieved in one place, primes_between: a byte per member of the
segment [lo, hi], struck by the primes up to sqrt(hi), which it lists by
the same sieve.  Everything else reads its primes from it: the primes
below z, the z-rough set over [1, U] (a byte mask of [1, U] struck by the
primes below z, which is how the set is defined), and the
smallest-prime-factor table, which only `burgess sieve --spf` reads.
Each refuses more than SIEVE_LIMIT numbers before allocating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import GuardViolated, LimitTooLarge

SIEVE_LIMIT = 1 << 27

# Exact rationals are kept while the product has few factors.
EXACT_MERTENS_MAX_W = 100.0


def _check_limit(n: int) -> None:
    if n > SIEVE_LIMIT:
        raise LimitTooLarge(f"sieve of {n} numbers above cap {SIEVE_LIMIT}")


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, by one sieve of the segment [lo, hi]
    with the primes up to sqrt(hi), listed by a sieve of [2, sqrt(hi)];
    memory is one byte per member."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    _check_limit(hi - lo + 1)
    keep = np.ones(hi - lo + 1, dtype=bool)
    for p in primes_between(2, math.isqrt(hi)):
        keep[max(p * p, -(-lo // p) * p) - lo::p] = False
    return (np.flatnonzero(keep) + lo).tolist()


def primes_below(z: float) -> list[int]:
    """All primes p < z, the canonical factored form of the primorial; a
    non-finite z is refused."""
    if not math.isfinite(z):
        raise LimitTooLarge(f"sieve level z={z} is not finite")
    return primes_between(2, math.ceil(z) - 1)


@dataclass
class SpfTable:
    """spf[n] = smallest prime factor of n, for n in [2, limit]."""

    limit: int
    spf: np.ndarray

    def smallest_factor(self, n: int) -> int:
        if not 2 <= n <= self.limit:
            raise ValueError(f"{n} outside table range [2, {self.limit}]")
        return int(self.spf[n])


def build_spf(limit: int) -> SpfTable:
    """The smallest-prime-factor table up to limit: each n starts as
    itself, and the primes up to sqrt(limit), largest first, write
    themselves over their multiples from p^2, so the smallest one stays."""
    if limit < 2:
        raise LimitTooLarge(f"limit {limit} below the smallest sieve domain")
    _check_limit(limit)
    spf = np.arange(limit + 1, dtype=np.int64)
    for p in reversed(primes_between(2, math.isqrt(limit))):
        spf[p * p::p] = p
    spf[:2] = 0
    return SpfTable(limit=limit, spf=spf)


def primorial(z: float) -> int:
    """Product of all primes below z (exact big integer; empty product = 1)."""
    return math.prod(primes_below(z))


@dataclass
class MertensValue:
    """prod_{p<w} (1 - 1/p), with an exact rational alongside for small w."""

    w: float
    value: float
    exact: Fraction | None = None


def mertens_product(w: float) -> MertensValue:
    if w < 0:
        raise ValueError("w must be >= 0")
    ps = primes_below(w)
    if w <= EXACT_MERTENS_MAX_W:
        frac = Fraction(1)
        for p in ps:
            frac *= Fraction(p - 1, p)
        return MertensValue(w=float(w), value=float(frac), exact=frac)
    value = 1.0
    for p in ps:
        value *= 1.0 - 1.0 / p
    return MertensValue(w=float(w), value=value)


@dataclass
class RoughSet:
    """Integers in [1, U] coprime to every prime below z, sorted ascending."""

    z: float
    U: int
    members: np.ndarray
    count: int = field(init=False)

    def __post_init__(self):
        self.count = int(len(self.members))

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(int(u) for u in self.members)


def enumerate_rough(z: float, U: int) -> RoughSet:
    """The z-rough set over [1, U]: strike the multiples of each prime
    below z from a mask of [1, U]; primes above U divide no member."""
    if z <= 1:
        raise ValueError("sieve level z must be > 1")
    if U < 1:
        raise ValueError("U must be >= 1")
    _check_limit(U)
    keep = np.ones(U, dtype=bool)  # keep[i] is n = i + 1
    for p in primes_below(min(z, U + 1)):
        keep[p - 1::p] = False
    members = np.flatnonzero(keep).astype(np.int64) + 1
    return RoughSet(z=float(z), U=U, members=members)


def count_rough_divisible(rough: RoughSet, t: int) -> int:
    """How many members of the rough set are divisible by t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return int(np.count_nonzero(rough.members % t == 0))


def rough_density_ratio(z: float, U: int, C: float = 10.0) -> float:
    """|rough set| * log z / U, the measured constant of the cardinality law.

    Guarded by z^C <= U so the reading is taken where the sieve has room;
    the law's own threshold constant is not pinned down, so C is exposed.
    """
    if z <= 1:
        raise ValueError("sieve level z must be > 1")
    try:
        violated = z ** C > U
    except OverflowError:
        violated = True
    if violated:
        raise GuardViolated(f"z^{C:g} exceeds U = {U}")
    rough = enumerate_rough(z, U)
    return rough.count * math.log(z) / U
