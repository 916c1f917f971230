"""Rough numbers, primorials and the Mertens product.

The z-rough set over [1, U] is the set of integers with no prime factor
below z, equivalently coprime to the primorial of z.  Membership is decided
through a smallest-prime-factor table rather than big-integer gcds, which
makes the test O(1) per candidate and the enumeration O(U).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import GuardViolated, LimitTooLarge

DEFAULT_SPF_LIMIT = 1 << 27

# Exact rationals are kept while the product has few factors.
EXACT_MERTENS_MAX_W = 100.0


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
    """Sieve the smallest-prime-factor table up to limit."""
    if limit < 2:
        raise LimitTooLarge(f"limit {limit} below the smallest sieve domain")
    if limit > DEFAULT_SPF_LIMIT:
        raise LimitTooLarge(f"limit {limit} above cap {DEFAULT_SPF_LIMIT}")
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p::p]
            sl[sl == 0] = p
    rest = spf[2:] == 0  # untouched entries are primes > sqrt(limit)
    spf[2:][rest] = np.arange(2, limit + 1, dtype=np.int64)[rest]
    return SpfTable(limit=limit, spf=spf)


def primes_below(z: float) -> list[int]:
    """All primes p < z, the canonical factored form of the primorial."""
    if z <= 2:
        return []
    hi = math.ceil(z) - 1 if float(z).is_integer() else math.floor(z)
    n = np.arange(2, hi + 1, dtype=np.int64)
    return n[build_spf(hi).spf[2:] == n].tolist()  # a prime is its own spf


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, by one sieve of the segment [lo, hi]
    with the primes up to sqrt(hi); memory is one byte per member."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    keep = np.ones(hi - lo + 1, dtype=bool)
    for p in primes_below(math.isqrt(hi) + 1):
        keep[max(p * p, -(-lo // p) * p) - lo::p] = False
    return (np.flatnonzero(keep) + lo).tolist()


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
    """The z-rough set over [1, U] by a single pass over the spf table."""
    if z <= 1:
        raise ValueError("sieve level z must be > 1")
    if U < 1:
        raise ValueError("U must be >= 1")
    keep = build_spf(max(U, 2)).spf[1: U + 1] >= z
    keep[0] = True  # n = 1 is coprime to everything
    members = np.flatnonzero(keep).astype(np.int64) + 1
    return RoughSet(z=float(z), U=U, members=members)


def count_rough_divisible(z: float, U: int, t: int,
                          rough: RoughSet | None = None) -> int:
    """How many members of the z-rough set over [1, U] are divisible by t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if rough is None:
        rough = enumerate_rough(z, U)
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
