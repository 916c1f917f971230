"""Multiplicative characters modulo a prime, with an exact value algebra.

A character is addressed by its index m against the smallest primitive root
g of q: the index-m character maps g^k to e(mk/(q-1)).  Values are kept as
exact fractions a/(q-1) of a full turn, so multiplicativity and order
identities are integer statements; floating point enters only when sums are
accumulated.  Quadratic (Legendre) characters additionally get an exact
integer summation path, which makes every inequality involving them
checkable with zero tolerance.

Everything here is immutable after construction and safe to share across
threads; sums and window reads are pure.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CompositeModulus,
    TableLimitExceeded,
    TrivialCharacter,
    WindowTooLarge,
)

DEFAULT_TABLE_LIMIT = 1 << 26


def table_limit() -> int:
    """Discrete-log table cap; BURGESS_TABLE_LIMIT overrides the default."""
    raw = os.environ.get("BURGESS_TABLE_LIMIT")
    return int(raw) if raw else DEFAULT_TABLE_LIMIT


def is_prime(n: int) -> bool:
    """Deterministic trial division up to sqrt(n)."""
    if n < 2:
        return False
    for p in (2, 3):
        if n % p == 0:
            return n == p
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, p -> exponent."""
    out: dict[int, int] = {}
    while n % 2 == 0:
        out[2] = out.get(2, 0) + 1
        n //= 2
    p = 3
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def find_primitive_root(q: int) -> int:
    """Smallest generator of the multiplicative group mod prime q."""
    if not is_prime(q):
        raise CompositeModulus(f"{q} is not prime")
    if q == 2:
        return 1
    phi = q - 1
    prime_divisors = list(factorize(phi))
    for g in range(2, q):
        if all(pow(g, phi // p, q) != 1 for p in prime_divisors):
            return g
    raise AssertionError("no primitive root found; q cannot be prime")


def _dlog_table(q: int, g: int) -> np.ndarray:
    """dlog[n] = k with g^k = n (mod q), built in O(q) by blocked powers."""
    dlog = np.full(q, -1, dtype=np.int64)
    block = min(q - 1, 1 << 13)
    base = np.empty(block, dtype=np.int64)
    x = 1
    for k in range(block):
        base[k] = x
        x = (x * g) % q
    step = x  # g^block
    cur = 1
    pos = 0
    while pos < q - 1:
        cnt = min(block, q - 1 - pos)
        # cur, base < q <= 2^26 so the product stays inside int64
        powers = (cur * base[:cnt]) % q
        dlog[powers] = np.arange(pos, pos + cnt, dtype=np.int64)
        cur = (cur * step) % q
        pos += cnt
    return dlog


@dataclass
class PrimeModulus:
    """A prime q with its smallest primitive root and full dlog table."""

    q: int
    g: int
    dlog: np.ndarray

    def dlog_of(self, n: int) -> int:
        n %= self.q
        if n == 0:
            raise ValueError(f"{n} is divisible by {self.q}")
        return int(self.dlog[n])

    def character(self, index: int) -> "Character":
        return Character(self, index % (self.q - 1))

    def legendre(self) -> "Character":
        if self.q == 2:
            raise ValueError("no quadratic character mod 2")
        return Character(self, (self.q - 1) // 2)

    def __repr__(self) -> str:  # keep reprs short; the table is large
        return f"PrimeModulus(q={self.q}, g={self.g})"


def build_modulus(q: int, limit: int | None = None) -> PrimeModulus:
    """Construct the evaluation backbone for all characters mod q.

    Certifies primality, finds the smallest primitive root, fills the dlog
    table and verifies it is a bijection [1, q-1] -> [0, q-2].
    """
    if q < 3:
        raise ValueError("modulus must be a prime >= 3")
    if not is_prime(q):
        raise CompositeModulus(f"{q} is not prime")
    cap = table_limit() if limit is None else limit
    if q > cap:
        raise TableLimitExceeded(f"q={q} exceeds table limit {cap}")
    g = find_primitive_root(q)
    dlog = _dlog_table(q, g)
    if int(dlog[1:].min()) < 0:
        raise AssertionError("dlog table not surjective; g is not primitive")
    if int(dlog[1]) != 0 or int(dlog[g]) != 1:
        raise AssertionError("dlog table anchors wrong")
    return PrimeModulus(q=q, g=g, dlog=dlog)


@dataclass(frozen=True)
class CharValue:
    """A character value: zero, or the root of unity e(num/den).

    den is always q-1.  num is None exactly when the argument was divisible
    by q.
    """

    num: int | None
    den: int

    @property
    def is_zero(self) -> bool:
        return self.num is None

    def as_complex(self) -> complex:
        if self.num is None:
            return 0j
        return complex(math.cos(2 * math.pi * self.num / self.den),
                       math.sin(2 * math.pi * self.num / self.den))

    def as_int(self) -> int:
        """Exact {-1, 0, +1} projection; defined only for real values."""
        if self.num is None:
            return 0
        if self.num == 0:
            return 1
        if 2 * self.num == self.den:
            return -1
        raise ValueError(f"value e({self.num}/{self.den}) is not real")


@dataclass(frozen=True)
class ComplexSum:
    """A character sum; exact_int is present on the quadratic path."""

    re: float
    im: float
    exact_int: int | None = None

    def abs(self) -> float:
        return math.hypot(self.re, self.im)

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


class Character:
    """The index-m character mod q: g^k -> e(mk/(q-1))."""

    def __init__(self, modulus: PrimeModulus, index: int):
        q = modulus.q
        if not 0 <= index <= q - 2:
            raise ValueError(f"index {index} outside [0, {q - 2}]")
        self.modulus = modulus
        self.index = index

    @property
    def q(self) -> int:
        return self.modulus.q

    @property
    def order(self) -> int:
        return (self.q - 1) // math.gcd(self.index, self.q - 1)

    @property
    def is_trivial(self) -> bool:
        return self.index == 0

    @property
    def is_quadratic(self) -> bool:
        return self.q > 2 and self.index == (self.q - 1) // 2

    @property
    def is_real(self) -> bool:
        return self.order <= 2

    def conjugate(self) -> "Character":
        return Character(self.modulus, (-self.index) % (self.q - 1))

    def value(self, n: int) -> CharValue:
        q = self.q
        n %= q
        if n == 0:
            return CharValue(None, q - 1)
        num = (self.index * int(self.modulus.dlog[n])) % (q - 1)
        return CharValue(num, q - 1)

    def __call__(self, n: int) -> CharValue:
        return self.value(n)

    @cached_property
    def fractions(self) -> np.ndarray:
        """frac[n] = num of chi(n) for n in [1, q-1]; frac[0] = -1 sentinel."""
        frac = (self.index * self.modulus.dlog) % (self.q - 1)
        frac[0] = -1
        return frac

    @cached_property
    def values_int(self) -> np.ndarray:
        """Exact {-1, 0, 1} value table; only for real characters."""
        if not self.is_real:
            raise ValueError("integer values exist only for real characters")
        if not self.is_trivial:
            return legendre_value_array(self.q)
        vals = np.ones(self.q, dtype=np.int8)
        vals[0] = 0
        return vals

    @cached_property
    def values_complex(self) -> np.ndarray:
        frac = self.fractions.astype(np.float64)
        vals = np.exp(2j * np.pi * frac / (self.q - 1))
        vals[0] = 0j
        return vals

    @cached_property
    def prefix(self) -> "PrefixTable":
        return prefix_table(self)

    def __repr__(self) -> str:
        return f"Character(q={self.q}, m={self.index}, order={self.order})"


class PrefixTable:
    """Cumulative sums S_k = sum_{n<=k} chi(n) for k in [0, q].

    Exact int64 for quadratic characters, complex128 otherwise.  S_q = 0 for
    every nontrivial character, which is what lets window sums wrap around
    the period with at most two table lookups.
    """

    def __init__(self, chi: Character, sums: np.ndarray, exact: bool):
        self.chi = chi
        self.sums = sums
        self.exact = exact

    @property
    def q(self) -> int:
        return self.chi.q


def prefix_sums(vals: np.ndarray) -> np.ndarray:
    """S_k = sum_{1<=n<=k} vals[n] for k in [0, q], where vals[0] = chi(q).

    S_q = S_{q-1} because chi(q) = 0.  Integer value tables give exact int64
    sums, whose S_q must vanish by orthogonality; complex tables give
    complex128 sums.
    """
    q = len(vals)
    exact = vals.dtype.kind == "i"
    sums = np.empty(q + 1, dtype=np.int64 if exact else np.complex128)
    sums[0] = 0
    np.cumsum(vals[1:], dtype=sums.dtype, out=sums[1:q])
    sums[q] = sums[q - 1]
    if exact:
        assert sums[q] == 0
    return sums


def prefix_table(chi: Character) -> PrefixTable:
    if chi.is_trivial:
        raise TrivialCharacter("prefix table requires a nontrivial character")
    if chi.is_quadratic:
        return PrefixTable(chi, prefix_sums(chi.values_int), exact=True)
    return PrefixTable(chi, prefix_sums(chi.values_complex), exact=False)


def _check_window(q: int, v: int) -> None:
    if v > q:
        raise WindowTooLarge(f"V={v} exceeds q={q}")
    if v < 1:
        raise ValueError("window length must be >= 1")


def window_sum(table: PrefixTable, lam, v: int):
    """sum_{1<=j<=v} chi(lam + j) for an int or an int64 array of starts.

    Each start is reduced to a in [1, q], the starts window_array covers, so
    both read the same prefix entries and agree bit for bit; a window that
    runs past q wraps with a second prefix read, S_{a+v-q} - S_a + S_q.
    Returns int64 on the exact path and complex128 otherwise, shaped like
    lam.
    """
    q = table.q
    _check_window(q, v)
    s = table.sums
    a = (lam - 1) % q + 1
    hi = a + v
    wrap = hi > q
    return s[hi - q * wrap] - s[a] + s[q] * wrap


def window_array(table: PrefixTable, v: int) -> np.ndarray:
    """window_sum over every start lam in [1, q], from two slice differences:
    starts up to q - v read S_{lam+v} - S_lam, the rest wrap past q."""
    q = table.q
    _check_window(q, v)
    s = table.sums
    w = np.empty(q, dtype=s.dtype)
    np.subtract(s[1 + v:], s[1:q + 1 - v], out=w[:q - v])
    np.subtract(s[1:v + 1], s[q + 1 - v:], out=w[q - v:])
    w[q - v:] += s[q]
    return w


def interval_sum(chi: Character, m: int, n: int) -> ComplexSum:
    """sum_{m < k <= m+n} chi(k); exact integer accumulation when real."""
    if n < 0:
        raise ValueError("interval length must be >= 0")
    q = chi.q
    rem = n % q
    if chi.is_trivial:
        # principal character: count integers in the range coprime to q
        count = n - ((m + n) // q - m // q)
        return ComplexSum(re=float(count), im=0.0,
                          exact_int=count if chi.is_real else None)
    if chi.is_quadratic:
        total = 0  # full periods vanish by orthogonality
        if rem:
            idx = (m + 1 + np.arange(rem, dtype=np.int64)) % q
            total = int(chi.values_int[idx].astype(np.int64).sum())
        return ComplexSum(re=float(total), im=0.0, exact_int=total)
    total = 0j
    if rem:
        idx = (m + 1 + np.arange(rem, dtype=np.int64)) % q
        total = complex(chi.values_complex[idx].sum())
    return ComplexSum(re=total.real, im=total.imag)


def legendre_value_array(q: int) -> np.ndarray:
    """Quadratic-character value table from the squares sieve, no dlog needed.

    The only source of the quadratic value table: Character.values_int of the
    Legendre character reads it, and whole-prime scans use it without
    building a primitive-root table.
    """
    if q < 3 or not is_prime(q):
        raise CompositeModulus(f"{q} is not an odd prime")
    vals = np.full(q, -1, dtype=np.int8)
    vals[0] = 0
    k = np.arange(1, (q - 1) // 2 + 1, dtype=np.int64)
    vals[(k * k) % q] = 1
    return vals
