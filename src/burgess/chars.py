"""Multiplicative characters modulo a prime, with an exact value algebra.

A character is addressed by its index m against the smallest primitive root
g of q: the index-m character maps g^k to e(mk/(q-1)).  A character of order
d takes only d values, kept as exact fractions c/d of a full turn (c in
[0, d)), so multiplicativity and order identities are integer statements;
floating point enters only when sums are accumulated.  Quadratic (Legendre)
characters additionally get an exact integer summation path, which makes
every inequality involving them checkable with zero tolerance.

A modulus holds no table: its class table c(n) = dlog(n) mod d (d = q-1
gives the full discrete log) is rebuilt and checked on every read.  Single
values come from the order-d Euler criterion and the quadratic value table
from the squares, so neither builds one.  A complex value table gathers d
roots of unity by the class table; interval_sum evaluates the same root
formula on the interval's classes alone, returning a Python int on the real
path and a complex number otherwise, as window_sum does.  A character caches
only its prefix table and its complete moments (one scalar per (V, r)); a
prefix table holds no reference to its character, so both are freed with
the character's last reference.
"""
from __future__ import annotations

import math
import os
from collections.abc import Iterator
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
# Below 2^31 the int64 products cur * base (_power_blocks) and k * k
# (legendre_value_array) cannot overflow, and every class fits in int32.
TABLE_CEILING = 1 << 31


def check_table_size(q: int) -> None:
    """Refuse a q-sized table above the cap before it is allocated.

    BURGESS_TABLE_LIMIT overrides the default cap; an override at or above
    the ceiling is refused too.
    """
    raw = os.environ.get("BURGESS_TABLE_LIMIT")
    limit = int(raw) if raw else DEFAULT_TABLE_LIMIT
    if limit >= TABLE_CEILING:
        raise TableLimitExceeded(
            f"table limit {limit} not below the ceiling 2^31")
    if q > limit:
        raise TableLimitExceeded(f"q={q} exceeds table limit {limit}")


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


def _power_blocks(base: int, count: int, q: int
                  ) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (pos, powers) with powers[j] = base^(pos + j) mod q, int64
    blocks covering the exponents [0, count) in order."""
    block = min(count, 1 << 13)
    first = np.ones(block, dtype=np.int64)
    k, x = 1, base % q  # first[:k] holds base^0 .. base^(k-1); x = base^k
    while k < block:  # doubling; every factor is below q < 2^31
        n = min(k, block - k)
        first[k:k + n] = (first[:n] * x) % q
        k, x = k + n, (x * x) % q
    step, cur = pow(base, block, q), 1
    for pos in range(0, count, block):
        yield pos, (cur * first[:count - pos]) % q
        cur = (cur * step) % q


@dataclass
class PrimeModulus:
    """A prime q with its smallest primitive root g."""

    q: int
    g: int

    def classes(self, d: int) -> np.ndarray:
        """c[n] = dlog(n) mod d for n in [1, q-1], c[0] = -1, for d | q-1, in
        the smallest signed dtype holding -d; every build checks that each
        residue is reached (g is primitive) and c[1] = 0, c[g] = 1 mod d."""
        q, g = self.q, self.g
        c = np.full(q, -1, dtype=np.min_scalar_type(-d))
        for pos, powers in _power_blocks(g, q - 1, q):
            k = np.arange(pos, pos + len(powers), dtype=np.int32)
            c[powers] = k if pos + len(powers) <= d else k % d
        if int(c[1:].min()) < 0:
            raise AssertionError("class table not surjective; g is not primitive")
        if int(c[1]) != 0 or int(c[g]) != 1 % d:
            raise AssertionError("class table anchors wrong")
        return c

    def character(self, index: int) -> "Character":
        return Character(self, index % (self.q - 1))

    def legendre(self) -> "Character":
        if self.q == 2:
            raise ValueError("no quadratic character mod 2")
        return Character(self, (self.q - 1) // 2)


def build_modulus(q: int) -> PrimeModulus:
    """Construct the evaluation backbone for all characters mod q.

    Certifies primality, checks the table cap and finds the smallest
    primitive root; class tables are built by each read.
    """
    if q < 3:
        raise ValueError("modulus must be a prime >= 3")
    if not is_prime(q):
        raise CompositeModulus(f"{q} is not prime")
    check_table_size(q)
    return PrimeModulus(q=q, g=find_primitive_root(q))


@dataclass(frozen=True)
class CharValue:
    """A character value: zero, or the root of unity e(num/den).

    den is the character's order d and num its class in [0, d).  num is
    None exactly when the argument was divisible by q.
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

    def conjugate(self) -> "Character":
        return Character(self.modulus, (-self.index) % (self.q - 1))

    def value(self, n: int) -> CharValue:
        """chi(n) by the order-d Euler criterion: n^((q-1)/d) = h^j for
        h = g^((q-1)/d) and j = dlog(n) mod d, found among the d powers of
        h, so no q-sized table is built."""
        q, d = self.q, self.order
        n %= q
        if n == 0:
            return CharValue(None, d)
        e = (q - 1) // d
        t = pow(n, e, q)
        for pos, powers in _power_blocks(pow(self.modulus.g, e, q), d, q):
            hit = np.flatnonzero(powers == t)
            if hit.size:
                return CharValue(self._class_of(pos + int(hit[0])), d)
        raise AssertionError(f"{t} is not a power of g^{e}; g is not primitive")

    def __call__(self, n: int) -> CharValue:
        return self.value(n)

    def _class_of(self, j):
        """chi's class m' j mod d at the dlog class j (an int or int64
        array), for m' = index // gcd(index, q-1): chi(g^j) = e(m' j/d)."""
        d = self.order
        return ((self.index // ((self.q - 1) // d)) * j) % d

    def _roots(self, j: np.ndarray) -> np.ndarray:
        """chi(g^j) = e(k s/(q-1)) for int64 dlog classes j, chi's classes k
        and s = (q-1)/d: the one complex-value formula, one float input."""
        s = (self.q - 1) // self.order
        return np.exp(2j * np.pi * (self._class_of(j) * s).astype(np.float64)
                      / (self.q - 1))

    def classes(self) -> np.ndarray:
        """c[n] in [0, d) with chi(n) = e(c[n]/d) for n in [1, q-1] and
        c[0] = -1, in the dtype of the modulus's class table; upcast before
        adding two classes, as int8 overflows."""
        table = self.modulus.classes(self.order)
        c = self._class_of(np.arange(self.order)).astype(table.dtype)[table]
        c[0] = -1
        return c

    def values(self) -> np.ndarray:
        """Value table chi(n) for n in [0, q-1], rebuilt on every call.

        Exact int8 {-1, 0, 1} for real characters, complex128 otherwise;
        the dtype picks the exact path, as in prefix_sums.  A complex table
        gathers the d roots of unity of chi's order by the class table, so
        it costs d exponentials, not q.
        """
        if self.is_quadratic:
            return legendre_value_array(self.q)
        if self.is_trivial:
            vals = np.ones(self.q, dtype=np.int8)
        else:
            d = self.order
            vals = self._roots(np.arange(d, dtype=np.int64))[
                self.modulus.classes(d)]
        vals[0] = 0
        return vals

    @cached_property
    def prefix(self) -> "PrefixTable":
        return prefix_table(self)

    @cached_property
    def moments(self) -> dict[tuple[int, int], int | float]:
        """Complete 2r-th moments over the prefix table, keyed (V, r);
        holder_chain fills it and reuses each across window starts."""
        return {}

    def __repr__(self) -> str:
        return f"Character(q={self.q}, m={self.index}, order={self.order})"


class PrefixTable:
    """Cumulative sums S_k = sum_{n<=k} chi(n) for k in [0, q].

    Exact int64 for quadratic characters, complex128 otherwise.  S_q = 0 for
    every nontrivial character, which is what lets window sums wrap around
    the period with at most two table lookups.
    """

    def __init__(self, sums: np.ndarray):
        self.sums = sums
        self.exact = sums.dtype.kind == "i"

    @property
    def q(self) -> int:
        return len(self.sums) - 1


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
    return PrefixTable(prefix_sums(chi.values()))


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


def interval_sum(chi: Character, m: int, n: int) -> int | complex:
    """sum_{m < k <= m+n} chi(k): a Python int when chi is real (exact
    integer accumulation), a complex number otherwise."""
    if n < 0:
        raise ValueError("interval length must be >= 0")
    q = chi.q
    if chi.is_trivial:
        # principal character: count integers in the range coprime to q
        return n - ((m + n) // q - m // q)
    idx = (m + 1 + np.arange(n % q, dtype=np.int64)) % q  # full periods vanish
    if chi.is_quadratic:
        return int(chi.values()[idx].sum(dtype=np.int64))
    # only the interval's residues: the values() formula on their classes
    vals = chi._roots(chi.modulus.classes(chi.order)[idx].astype(np.int64))
    vals[idx == 0] = 0
    return complex(vals.sum())


def legendre_value_array(q: int) -> np.ndarray:
    """Quadratic-character value table from the squares, no class table.

    The only source of the quadratic value table: Character.values of the
    Legendre character reads it, and whole-prime scans use it without
    building a primitive-root table.
    """
    if q < 3 or not is_prime(q):
        raise CompositeModulus(f"{q} is not an odd prime")
    check_table_size(q)
    vals = np.full(q, -1, dtype=np.int8)
    vals[0] = 0
    k = np.arange(1, (q - 1) // 2 + 1, dtype=np.int64)
    vals[(k * k) % q] = 1
    return vals
