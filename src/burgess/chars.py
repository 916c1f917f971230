"""Multiplicative characters modulo a prime, with an exact value algebra.

A character is addressed by its index m against the smallest primitive root
g of q: the index-m character maps g^k to e(mk/(q-1)).  A character of order
d takes only d values, kept as exact fractions c/d of a full turn (c in
[0, d)), so multiplicativity and order identities are integer statements.
Characters of order 2, 3, 4 and 6 take their values in a lattice of rank 1
or 2 (LATTICE): their prefix tables are exact int32 coordinates, and a
window or interval sum is an integer or an integer pair with an exact
integer norm, so every inequality involving them is checkable with zero
tolerance.  Only characters of other orders use complex128.

Every table covers half the period.  As g^h = -1 for h = (q-1)/2, n and
q - n have dlogs h apart, so chi(q - n) = chi(-1) chi(n), and for a
nontrivial chi the prefix sums obey S_k = -chi(-1) S_{q-1-k}.  A class
table therefore holds n in [0, h], built from the powers g^0 .. g^(h-1)
alone, the quadratic value table holds chi(n) for n in [0, h], built from
the squares that land there, and a prefix table holds S_0 .. S_h;
PrefixTable.at reads the rest of the period as a mirror image, and
window_sum and window_array read through it.  chi(-1) = (-1)^m needs no
table.  Character.classes alone spreads a class table over the period,
for the long interval sums of characters other than the quadratic one.

A modulus holds no table: its class table c(n) = dlog(n) mod d is rebuilt
and checked on every read, the classes sliced from one ramp when d <=
POWER_BLOCK, and g itself is found on its first read.  Single values come
from the order-d Euler criterion and the quadratic value table from the
squares, so neither builds a class table or finds g.  A prefix table reads
the class table in BLOCK slices and gathers each slice's payload (d
LATTICE columns or d roots of unity) straight into the table, then sums it
in place: nothing is made beside the table and the class table but one
slice.  interval_sum gathers the same payload by the interval's classes
alone, from single values when the interval is short.  Arrays are reduced
mod q by reduce_mod, a floor division about twice as fast as %.  A
character caches only its prefix table and its complete moments (one
scalar per (V, r)); a prefix table holds no reference to its character, so
both are freed with the character's last reference.
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
# (legendre_value_array) cannot overflow, and every class and every
# coordinate of a prefix sum (|S_k| < q) fits in int32.
TABLE_CEILING = 1 << 31
# Length of the blocks that q-length passes are cut into, so that their
# temporaries stay small and in cache.
BLOCK = 1 << 16
POWER_BLOCK = 1 << 13  # the blocks of powers of g class tables are built from

# The values e(c/d) of a character of order d in {2, 3, 4, 6} lie in a
# lattice: Z for d = 2, Z[omega] (omega = e(1/3)) for d = 3 and 6, Z[i]
# for d = 4.  Row k, column c is the k-th coordinate of e(c/d) in the basis
# (1,), (1, omega) or (1, i).  The squared norm of a + b*omega is
# a^2 - ab + b^2, that of a + b*i is a^2 + b^2 (lattice_norm).
LATTICE = {
    2: ((1, -1),),
    3: ((1, 0, -1), (0, 1, -1)),
    4: ((1, 0, -1, 0), (0, 1, 0, -1)),
    6: ((1, 1, 0, -1, -1, 0), (0, 1, 1, 0, -1, -1)),
}


def certify_modulus(q: int) -> None:
    """Refuse a modulus before any q-sized table is allocated: q at or above
    the 2^31 ceiling, then a composite q, then q above the table cap.  The
    ceiling comes first, so a huge q is refused before trial division.
    """
    if q < TABLE_CEILING and not is_prime(q):
        raise CompositeModulus(f"{q} is not prime")
    check_table_size(q)


def check_table_size(q: int) -> None:
    """Refuse q at or above the 2^31 ceiling, then q above the table cap.

    BURGESS_TABLE_LIMIT overrides the default cap; an override at or above
    the ceiling is refused too.
    """
    if q >= TABLE_CEILING:
        raise TableLimitExceeded(f"q={q} not below the ceiling 2^31")
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


def reduce_mod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q for an integer array x that the caller gives up, reduced in
    place and returned: x - (x // q) q, with no temporary beyond the
    quotient.  With a scalar divisor NumPy does // by a precomputed
    multiplier but % by hardware division, so this is about twice as fast
    as x % q, and for q > 0 it gives the same values in [0, q)."""
    quot = x // q
    quot *= q
    x -= quot
    return x


def window_residues(m: int, n: int, q: int) -> np.ndarray:
    """The residues mod q of m+1, ..., m+n as int64.  m is reduced as a
    Python int first, so a start of any size is accepted."""
    return reduce_mod(m % q + 1 + np.arange(n, dtype=np.int64), q)


def _power_blocks(base: int, count: int, q: int
                  ) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (pos, powers) with powers[j] = base^(pos + j) mod q, int64
    blocks of POWER_BLOCK covering the exponents [0, count) in order."""
    block = min(count, POWER_BLOCK)
    first = np.ones(block, dtype=np.int64)
    k, x = 1, base % q  # first[:k] holds base^0 .. base^(k-1); x = base^k
    while k < block:  # doubling; every factor is below q < 2^31
        n = min(k, block - k)
        first[k:k + n] = reduce_mod(first[:n] * x, q)
        k, x = k + n, (x * x) % q
    step, cur = pow(base, block, q), 1
    for pos in range(0, count, block):
        yield pos, reduce_mod(cur * first[:count - pos], q)
        cur = (cur * step) % q


class PrimeModulus:
    """A prime q; its smallest primitive root g is found on first read,
    unless given."""

    def __init__(self, q: int, g: int | None = None):
        self.q = q
        if g is not None:
            self.g = g

    @cached_property
    def g(self) -> int:
        return find_primitive_root(self.q)

    def classes(self, d: int) -> np.ndarray:
        """c[n] = dlog(n) mod d for n in [1, h], h = (q-1)/2, and c[0] = -1,
        for d | q-1, in the smallest signed dtype holding -d.

        Only the powers g^k, k in [0, h), are taken: g^k <= h writes k at
        n = g^k, a larger one writes k + h at n = q - g^k = g^(k+h).  Every
        build checks that g^h = -1 and each n in [1, h] is reached, which
        together say g is primitive, and the anchors c[1] = 0 and the class
        of g.  For d <= POWER_BLOCK the classes of a block of powers g^pos,
        ... are a slice of one ramp arange(...) % d."""
        q, g = self.q, self.g
        h = (q - 1) // 2
        shift = h % d  # 0 for odd d, which divides h
        c = np.full(h + 1, -1, dtype=np.min_scalar_type(-d))
        if d <= POWER_BLOCK:  # in a dtype holding k + shift < 2d
            ramp = np.arange(POWER_BLOCK + d) % d
            ramp = ramp.astype(np.min_scalar_type(-2 * d))
            lift, wrap = ramp.dtype.type(shift), ramp.dtype.type(d)
        for pos, powers in _power_blocks(g, h, q):
            n = q - powers
            np.minimum(n, powers, out=n)
            if d <= POWER_BLOCK:
                j = pos % d
                k = ramp[j:j + len(powers)]
                if shift:
                    k = k + lift * (powers > h)
                    k -= wrap * (k >= d)
            else:
                k = np.arange(pos, pos + len(powers), dtype=np.int64)
                k += (powers > h) * shift
                k %= d
            c[n] = k
        if pow(g, h, q) != q - 1 or int(c[1:].min()) < 0:
            raise AssertionError("class table not surjective; g is not primitive")
        want = (1 + (shift if g > h else 0)) % d
        if int(c[1]) != 0 or int(c[min(g, q - g)]) != want:
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

    Certifies primality and checks the table cap; the smallest primitive
    root is found when first read, and class tables are built by each read.
    """
    if q < 3:
        raise ValueError("modulus must be a prime >= 3")
    certify_modulus(q)
    return PrimeModulus(q)


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
        h = g^((q-1)/d) and j = dlog(n) mod d, found by baby-step giant-step
        as j = i m + k with m = isqrt(d-1) + 1, in O(sqrt(d)) steps and no
        q-sized table.  For d = 2, h = -1 whatever g is, so g is not read."""
        q, d = self.q, self.order
        n %= q
        if n == 0:
            return CharValue(None, d)
        e = (q - 1) // d
        h = q - 1 if d == 2 else pow(self.modulus.g, e, q)
        m = math.isqrt(d - 1) + 1
        baby, x = {}, 1
        for k in range(m):
            baby.setdefault(x, k)
            x = x * h % q
        giant, t = pow(h, -m, q), pow(n, e, q)
        for i in range(m):
            k = baby.get(t)
            if k is not None:
                return CharValue(self._class_of(i * m + k), d)
            t = t * giant % q
        raise AssertionError(
            f"{n}^{e} is not a power of g^{e}; g is not primitive")

    def __call__(self, n: int) -> CharValue:
        return self.value(n)

    def _class_of(self, j):
        """chi's class m' j mod d at the dlog class j (an int or int64
        array), for m' = index // gcd(index, q-1): chi(g^j) = e(m' j/d)."""
        d = self.order
        return ((self.index // ((self.q - 1) // d)) * j) % d

    def _roots(self, k: np.ndarray) -> np.ndarray:
        """e(k s/(q-1)) for int64 classes k of chi and s = (q-1)/d: the one
        complex-value formula, one float input."""
        s = (self.q - 1) // self.order
        return np.exp(2j * np.pi * (k * s).astype(np.float64) / (self.q - 1))

    def classes(self) -> np.ndarray:
        """c[n] in [0, d) with chi(n) = e(c[n]/d) for n in [1, q-1] and
        c[0] = -1, in the dtype of the modulus's class table; upcast before
        adding two classes, as int8 overflows.  n > h reads the half class
        table at q - n, whose dlog is h less."""
        q, d = self.q, self.order
        half = self.modulus.classes(d)
        h = len(half) - 1
        j = np.arange(d)
        c = np.empty(q, dtype=half.dtype)
        c[:h + 1] = self._class_of(j).astype(half.dtype)[half]
        c[h + 1:] = self._class_of(j + h).astype(half.dtype)[half[h:0:-1]]
        c[0] = -1
        return c

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
    """Cumulative sums S_k = sum_{n<=k} chi(n), stored for k in [0, h],
    h = (q-1)/2; at reads every k in [0, q].

    For a character of order d in LATTICE the sums are exact int32
    coordinates in its lattice basis, shape (h+1,) at rank 1 (the real
    character) and (2, h+1) at rank 2 (orders 3, 4 and 6); |S_k| < q < 2^31
    bounds every coordinate.  Other orders get complex128 sums of shape
    (h+1,).  The rest of the period mirrors the stored half: S_k = sign *
    S_{q-1-k} for h < k <= q-1, with sign = -chi(-1), and S_q = S_0 = 0,
    which is what lets window sums wrap around the period with at most two
    reads.  chi(-1) = (-1)^((q-1)/d), so the order says it.
    """

    def __init__(self, sums: np.ndarray, order: int):
        self.sums = sums
        self.order = order

    @property
    def h(self) -> int:
        return self.sums.shape[-1] - 1

    @property
    def q(self) -> int:
        return 2 * self.h + 1

    @property
    def sign(self) -> int:
        """-chi(-1): S_k = sign * S_{q-1-k}."""
        return 1 if (self.q - 1) // self.order % 2 else -1

    @property
    def exact(self) -> bool:
        return self.order in LATTICE

    @property
    def rank(self) -> int:
        """Lattice rank of the values: 1 or 2, 0 for a complex table."""
        return len(LATTICE.get(self.order, ()))

    def at(self, k):
        """S_k for an int or an int64 array k of indices in [0, q], shaped
        like sums with its last axis replaced by k's shape: k > h reads the
        stored entry q-1-k, times sign, and k = q reads S_0."""
        q = self.q
        s = np.take(self.sums, np.maximum(np.minimum(k, q - 1 - k), 0),
                    axis=-1)
        return s if self.sign > 0 else np.where(np.asarray(k) > self.h, -s, s)


def prefix_table(chi: Character) -> PrefixTable:
    """S_0 .. S_h: gather chi's d LATTICE columns (int32) or d roots
    (complex128) by BLOCK slices of the half class table straight into the
    table, then sum it in place; the quadratic character's values come from
    the squares instead.  For an even chi, S_h = -S_h, so S_h = 0 is
    checked on integer tables."""
    if chi.is_trivial:
        raise TrivialCharacter("prefix table requires a nontrivial character")
    q, d = chi.q, chi.order
    h = (q - 1) // 2
    if chi.is_quadratic:
        sums = np.cumsum(legendre_value_array(q), dtype=np.int32)
        table = PrefixTable(sums, d)
    else:
        classes = chi.modulus.classes(d)
        # column j: chi(g^j) for the dlog class j, one row per coordinate
        k = chi._class_of(np.arange(d, dtype=np.int64))
        cols = (np.array(LATTICE[d], dtype=np.int32)[:, k]
                if d in LATTICE else chi._roots(k)[None])
        sums = np.empty((len(cols), h + 1), dtype=cols.dtype)
        for lo in range(1, h + 1, BLOCK):
            block = classes[lo:lo + BLOCK]
            for row, col in zip(sums, cols):
                # every class of n >= 1 is in [0, d): "clip" skips the check
                np.take(col, block, out=row[lo:lo + len(block)], mode="clip")
        sums[:, 0] = 0
        np.cumsum(sums[:, 1:], axis=-1, out=sums[:, 1:])
        table = PrefixTable(sums if len(cols) == 2 else sums[0], d)
    assert not table.exact or table.sign > 0 or not table.sums[..., h].any()
    return table


def _check_window(q: int, v: int) -> None:
    if v > q:
        raise WindowTooLarge(f"V={v} exceeds q={q}")
    if v < 1:
        raise ValueError("window length must be >= 1")


def window_sum(table: PrefixTable, lam, v: int):
    """sum_{1<=j<=v} chi(lam + j) for an int or an int64 array of starts.

    Each start is reduced to a in [1, q], the starts window_array covers,
    and the window read as S_b - S_a through PrefixTable.at, where b = a + v
    less q when the window runs past q (S_q = 0).  Returns int32 shaped like
    lam at rank 1, int32 coordinate pairs of shape (2,) + lam's shape at
    rank 2, and complex128 shaped like lam otherwise.
    """
    q = table.q
    _check_window(q, v)
    a = (lam - 1) % q + 1
    b = a + v
    b = b - q * (b > q)
    return table.at(b) - table.at(a)


def window_array(table: PrefixTable, v: int, lo: int = 0,
                 hi: int | None = None) -> np.ndarray:
    """window_sum over the starts lam in (lo, hi], by default every start in
    [1, q]: starts up to h - v are a slice difference S_{lam+v} - S_lam
    inside the stored half, the rest are read by window_sum.  moment_sum
    reads its lam-range through it block by block."""
    q = table.q
    _check_window(q, v)
    hi = q if hi is None else hi
    s = table.sums
    cut = min(max(table.h - v, lo), hi)  # starts in (lo, cut] end by h
    w = np.empty(s.shape[:-1] + (hi - lo,), dtype=s.dtype)
    np.subtract(s[..., lo + 1 + v:cut + 1 + v], s[..., lo + 1:cut + 1],
                out=w[..., :cut - lo])
    if cut < hi:
        w[..., cut - lo:] = window_sum(
            table, np.arange(cut + 1, hi + 1, dtype=np.int64), v)
    return w


def lattice_norm(table: PrefixTable, w: np.ndarray,
                 v: int | None = None) -> np.ndarray:
    """The integer that exact paths key window sums w on: |w| at rank 1,
    int32, and the squared norm |w|^2 at rank 2 (a^2 - ab + b^2 in the
    basis (1, omega), a^2 + b^2 in the basis (1, i)).  For windows of
    length V it is at most V^rank, and |w|^(2r) is its power 2r / rank.
    Rank-2 norms are int64, or int32 for windows of a given length v with
    2v^2 < 2^31, as |a|, |b| <= v and the norm <= v^2 keep them in range."""
    if table.rank == 1:
        return np.abs(w)
    small = v is not None and 2 * v * v < 1 << 31
    a, b = w.astype(np.int32 if small else np.int64, copy=False)
    norm = a * a + b * b
    if table.order != 4:
        norm -= a * b
    return norm


def interval_sum(chi: Character, m: int, n: int
                 ) -> int | tuple[int, int] | complex:
    """sum_{m < k <= m+n} chi(k): a Python int when chi is real (exact
    integer accumulation), its Python-int coordinates (a, b) in the LATTICE
    basis for orders 3, 4 and 6, a complex number otherwise.

    The L = n mod q terms left after the full periods are read from a
    table (the half-period squares, n > h read at q - n times chi(-1), or
    the q-wide Character.classes) unless L (isqrt(d-1)+1) <= isqrt(q):
    then the O(sqrt(d)) Euler criterion per term is cheaper, and
    Character.value gives each class with no table at all."""
    if n < 0:
        raise ValueError("interval length must be >= 0")
    q = chi.q
    if chi.is_trivial:
        # principal character: count integers in the range coprime to q
        return n - ((m + n) // q - m // q)
    idx = window_residues(m, n % q, q)
    d = chi.order
    if len(idx) * (math.isqrt(d - 1) + 1) <= math.isqrt(q):
        c = np.array([chi.value(int(k)).num if k else 0 for k in idx],
                     dtype=np.int64)
    elif chi.is_quadratic:
        vals = legendre_value_array(q)
        h = len(vals) - 1
        low = vals[idx[idx <= h]].sum(dtype=np.int64)
        high = vals[q - idx[idx > h]].sum(dtype=np.int64)
        return int(low) + (-1) ** h * int(high)
    else:
        c = chi.classes()[idx].astype(np.int64)
    if d in LATTICE:  # column c of LATTICE counted once per chi(k) = e(c/d)
        coords = np.array(LATTICE[d]) @ np.bincount(c[idx != 0], minlength=d)
        return int(coords[0]) if d == 2 else tuple(map(int, coords))
    vals = chi._roots(c)
    vals[idx == 0] = 0
    return complex(vals.sum())


def lattice_complex(d: int, coords: tuple[int, int]) -> complex:
    """a + b*i (order 4) or a + b*omega (orders 3, 6) at coordinates (a, b)."""
    return coords[0] + coords[1] * (1j if d == 4 else
                                    complex(-0.5, math.sqrt(3) / 2))


def legendre_value_array(q: int) -> np.ndarray:
    """The quadratic character chi(n) for n in [0, h], h = (q-1)/2, as
    h+1 int8 entries, from the squares and no class table; n > h is
    chi(-1) chi(q-n), with chi(-1) = (-1)^h.

    The squares k^2 mod q, k in [1, h], are every residue in [1, q-1] once,
    so the residues in [1, h] are the squares that land there: each block's
    squares are clipped to a sentinel entry h+1, which the returned view
    leaves out, and marked 1 over a table of -1.  The only source of the
    quadratic value table: the quadratic prefix table, long quadratic
    interval sums and whole-prime scans read it without finding g.
    """
    if q < 3:
        raise CompositeModulus(f"{q} is not an odd prime")
    certify_modulus(q)
    h = (q - 1) // 2
    vals = np.full(h + 2, -1, dtype=np.int8)
    vals[0] = 0
    for lo in range(1, h + 1, BLOCK):  # int64 squares one block at a time
        k = np.arange(lo, min(lo + BLOCK, h + 1), dtype=np.int64)
        k *= k
        s = reduce_mod(k, q)
        np.minimum(s, h + 1, out=s)
        vals[s] = 1
    return vals[:h + 1]
