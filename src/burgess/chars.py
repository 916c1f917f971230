"""Multiplicative characters modulo a prime, with an exact value algebra.

A character is addressed by its index m against the smallest primitive root
g of q: the index-m character maps g^k to e(mk/(q-1)).  A character of order
d takes only d values, kept as exact fractions c/d of a full turn (c in
[0, d)), so multiplicativity and order identities are integer statements.
Characters of order 2, 3, 4 and 6 take their values in a lattice of rank 1
or 2 (LATTICE): their prefix tables hold integer coordinates, and a window
or interval sum is an integer or an integer pair with an exact integer
norm, so every inequality involving them is checkable with zero tolerance.
A table read only for windows up to a span v keeps its sums in the
narrowest integer lanes serving v (PrefixTable), a pair packed in one
entry, and its window sums and their norms stay in that dtype
(lattice_norm).  Only other orders use complex128.

Every table covers half the period.  As g^h = -1 for h = (q-1)/2, n and
q - n have dlogs h apart, so chi(q - n) = chi(-1) chi(n), and for a
nontrivial chi the prefix sums obey S_k = -chi(-1) S_{q-1-k}.  So the
class table, the quadratic value table and the prefix table hold n in [0,
h]; their readers take the rest of the period as a mirror image.  chi(-1)
= (-1)^m needs no table.

A modulus holds no table: every table is built from a read of its class
table c(n) = dlog(n) mod d (PrimeModulus.classes), of order 2 from the
squares k^2 mod q (mark_squares), so no quadratic table finds g.  Single
values come from the order-d Euler criterion.  prefix_slices sums classes
into prefix sums in BLOCK slices, streamed or, for prefix_table, written
over the classes in the top bytes of the table's own buffer.  A character
caches one prefix table, its complete moments and rough sets; a table
holds no reference to its character, so all are freed with it.
"""
from __future__ import annotations

import math
import os
import sys
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
# Below 2^31 the int64 products cur * base (_power_blocks) cannot overflow,
# nor can a uint32 sum of two residues (square_residues), and every class
# and every coordinate of a prefix sum (|S_k| < q) fits in 32 bits, so
# 32-bit lanes serve every window.
TABLE_CEILING = 1 << 31
BLOCK = 1 << 16  # q-length passes go by blocks, their temporaries in cache
POWER_BLOCK = 1 << 13  # the blocks of powers of g, and of built squares
GATHER = 1 << 13  # the blocks of starts window_sum reads, in int64

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
    """Refuse a modulus before any q-sized table is allocated: q below 3,
    then q at or above the 2^31 ceiling (before trial division), then a
    composite q, then q above the table cap."""
    if q < 3:
        raise CompositeModulus(f"{q} is not an odd prime")
    if q < TABLE_CEILING and not is_prime(q):
        raise CompositeModulus(f"{q} is not prime")
    check_table_size(q)


def check_table_size(q: int) -> None:
    """Refuse q at or above the 2^31 ceiling, then q above the table cap;
    a BURGESS_TABLE_LIMIT cap at or above the ceiling is refused too."""
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
    """n is prime: n >= 2 and its trial-division factorization is n^1."""
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division, p -> exponent: 2
    and 3, then only the pairs 6k - 1, 6k + 1, each pair one test until a
    member divides."""
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            for p in (f, f + 2):
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
        f += 6
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
    quotient; NumPy's // by a scalar multiplies, so this takes about half
    the time of x % q, same values in [0, q) for q > 0."""
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

    def classes(self, d: int, payload: np.ndarray | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
        """c[n] = dlog(n) mod d for n in [1, h], h = (q-1)/2, d | q-1, and
        c[0] = -1, in the smallest signed dtype holding -d.  Order 2 may
        take an int8 payload (zero, one) written in place of the classes
        (0, 1), c[0] then below both; other orders refuse one.  c is built
        in out, h+2 entries of that dtype (the top bytes of a prefix table,
        prefix_slices), else in a new array, and returned as its first h+1
        entries.

        Order 2 reads no g: c is one but at the squares, which mark_squares
        marks with zero (those above h at entry h+1).  Other orders take
        only the powers g^k, k < h: g^k <= h writes k at g^k, a larger one
        k + h at q - g^k = g^(k+h).  Every build checks that g^h = -1 and,
        by min, that no -1 is left (g is primitive), and the anchors c[1]
        and c at g.  For d <= POWER_BLOCK a block of powers takes a slice of
        one ramp k % d, k below d plus the block length, lifted to (k + h) %
        d above h."""
        if payload is not None and d != 2:
            raise ValueError(f"a class payload serves order 2, not {d}")
        q = self.q
        h = (q - 1) // 2
        dtype = np.min_scalar_type(-d) if payload is None else payload.dtype
        c = np.empty(h + 2, dtype=dtype) if out is None else out
        if d == 2:
            zero, one = (0, 1) if payload is None else payload.tolist()
            c.fill(one)
            c[0] = min(zero, one) - 1
            mark_squares(q, c, zero)
            return c[:-1]
        g = self.g
        shift = h % d  # 0 for odd d, which divides h
        if d <= POWER_BLOCK:
            ramp = np.arange(min(POWER_BLOCK, h) + d) % d
            # only even d lifts: for odd d no int8 arithmetic runs, whose
            # NumPy loops fault in about 128 KB of code pages on first use
            lift = ((ramp + shift) % d - ramp).astype(dtype) if shift else None
            ramp = ramp.astype(dtype)
        c = c[:-1]
        c.fill(-1)
        for pos, powers in _power_blocks(g, h, q):
            n = q - powers
            np.minimum(n, powers, out=n)
            if d <= POWER_BLOCK:
                j = pos % d
                k = ramp[j:j + len(powers)]
                if shift:
                    k = k + lift[j:j + len(powers)] * (powers > h)
            else:
                k = np.arange(pos, pos + len(powers), dtype=np.int64)
                k += (powers > h) * shift
                k %= d
            _scatter(c, n, k, False)  # n is in [1, h]
        if pow(g, h, q) != q - 1 or int(c[1:].min()) == -1:
            raise AssertionError("class table not surjective; g is not primitive")
        if [int(c[1]), int(c[min(g, q - g)])] != [
                0, (1 + (shift if g > h else 0)) % d]:
            raise AssertionError("class table anchors wrong")
        return c

    def character(self, index: int) -> "Character":
        return Character(self, index % (self.q - 1))

    def legendre(self) -> "Character":
        if self.q == 2:
            raise ValueError("no quadratic character mod 2")
        return Character(self, (self.q - 1) // 2)


def build_modulus(q: int) -> PrimeModulus:
    """The modulus of all characters mod q, certified (certify_modulus); g
    is found when first read, and class tables are built by each read."""
    certify_modulus(q)
    return PrimeModulus(q)


@dataclass(frozen=True)
class CharValue:
    """A character value: zero (num None, at multiples of q), or the root
    of unity e(num/den), den the character's order d, num in [0, d)."""

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
        """chi(n) = e(c/d), c chi's class at dlog(n) mod d (_dlog_class)."""
        j = self._dlog_class(n)
        return CharValue(None if j is None else self._class_of(j), self.order)

    def _dlog_class(self, n: int) -> int | None:
        """j = dlog(n) mod d (None at multiples of q) from the order-d Euler
        criterion n^((q-1)/d) = h^j, h = g^((q-1)/d), by baby-step
        giant-step, j = i m + k for m = isqrt(d-1) + 1: O(sqrt(d)) steps, no
        table.  For d = 2, h = -1: g is not read."""
        q, d = self.q, self.order
        n %= q
        if n == 0:
            return None
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
                return i * m + k
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

    @property
    def prefix(self) -> "PrefixTable":
        """The prefix table serving every window length."""
        return self.prefix_for(self.q)

    def prefix_for(self, v: int) -> "PrefixTable":
        """The cached prefix table if it serves windows of length v, else a
        wider one built in its place: a character holds one table, under
        "prefix" in its instance dict."""
        table = vars(self).get("prefix")
        if table is None or table.span < v:
            table = vars(self)["prefix"] = prefix_table(self, v)
        return table

    @cached_property
    def moments(self) -> dict[tuple[int, int], int | float]:
        """Complete 2r-th moments over the prefix table, keyed (V, r);
        holder_chain fills it and reuses each across window starts."""
        return {}

    @cached_property
    def rough(self) -> dict:
        """holder_chain's z-rough sets, keyed (z, U)."""
        return {}

    def __repr__(self) -> str:
        return f"Character(q={self.q}, m={self.index}, order={self.order})"


class PrefixTable:
    """Cumulative sums S_k = sum_{n<=k} chi(n), stored for k in [0, h],
    h = (q-1)/2; at reads every k in [0, q].

    The lattice coordinates of a LATTICE order are kept mod 2^w in w-bit
    lanes (sum_dtype), rank 2's pair (A, B) packed as A + 2^w B.  Every
    LATTICE entry is -1, 0 or 1, so each coordinate of a window sum of
    length v lies in [-v, v], and S_b - S_a taken in the table's dtype is
    the window sum for v <= span, packed as the table's entries (unpack
    reads its lanes); a wrapped S_k is read only through such a
    difference.  Other orders get complex128 sums, serving
    every window.  The rest of the period mirrors the stored half: S_k =
    sign * S_{q-1-k} for h < k <= q-1, with sign = -chi(-1), and S_q = S_0
    = 0, so window sums wrap around the period with at most two reads.
    """

    def __init__(self, sums: np.ndarray, order: int):
        self.sums = sums
        self.order = order

    @property
    def h(self) -> int:
        return len(self.sums) - 1

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

    @property
    def span(self) -> int:
        """The longest window read exactly: 2^(w-1) - 1 for w-bit lanes, w
        from the entry width and the rank, at least q for 32-bit lanes and
        complex sums."""
        return ((1 << 8 * self.sums.itemsize // self.rank - 1) - 1
                if self.exact else self.q)

    def at(self, k):
        """S_k as stored for an int or an int64 array k in [0, q]: k > h
        reads entry q-1-k times sign (np.negative: no overflow warning), k =
        q reads S_0."""
        q = self.q
        s = self._stored(np.maximum(np.minimum(k, q - 1 - k), 0))
        return (s if self.sign > 0
                else np.where(np.asarray(k) > self.h, np.negative(s), s))

    def _stored(self, j):
        """The stored entries S_j, j in [0, h]."""
        return np.take(self.sums, j)


class PrefixEnds(PrefixTable):
    """The ends S_0 .. S_{e-1} and S_t .. S_h of a prefix table side by
    side, read as the whole table by PrefixTable.at: enough for window_sum,
    and window_array at starts above h - V, with windows of length V for
    2V + 2 <= e and t <= h - 2V - 1."""

    def __init__(self, head: np.ndarray, tail: np.ndarray, order: int,
                 h: int):
        super().__init__(np.concatenate([head, tail]), order)
        self._h = h
        self._head = len(head)
        self._skip = h + 1 - len(self.sums)  # entries between the ends

    @property
    def h(self) -> int:
        return self._h

    def _stored(self, j):
        return np.take(self.sums, np.where(j < self._head, j, j - self._skip))


def prefix_table(chi: Character, span: int | None = None) -> PrefixTable:
    """S_0 .. S_h in the narrowest dtype serving windows up to span
    (sum_dtype), by default every window: prefix_slices fills h+2 entries,
    the spare one for mark_squares' entry h+1, over the classes it has
    scattered into their top bytes, so beside the table the build holds
    O(BLOCK) bytes."""
    if chi.is_trivial:
        raise TrivialCharacter("prefix table requires a nontrivial character")
    q, d = chi.q, chi.order
    span = q if span is None else span
    sums = np.empty((q + 3) // 2, dtype=sum_dtype(d, span))
    for _ in prefix_slices(chi, span, sums):
        pass
    sums = sums[:-1]
    # an even chi has S_h = -S_h, so 0 (mod 2^w)
    assert d not in LATTICE or (q - 1) // d % 2 or not sums[-1]
    return PrefixTable(sums, d)


def sum_dtype(d: int, span: int) -> np.dtype:
    """The dtype of an order-d prefix table serving windows up to span:
    lanes of 8 bits for span < 2^7, 16 for span < 2^15, else 32, times the
    rank; complex128 outside LATTICE."""
    if d not in LATTICE:
        return np.dtype(np.complex128)
    bits = 8 if span < 1 << 7 else 16 if span < 1 << 15 else 32
    return np.dtype(f"i{bits * len(LATTICE[d]) // 8}")


def _packed(chi: Character, dtype: np.dtype) -> np.ndarray:
    """chi(g^j), j in [0, d), as coordinates (a, b) packed in dtype as
    a + 2^w b, w half its bits; (1, -1) at rank 1."""
    if chi.order == 2:
        return np.array(LATTICE[2][0], dtype)
    k = chi._class_of(np.arange(chi.order, dtype=np.int64))
    a, b = np.array(LATTICE[chi.order], dtype=np.int64)[:, k]
    return (a + (b << 4 * dtype.itemsize)).astype(dtype)


def prefix_slices(chi: Character, span: int, out: np.ndarray | None = None
                  ) -> Iterator[np.ndarray]:
    """S_0 .. S_h of a nontrivial chi in BLOCK slices laid out as
    PrefixTable.sums, serving windows up to span (sum_dtype): the one loop
    that sums classes into prefix sums.  Each slice casts the int8
    quadratic values or, POWER_BLOCK classes at a time, gathers their
    packed values or roots (taken from the classes when d > BLOCK: no
    d-entry table, and O(POWER_BLOCK) temporaries), adds the running total
    to its first entry and is summed in place: bit for bit one sequential
    cumsum (a word at a time for narrow entries, below).  Other integer
    slices are summed from the end, as suffix sums U_k over a reversed
    view, then S_k = U_0 - U_{k+1}: mod 2^(8w) the same entries, and NumPy
    (2.4) accumulates int8, int32 and int64 two to four times as fast over
    a reversed view as over contiguous entries (int16 at the same speed).
    Complex slices keep np.cumsum.

    Slices are fresh arrays, or views of out when given: n = h+2 entries of
    w bytes, into whose top bytes the modulus scatters its n classes of c
    bytes, from byte (w-c) n on (PrimeModulus.classes).  Entries [lo, lo+m)
    are written below byte w (lo+m), and no class not yet read sits below
    byte (w-c) n + c (lo+m), so no write reaches one while lo + m <= n.
    The last slices overlap their own classes: each gather or root step
    reads an integer copy of them, and the order-2 cast runs forward,
    reading each value before it writes its entry.  So a table's random
    scatter has a c n-byte target, not w n, and no class table is held
    beside it.

    A full BLOCK slice of 1- or 2-byte entries (order 2 in 8- or 16-bit
    lanes, orders 3, 4 and 6 packed in 16 bits) is summed a word at a time
    instead (SWAR: Lamport, CACM 18(8), 1975), p = 8/w entries to an int64
    word, every step mod 2^(8w) per entry, so the bits are cumsum's:
    - bias: each entry gets b = 1 added, or b = 257 to a packed pair, so
      each of its bytes holds 0, 1 or 2;
    - lanes: a word times 0x0101..01 (p ones, w bytes apart) holds the
      inclusive prefix sums of its entries, each byte at most 2p <= 16 <
      2^8, so no lane carries into the next;
    - carry: the words' top lanes, their totals, are summed exclusively
      from the last sum before them less b; each word's carry mod 2^(8w),
      times the same multiplier, is added to its entries;
    - ramp: -b j is added to entry j, from a ramp of POWER_BLOCK entries
      whose next one, the step -b POWER_BLOCK between periods, goes into
      the carries.
    A word's top bit is clear, so its arithmetic shift is exact, and the
    shifted totals are summed in the low lane of their words, in the entry
    dtype, their other bytes staying clear (NumPy accumulates int8 over
    that strided view twice as fast as over contiguous entries).  So the
    kernel runs only int64 and entry-dtype loops, whose code pages the
    other passes fault in too.  A slice is summed BLOCK bytes at a time:
    beside the slices this holds BLOCK + 8 bytes of carry words and a
    (POWER_BLOCK + 1) w-byte ramp, allocated once per call."""
    q, d = chi.q, chi.order
    h = (q - 1) // 2
    dtype = sum_dtype(d, span)
    top = None
    if out is not None:
        c = np.min_scalar_type(-d)
        top = out.view(np.int8)[(dtype.itemsize - c.itemsize) * len(out):]
        top = top.view(c)
    pay = None
    if d == 2:
        src = chi.modulus.classes(2, np.array(LATTICE[2][0], np.int8), top)
    else:
        src = chi.modulus.classes(d, out=top)
        if d in LATTICE:
            pay = _packed(chi, dtype)
        elif d <= BLOCK:  # entry j: chi(g^j)
            pay = chi._roots(chi._class_of(np.arange(d, dtype=np.int64)))
    w = dtype.itemsize
    swar = w <= 2 and h + 1 >= BLOCK and sys.byteorder == "little"
    if swar:
        bias = 257 if d > 2 else 1
        lanes = sum(1 << 8 * w * k for k in range(8 // w))
        mask = (1 << 8 * w) - 1
        carry = np.empty(BLOCK // 8 + 1, np.int64)
        low = carry.view(dtype)[::8 // w]  # each word's low lane
        spread = carry[:-1]
        group = POWER_BLOCK * w // 8  # the words of one ramp period
        ramp = np.arange(0, -bias * (POWER_BLOCK + 1), -bias).astype(dtype)
    total = None
    for lo in range(0, h + 1, BLOCK):
        block = src[lo:lo + BLOCK]
        s = (np.empty(len(block), dtype) if out is None
             else out[lo:lo + len(block)])
        if d == 2:
            s[...] = block
        else:
            for a in range(0, len(block), POWER_BLOCK):
                part = block[a:a + POWER_BLOCK]
                if pay is None:
                    s[a:a + POWER_BLOCK] = chi._roots(
                        chi._class_of(part.astype(np.int64)))
                else:  # every class of n >= 1 is in [0, d): no bounds check
                    np.take(pay, part.astype(np.intp),
                            out=s[a:a + POWER_BLOCK], mode="clip")
        if total is None:
            s[0] = 0  # S_0: n = 0 has no class
        if swar and len(s) == BLOCK:
            s += bias
            prev = 0 if total is None else int(total)
            for part in s.reshape(w, -1):  # BLOCK bytes each
                words = part.view(np.int64)
                words *= lanes
                carry[0] = prev - bias & mask
                np.right_shift(words, 64 - 8 * w, out=carry[1:])
                low[group::group] += ramp[-1]
                np.cumsum(low, dtype=dtype, out=low)
                spread *= lanes
                part += spread.view(dtype)
                periods = part.reshape(-1, POWER_BLOCK)
                periods += ramp[:-1]
                prev = int(part[-1])
        else:
            if total is not None:  # no int8 add for one-slice tables
                s[:1] += total
            if s.dtype.kind == "c":
                np.cumsum(s, out=s)
            else:  # suffix sums U_k, then S_k = U_0 - U_{k+1}
                back = s[::-1]
                np.cumsum(back, dtype=dtype, out=back)
                last = s[0]
                np.subtract(last, s[1:], out=s[:-1])
                s[-1] = last
        total = s[-1]
        yield s


def _check_window(table: PrefixTable, v: int) -> None:
    if v > table.q:
        raise WindowTooLarge(f"V={v} exceeds q={table.q}")
    if v < 1:
        raise ValueError("window length must be >= 1")
    if v > table.span:
        raise ValueError(f"V={v} exceeds the table's span {table.span}")


def _differences(table: PrefixTable, lam, v: int):
    """S_b - S_a in the table's dtype (np.subtract wraps without warning),
    a = lam reduced to [1, q], b = a + v less q past q (S_q = 0)."""
    q = table.q
    a = (lam - 1) % q + 1
    b = a + v
    b = b - q * (b > q)
    return np.subtract(table.at(b), table.at(a))


def window_sum(table: PrefixTable, lam, v: int):
    """sum_{1<=j<=v} chi(lam + j) for an int or an integer array of starts,
    as _differences gives it: shaped like lam, in the table's dtype, packed
    at rank 2 (lattice_norm reads it).  Starts are read in int64, GATHER at
    a time into one result array."""
    _check_window(table, v)
    if np.ndim(lam) == 0:
        return _differences(table, int(lam), v)
    lam = np.asarray(lam)
    flat = lam.reshape(-1)
    out = np.empty(len(flat), table.sums.dtype)
    for lo in range(0, len(flat), GATHER):
        block = flat[lo:lo + GATHER].astype(np.int64, copy=False)
        out[lo:lo + GATHER] = _differences(table, block, v)
    return out.reshape(lam.shape)


def window_array(table: PrefixTable, v: int, lo: int = 0,
                 hi: int | None = None) -> np.ndarray:
    """window_sum over the starts lam in (lo, hi], by default every start in
    [1, q]: starts up to h - v are a slice difference S_{lam+v} - S_lam
    inside the stored half, the rest are read through PrefixTable.at."""
    q = table.q
    _check_window(table, v)
    hi = q if hi is None else hi
    s = table.sums
    cut = min(max(table.h - v, lo), hi)  # starts in (lo, cut] end by h
    p = np.empty(hi - lo, dtype=s.dtype)
    np.subtract(s[lo + 1 + v:cut + 1 + v], s[lo + 1:cut + 1],
                out=p[:cut - lo])
    if cut < hi:
        p[cut - lo:] = _differences(
            table, np.arange(cut + 1, hi + 1, dtype=np.int64), v)
    return p


def unpack(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lanes (a, b) of packed rank-2 window sums p = a + 2^w b mod
    2^(2w), new arrays in p's dtype, exact for |a|, |b| < 2^(w-1): a = (p <<
    w) >> w and b = (p + 2^(w-1)) >> w, by ufuncs, which wrap without
    warning."""
    w = 4 * p.itemsize
    a = np.left_shift(p, w)
    np.right_shift(a, w, out=a)
    b = np.add(p, 1 << w - 1)
    np.right_shift(b, w, out=b)
    return a, b


def lattice_norm(table: PrefixTable | Character, p: np.ndarray) -> np.ndarray:
    """The integer that exact paths key window sums p on, in p's dtype: |p|
    at rank 1 (|p| <= span); at rank 2 (LATTICE) the squared norm of the
    unpacked lanes, a^2 - ab + b^2 (a^2 + b^2 at order 4), squared in place
    beside one product (none at order 4).  It is exact with no widening: a
    window of length V <= span < 2^(w-1) has |a|, |b| <= V and norm at most
    V^2, so a^2 + b^2 < 2^(2w-1): int16 norms for 8-bit lanes, int32 for
    16, int64 for 32.  A window's 2r-th power is its norm's power 2r /
    rank."""
    if table.order == 2:
        return np.abs(p)
    a, b = unpack(p)
    ab = a * b if table.order != 4 else 0
    a *= a
    b *= b
    a += b
    a -= ab
    return a


def interval_sum(chi: Character, m: int, n: int
                 ) -> int | tuple[int, int] | complex:
    """sum_{m < k <= m+n} chi(k): a Python int when chi is real, Python-int
    coordinates (a, b) in the LATTICE basis for orders 3, 4 and 6, else a
    complex number.  The L = n mod q terms past full periods read the half
    class table (_mirror_blocks) or, if L (isqrt(d-1)+1) <= isqrt(q), the
    O(sqrt(d)) Euler criterion per term (_dlog_class).  LATTICE orders
    count each block's classes; others sum each block's roots and add the
    block sums in order, so beside the class table O(POWER_BLOCK) roots."""
    if n < 0:
        raise ValueError("interval length must be >= 0")
    q, d, h = chi.q, chi.order, chi.q // 2
    if chi.is_trivial:
        # principal character: count integers in the range coprime to q
        return n - ((m + n) // q - m // q)
    n %= q
    if n * (math.isqrt(d - 1) + 1) <= math.isqrt(q):
        j = [chi._dlog_class(k) for k in range(m + 1, m + n + 1)]
        z = j.index(None) if None in j else n  # the one multiple of q
        blocks = [(np.array(j[p:e], dtype=np.int64), False)
                  for p, e in ((0, z), (z + 1, n))]
    else:
        blocks = _mirror_blocks(chi.modulus.classes(d), m, n)
    if d in LATTICE:  # column c of LATTICE counted once per chi(k) = e(c/d)
        counts = np.zeros(d, dtype=np.int64)
        for j, up in blocks:
            counts[chi._class_of(np.arange(d) + up * h)] += np.bincount(
                j, minlength=d)
        coords = np.array(LATTICE[d]) @ counts
        return int(coords[0]) if d == 2 else tuple(map(int, coords))
    return sum((complex(chi._roots(chi._class_of(j.astype(np.int64) + up * h)
                                   ).sum()) for j, up in blocks), 0j)


def _mirror_blocks(half: np.ndarray, m: int, n: int) -> Iterator[tuple]:
    """(j, up): j views up to POWER_BLOCK classes of the residues k of m+1 ..
    m+n (n < q), in order: half[k], or (up) half[q-k] past h, as dlog(k) =
    dlog(q-k) + h; multiples of q skipped."""
    h, pos = len(half) - 1, 0
    q = 2 * h + 1
    while pos < n:
        k = (m + 1 + pos) % q
        run = min(q - k if k > h else h + 1 - k, n - pos, POWER_BLOCK)
        if k:
            j = half[q - k:q - k - run:-1] if k > h else half[k:k + run]
            yield j, k > h
        pos += run if k else 1


def mirror_classes(chi: Character, k):
    """chi's classes c, chi(k) = e(c/d), at residues k in [1, q-1] (an int
    or int64 array), off the half class table as _mirror_blocks."""
    q, h = chi.q, chi.q // 2
    j = chi.modulus.classes(chi.order)[np.minimum(k, q - k)]
    return chi._class_of(j.astype(np.int64) + (k > h) * h)


def lattice_complex(d: int, coords: tuple[int, int]) -> complex:
    """a + b*i (order 4) or a + b*omega (orders 3, 6) at coordinates (a, b)."""
    return coords[0] + coords[1] * (1j if d == 4 else
                                    complex(-0.5, math.sqrt(3) / 2))


def legendre_value_array(q: int) -> np.ndarray:
    """The quadratic character chi(n) for n in [0, h], h = (q-1)/2, as
    h+1 int8 entries, the class table of order 2 (no g); n > h is chi(-1)
    chi(q-n), chi(-1) = (-1)^h."""
    certify_modulus(q)
    vals = PrimeModulus(q).classes(2, np.array(LATTICE[2][0], np.int8))
    vals[0] = 0
    return vals


def square_buffers(q: int) -> tuple:
    """square_residues' buffers for odd primes up to q: k^2, k < min(h+1,
    BLOCK), in uint32, a quotient and an intp residue buffer as long."""
    sq = np.arange(1, min((q - 1) // 2, BLOCK - 1) + 1, dtype=np.uint32)
    sq *= sq
    return sq, np.empty_like(sq), np.empty(len(sq), np.intp)


def square_residues(q: int, squares: tuple) -> Iterator[np.ndarray]:
    """Yield k^2 mod q for k in [1, h], h = (q-1)/2, in order, as intp
    blocks in one buffer, each valid until the next is read.

    The first B are the uint32 squares of squares (square_buffers for q or
    a larger prime; if empty, k < POWER_BLOCK from buffers built here),
    reduced by a quotient.  Each later block is stepped in uint32 from the
    last, with no product: (k+B)^2 = k^2 + inc_k and inc_{k+B} = inc_k +
    2B^2, both mod q.  A sum of two residues is below 2q < 2^32, as q <
    TABLE_CEILING, and folds back as min(x, x - q), the subtraction
    wrapping to above x for x < q.  Beside the buffers this holds 2B
    uint32 residues."""
    h = (q - 1) // 2
    sq, quot, res = squares or square_buffers(min(q, 2 * POWER_BLOCK))
    b = min(h, len(sq))
    sq, quot, res = sq[:b], quot[:b], res[:b]
    np.floor_divide(sq, q, out=quot)
    quot *= q
    first = np.subtract(sq, quot, out=res)
    if b < h:  # the stepping state, from the residues of [1, B]
        cur, tmp = first.astype(np.uint32), quot

        def add(x, y):  # x = x + y mod q, for x and y in [0, q)
            np.add(x, y, out=x)
            np.subtract(x, q, out=tmp)
            np.minimum(x, tmp, out=x)

        inc = np.arange(1, b + 1, dtype=np.uint32)
        inc *= b  # B k < 2^32, as B < 2^16
        np.remainder(inc, q, out=inc)
        add(inc, inc)
        add(inc, b * b % q)  # inc_k = 2Bk + B^2
        step = 2 * b * b % q
    del sq, quot  # free built squares before the blocks
    yield first
    for lo in range(b, h, b):
        add(cur, inc)
        add(inc, step)
        m = min(b, h - lo)
        res[:m] = cur[:m]
        yield res[:m]


def mark_squares(q: int, mark: np.ndarray, value, squares: tuple = ()) -> None:
    """mark[k^2 mod q] = value for k in [1, h], h = (q-1)/2: each quadratic
    residue once, read from square_residues(q, squares) and written by
    _scatter.  A mark of h+2 entries, shorter than q, takes the residues
    above h at entry h+1."""
    clip = len(mark) < q
    for s in square_residues(q, squares):
        _scatter(mark, s, value, clip)


# A scatter into more than 2^21 bytes goes by np.put, a smaller one by a
# fancy-index store.  On a host with 2 MB of L2 per core (numpy 2.4, best
# of 11), np.put builds the 5 MB order-2 classes at q = 10000019 in 26 ms
# against 31-32 and the order-3 ones at q = 10000141 in 35-38 against
# 41, but the 0.5 MB ones at q = 1000003 in 2.6-2.9 against 1.9.  Per
# random int8 write it takes 4.4-4.6 ns against 2.5-2.8 up to 1 MB, 4.0
# against 5.4 at 2 MB and 6.0 against 6.7 at 5 MB.
PUT_BYTES = 1 << 21


def _scatter(target: np.ndarray, idx: np.ndarray, vals, clip: bool) -> None:
    """target[idx] = vals for scratch intp idx: by np.put into more than
    PUT_BYTES, which writes an idx past the end at the last entry ("clip"),
    else by a fancy-index store, idx clipped the same way first if clip."""
    if target.nbytes > PUT_BYTES:
        np.put(target, idx, vals, mode="clip")
        return
    if clip:
        np.minimum(idx, len(target) - 1, out=idx)
    target[idx] = vals
