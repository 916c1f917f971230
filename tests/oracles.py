"""Full-period oracles for the half-period tables of burgess.chars, and
the literal triple sum for W.

Each oracle walks the whole period the slow, direct way: classes from one
power of g at a time, a q-wide value table (the quadratic one from every
square), prefix sums from it, window sums and moments from every window
start, and W term by term.  Nothing here reads a half table.
"""

import numpy as np

from burgess.chars import LATTICE
from burgess.sieve import enumerate_rough


def scatter_classes(mod, d):
    """k mod d at g^k for k in [0, q-2], -1 at 0: one power at a time."""
    c = np.full(mod.q, -1, dtype=np.int64)
    x = 1
    for k in range(mod.q - 1):
        c[x] = k % d
        x = x * mod.g % mod.q
    return c


def legendre_full(q):
    """The quadratic character chi(n) for n in [0, q-1], int8: -1 overwritten
    by 1 at every square k^2 mod q, k in [1, q-1]."""
    vals = np.full(q, -1, dtype=np.int8)
    vals[0] = 0
    k = np.arange(1, q, dtype=np.int64)
    vals[k * k % q] = 1
    return vals


def value_table(chi):
    """chi(n) for n in [0, q-1]: exact int8 {-1, 0, 1} for real characters
    (the squares on the whole period for the quadratic one), otherwise
    complex128, the d roots of unity of chi's order gathered by chi's
    classes at the scattered dlog classes."""
    if chi.is_quadratic:
        return legendre_full(chi.q)
    if chi.is_trivial:
        vals = np.ones(chi.q, dtype=np.int8)
    else:
        c = chi._class_of(scatter_classes(chi.modulus, chi.order))
        vals = chi._roots(np.arange(chi.order, dtype=np.int64))[c]
    vals[0] = 0
    return vals


def direct_w(chi, M, N, params):
    """W = sum over n in (M, M+N] and z-rough u of |sum_{v<=V} chi(n + uv)|,
    term by term: a Python int for the quadratic character, else a float."""
    q, vals = chi.q, value_table(chi)
    rough = enumerate_rough(params.z, params.U)
    scalar = int if chi.is_quadratic else complex
    total = 0 if chi.is_quadratic else 0.0
    for n in range(M + 1, M + N + 1):
        for u in rough:
            total += abs(sum(scalar(vals[(n + u * v) % q])
                             for v in range(1, params.V + 1)))
    return total


def full_prefix(chi):
    """S_0 .. S_q summed from a q-wide value table: the LATTICE columns
    (int64) or the roots of chi's classes (complex128), gathered by the
    scattered dlog classes."""
    q, d = chi.q, chi.order
    c = chi._class_of(scatter_classes(chi.modulus, d))
    if d in LATTICE:
        vals = np.array(LATTICE[d], dtype=np.int64)[:, c]
    else:
        vals = chi._roots(np.arange(d, dtype=np.int64))[c][None]
    vals[:, 0] = 0
    sums = np.zeros((len(vals), q + 1), dtype=vals.dtype)
    sums[:, 1:q] = np.cumsum(vals[:, 1:], axis=-1)
    sums[:, q] = sums[:, q - 1]
    return sums if len(vals) == 2 else sums[0]


def all_windows(full, v):
    """Window sums over every start lam in [0, q): S_{lam+v} - S_lam, wrapped
    past q by adding S_q (0 exactly on integer tables)."""
    q = full.shape[-1] - 1
    lam = np.arange(q)
    hi = lam + v
    wrap = hi > q
    return full[..., hi - q * wrap] - full[..., lam] + full[..., q:] * wrap


def lattice_norm_of(d, w):
    """|w| at rank 1, |w|^2 at rank 2, as Python ints."""
    if d == 2:
        return [abs(int(x)) for x in w]
    a, b = (x.tolist() for x in w)
    return [x * x + y * y - (0 if d == 4 else x * y) for x, y in zip(a, b)]


def brute_moment(chi, v, r):
    """sum over all q starts of |w|^(2r): a Python int on LATTICE orders,
    a float otherwise."""
    w = all_windows(full_prefix(chi), v)
    d = chi.order
    if d in LATTICE:
        power = 2 * r // (1 if d == 2 else 2)
        return sum(n ** power for n in lattice_norm_of(d, w))
    return float(np.sum(np.abs(w) ** (2 * r)))


def packed(coords, dtype):
    """LATTICE pairs (a, b), shape (2, ...), packed as a rank-2 table packs
    them: a + 2^w b mod 2^(2w) read signed, in dtype of 2w bits, in Python
    ints."""
    w = 4 * np.dtype(dtype).itemsize
    a, b = (np.asarray(x).ravel().tolist() for x in coords)
    top = 1 << 2 * w
    out = [(x + (y << w)) % top for x, y in zip(a, b)]
    out = [x - top if x >= top >> 1 else x for x in out]
    return np.array(out, dtype=dtype).reshape(np.shape(coords)[1:])


def unpacked(p, order):
    """The int64 LATTICE coordinates of an order-d table's entries or window
    sums p, in Python ints: at rank 2 the pairs (a, b), shape (2,) + p's,
    of p = a + 2^w b mod 2^(2w), a the low w bits read signed; p itself at
    rank 1 and for complex tables."""
    if len(LATTICE.get(order, ())) != 2:
        return p
    p = np.asarray(p)
    w = 4 * p.itemsize
    pairs = []
    for x in p.ravel().tolist():
        a = (x + (1 << w - 1)) % (1 << w) - (1 << w - 1)
        pairs.append((a, (x - a) >> w))
    return np.moveaxis(np.array(pairs, np.int64).reshape(p.shape + (2,)),
                       -1, 0)
