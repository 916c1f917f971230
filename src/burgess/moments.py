"""Complete 2r-th moments of windowed character sums and their bound.

The moment sum_{lam=1..q} |sum_{v<=V} chi(lam+v)|^{2r} is computed in one
pass over the prefix sums S_0 .. S_h, h = (q-1)/2, in blocks of BLOCK window
starts, so no q-length window array is made.  The window at lam and the one
at q-1-V-lam are mirror images (chi(q-n) = chi(-1) chi(n)), so for V < h
the starts (0, h-V], whose windows S_{lam+V} - S_lam lie inside the stored
half, are counted twice and the 2V+1 starts left are read once.  A
character whose prefix table serves V, or any character when V >= h, reads
the blocks from its table; otherwise the sums are streamed from
chars.prefix_slices, in the lanes that serve V, and only about V + 2 BLOCK
of them are held at a time, plus S_0 .. S_{2V+1} and S_{h-2V-1} .. S_h for
the 2V+1 edge starts, so no q-sized table is built and the moment is bit
for bit the table's.  For characters of order 2, 3, 4 and 6 the window
sums are lattice points with an exact integer norm of at most V^rank
(chars.lattice_norm, read off the packed sums in their own dtype: int16 on
the 8-bit lanes that serve V < 2^7, int32 on 16-bit lanes), so
the moment reduces to a bincount of the norms followed by an exact
big-integer combination; that is what makes the inequality margin a
zero-tolerance check.  Order-2 windows in 8-bit lanes (V < 2^7) are
counted two to a bincount key, |w_2i| + 256 |w_2i+1| read as uint16, and
the key counts are folded into counts of |w| once per moment.  Characters
of other orders sum |w|^{2r} in double precision block by block; a sum past
the double range is taken again in exact rationals, each block scaled by
its largest |w|^2, so its verdict is still decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chars import (
    BLOCK,
    LATTICE,
    Character,
    PrefixEnds,
    lattice_norm,
    prefix_slices,
    window_array,
)
from .errors import TrivialCharacter, WindowTooLarge


@dataclass
class MomentReport:
    q: int
    V: int
    r: int
    char_index: int
    moment: int | float | Fraction
    bound: float
    margin: float
    exact: bool
    passed: bool
    specialized_bound: float | None = None
    specialized_passed: bool | None = None


def weil_bound(r: int, V: int, q: int) -> float:
    """(2r)^r V^r q + 2r V^{2r} sqrt(q); inf when doubles overflow."""
    if r < 1 or V < 1:
        raise ValueError("need r >= 1 and V >= 1")
    try:
        return (2 * r) ** r * float(V) ** r * q + 2 * r * float(V) ** (2 * r) * math.sqrt(q)
    except OverflowError:
        return math.inf


def weil_terms(r: int, V: int, q: int) -> tuple[int, int]:
    """(a, b) with the Weil bound a + b sqrt(q): a = (2r)^r V^r q and
    b = 2r V^{2r}, exact ints of any size."""
    return (2 * r) ** r * V ** r * q, 2 * r * V ** (2 * r)


def leq(x: int | float | Fraction, a: int | float | Fraction, b: int = 0,
        q: int = 0) -> bool:
    """x <= a + b sqrt(q) for b >= 0, decided exactly as x - a <= 0 or
    (x - a)^2 <= b^2 q; a float x or a is read as its exact rational.  The
    one comparison behind every moment and Hölder chain verdict."""
    d = Fraction(x) - Fraction(a)
    return d <= 0 or d * d <= b * b * q


def _power_sum(keys: np.ndarray, counts: np.ndarray, p: int) -> int:
    """sum count * key^p over paired arrays, in Python ints."""
    return sum(c * k ** p for k, c in zip(keys.tolist(), counts.tolist()))


def _count_pairs(w: np.ndarray, weight: int, pairs: np.ndarray,
                 counts: np.ndarray) -> None:
    """Count an int8 block of order-2 window sums (|w| <= V < 128), two
    windows to a key: |w| in place, read as uint16 keys |w_2i| + 256
    |w_2i+1| (bytes swapped on a big-endian host: moment_sum folds both
    bytes alike), bincounted into pairs, which is indexed by key; an odd
    block's last |w| goes into counts.  Each count is weighted."""
    np.abs(w, out=w)
    n = len(w) & ~1
    c = np.bincount(w[:n].view(np.uint16))
    c *= weight
    pairs[:len(c)] += c
    if n < len(w):
        counts[w[-1]] += weight


def _scaled_power_sum(w: np.ndarray, r: int) -> Fraction:
    """sum |w|^(2r) over a complex block as m^r sum (|w|^2 / m)^r, m the
    block's largest |w|^2, in the exact rationals of the float sum and of
    m: no term passes the double range, and none that matters underflows."""
    norm = w.real ** 2 + w.imag ** 2
    m = float(norm.max())
    if m == 0:
        return Fraction(0)
    return Fraction(float(np.sum((norm / m) ** r))) * Fraction(m) ** r


def moment_sum(chi: Character, V: int, r: int) -> MomentReport:
    """The complete 2r-th moment over all q window positions, with the
    Weil-bound verdict decided exactly.

    V must lie in [1, q], and is refused before any table is built.  The
    window blocks are read from chi's prefix table when one serving V
    is built or V >= h, otherwise from the streamed prefix sums
    (_streamed_blocks), one entry per start in the table's dtype, packed at
    rank 2.  An exact table gives a Python int: the bincount of the lattice
    norms, taken in that dtype (of 8-bit order-2 blocks two windows a key,
    _count_pairs) when their V^rank + 1 bins fit in q + 1, otherwise (a
    caller-given V with V^2 > q) each block's distinct norms by np.unique.
    A float moment past the double range is summed again block by block in
    exact rationals (_scaled_power_sum), so its verdict is decided without
    overflow.
    """
    if chi.is_trivial:
        raise TrivialCharacter("moment requires a nontrivial character")
    if r < 1:
        raise ValueError("r must be >= 1")
    q, d = chi.q, chi.order
    if V < 1:
        raise ValueError("window length must be >= 1")
    if V > q:
        raise WindowTooLarge(f"V={V} exceeds q={q}")
    h = (q - 1) // 2
    # (weight, lo, hi): the starts (lo, hi], each standing for weight windows
    if V < h:  # (0, h-V] and their mirrors [h, q-2-V]; then the rest
        spans = [(2, 0, h - V), (1, h - V, h - 1), (1, q - 2 - V, q)]
    else:
        spans = [(1, 0, q)]

    def blocks():
        built = vars(chi).get("prefix")
        if V < h and (built is None or built.span < V):
            return _streamed_blocks(chi, V, spans)
        table = chi.prefix_for(V)
        return ((weight, window_array(table, V, a, min(a + BLOCK, hi)))
                for weight, lo, hi in spans for a in range(lo, hi, BLOCK))

    exact = d in LATTICE
    if not exact:
        with np.errstate(over="ignore"):
            total = float(sum(weight * np.sum((w.real ** 2 + w.imag ** 2) ** r)
                              for weight, w in blocks()))
        moment: int | float | Fraction = total
        if total == math.inf:
            moment = sum(weight * _scaled_power_sum(w, r)
                         for weight, w in blocks())
    else:
        rank = len(LATTICE[d])
        power = 2 * r // rank
        if V ** rank <= q:
            # zeroed pages that no norm reaches are never touched
            counts = np.zeros(V ** rank + 1, dtype=np.int64)
            # 8-bit order-2 blocks are counted two windows a key
            pairs = (np.zeros((V + 1) * 256, dtype=np.int64)
                     if d == 2 and V < 1 << 7 else None)
            for weight, w in blocks():
                if pairs is not None and w.dtype == np.int8:
                    _count_pairs(w, weight, pairs, counts)
                else:
                    c = np.bincount(lattice_norm(chi, w))
                    counts[:len(c)] += weight * c
            if pairs is not None:  # each key's two windows, by byte
                pairs = pairs.reshape(V + 1, 256)
                counts += pairs.sum(axis=1)
                counts += pairs[:, :V + 1].sum(axis=0)
            keys = np.flatnonzero(counts)
            moment = _power_sum(keys, counts[keys], power)
        else:
            moment = sum(weight * _power_sum(
                *np.unique(lattice_norm(chi, w), return_counts=True), power)
                for weight, w in blocks())
    bound = weil_bound(r, V, q)
    passed = leq(moment, *weil_terms(r, V, q), q)
    # a float moment past the double range enters as its inf total
    margin = (bound - (moment if exact else total) if math.isfinite(bound)
              else math.inf)
    return MomentReport(q=q, V=V, r=r, char_index=chi.index, moment=moment,
                        bound=bound, margin=margin, exact=exact, passed=passed)


def _streamed_blocks(chi: Character, V: int, spans: list):
    """moment_sum's (weight, window block) pairs for V < h, with the same
    block boundaries, read from prefix_slices serving V instead of a
    prefix table.

    The twice-counted starts (0, h-V] are slice differences S_{lam+V} -
    S_lam over the slices still read, packed as a table's are; a slice is
    dropped once every later block starts past it, so beside the source
    table only about V + 2 BLOCK sums are held.  The ends S_0 .. S_{2V+1}
    and S_{h-2V-1} .. S_h are kept as a PrefixEnds, which window_array
    reads the 2V+1 edge starts from."""
    h = (chi.q - 1) // 2
    held: dict[int, np.ndarray] = {}  # j -> S_{j BLOCK} .. S_{(j+1) BLOCK - 1}
    fed = enumerate(prefix_slices(chi, V))

    def read(x: int, n: int) -> np.ndarray:
        """S_x .. S_{x+n-1}, reading slices up to the one holding the last."""
        last = (x + n - 1) // BLOCK
        while last not in held:
            j, s = next(fed)
            held[j] = s
        parts = [held[j][max(x - j * BLOCK, 0):x + n - j * BLOCK]
                 for j in range(x // BLOCK, last + 1)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    tail_lo = max(h - 2 * V - 1, 0)
    head = read(0, min(2 * V + 2, h + 1)).copy()
    (weight, lo, hi), *edges = spans
    for a in range(lo, hi, BLOCK):
        n = min(a + BLOCK, hi) - a
        yield weight, read(a + 1 + V, n) - read(a + 1, n)
        keep = min(a + 1 + BLOCK, tail_lo)  # the next block reads from here
        for j in [j for j in held if (j + 1) * BLOCK <= keep]:
            del held[j]
    ends = PrefixEnds(head, read(tail_lo, h + 1 - tail_lo), chi.order, h)
    held.clear()
    for weight, lo, hi in edges:
        for a in range(lo, hi, BLOCK):
            yield weight, window_array(ends, V, a, min(a + BLOCK, hi))


def auto_window(r: int, q: int) -> int:
    """The inductive-step window length floor(r * q^{1/2r}), exact floor
    (bounds.scaled_root: r^(2r) q is built only beside a boundary)."""
    from .bounds import scaled_root
    return scaled_root(r, 2 * r, q)


def moment_check(q_or_char: int | Character, char_index: int | None = None,
                 V: int | str = "auto", r: int = 2) -> MomentReport:
    """Moment plus bound check; adds (2r)^{2r} q^{3/2} at the auto V."""
    if isinstance(q_or_char, Character):
        chi = q_or_char
    else:
        from .chars import build_modulus
        mod = build_modulus(q_or_char)
        chi = mod.character(char_index if char_index is not None
                            else (mod.q - 1) // 2)
    q = chi.q
    v_auto = auto_window(r, q)
    v = v_auto if V == "auto" else int(V)
    report = moment_sum(chi, v, r)
    if v == v_auto:
        c = (2 * r) ** (2 * r)
        try:
            spec_bound = c * q ** 1.5
        except OverflowError:  # c past the double range
            spec_bound = math.inf
        report.specialized_bound = spec_bound
        report.specialized_passed = leq(report.moment, 0, c * q, q)
        report.passed = report.passed and report.specialized_passed
    return report
