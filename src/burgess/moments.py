"""Complete 2r-th moments of windowed character sums and their bound.

The moment sum_{lam=1..q} |sum_{v<=V} chi(lam+v)|^{2r} is computed in one
pass over the stored half of the prefix table, in blocks of BLOCK window
starts sliced from it, so no q-length window array is made.  The window at
lam and the one at q-1-V-lam are mirror images (chi(q-n) = chi(-1) chi(n)),
so for V < h = (q-1)/2 the starts (0, h-V], whose windows lie inside the
stored half, are counted twice and the 2V+1 starts left are read once.
For characters of order 2, 3, 4 and 6 the window sums are lattice points
with an exact integer norm of at most V^rank (chars.lattice_norm, computed
in int32 while 2V^2 < 2^31), so the moment reduces to a bincount of the
norms followed by an exact big-integer combination; that is what makes the
inequality margin a zero-tolerance check.  Characters of other orders sum
|w|^{2r} in double precision block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chars import BLOCK, Character, lattice_norm, window_array
from .errors import TrivialCharacter


@dataclass
class MomentReport:
    q: int
    V: int
    r: int
    char_index: int
    moment: int | float
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


def _leq_root(x: int | float, a: int, b: int, q: int) -> bool:
    """x <= a + b sqrt(q), decided exactly as x - a <= 0 or (x - a)^2 <=
    b^2 q; a float x is read as its exact rational, and inf fails."""
    if isinstance(x, float):
        if not math.isfinite(x):
            return False
        x = Fraction(x)
    return x - a <= 0 or (x - a) ** 2 <= b * b * q


def _power_sum(keys: np.ndarray, counts: np.ndarray, p: int) -> int:
    """sum count * key^p over paired arrays, in Python ints."""
    return sum(c * k ** p for k, c in zip(keys.tolist(), counts.tolist()))


def moment_sum(chi: Character, V: int, r: int) -> MomentReport:
    """The complete 2r-th moment over all q window positions, with the
    Weil-bound verdict decided exactly.

    An exact table gives a Python int: the bincount of the lattice norms
    when their V^rank + 1 bins fit in q + 1, otherwise (a caller-given V
    with V^2 > q) each block's distinct norms by np.unique.
    """
    if chi.is_trivial:
        raise TrivialCharacter("moment requires a nontrivial character")
    if r < 1:
        raise ValueError("r must be >= 1")
    q = chi.q
    table = chi.prefix
    h = table.h
    # (weight, lo, hi): the starts (lo, hi], each standing for weight windows
    if V < h:  # (0, h-V] and their mirrors [h, q-2-V]; then the rest
        spans = [(2, 0, h - V), (1, h - V, h - 1), (1, q - 2 - V, q)]
    else:
        spans = [(1, 0, q)]
    blocks = ((weight, window_array(table, V, a, min(a + BLOCK, hi)))
              for weight, lo, hi in spans for a in range(lo, hi, BLOCK))
    exact = table.exact
    if not exact:
        moment: int | float = float(sum(
            weight * np.sum((w.real ** 2 + w.imag ** 2) ** r)
            for weight, w in blocks))
    else:
        power = 2 * r // table.rank
        if V ** table.rank <= q:
            # zeroed pages that no norm reaches are never touched
            counts = np.zeros(V ** table.rank + 1, dtype=np.int64)
            for weight, w in blocks:
                c = np.bincount(lattice_norm(table, w, V))
                counts[:len(c)] += weight * c
            keys = np.flatnonzero(counts)
            moment = _power_sum(keys, counts[keys], power)
        else:
            moment = sum(weight * _power_sum(
                *np.unique(lattice_norm(table, w), return_counts=True), power)
                for weight, w in blocks)
    bound = weil_bound(r, V, q)
    passed = _leq_root(moment, (2 * r) ** r * V ** r * q,
                       2 * r * V ** (2 * r), q)
    margin = bound - moment if math.isfinite(bound) else math.inf
    return MomentReport(q=q, V=V, r=r, char_index=chi.index, moment=moment,
                        bound=bound, margin=margin, exact=exact, passed=passed)


def auto_window(r: int, q: int) -> int:
    """The inductive-step window length floor(r * q^{1/2r}), exact floor."""
    from .bounds import iroot
    return iroot(r ** (2 * r) * q, 2 * r)


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
        report.specialized_passed = _leq_root(report.moment, 0, c * q, q)
        report.passed = report.passed and report.specialized_passed
    return report
