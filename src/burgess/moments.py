"""Complete 2r-th moments of windowed character sums and their bound.

The moment sum_{lam=1..q} |sum_{v<=V} chi(lam+v)|^{2r} is computed in one
O(q) pass over the prefix table.  On the quadratic path the window values
are small integers, so the whole moment reduces to a bincount over at most
2V+1 distinct values followed by an exact big-integer combination; that is
what makes the inequality margin a zero-tolerance check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chars import Character, PrefixTable, window_array
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


def weil_bound_log(r: int, V: int, q: int) -> float:
    """log of the bound, always representable; used when the value overflows."""
    t1 = r * math.log(2 * r) + r * math.log(V) + math.log(q)
    t2 = math.log(2 * r) + 2 * r * math.log(V) + 0.5 * math.log(q)
    hi, lo = max(t1, t2), min(t1, t2)
    return hi + math.log1p(math.exp(lo - hi))


def _log_of(x: int | float) -> float:
    return math.log(x) if x > 0 else -math.inf


def _leq_with_overflow(moment: int | float, bound: float, r: int, V: int,
                       q: int) -> bool:
    if math.isfinite(bound):
        return moment <= bound
    return _log_of(moment) <= weil_bound_log(r, V, q)


def _exact_chunk_moment(w: np.ndarray, V: int, r: int) -> int:
    """Exact sum of w^{2r} for an int64 window chunk with |w| <= V."""
    counts = np.bincount(w + V, minlength=2 * V + 1)
    total = 0
    for idx in np.flatnonzero(counts):
        val = int(idx) - V
        total += int(counts[idx]) * val ** (2 * r)
    return total


def moment_sum(chi: Character, V: int, r: int, parts: int = 1,
               table: PrefixTable | None = None) -> MomentReport:
    """The complete 2r-th moment over all q window positions.

    parts > 1 splits the lam-range; chunks merge by plain addition, so the
    partitioned result is bit-identical on the exact path.
    """
    if chi.is_trivial:
        raise TrivialCharacter("moment requires a nontrivial character")
    if r < 1:
        raise ValueError("r must be >= 1")
    q = chi.q
    table = table if table is not None else chi.prefix
    w = window_array(table, V)
    bounds_idx = np.linspace(0, q, max(parts, 1) + 1).astype(int)
    chunks = [w[a:b] for a, b in zip(bounds_idx[:-1], bounds_idx[1:]) if b > a]
    if table.exact:
        moment: int | float = sum(_exact_chunk_moment(c, V, r) for c in chunks)
        exact = True
    else:
        mags = [np.sum((c.real ** 2 + c.imag ** 2) ** r) for c in chunks]
        moment = float(sum(mags))
        exact = False
    bound = weil_bound(r, V, q)
    passed = _leq_with_overflow(moment, bound, r, V, q)
    margin = bound - moment if math.isfinite(bound) else math.inf
    return MomentReport(q=q, V=V, r=r, char_index=chi.index, moment=moment,
                        bound=bound, margin=margin, exact=exact, passed=passed)


def auto_window(r: int, q: int) -> int:
    """The inductive-step window length floor(r * q^{1/2r}), exact floor."""
    from .bounds import iroot
    return iroot(r ** (2 * r) * q, 2 * r)


def moment_check(q_or_char: int | Character, char_index: int | None = None,
                 V: int | str = "auto", r: int = 2,
                 parts: int = 1) -> MomentReport:
    """Moment plus bound check; adds the q^{3/2} form when V is the auto one."""
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
    report = moment_sum(chi, v, r, parts=parts)
    if v == v_auto:
        spec_bound = (2 * r) ** (2 * r) * q ** 1.5
        report.specialized_bound = spec_bound
        report.specialized_passed = (
            report.moment <= spec_bound if math.isfinite(spec_bound)
            else _log_of(report.moment) <= 2 * r * math.log(2 * r) + 1.5 * math.log(q))
        report.passed = report.passed and report.specialized_passed
    return report
