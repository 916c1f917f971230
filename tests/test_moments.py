import cmath
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from burgess.chars import (
    BLOCK,
    LATTICE,
    build_modulus,
    lattice_norm,
    prefix_table,
    window_array,
    window_sum,
)
from burgess.errors import TrivialCharacter, WindowTooLarge
from burgess.moments import (
    _scaled_power_sum,
    auto_window,
    leq,
    moment_check,
    moment_sum,
    weil_bound,
)
from oracles import brute_moment, packed, unpacked, value_table

# e(1/d) in Z[omega] (omega = e(1/3); d = 3, 6) or in Z[i] (d = 4), as the
# pair (a, b) for a + b*beta, and beta itself as a complex number
ROOT = {3: (0, 1), 4: (0, 1), 6: (1, 1)}
BETA = {3: cmath.exp(2j * math.pi / 3), 4: 1j, 6: cmath.exp(2j * math.pi / 3)}


@pytest.fixture(scope="module")
def mod101():
    return build_modulus(101)


def naive_moment(chi, v, r):
    """Double loop straight from the definition."""
    q = chi.q
    vals = value_table(chi)
    total = 0 if chi.is_quadratic else 0.0
    for lam in range(1, q + 1):
        if chi.is_quadratic:
            w = sum(int(vals[(lam + j) % q]) for j in range(1, v + 1))
            total += w ** (2 * r)
        else:
            w = sum(complex(vals[(lam + j) % q]) for j in range(1, v + 1))
            total += abs(w) ** (2 * r)
    return total


def lattice_mul(d, x, y):
    (a, b), (c, e) = x, y
    if d == 4:  # i^2 = -1
        return a * c - b * e, a * e + b * c
    return a * c - b * e, a * e + b * c - b * e  # omega^2 = -1 - omega


def oracle_pairs(chi):
    """chi(n) for n in [0, q) as Python-int pairs: the power e(1/d)^c of
    the single value chi(n) = e(c/d), multiplied out in the ring."""
    d = chi.order
    powers = [(1, 0)]
    for _ in range(d - 1):
        powers.append(lattice_mul(d, powers[-1], ROOT[d]))
    return [(0, 0) if v.is_zero else powers[v.num]
            for v in map(chi.value, range(chi.q))]


def oracle_norm(d, a, b):
    return a * a + b * b if d == 4 else a * a - a * b + b * b


@pytest.mark.parametrize("d", [3, 4, 6])
def test_lattice_path_matches_integer_oracle(d):
    q = 1009
    mod = build_modulus(q)
    for m in ((q - 1) // d, (q - 1) // d * (d - 1)):  # chi and its conjugate
        chi = mod.character(m)
        assert chi.order == d
        vals = oracle_pairs(chi)
        table = prefix_table(chi)
        # 16-bit lanes packed in one int32
        assert table.rank == 2 and table.sums.dtype == np.int32
        for v in (1, 7, 31, 40):  # 40^2 > q: the per-block np.unique path
            windows = []
            for lam in range(1, q + 1):
                terms = [vals[(lam + j) % q] for j in range(1, v + 1)]
                windows.append((sum(t[0] for t in terms),
                                sum(t[1] for t in terms)))
            got = window_array(table, v)  # one packed entry a start
            assert got.dtype == np.int32 and got.shape == (q,)
            assert list(zip(*unpacked(got, d).tolist())) == windows
            lams = np.arange(-q, 2 * q, 13, dtype=np.int64)
            w = unpacked(window_sum(table, lams, v), d)
            assert list(zip(*w.tolist())) == [
                windows[(lam - 1) % q] for lam in lams.tolist()]
            norms = [oracle_norm(d, a, b) for a, b in windows]
            assert all(round(abs(a + b * BETA[d]) ** 2) == n
                       for (a, b), n in zip(windows, norms))
            assert lattice_norm(table, got).tolist() == norms
            for r in (1, 2, 3):
                moment = moment_sum(chi, v, r).moment
                assert type(moment) is int
                assert moment == sum(n ** r for n in norms), (m, v, r)


@pytest.mark.parametrize("d", [3, 4, 6])
def test_lattice_norm_int32_guard(d):
    # window sums of v values, from the class counts of v terms: 2v^2 < 2^31
    # holds at v = 32767, the longest window of 16-bit lanes packed in int32
    # (int32 norms), and fails at v = 32768, in 32-bit lanes packed in int64
    # (int64 norms), where the all-omega^2 window (-v, -v) of order 3 gives
    # a^2 + b^2 = 2^31
    chi = build_modulus(1009).character(1008 // d)
    table = prefix_table(chi)
    cols = np.array(LATTICE[d], dtype=np.int64)
    rng = np.random.default_rng(d)
    for v, dtype in ((32767, np.int32), (32768, np.int64)):
        counts = np.concatenate([
            v * np.eye(d, dtype=np.int64),  # every term in one class
            rng.multinomial(v, [1 / (d + 1)] * (d + 1), 500)[:, :d]])
        w = cols @ counts.T
        assert np.abs(w).max() <= v
        want = [oracle_norm(d, a, b) for a, b in zip(*w.tolist())]
        got = lattice_norm(table, packed(w, dtype))
        assert got.dtype == dtype and got.tolist() == want, v
        if v == 32768 and d != 4:  # the int32 form would wrap here
            a, b = w.astype(np.int32)
            assert (a * a + b * b).min() < 0


def lattice_windows(d, v, n, seed):
    """n random window sums of v terms of an order-d character, and the d
    windows of v equal terms, as int64 LATTICE coordinates (2, n + d)."""
    counts = np.random.default_rng(seed).multinomial(
        v, [1 / (d + 1)] * (d + 1), n)[:, :d]
    counts = np.concatenate([v * np.eye(d, dtype=np.int64), counts])
    return np.array(LATTICE[d], dtype=np.int64) @ counts.T


@pytest.mark.parametrize("d", [3, 4, 6])
@pytest.mark.parametrize("lane, v", [
    (np.int8, 112), (np.int16, 30000), (np.int32, 32767), (np.int32, 32768),
    (np.int32, 10 ** 6)])
def test_lattice_norm_across_lanes(d, lane, v):
    # the norms squared in place equal a^2 - ab + b^2 (a^2 + b^2 at order
    # 4) in Python ints on every lane width of packed window sums, in the
    # packed width: int16 on 8-bit lanes, int32 on 16-bit ones and int64 on
    # 32-bit ones; w is left as it was
    chi = build_modulus(1009).character(1008 // d)
    coords = lattice_windows(d, v, 3000, v)
    w = packed(coords, f"i{2 * np.dtype(lane).itemsize}")
    before = w.copy()
    want = [oracle_norm(d, a, b) for a, b in zip(*coords.tolist())]
    got = lattice_norm(chi, w)
    assert got.dtype == w.dtype
    assert got.shape == (len(want),) and got.tolist() == want
    assert np.array_equal(w, before)


@pytest.mark.parametrize("w", [8, 16, 32])
def test_lattice_norm_at_lane_corners(w):
    # packed windows at the lane corners a = b = +-span and a = -b = span,
    # span = 2^(w-1) - 1, give the Python-int norm in the packed width, but
    # not at a = -b for orders 3 and 6: there the norm 3 span^2 is past
    # 2^(2w-1), and no window of length at most span has those lanes, as
    # |a - b| <= V there.  The same norm taken in w-bit lanes wraps.
    span = (1 << w - 1) - 1
    corners = np.array([[span, -span, span], [span, -span, -span]])
    for d in (3, 4, 6):
        chi = build_modulus(1009).character(1008 // d)
        want = [oracle_norm(d, a, b) for a, b in zip(*corners.tolist())]
        got = lattice_norm(chi, packed(corners, f"i{w // 4}")).tolist()
        fits = [n < 1 << 2 * w - 1 for n in want]
        assert fits == [True, True, d == 4]
        assert [g for g, f in zip(got, fits) if f] == [
            n for n, f in zip(want, fits) if f], d
        a, b = corners.astype(f"i{w // 8}")
        narrow = a * a + b * b - (0 if d == 4 else a * b)
        assert all(n != x for n, x in zip(want, narrow.tolist())), d


def test_lattice_norm_holds_one_widened_pair():
    # one BLOCK of order-3 windows of length 112 in 8-bit lanes packed in
    # int16: the two lanes and one product, int16 arrays of BLOCK entries
    # each, measured 393,504 bytes, 96 bytes of array object each beside
    # the data (786,760 with int32 lanes widened from an int8 pair)
    chi = build_modulus(1009).character(336)
    w = packed(lattice_windows(3, 112, BLOCK - 3, 1), np.int16)
    lattice_norm(chi, w)
    tracemalloc.start()
    try:
        lattice_norm(chi, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (BLOCK * 2 + 128)


def test_moment_is_int_for_lattice_orders():
    q = 1009
    mod = build_modulus(q)
    for d in (2, 3, 4, 6):
        rep = moment_sum(mod.character((q - 1) // d), 11, 2)
        assert type(rep.moment) is int and rep.exact
    assert type(moment_sum(mod.character(1), 11, 2).moment) is float


def test_blocks_match_one_shot_above_block():
    # q > 2 BLOCK: two full blocks and a partial one, 12 | q - 1
    q = 131101
    assert q > 2 * BLOCK and (q - 1) % 12 == 0
    mod = build_modulus(q)
    for d in (2, 3, 4, 5):
        chi = mod.character((q - 1) // d)
        table = chi.prefix
        for v in (300, 70000):  # 70000 > BLOCK: wrapping starts span blocks
            w = window_sum(table, np.arange(1, q + 1, dtype=np.int64), v)
            assert np.array_equal(window_array(table, v), w)
            for lo, hi in ((0, 1), (BLOCK - 1, BLOCK + 1),
                           (q - v - 5, q - v + 5), (q - 3, q)):
                assert np.array_equal(window_array(table, v, lo, hi),
                                      w[..., lo:hi])
            for r in (2, 3):
                if table.exact:
                    keys, counts = np.unique(lattice_norm(table, w),
                                             return_counts=True)
                    power = 2 * r // table.rank
                    want = sum(int(c) * int(k) ** power
                               for k, c in zip(keys, counts))
                else:
                    want = float(np.sum(np.abs(w) ** (2 * r)))
                got = moment_sum(chi, v, r).moment
                if table.exact:
                    assert got == want, (d, v, r)
                else:
                    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("v", [1, 2, 63, 126, 127, 128])
def test_paired_counts_match_every_start(v):
    # Order 2 over three blocks.  Below V = 128 a block in 8-bit lanes is
    # counted two windows a key; V = 128 takes 16-bit lanes, one a key, and
    # so does every V read from the 32-bit full table.  The tail block of
    # the first span (h - V - BLOCK or h - V starts) and the edge spans (V -
    # 1 and V + 2 starts) are odd at some V here and even at others.
    q = 131101
    assert 2 * BLOCK < q < 3 * BLOCK
    mod = build_modulus(q)
    wide = mod.legendre()
    keys, counts = np.unique(np.abs(window_array(wide.prefix, v)),
                             return_counts=True)  # every start
    for r in (2, 3):
        want = sum(int(c) * int(k) ** (2 * r) for k, c in zip(keys, counts))
        streamed, narrow = mod.legendre(), mod.legendre()
        lanes = narrow.prefix_for(v).sums.dtype
        assert lanes == (np.int8 if v < 128 else np.int16)
        for chi in (streamed, narrow, wide):
            assert moment_sum(chi, v, r).moment == want, (v, r, chi)
        assert "prefix" not in vars(streamed)


def test_wide_window_allocates_no_square_bins():
    # V^2 > q: each block's norms are counted by np.unique, so none of the
    # V^2 + 1 bins (8 MB here) is allocated
    q, v = 1009, 1000
    chi = build_modulus(q).character((q - 1) // 3)
    table = chi.prefix
    w = window_array(table, v)
    keys, counts = np.unique(lattice_norm(table, w), return_counts=True)
    tracemalloc.start()
    try:
        moment = moment_sum(chi, v, 2).moment
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (v * v + 1) * 8 // 10
    assert moment == sum(int(c) * int(k) ** 2 for k, c in zip(keys, counts))


def test_streamed_moment_matches_table_path():
    # a fresh character streams its prefix sums, one with a built table
    # reads it, and the moments agree bit for bit: orders 2, 3, 4 and 6, the
    # complex orders 5 and 10 and the full order (roots per slice), even and
    # odd chi, V = 1, the auto V, V^2 > q (np.unique) and V > BLOCK
    parities = set()
    for q in (400321, 400051):
        mod = build_modulus(q)
        cells = [((q - 1) // d, v) for d in (2, 3, 4, 6, 5, 10)
                 if (q - 1) % d == 0
                 for v in (1, auto_window(2, q), 1000, BLOCK + 7)]
        for index, v in cells + [(1, 300)]:
            fresh, built = mod.character(index), mod.character(index)
            parities.add((q - 1) // fresh.order % 2)  # chi(-1) = (-1)^this
            built.prefix
            for r in (2, 3):
                got, want = moment_sum(fresh, v, r), moment_sum(built, v, r)
                assert "prefix" not in vars(fresh)
                assert type(got.moment) is type(want.moment)
                assert got.moment == want.moment, (q, index, v, r)
                assert got.passed == want.passed
    assert parities == {0, 1}


def test_moment_reads_a_built_table_only_within_its_span():
    # a character holding an int8 table reads it for V < 128 and streams a
    # longer V, leaving the table as it was; the moments are a fresh one's
    q = 40009
    mod = build_modulus(q)
    for d in (2, 3, 4, 6):
        chi = mod.character((q - 1) // d)
        table = chi.prefix_for(100)
        assert table.span == 127 and table.sums.itemsize == table.rank
        for v in (100, 1000):
            got = moment_sum(chi, v, 2).moment
            assert got == moment_sum(mod.character(chi.index), v, 2).moment
            assert vars(chi)["prefix"] is table, (d, v)


def test_streamed_moment_holds_class_table_and_blocks():
    # beside the int8 half class table (h+1 bytes) only O(BLOCK) slices and
    # window blocks: the 8(h+1)-byte prefix table is never built.  The
    # slices are int16, summed by the word kernel, whose carry words and
    # ramp add 1.27 BLOCK to the 18.74 measured without it: within 2 BLOCK w
    # of that, w = 2
    q = 1000003
    chi = build_modulus(q).character((q - 1) // 3)
    tracemalloc.start()
    try:
        rep = moment_check(chi, r=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.exact and rep.passed and "prefix" not in vars(chi)
    assert peak <= (q + 1) // 2 + 22 * BLOCK


def test_streamed_quadratic_moment_holds_class_table_and_blocks():
    # Order 2 at the auto V = 63: int8 slices and window blocks, whose |w|
    # are counted two to a uint16 key into (V + 1) 256 int64 pair counts.
    # Those fit in the space of the 8 BLOCK intp cast of a bincount over
    # one |w| a key: the bound is the 13.25 BLOCK measured with that cast.
    q = 1000003
    chi = build_modulus(q).legendre()
    tracemalloc.start()
    try:
        rep = moment_check(chi, r=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.V == 63 and rep.exact and rep.passed
    assert "prefix" not in vars(chi)
    assert peak <= (q + 1) // 2 + 53 * BLOCK // 4


def test_scaled_power_sum_matches_float_sum(mod101):
    w = window_array(mod101.character(20).prefix, 50)
    for r in (1, 2, 100):
        want = np.sum((w.real ** 2 + w.imag ** 2) ** r)
        assert math.isclose(_scaled_power_sum(w, r), want, rel_tol=1e-12)
    assert _scaled_power_sum(np.zeros(3, dtype=np.complex128), 5) == 0


def test_moment_example_q5():
    mod = build_modulus(5)
    rep = moment_sum(mod.legendre(), 1, 1)
    assert rep.moment == 4
    assert abs(rep.bound - (10 + 2 * math.sqrt(5))) < 1e-9
    assert rep.margin > 0 and rep.passed


def test_moment_example_q7():
    mod = build_modulus(7)
    rep = moment_sum(mod.legendre(), 2, 1)
    assert rep.moment == naive_moment(mod.legendre(), 2, 1) == 10


def test_full_window_moment_is_zero(mod101):
    for r in (1, 2, 3):
        assert moment_sum(mod101.legendre(), 101, r).moment == 0
    mod5 = build_modulus(5)
    assert moment_sum(mod5.legendre(), 5, 3).moment == 0


def test_matches_naive_all_small_primes():
    for q in (5, 7, 11, 13, 101):
        mod = build_modulus(q)
        chi = mod.legendre()
        for v in (1, 2, 5, min(q, 9)):
            for r in (1, 2):
                assert moment_sum(chi, v, r).moment == naive_moment(chi, v, r)


def test_matches_naive_complex_character(mod101):
    chi = mod101.character(4)
    for v, r in ((3, 1), (6, 2)):
        got = moment_sum(chi, v, r).moment
        want = naive_moment(chi, v, r)
        assert abs(got - want) <= 1e-6 * max(want, 1.0)


def test_trivial_moment_upper_bound(mod101):
    rep = moment_sum(mod101.legendre(), 6, 2)
    assert 0 <= rep.moment <= 101 * 6 ** 4


def test_monotonicity_in_r(mod101):
    chi = mod101.legendre()
    v = 6
    prev = moment_sum(chi, v, 1).moment
    for r in (2, 3, 4):
        cur = moment_sum(chi, v, r).moment
        assert cur <= v * v * prev
        prev = cur


def test_margin_nonnegative_everywhere(mod101):
    for m in (1, 17, 50):
        chi = mod101.character(m)
        for r in (1, 2, 3):
            for v in (1, 6, 50, 101):
                rep = moment_sum(chi, v, r)
                assert rep.passed, (m, r, v)
                assert rep.margin >= 0


def test_weil_bound_examples():
    assert abs(weil_bound(1, 1, 5) - (10 + 2 * math.sqrt(5))) < 1e-12
    want = 16 * 36 * 101 + 4 * 1296 * math.sqrt(101)
    assert abs(weil_bound(2, 6, 101) - want) < 1e-9
    with pytest.raises(ValueError):
        weil_bound(1, 0, 5)


def test_verdict_exact_where_weil_bound_overflows(mod101):
    # a + b sqrt(q) with a = (2r)^r V^r q, b = 2r V^(2r): the moment m
    # passes iff m - a <= isqrt(b^2 q), an integer comparison
    r, v, q = 100, 50, 101
    assert weil_bound(r, v, q) == math.inf
    rep = moment_sum(mod101.legendre(), v, r)
    a, b = (2 * r) ** r * v ** r * q, 2 * r * v ** (2 * r)
    assert rep.exact and isinstance(rep.moment, int)
    assert rep.passed == (rep.moment - a <= math.isqrt(b * b * q))
    # an order-5 float moment is compared as its exact rational; one past
    # the double range is an exact Fraction, and it passes, as |w| <= V
    # gives moment <= q V^(2r) < 2r V^(2r) sqrt(q)
    chi = mod101.character(20)
    rep = moment_sum(chi, v, r)
    assert math.isfinite(rep.moment) and rep.moment < a and rep.passed
    with np.errstate(over="ignore"):
        rep = moment_sum(chi, v, 4 * r)
    assert isinstance(rep.moment, Fraction) and rep.passed
    assert sys.float_info.max < rep.moment <= q * v ** (8 * r)


def test_leq_decides_ties_exactly():
    # x <= a + b sqrt(q): equality passes, one step past it fails
    for x in (7, Fraction(7), 10 ** 400):
        assert leq(x, x) and not leq(x + 1, x)
        assert leq(x, x - 1, 1, 1) and not leq(x + 1, x - 1, 1, 1)
    assert not leq(Fraction(7) + Fraction(1, 10 ** 40), 7)
    # at a square q, (x - a)^2 == b^2 q is a tie: 2 + 3 sqrt(9) = 11
    assert leq(11, 2, 3, 9) and leq(Fraction(22, 2), Fraction(2), 3, 9)
    assert not leq(11 + Fraction(1, 10 ** 40), 2, 3, 9)
    assert leq(-5, 2, 3, 9)  # x - a <= 0 decides without a square
    # a non-square q has no rational tie: 1 + sqrt(2) lies between these
    assert leq(Fraction(24142, 10 ** 4), 1, 1, 2)
    assert not leq(Fraction(24143, 10 ** 4), 1, 1, 2)
    # a float is read as its exact rational: 0.1 is above 1/10
    assert not leq(0.1, Fraction(1, 10)) and leq(Fraction(1, 10), 0.1)
    assert leq(0.1, 0.1) and leq(1e300, 10 ** 400)


def test_errors(mod101):
    with pytest.raises(TrivialCharacter):
        moment_sum(mod101.character(0), 3, 1)
    with pytest.raises(WindowTooLarge):
        moment_sum(mod101.legendre(), 102, 1)
    with pytest.raises(ValueError):
        moment_sum(mod101.legendre(), 3, 0)


def test_auto_window_exact_floor():
    assert auto_window(2, 101) == 6      # floor(2 * 101^(1/4))
    assert auto_window(2, 10007) == 20
    assert auto_window(1, 10007) == 100  # floor(sqrt(q))


# floor(r q^(1/2r)) as built from r^(2r) q in full, recorded before the
# float seed replaced it
AUTO_WINDOWS = {
    101: (6, 6, 7, 7, 8, 152, 10002),
    10007: (20, 13, 12, 12, 12, 154, 10004),
    10000019: (112, 44, 29, 25, 22, 158, 10008),
}


def test_auto_window_as_from_the_full_power():
    for q, want in AUTO_WINDOWS.items():
        got = [auto_window(r, q) for r in (2, 3, 4, 5, 6, 150, 10 ** 4)]
        assert got == list(want), q


def test_moment_check_specialized():
    rep = moment_check(101, r=2, V="auto")
    assert rep.V == 6
    assert rep.passed
    assert rep.specialized_bound == 4 ** 4 * 101 ** 1.5
    assert rep.specialized_passed
    off = moment_check(101, r=2, V=5)
    assert off.specialized_bound is None
    # (2r)^{2r} = 200^200 is past the double range; the verdict stays exact
    big = moment_check(10007, r=100, V="auto")
    assert big.specialized_bound == math.inf == big.bound
    assert big.specialized_passed and big.passed and type(big.moment) is int


def test_moment_check_trivial_character_errors():
    with pytest.raises(TrivialCharacter):
        moment_check(101, char_index=0, r=2)


@given(st.sampled_from([5, 7, 11, 13]), st.integers(1, 2), st.data())
@settings(max_examples=40, deadline=None)
def test_moment_naive_property(q, r, data):
    v = data.draw(st.integers(min_value=1, max_value=q))
    chi = build_modulus(q).legendre()
    assert moment_sum(chi, v, r).moment == naive_moment(chi, v, r)


@pytest.mark.parametrize("q, orders", [(1009, (2, 3, 4, 6, 16)),
                                       (10007, (2, 5003))])
def test_half_moment_equals_all_starts(q, orders):
    # twice the starts inside the stored half plus the 2V+1 others equals
    # the sum over all q starts of the full-period oracle
    mod = build_modulus(q)
    for d in orders:
        chi = mod.character((q - 1) // d)
        for v in (1, 2, 7, 63, 64):
            for r in (2, 3):
                got = moment_sum(chi, v, r).moment
                want = brute_moment(chi, v, r)
                if type(want) is int:
                    assert type(got) is int and got == want, (d, v, r)
                else:
                    assert abs(got - want) <= 1e-12 * want, (d, v, r)
