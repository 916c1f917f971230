import cmath
import math
import tracemalloc

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
from burgess.moments import auto_window, moment_check, moment_sum, weil_bound
from oracles import brute_moment, value_table

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
        assert table.rank == 2 and table.sums.dtype == np.int32
        for v in (1, 7, 31, 40):  # 40^2 > q: the per-block np.unique path
            windows = []
            for lam in range(1, q + 1):
                terms = [vals[(lam + j) % q] for j in range(1, v + 1)]
                windows.append((sum(t[0] for t in terms),
                                sum(t[1] for t in terms)))
            got = window_array(table, v)
            assert got.dtype == np.int32 and got.shape == (2, q)
            assert list(zip(*got.tolist())) == windows
            lams = np.arange(-q, 2 * q, 13, dtype=np.int64)
            assert list(zip(*window_sum(table, lams, v).tolist())) == [
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
    # holds at v = 32767 (int32 norms) and fails at v = 32768 (int64), where
    # the all-omega^2 window (-v, -v) of order 3 gives a^2 + b^2 = 2^31
    chi = build_modulus(1009).character(1008 // d)
    table = prefix_table(chi)
    cols = np.array(LATTICE[d], dtype=np.int64)
    rng = np.random.default_rng(d)
    for v, dtype in ((32767, np.int32), (32768, np.int64)):
        counts = np.concatenate([
            v * np.eye(d, dtype=np.int64),  # every term in one class
            rng.multinomial(v, [1 / (d + 1)] * (d + 1), 500)[:, :d]])
        w = (cols @ counts.T).astype(np.int32)
        assert np.abs(w).max() <= v
        want = lattice_norm(table, w)
        assert want.dtype == np.int64
        assert want.tolist() == [oracle_norm(d, a, b)
                                 for a, b in zip(*w.tolist())]
        got = lattice_norm(table, w, v)
        assert got.dtype == dtype and np.array_equal(got, want), v
        if v == 32768 and d != 4:  # the int32 form would wrap here
            assert (w[0] * w[0] + w[1] * w[1]).min() < 0


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
    # an order-5 float moment is compared as its exact rational, and one
    # that overflows to inf fails
    chi = mod101.character(20)
    rep = moment_sum(chi, v, r)
    assert math.isfinite(rep.moment) and rep.moment < a and rep.passed
    with np.errstate(over="ignore"):
        rep = moment_sum(chi, v, 4 * r)
    assert rep.moment == math.inf and not rep.passed


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
