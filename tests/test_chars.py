import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from burgess.chars import (
    CharValue,
    ComplexSum,
    build_modulus,
    find_primitive_root,
    interval_sum,
    is_prime,
    legendre_value_array,
    prefix_table,
    window_array,
    window_sum,
)
from burgess.errors import (
    CompositeModulus,
    TableLimitExceeded,
    TrivialCharacter,
    WindowTooLarge,
)

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 101]


@pytest.fixture(scope="module")
def mod101():
    return build_modulus(101)


@pytest.fixture(scope="module")
def mod1009():
    return build_modulus(1009)


def euler_criterion(n, q):
    """Independent Legendre oracle."""
    n %= q
    if n == 0:
        return 0
    return 1 if pow(n, (q - 1) // 2, q) == 1 else -1


def test_find_primitive_root_examples():
    assert find_primitive_root(3) == 2
    assert find_primitive_root(7) == 3
    with pytest.raises(CompositeModulus):
        find_primitive_root(4)


def test_find_primitive_root_order_is_full():
    for q in SMALL_PRIMES:
        g = find_primitive_root(q)
        seen = set()
        x = 1
        for _ in range(q - 1):
            seen.add(x)
            x = x * g % q
        assert len(seen) == q - 1


def test_build_modulus_dlog_example():
    mod = build_modulus(7)
    assert [mod.dlog_of(n) for n in range(1, 7)] == [0, 2, 1, 4, 5, 3]
    mod3 = build_modulus(3)
    assert mod3.dlog_of(1) == 0 and mod3.dlog_of(2) == 1


def test_build_modulus_rejects_composite_and_oversize():
    with pytest.raises(CompositeModulus):
        build_modulus(2 ** 26 + 1)
    with pytest.raises(TableLimitExceeded):
        build_modulus(101, limit=50)


def test_table_limit_env_override(monkeypatch):
    monkeypatch.setenv("BURGESS_TABLE_LIMIT", "50")
    with pytest.raises(TableLimitExceeded):
        build_modulus(101)
    monkeypatch.setenv("BURGESS_TABLE_LIMIT", "200")
    assert build_modulus(101).q == 101


def test_dlog_is_bijection(mod101):
    assert sorted(int(k) for k in mod101.dlog[1:]) == list(range(100))


def test_value_euler_criterion():
    mod = build_modulus(7)
    chi = mod.legendre()
    assert chi(3).as_int() == -1
    assert chi(2).as_int() == 1
    assert chi(14).is_zero
    for n in range(1, 14):
        assert chi(n).as_int() == euler_criterion(n, 7)


def test_char_value_forms():
    mod = build_modulus(5)
    chi = mod.legendre()
    v = chi.value(2)
    assert v == CharValue(num=2, den=4)  # e(1/2) = -1
    assert v.as_int() == -1
    assert abs(v.as_complex() + 1) < 1e-12


def test_interval_sum_examples():
    mod = build_modulus(7)
    chi = mod.legendre()
    assert interval_sum(chi, 0, 7).exact_int == 0
    assert interval_sum(chi, 0, 3).exact_int == 1
    assert interval_sum(chi, 0, 0).exact_int == 0


def test_interval_sum_matches_per_term(mod101):
    rng = random.Random(7)
    chi = mod101.legendre()
    for _ in range(50):
        m = rng.randint(-300, 300)
        n = rng.randint(0, 250)
        direct = sum(euler_criterion(k, 101) for k in range(m + 1, m + n + 1))
        assert interval_sum(chi, m, n).exact_int == direct


def test_interval_sum_trivial_character(mod101):
    chi0 = mod101.character(0)
    s = interval_sum(chi0, 0, 101)
    assert s.re == 100.0  # all but the multiple of q


def test_prefix_table_example():
    mod = build_modulus(5)
    table = prefix_table(mod.legendre())
    assert table.sums.tolist() == [0, 1, 0, -1, 0, 0]


def test_prefix_table_requires_nontrivial(mod101):
    with pytest.raises(TrivialCharacter):
        prefix_table(mod101.character(0))


def test_prefix_final_entry_zero(mod101, mod1009):
    for mod in (mod101, mod1009):
        q = mod.q
        for m in (1, 2, (q - 1) // 2, q - 2):
            table = prefix_table(mod.character(m))
            final = table.sums[q]
            if table.exact:
                assert final == 0
            else:
                assert abs(final) <= 1e-9 * q


def test_window_sum_examples():
    mod = build_modulus(5)
    table = prefix_table(mod.legendre())
    assert window_sum(table, 0, 2) == 0
    assert window_sum(table, 4, 2) == 1  # wraps past q
    assert window_sum(table, 3, 5) == 0  # full period
    with pytest.raises(WindowTooLarge):
        window_sum(table, 0, 6)
    with pytest.raises(ValueError):
        window_sum(table, np.arange(3), 0)


def test_window_equals_interval_1000_random(mod101, mod1009):
    rng = random.Random(42)
    for mod in (mod101, mod1009):
        chi = mod.legendre()
        table = prefix_table(chi)
        for _ in range(1000):
            lam = rng.randint(-2 * mod.q, 2 * mod.q)
            v = rng.randint(1, mod.q)
            assert window_sum(table, lam, v) == interval_sum(chi, lam, v).exact_int
        # the same kernel over an array of starts, one gather
        lams = [rng.randint(-2 * mod.q, 2 * mod.q) for _ in range(1000)]
        v = rng.randint(1, mod.q)
        got = window_sum(table, np.array(lams, dtype=np.int64), v)
        assert got.dtype == np.int64
        assert got.tolist() == [interval_sum(chi, lam, v).exact_int
                                for lam in lams]


def test_window_equals_interval_complex(mod101):
    rng = random.Random(43)
    chi = mod101.character(5)
    table = prefix_table(chi)
    for _ in range(200):
        lam = rng.randint(-202, 202)
        v = rng.randint(1, 101)
        w = window_sum(table, lam, v)
        s = interval_sum(chi, lam, v)
        assert abs(w - s.as_complex()) < 1e-9 * v + 1e-12
    lams = [rng.randint(-202, 202) for _ in range(200)]
    v = rng.randint(1, 101)
    got = window_sum(table, np.array(lams, dtype=np.int64), v)
    assert got.dtype == np.complex128
    for w, lam in zip(got, lams):
        assert abs(w - interval_sum(chi, lam, v).as_complex()) < 1e-9 * v + 1e-12


def test_window_array_is_window_sum_over_all_starts(mod101):
    q = mod101.q
    for chi in (mod101.legendre(), mod101.character(5)):
        table = prefix_table(chi)
        for v in (1, q):
            assert np.array_equal(window_array(table, v),
                                  window_sum(table, np.arange(1, q + 1), v))


def test_multiplicativity_exact_all_pairs_small():
    for q in (5, 7, 11, 13):
        mod = build_modulus(q)
        for m in range(1, q - 1):
            chi = mod.character(m)
            frac = chi.fractions
            for a in range(1, q):
                for b in range(1, q):
                    assert frac[a * b % q] == (frac[a] + frac[b]) % (q - 1)


def test_multiplicativity_all_pairs_q101(mod101):
    a = np.arange(1, 101, dtype=np.int64)
    prod_idx = np.outer(a, a) % 101
    for m in (1, 2, 17, 50, 99):
        frac = mod101.character(m).fractions
        assert np.array_equal(frac[prod_idx],
                              (frac[a][:, None] + frac[a][None, :]) % 100)


def test_orthogonality_every_start(mod101):
    # (start, start + q - 1] misses only the residue start, so the sum of
    # those q - 1 gathered values is -chi(start)
    for m in (1, 3, 50):
        chi = mod101.character(m)
        for start in range(-5, 106):
            s = interval_sum(chi, start, 100)
            if chi.is_quadratic:
                assert s.exact_int == -chi(start).as_int()
            else:
                err = abs(s.as_complex() + chi(start).as_complex())
                assert err <= 1e-9 * 101


def test_order_invariant(mod101):
    for m in range(1, 100):
        chi = mod101.character(m)
        d = chi.order
        assert 100 % d == 0
        frac = chi.fractions
        assert not np.any((d * frac[1:]) % 100)


def test_quadratic_iff_half_index(mod101):
    assert mod101.character(50).is_quadratic
    assert not mod101.character(25).is_quadratic
    assert mod101.legendre().index == 50


def test_conjugate_symmetry(mod101):
    for m in (1, 7, 33):
        chi = mod101.character(m)
        conj = chi.conjugate()
        for n in range(1, 101):
            v, w = chi.value(n), conj.value(n)
            assert abs(v.as_complex().conjugate() - w.as_complex()) < 1e-12


def test_triangle_inequality_bound(mod101):
    chi = mod101.character(9)
    rng = random.Random(3)
    for _ in range(100):
        m, n = rng.randint(-50, 50), rng.randint(0, 150)
        nonzero = sum(1 for k in range(m + 1, m + n + 1) if k % 101 != 0)
        assert interval_sum(chi, m, n).abs() <= nonzero + 1e-9


def test_exact_int_tracks_re(mod101):
    chi = mod101.legendre()
    s = interval_sum(chi, 3, 57)
    assert s.exact_int is not None
    assert abs(s.re - s.exact_int) <= 1e-9 * 57


def test_legendre_value_array_matches_dlog_path(mod101, mod1009):
    for mod in (mod101, mod1009):
        chi = mod.legendre()
        assert legendre_value_array(mod.q).tolist() == [
            chi.value(n).as_int() for n in range(mod.q)]


@given(st.sampled_from(SMALL_PRIMES), st.data())
@settings(max_examples=60, deadline=None)
def test_value_multiplicativity_property(q, data):
    mod = build_modulus(q)
    m = data.draw(st.integers(min_value=1, max_value=q - 2))
    a = data.draw(st.integers(min_value=1, max_value=q - 1))
    b = data.draw(st.integers(min_value=1, max_value=q - 1))
    chi = mod.character(m)
    va, vb, vab = chi.value(a), chi.value(b), chi.value(a * b)
    assert vab.num == (va.num + vb.num) % (q - 1)


@given(st.integers(min_value=0, max_value=3000))
@settings(max_examples=80)
def test_is_prime_against_factor_scan(n):
    naive = n >= 2 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))
    assert is_prime(n) == naive


def test_complex_sum_helpers():
    s = ComplexSum(re=3.0, im=4.0)
    assert s.abs() == 5.0
    assert s.as_complex() == 3 + 4j
