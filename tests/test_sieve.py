import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from burgess import baselines
from burgess.chars import is_prime
from burgess.errors import GuardViolated, LimitTooLarge
from burgess.sieve import (
    build_spf,
    count_rough_divisible,
    enumerate_rough,
    mertens_product,
    primes_below,
    primes_between,
    primorial,
    rough_density_ratio,
)


def _peak_bytes(fn, *args):
    """Peak traced allocation while fn(*args) runs or raises."""
    tracemalloc.start()
    try:
        fn(*args)
    except LimitTooLarge:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_build_spf_examples():
    table = build_spf(50)
    expected = {2: 2, 3: 3, 4: 2, 5: 5, 6: 2, 7: 7, 8: 2, 9: 3, 10: 2}
    assert {n: table.smallest_factor(n) for n in range(2, 11)} == expected
    assert table.smallest_factor(49) == 7


def test_build_spf_rejects_bad_limits():
    with pytest.raises(LimitTooLarge):
        build_spf(1)
    with pytest.raises(LimitTooLarge):
        build_spf(2 ** 40)


def test_build_spf_equals_reference_loop():
    limit = 3000
    want = [0, 0] + [next(p for p in range(2, n + 1) if n % p == 0)
                     for n in range(2, limit + 1)]
    for n in (2, 3, 4, 48, 49, 50, limit):
        assert build_spf(n).spf.tolist() == want[:n + 1]
    assert build_spf(limit).spf.dtype == np.int64


def test_spf_invariants():
    table = build_spf(10 ** 4)
    for n in range(2, 10 ** 4 + 1):
        p = table.smallest_factor(n)
        assert n % p == 0
        assert p * p <= n or p == n


def test_primes_below_examples():
    assert primes_below(5) == [2, 3]
    assert primes_below(2) == []
    assert primes_below(11) == [2, 3, 5, 7]
    assert primorial(5) == 6
    assert primorial(2) == 1
    assert primorial(11) == 210


def test_primes_below_strict_inequality():
    assert primes_below(7) == [2, 3, 5]
    assert primes_below(7.0001) == [2, 3, 5, 7]


@given(st.integers(-3, 3000), st.integers(-3, 3000))
@settings(max_examples=200, deadline=None)
def test_primes_between_matches_trial_division(lo, hi):
    assert primes_between(lo, hi) == [n for n in range(lo, hi + 1)
                                      if is_prime(n)]


def test_primes_between_edges():
    for lo in (-1, 0, 1, 2):
        for hi in range(-1, 5):
            assert primes_between(lo, hi) == [p for p in (2, 3) if p <= hi]
    assert primes_between(4, 4) == []
    assert primes_between(10, 9) == []
    assert primes_between(97, 97) == [97]
    assert primes_below(1.5) == primes_below(-5) == []


def test_sieves_refuse_before_allocating():
    for fn, args in ((primes_below, (2 ** 28,)), (primes_below, (math.inf,)),
                     (primes_between, (0, 2 ** 28)),
                     (enumerate_rough, (3, 2 ** 28)),
                     (build_spf, (2 ** 28,))):
        with pytest.raises(LimitTooLarge):
            fn(*args)
        assert _peak_bytes(fn, *args) < 1 << 16


def test_mertens_examples():
    assert mertens_product(3).exact == Fraction(1, 2)
    assert mertens_product(2).exact == Fraction(1)
    assert mertens_product(6).exact == Fraction(4, 15)


def test_mertens_monotone_and_window():
    prev = 1.0
    for w in range(2, 300):
        v = mertens_product(w).value
        assert 0 < v <= 1
        assert v <= prev + 1e-15
        prev = v
        if w >= 3:
            assert 0.2 <= v * math.log(w) <= 2.0


def test_mertens_float_matches_exact_at_cutoff():
    lo = mertens_product(100)
    assert lo.exact is not None
    hi = mertens_product(102)  # picks up the prime 101
    assert hi.exact is None
    assert abs(hi.value - float(lo.exact * Fraction(100, 101))) < 1e-12


def test_enumerate_rough_examples():
    assert list(enumerate_rough(3, 10)) == [1, 3, 5, 7, 9]
    assert list(enumerate_rough(2, 10)) == list(range(1, 11))
    assert list(enumerate_rough(4, 10)) == [1, 5, 7]


def test_rough_membership_is_gcd_with_primorial():
    for z in (2, 3, 4, 5, 7.5, 11):
        p = primorial(z)
        members = set(enumerate_rough(z, 10 ** 4))
        expected = {u for u in range(1, 10 ** 4 + 1) if math.gcd(u, p) == 1}
        assert members == expected


def test_rough_monotone_in_z():
    prev = None
    for z in (2, 3, 5, 7, 11, 13):
        count = enumerate_rough(z, 5000).count
        if prev is not None:
            assert count <= prev
        prev = count


def test_rough_always_contains_one():
    assert 1 in set(enumerate_rough(97, 100))


def test_rough_lists_no_primes_above_U():
    # only the primes up to U are read, not the primes below z
    assert _peak_bytes(enumerate_rough, 1e9, 10) < 1 << 16
    rough = enumerate_rough(1e9, 10)
    assert list(rough) == [1] and rough.members.dtype == np.int64


def test_count_rough_divisible_examples():
    rough = enumerate_rough(3, 20)
    assert count_rough_divisible(rough, 5) == 2   # {5, 15}
    assert count_rough_divisible(rough, 1) == rough.count
    assert count_rough_divisible(rough, 2) == 0
    with pytest.raises(ValueError):
        count_rough_divisible(rough, 0)


def test_count_divisible_zero_when_t_shares_sieve_factor():
    for z, t in ((5, 6), (5, 10), (7, 15), (11, 22)):
        if t > 1 and math.gcd(t, primorial(z)) > 1:
            assert count_rough_divisible(enumerate_rough(z, 10 ** 3), t) == 0


def test_count_divisible_matches_filter():
    rough = enumerate_rough(5, 2000)
    members = list(rough)
    for t in (1, 7, 11, 49, 77, 500):
        direct = sum(1 for u in members if u % t == 0)
        assert count_rough_divisible(rough, t) == direct


def test_density_ratio_guard_and_value():
    with pytest.raises(GuardViolated):
        rough_density_ratio(10, 10 ** 6)  # 10^10 > 10^6 at default C
    ratio = rough_density_ratio(10, 10 ** 6, C=4.0)
    assert 0.3 <= ratio <= 3.0
    assert abs(ratio - 0.53) < 0.03  # near U*V(10)*log(10)/U
    assert abs(rough_density_ratio(2, 10 ** 4) - math.log(2)) < 1e-12


def test_density_ratio_small_U_bracket():
    assert 0.3 <= rough_density_ratio(10, 10 ** 3, C=3.0) <= 3.0


def test_divisible_count_constant_stable():
    measured = baselines.measure_divisible_count_constant()
    assert abs(measured - baselines.DIVISIBLE_COUNT_CONSTANT) < 1e-12


@given(st.floats(min_value=1.5, max_value=20), st.integers(1, 2000))
@settings(max_examples=50, deadline=None)
def test_rough_gcd_property(z, U):
    p = primorial(z)
    members = list(enumerate_rough(z, U))
    assert members == [u for u in range(1, U + 1) if math.gcd(u, p) == 1]
