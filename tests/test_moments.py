import math

import pytest
from hypothesis import given, settings, strategies as st

from burgess.chars import build_modulus
from burgess.errors import TrivialCharacter, WindowTooLarge
from burgess.moments import (
    auto_window,
    moment_check,
    moment_sum,
    weil_bound,
    weil_bound_log,
)


@pytest.fixture(scope="module")
def mod101():
    return build_modulus(101)


def naive_moment(chi, v, r):
    """Double loop straight from the definition."""
    q = chi.q
    vals = chi.values()
    total = 0 if chi.is_quadratic else 0.0
    for lam in range(1, q + 1):
        if chi.is_quadratic:
            w = sum(int(vals[(lam + j) % q]) for j in range(1, v + 1))
            total += w ** (2 * r)
        else:
            w = sum(complex(vals[(lam + j) % q]) for j in range(1, v + 1))
            total += abs(w) ** (2 * r)
    return total


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


def test_partition_bit_identical(mod101):
    chi = mod101.legendre()
    base = moment_sum(chi, 6, 2)
    for parts in (2, 3, 8):
        assert moment_sum(chi, 6, 2, parts=parts).moment == base.moment


def test_weil_bound_examples():
    assert abs(weil_bound(1, 1, 5) - (10 + 2 * math.sqrt(5))) < 1e-12
    want = 16 * 36 * 101 + 4 * 1296 * math.sqrt(101)
    assert abs(weil_bound(2, 6, 101) - want) < 1e-9
    with pytest.raises(ValueError):
        weil_bound(1, 0, 5)


def test_weil_bound_log_consistent():
    for r, v, q in ((1, 3, 101), (2, 6, 1009), (3, 13, 10007)):
        assert abs(weil_bound_log(r, v, q)
                   - math.log(weil_bound(r, v, q))) < 1e-9


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


def test_moment_check_trivial_character_errors():
    with pytest.raises(TrivialCharacter):
        moment_check(101, char_index=0, r=2)


@given(st.sampled_from([5, 7, 11, 13]), st.integers(1, 2), st.data())
@settings(max_examples=40, deadline=None)
def test_moment_naive_property(q, r, data):
    v = data.draw(st.integers(min_value=1, max_value=q))
    chi = build_modulus(q).legendre()
    assert moment_sum(chi, v, r).moment == naive_moment(chi, v, r)
