import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from burgess import baselines
from burgess.bounds import (
    REFINEMENT_ORDER,
    VARIANTS,
    BurgessParams,
    bound_value,
    derive_params,
    extremal_scan,
    feasible_params,
    holder_chain,
    iroot,
    least_nonresidue,
    max_window_spread,
    nonresidue_max_gap,
    pv_ratio_scan,
    resolve_params,
    scaled_root,
)
from burgess import bounds
from burgess import chars as chars_module
from burgess.acceptance import holder_cells
from burgess.congruence import collision_distribution
from burgess.chars import (
    GATHER,
    PrefixTable,
    build_modulus,
    interval_sum,
    is_prime,
    lattice_norm,
    legendre_value_array,
    mark_squares,
    prefix_table,
    square_buffers,
    window_sum,
)
from burgess.errors import (
    CompositeModulus,
    DegenerateParams,
    LimitTooLarge,
    TableLimitExceeded,
    UnknownVariant,
)
from burgess.moments import auto_window, leq, moment_check, moment_sum
from burgess.sieve import SIEVE_LIMIT, primes_below
from oracles import direct_w, legendre_full

ORDERED_VARIANTS = ("refined_14r", "ik_12r", "ik_1r", "burgess_classic")


@pytest.fixture(scope="module")
def mod101():
    return build_modulus(101)


@pytest.fixture(scope="module")
def mod10007():
    return build_modulus(10007)


def test_iroot():
    # 10^400 + j has no float; its roots are exact all the same
    big = [10 ** 400 + j for j in range(-2, 3)]
    for n in list(range(0, 200)) + [10 ** 12, 10 ** 12 + 1] + big:
        for k in (1, 2, 3, 4, 6, 7, 400, 1330, 200000):
            r = iroot(n, k)
            assert r ** k <= n < (r + 1) ** k
    assert iroot(10 ** 400, 2) == 10 ** 200 == iroot(10 ** 400 - 1, 2) + 1
    assert iroot(10 ** 400, 400) == 10 == iroot(10 ** 400 - 1, 400) + 1


def test_iroot_at_and_beside_exact_powers():
    # the float seed lands on the root, one above it or one below it, and
    # the checks take exact powers where x^k and n are within about a bit
    cells = [(x, k) for x in (2, 3, 100004, 2 ** 24 - 1, 2 ** 24 + 1)
             for k in (2, 3, 7, 2000)] + [(10 ** 40, 2), (10 ** 40, 7)]
    for x, k in cells:
        p = x ** k
        assert [iroot(n, k) for n in (p - 1, p, p + 1)] == [x - 1, x, x]


def test_iroot_on_the_newton_branch():
    # seeds of 2^26 and above are raised over the root and take Newton steps
    for x in (2 ** 26, 2 ** 26 + 1, 3 ** 40, 10 ** 300):
        for k in (2, 3, 7, 200):
            p = x ** k
            assert [iroot(n, k) for n in (p - 1, p, p + 1)] == [x - 1, x, x]


def test_iroot_square_is_isqrt():
    rng = random.Random(27)
    for _ in range(50):
        n = rng.getrandbits(rng.randint(1, 20000))
        assert iroot(n, 2) == math.isqrt(n)


def test_roots_of_long_powers_in_time():
    # n of thousands of digits: a handful of Newton steps, not one exact
    # power per bit of the root
    q, r, n = 10007, 10, 10 ** 2000
    t0 = time.perf_counter()
    p = derive_params(n, q, r)
    assert time.perf_counter() - t0 < 2.0
    assert (16 * r * p.U) ** (2 * r) * q <= n ** (2 * r)
    assert (16 * r * (p.U + 1)) ** (2 * r) * q > n ** (2 * r)
    t0 = time.perf_counter()
    x = iroot(10 ** 80000 // q, 200)
    assert time.perf_counter() - t0 < 2.0
    assert x ** 200 <= 10 ** 80000 // q < (x + 1) ** 200


def test_scaled_root_is_the_exact_floor():
    # the largest x with x^k den <= b^k num, beside exact powers too; a
    # root of 2^26 or more of a short power goes through iroot
    rng = random.Random(28)
    cells = [(b, k, num, den) for b in (1, 2, 7, 100, 10 ** 4)
             for k in (1, 2, 3, 4, 12, 300)
             for num, den in ((1, 1), (10007, 1), (1, 10007),
                              (3 ** 12, 2 ** 19))]
    cells += [(rng.randint(1, 10 ** 6), rng.randint(1, 40),
               rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 9))
              for _ in range(300)]
    cells += [(x, k, 1, 1) for x in (2 ** 26 - 1, 2 ** 26, 10 ** 30)
              for k in (2, 7)]
    for b, k, num, den in cells:
        x = scaled_root(b, k, num, den)
        assert x ** k * den <= b ** k * num < (x + 1) ** k * den, (
            b, k, num, den)
    # at an exact power the two sides are equal, so the powers are built
    for x, k in ((3, 4), (1000, 6), (12345, 3)):
        assert scaled_root(x, k, 2 ** k) == 2 * x
        assert scaled_root(2 * x, k, 1, 2 ** k) == x
        assert scaled_root(2 * x - 1, k, 1, 2 ** k) == x - 1


def test_roots_of_long_powers_from_decimal_logs():
    # a root near 10^8 at k = 2 10^5: the seed and every check come from
    # decimal logs, so N^(2r), about 5 million bits, is not built
    t0 = time.perf_counter()
    p = derive_params(10 ** 8, 10007, 100000)
    assert (p.V, p.U) == (100004, 62)
    assert time.perf_counter() - t0 < 1.0
    # at an exact power (num = den) the logs cannot tell, so the powers
    # decide; elsewhere the logs do, the floor exact all the same
    for x in (2 ** 26, 10 ** 8 + 7, 10 ** 12 + 39):
        for k in (1000, 20000):
            assert scaled_root(x, k, 1, 1) == x
            for num, den in ((1, 2), (3, 1), (1, 10007), (10007, 10009)):
                y = scaled_root(x, k, num, den)
                assert y ** k * den <= x ** k * num < (y + 1) ** k * den


def test_pow_leq_from_decimal_logs_beside_ties():
    # bases within a bit of each other over long exponents: floats cannot
    # tell, the logs at _log_digits decide as the exact products do, and an
    # exact tie is left to the products
    rng = random.Random(29)
    for _ in range(200):
        i = rng.randint(500, 3000)
        a = rng.randint(1 << 20, 1 << 40)
        b = a + rng.randint(-(a // (4 * i)), a // (4 * i))
        c, d = rng.randint(1, 1000), rng.randint(1, 1000)
        want = a ** i * c <= b ** i * d
        assert bounds._pow_leq(a, i, b, i, c, d) == want, (a, i, b, c, d)
        prec = bounds._log_digits(a, b, c, d)
        assert bounds._log_leq(prec, a, i, b, i, c, d) in (want, None)
    assert bounds._log_leq(40, 10 ** 8, 3000, 10 ** 8, 3000, 7, 7) is None
    assert bounds._pow_leq(10 ** 8, 3000, 10 ** 8, 3000, 7, 7)


def test_long_moment_windows_in_time():
    # r^(2r) q has millions of digits at r = 10^6; the float seed and bit
    # counts decide V and U without it
    t0 = time.perf_counter()
    p = derive_params(100, 10007, 10 ** 6)
    assert (p.V, p.U) == (1000004, 0)
    assert auto_window(300000, 10007) == 300004
    assert time.perf_counter() - t0 < 2.0


def test_refined_range_at_its_edge():
    # N^(4r) <= q^(2r+1), decided from log2 away from the edge and from
    # exact powers beside it, as the exact powers decide it everywhere
    q = 10007
    for r in (2, 3, 10):
        edge = iroot(q ** (2 * r + 1), 4 * r)
        for n in range(edge - 3, edge + 4):
            assert derive_params(n, q, r).in_refined_range == (
                n ** (4 * r) <= q ** (2 * r + 1))


def test_derive_params_example():
    p = derive_params(5000, 10007, 2)
    assert (p.U, p.V) == (15, 20)
    assert abs(p.z - math.exp(math.sqrt(math.log(15)))) < 1e-12
    assert not p.degenerate
    assert not p.in_refined_range  # 5000 > 10007^0.625


def test_derive_params_degenerate_flag():
    p = derive_params(10, 10007, 2)  # N below 32 q^{1/4}
    assert p.U == 0 and p.degenerate
    assert p.z == 1.0


def test_derive_params_floor_never_exceeds():
    rng = random.Random(8)
    for _ in range(200):
        q = rng.choice([101, 1009, 10007, 65537])
        n = rng.randint(1, 10 ** 6)
        r = rng.randint(2, 4)
        p = derive_params(n, q, r)
        # U and V are the exact floors of the defining expressions
        assert (16 * r * (p.U + 1)) ** (2 * r) * q > n ** (2 * r)
        assert (p.V + 1) ** (2 * r) > r ** (2 * r) * q
        assert p.V ** (2 * r) <= r ** (2 * r) * q
        assert 16 * p.U * p.V <= n  # UV <= N/16


def test_feasible_params_respect_collision_hypotheses():
    p = feasible_params(63, 10007, 2)
    assert p.U == 63
    assert p.U <= p.N and p.U * p.N <= p.q
    assert p.source == "fallback"
    tight = feasible_params(5000, 10007, 2)
    assert tight.U == 2  # q // N
    assert resolve_params(5000, 10007, 2).source == "derived"
    assert resolve_params(63, 10007, 2).source == "fallback"


def test_bound_value_examples():
    pv = bound_value("polya_vinogradov", 1, 10007)
    assert abs(pv - math.sqrt(10007) * math.log(10007)) < 1e-9
    n = iroot(10007, 2)
    ref = bound_value("refined_14r", n, 10007, r=2)
    want = n ** 0.5 * 10007 ** (3 / 16) * math.log(10007) ** 0.125
    assert abs(ref - want) < 1e-9
    with pytest.raises(UnknownVariant):
        bound_value("nope", 10, 101, r=2)
    with pytest.raises(ValueError):
        bound_value("ik_1r", 10, 101, r=1)
    assert bound_value("burgess_classic", 10, 101, r=1) > 0
    assert bound_value("grh", 100, 101) == 10 * 101 ** 0.05


def test_bound_value_refuses_non_finite_grh_delta():
    for delta in (math.nan, math.inf, -math.inf):
        for variant in ("grh", "polya_vinogradov"):
            with pytest.raises(ValueError, match="grh_delta"):
                bound_value(variant, 100, 10007, r=2, grh_delta=delta)


def test_variant_ordering_chain():
    rng = random.Random(12)
    for _ in range(100):
        q = rng.choice([3, 5, 101, 1009, 10007, 999983])
        n = rng.randint(1, int(math.isqrt(q)) + 5)
        r = rng.randint(2, 4)
        vals = [bound_value(v, n, q, r=r) for v in ORDERED_VARIANTS]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_params_window_is_auto_window():
    # V has one home: both constructors must agree with moments.auto_window
    for q in primes_below(2000)[1:]:
        for r in (2, 3, 4):
            v = auto_window(r, q)
            for n in (1, iroot(q, 2), q):
                assert derive_params(n, q, r).V == v, (n, q, r)
                assert feasible_params(n, q, r).V == v, (n, q, r)


def test_rless_variants_ignore_r():
    rless = set(VARIANTS) - set(REFINEMENT_ORDER)
    assert rless == {"polya_vinogradov", "grh", "mv_loglog"}
    for q in (101, 10007, 999983):
        for n in (1, 40, q):
            for v in rless:
                assert bound_value(v, n, q) == bound_value(v, n, q, r=3)


def test_refinement_order_ascends():
    for q in (101, 1009, 10007, 999983):
        for n in (1, iroot(q, 4), iroot(q, 2), q):
            for r in (2, 3, 5):
                vals = [bound_value(v, n, q, r=r) for v in REFINEMENT_ORDER]
                assert vals == sorted(vals), (n, q, r)


def test_holder_chain_passes(mod101):
    chi = mod101.legendre()
    rep = holder_chain(chi, 0, 50, 2)
    assert rep.passed and rep.exact and rep.path == "exact"
    assert rep.first_moment == 50 * rep.rough_count
    assert rep.holder_lhs == rep.W ** 4
    assert rep.holder_rhs == (rep.first_moment ** 2 * rep.second_moment
                              * rep.moment2r)


def test_holder_chain_collected_equals_direct(mod101, mod10007):
    for mod, n in ((mod101, 6), (mod10007, 39)):
        chi = mod.legendre()
        rep = holder_chain(chi, 3, n, 2)
        assert rep.W == direct_w(chi, 3, n, rep.params)


def test_holder_chain_complex_character(mod101):
    chi = mod101.character(4)
    rep = holder_chain(chi, 0, 6, 2)
    assert rep.passed and not rep.exact and rep.path == "float"
    direct = direct_w(chi, 0, 6, rep.params)
    assert abs(rep.W - direct) <= 1e-9 * direct


def chain_verdict(rep):
    """rep's verdict recomputed in Fractions from its W and moments: W^{2r}
    <= rhs, exactly on the exact and certified paths, within a relative
    1e-9 on the float path."""
    r = rep.r
    rhs = (rep.first_moment ** (2 * r - 2) * rep.second_moment
           * Fraction(rep.moment2r))
    slack = Fraction(1 + 1e-9) if rep.path == "float" else 1
    return Fraction(rep.W) ** (2 * r) <= rhs * slack


def test_holder_verdicts_pinned_by_order():
    # every order 2-12 dividing q - 1 at r = 2 and 3, five seeded starts
    # each, and cells whose W^{2r} or moment passes the double range: the
    # path is fixed by the order, and every chain passes as recomputed
    def path(d):
        return ("exact" if d == 2 else "certified" if d in (3, 4, 6)
                else "float")

    for q, r, n, m_values in holder_cells((421, 2521, 3361, 10009),
                                          m_count=5):
        mod = build_modulus(q)
        for d in [d for d in range(2, 13) if (q - 1) % d == 0]:
            chi = mod.character((q - 1) // d)
            for m in m_values:
                rep = holder_chain(chi, m, n, r)
                assert rep.path == path(d), (q, d, r, m)
                assert rep.passed and chain_verdict(rep), (q, d, r, m)
    for q, index, r in ((10009, 3336, 100), (10007, 5, 100), (10007, 5, 150)):
        chi = build_modulus(q).character(index)
        rep = holder_chain(chi, 1, 39, r)
        assert rep.path == path(chi.order), (q, index, r)
        assert rep.passed and chain_verdict(rep), (q, index, r)


def test_certificate_concludes_on_order_3_chain_cells():
    # criterion 4's cells with the order-3 character (3 | q - 1)
    for q, r, n, m_values in holder_cells(primes=(1009, 10009)):
        chi = build_modulus(q).character((q - 1) // 3)
        for m in m_values:
            rep = holder_chain(chi, m, n, r)
            assert rep.passed and rep.path == "certified", (q, r, m)
            assert not rep.exact and type(rep.W) is float
            assert type(rep.moment2r) is int and type(rep.holder_rhs) is int
            direct = direct_w(chi, m, n, rep.params)
            assert abs(rep.W - direct) <= 1e-9 * direct


def certified(norm, counts, r, rhs):
    """holder_chain's certificate: W+^{2r} <= rhs, False where _w_upper
    cannot bound W in int64."""
    up = bounds._w_upper(norm, counts)
    return up is not None and leq(up ** (2 * r), rhs)


def test_certificate_rounds_up():
    # perfect-square norms: W = 1*3 + 2*2 + 3*1 + 12*2 = 34 exactly
    norm = np.array([0, 1, 4, 9, 144], dtype=np.int64)
    counts = np.array([5, 3, 2, 1, 2], dtype=np.int64)
    assert bounds._w_upper(norm, counts) == 34
    for r in (2, 3):
        assert certified(norm, counts, r, 34 ** (2 * r))
        assert not certified(norm, counts, r, 34 ** (2 * r) - 1)
    # W = sqrt(2): the upper bound exceeds it, so W^4 = 4 is not certified
    two, one = np.array([2], dtype=np.int64), np.array([1], dtype=np.int64)
    k = bounds.CERT_BITS
    up = bounds._w_upper(two, one)
    assert up == Fraction(math.isqrt(2 << 2 * k) + 1, 1 << k) and up ** 2 > 2
    assert not certified(two, one, 2, 4)
    assert certified(two, one, 2, 5)
    # a norm whose shifted square would leave int64: inconclusive
    assert bounds._w_upper(np.array([1 << 22], dtype=np.int64), one) is None
    assert not certified(np.array([1 << 22], dtype=np.int64), one, 2,
                         10 ** 100)


def test_exact_W_is_the_python_int_sum(monkeypatch):
    # W = sum I(lam) |w(lam)| in Python ints; bucket counts near 2^30 take
    # the sum far past 2^31, where an int32 accumulator would wrap
    seen = []

    def heavy(inst):
        dist = collision_distribution(inst)
        dist.counts[:] = (1 << 30) + np.arange(len(dist.counts)) % 7
        seen.append(dist)
        return dist

    monkeypatch.setattr(bounds, "collision_distribution", heavy)
    chi = build_modulus(10007).legendre()
    rep = holder_chain(chi, 123, 200, 2)
    (dist,) = seen
    assert dist.counts.dtype == np.int64
    want = sum(c * abs(interval_sum(chi, lam, rep.params.V))
               for lam, c in zip(dist.lams.tolist(), dist.counts.tolist()))
    assert type(rep.W) is int and rep.W == want > 1 << 40


def test_holder_chain_falls_back_to_float(monkeypatch):
    monkeypatch.setattr(bounds, "_w_upper", lambda *a: None)
    chi = build_modulus(1009).character(336)
    rep = holder_chain(chi, 5, 15, 2)
    assert rep.passed and rep.path == "float"


def test_certificate_widens_int32_norms(monkeypatch):
    # holder_chain hands _w_upper the norms of its windows in the packed
    # width (int16 for 8-bit lanes, V^2 < 2^15; int32 for 16-bit ones, V^2
    # < 2^31); shifted left by 2 CERT_BITS they would wrap, so each block is
    # widened to int64: W+ is the ceil sum taken here in Python ints, and
    # the least rhs certified at r = 2 is ceil(W+^4)
    k = bounds.CERT_BITS
    for norm in (np.array([2, 5, 127 ** 2], dtype=np.int16),
                 np.array([2, 5, 1 << 21], dtype=np.int32)):
        counts = np.array([1, 2, 3], dtype=np.int32)
        plus = sum(c * (math.isqrt((x << 2 * k) - 1) + 1)
                   for x, c in zip(norm.tolist(), counts.tolist()))
        assert bounds._w_upper(norm, counts) == Fraction(plus, 1 << k)
        rhs = (plus ** 4 + (1 << 4 * k) - 1) >> 4 * k
        assert certified(norm, counts, 2, rhs)
        assert not certified(norm, counts, 2, rhs - 1)
    seen = []

    def spy(norm, *a):
        seen.append(norm.dtype)
        return real(norm, *a)

    real = bounds._w_upper
    monkeypatch.setattr(bounds, "_w_upper", spy)
    rep = holder_chain(build_modulus(1009).character(336), 5, 15, 2)
    assert rep.params.V < 1 << 7
    assert rep.path == "certified" and seen == [np.int16]


def test_certificate_overflow_guard_is_the_top_ceil():
    # norm 1: every ceil is exactly 2^k, and 2^43 - 1 buckets' worth of
    # counts sum c*ceil to 2^63 - 2^20, still inside int64; a guard one
    # above the top ceil would call this inconclusive
    s = (1 << 43) - 1
    norm, counts = np.array([1]), np.array([s])
    assert bounds._w_upper(norm, counts) == s
    assert certified(norm, counts, 2, s ** 4)
    assert not certified(norm, counts, 2, s ** 4 - 1)
    assert bounds._w_upper(norm, counts + 1) is None
    assert not certified(norm, counts + 1, 2, (s + 1) ** 4)
    # windows that all sum to 0: W+ = 0, certified against rhs 0
    assert bounds._w_upper(norm - 1, counts) == 0
    assert certified(norm - 1, counts, 2, 0)


def test_certificate_across_gather_blocks():
    # norm blocks straddling GATHER boundaries: each block's int64 dot
    # product is summed into one Python int, so the verdict is that of the
    # ceil sum W+ taken whole in Python ints
    k = bounds.CERT_BITS
    rng = np.random.default_rng(5)
    for n in (GATHER - 1, GATHER + 1, 3 * GATHER + 7):
        roots = rng.integers(0, 113, n)
        counts = rng.integers(1, 6, n)
        w = int(roots @ counts)  # perfect squares: W+ = W exactly
        assert bounds._w_upper(roots * roots, counts) == w
        for r in (2, 3):
            assert certified(roots * roots, counts, r, w ** (2 * r))
            assert not certified(roots * roots, counts, r, w ** (2 * r) - 1)
        norm = rng.integers(0, 112 * 112, n).astype(np.int32)
        plus = sum(c * (math.isqrt((x << 2 * k) - 1) + 1 if x else 0)
                   for x, c in zip(norm.tolist(), counts.tolist()))
        assert bounds._w_upper(norm, counts) == Fraction(plus, 1 << k)
        rhs = (plus ** 4 + (1 << 4 * k) - 1) >> 4 * k
        assert certified(norm, counts, 2, rhs)
        assert not certified(norm, counts, 2, rhs - 1)
    # the overflow guard's edge, its 2^43 - 1 counts spread over two blocks
    s = (1 << 43) - 1
    counts = np.full(GATHER + 1, s // (GATHER + 1))
    counts[-1] += s - int(counts.sum())
    norm = np.ones(GATHER + 1, dtype=np.int32)
    assert certified(norm, counts, 2, s ** 4)
    assert not certified(norm, counts, 2, s ** 4 - 1)
    counts[0] += 1
    assert bounds._w_upper(norm, counts) is None
    assert not certified(norm, counts, 2, (s + 1) ** 4)


def test_certificate_holds_a_gather_block():
    # 82,000 int32 norms: each GATHER block widened to int64 and its ceil
    # steps, measured 328,396 bytes (2,097,792 a BLOCK at a time)
    rng = np.random.default_rng(1)
    norm = rng.integers(0, 112 * 112, 82000).astype(np.int32)
    counts = rng.integers(1, 5, 82000)
    bounds._w_upper(norm, counts)
    assert traced_peak(bounds._w_upper, norm, counts) <= 48 * GATHER


def test_extremal_scan_lattice_norms():
    # order 3: the maximum is the square root of the largest integer norm
    q, n = 1009, 17
    starts = list(range(0, q, 3))
    res = extremal_scan(q, 336, n, starts)
    chi = build_modulus(q).character(336)
    # exact Z[omega] coordinates (a, b): the norm is a^2 - ab + b^2
    norms = [a * a - a * b + b * b
             for a, b in (interval_sum(chi, m, n) for m in starts)]
    best = max(range(len(starts)), key=norms.__getitem__)
    assert res.argmax_M == starts[best]
    assert res.max_abs_sum == math.sqrt(norms[best])
    conj = extremal_scan(q, 672, n, starts)  # conjugate: the same norms
    assert (conj.max_abs_sum, conj.argmax_M) == (res.max_abs_sum,
                                                 res.argmax_M)


def test_holder_chain_reuses_moment(monkeypatch, mod10007):
    calls = []

    def spy(chi, V, r, *a, **k):
        calls.append((V, r))
        return moment_sum(chi, V, r, *a, **k)

    monkeypatch.setattr(bounds, "moment_sum", spy)
    n = int(10007 ** 0.4)
    for chi in (mod10007.legendre(), mod10007.character(5)):
        calls.clear()
        reps = [holder_chain(chi, m, n, r) for r in (2, 3)
                for m in (0, 17, 900)]
        assert len(calls) == len(set(calls)) == 2
        # one rough set per (z, U): the r = 2 and r = 3 windows share it
        assert list(chi.rough) == [(reps[0].params.z, reps[0].params.U)]
        # the cache keeps one scalar per (V, r), no array
        assert set(chi.moments) == set(calls)
        assert not any(isinstance(v, np.ndarray) for v in chi.moments.values())
        for rep in reps:  # the same numbers as a character with no cache
            fresh = holder_chain(mod10007.character(chi.index), rep.M, n,
                                 rep.r)
            assert fresh.moment2r == rep.moment2r
            assert fresh.holder_rhs == rep.holder_rhs


def test_longer_window_widens_the_one_table():
    # holder_chain reads windows of V < 128 from an int8 table; a read of
    # N mod q >= 128 on the same character, as extremal_scan makes, replaces
    # it with a wider table, and both readers give what a fresh character
    # gives
    q, n = 10009, 39
    mod = build_modulus(q)
    for index in ((q - 1) // 2, (q - 1) // 3):
        chi = mod.character(index)
        first = holder_chain(chi, 17, n, 2)
        assert first.params.V < 128
        narrow = chi.prefix_for(1)  # 8-bit lanes: one byte per coordinate
        assert narrow.span == 127 and narrow.sums.itemsize == narrow.rank
        starts = list(range(0, q, 37))
        for rem in (500, 40000 % q):
            table = chi.prefix_for(rem)
            assert table.span == 2 ** 15 - 1
            assert table.sums.itemsize == 2 * table.rank
            tables = [x for x in vars(chi).values()
                      if isinstance(x, PrefixTable)]
            assert tables == [table] and vars(chi)["prefix"] is table
            w = window_sum(table, np.array(starts, dtype=np.int64), rem)
            mags = lattice_norm(table, w)
            res = extremal_scan(q, index, rem, starts)
            i = int(mags.argmax())
            best = (float(mags[i]) if table.rank == 1
                    else math.sqrt(int(mags[i])))
            assert (best, starts[i]) == (res.max_abs_sum, res.argmax_M)
        again = holder_chain(chi, 17, n, 2)
        fresh = holder_chain(mod.character(index), 17, n, 2)
        assert chi.prefix_for(1) is table  # read, not narrowed again
        for rep in (again, fresh):
            assert (rep.W, rep.moment2r, rep.holder_rhs, rep.passed) == (
                first.W, first.moment2r, first.holder_rhs, first.passed)


def test_holder_chain_takes_the_moment_before_the_gather(monkeypatch,
                                                        mod10007):
    # buckets, then the moment, then the window sums: the moment's block
    # temporaries are never held beside the gathered sums and their norms
    calls = []
    for name in ("collision_distribution", "moment_sum", "window_sum"):
        def spy(*a, _name=name, _real=getattr(bounds, name), **k):
            calls.append(_name)
            return _real(*a, **k)
        monkeypatch.setattr(bounds, name, spy)
    holder_chain(mod10007.character(5), 17, int(10007 ** 0.4), 2)
    assert calls == ["collision_distribution", "moment_sum", "window_sum"]


def test_holder_chain_w_is_python_int(mod10007):
    # an int64 W would wrap in W^{2r} at q ~ 10^7 (W^4 ~ 2*10^23)
    r = 3
    rep = holder_chain(mod10007.legendre(), 17, 39, r)
    assert type(rep.W) is int
    assert rep.holder_lhs == rep.W ** (2 * r)


def test_holder_chain_single_unit_rough(mod101):
    # z above U forces the rough set down to {1}
    chi = mod101.legendre()
    params = BurgessParams(N=6, q=101, r=2, U=2, V=6, z=2.5,
                           degenerate=False, in_refined_range=True,
                           source="override")
    rep = holder_chain(chi, 0, 6, 2, params=params)
    assert rep.passed


def test_holder_chain_past_the_double_range():
    # W^{2r} (and, for a complex character, rhs) pass the double range: they
    # are reported as inf and the verdict is taken in exact rationals
    for q, index, path in ((10009, 3336, "certified"), (10007, 5, "float")):
        rep = holder_chain(build_modulus(q).character(index), 1, 39, 100)
        assert rep.holder_lhs == math.inf and rep.path == path
        exact = Fraction(rep.W) ** 200 <= (
            rep.first_moment ** 198 * rep.second_moment
            * Fraction(rep.moment2r))
        assert rep.passed == exact
    assert rep.holder_rhs == math.inf
    # at r = 150 the float moment itself passes the double range: it is an
    # exact Fraction, so the verdict still compares W^{2r} with a number
    rep = holder_chain(build_modulus(10007).character(5), 1, 39, 150)
    assert isinstance(rep.moment2r, Fraction) and rep.moment2r > 10 ** 400
    assert rep.passed and Fraction(rep.W) ** 300 <= rep.holder_rhs
    # the float path's comparison, W^{2r} <= base moment FLOAT_SLACK, past
    # the double range: (1e100)^4 is within 1e-9 of 10^400, not of 10^399
    lhs = Fraction(1e100) ** 4
    assert leq(lhs, 10 ** 400 * Fraction(1.0) * bounds.FLOAT_SLACK)
    assert not leq(lhs, 10 ** 399 * Fraction(1.0) * bounds.FLOAT_SLACK)
    assert lhs > 10 ** 400 and not leq(lhs, 10 ** 400)


def test_bound_value_past_the_double_range():
    # N beyond a double reads through logs; ordinary N keeps the formula
    q, r = 10007, 2
    for v in ("grh",) + ORDERED_VARIANTS:  # N^(1/2) at r = 2
        small = bound_value(v, 10 ** 300, q, r=r)
        assert math.isclose(bound_value(v, 10 ** 400, q, r=r),
                            small * 1e50, rel_tol=1e-12), v
        assert bound_value(v, 10 ** 1000, q, r=r) == math.inf
    assert math.isclose(bound_value("burgess_classic", 10 ** 400, q, r=1),
                        bound_value("burgess_classic", 1, q, r=1),
                        rel_tol=1e-12)  # N^0


def test_holder_chain_degenerate_error(mod101):
    chi = mod101.legendre()
    with pytest.raises(DegenerateParams):
        holder_chain(chi, 0, 101, 2)  # N = q makes q // N = 1


def test_extremal_scan_orthogonality(mod101):
    res = extremal_scan(101, 50, 101, [0])
    assert res.max_abs_sum == 0.0
    assert all(v == 0 for v in res.worst_ratio.values())


def test_extremal_scan_fluctuation(mod101):
    res = extremal_scan(101, 50, 10, list(range(0, 91)))
    assert res.max_abs_sum <= 10
    assert res.max_abs_sum >= math.sqrt(10) * 0.3
    assert res.worst_ratio["polya_vinogradov"] < 1.0
    assert res.windows == 91


def test_extremal_scan_empty_starts():
    with pytest.raises(ValueError):
        extremal_scan(101, 50, 10, [])


def test_extremal_scan_conjugation_invariant():
    for m in (7, 33):
        a = extremal_scan(101, m, 17, list(range(50)))
        b = extremal_scan(101, (101 - 1 - m) % 100, 17, list(range(50)))
        assert abs(a.max_abs_sum - b.max_abs_sum) < 1e-9


def test_max_window_spread_small():
    # q=5 prefix sums [0,1,0,-1,0,0]: spread 2
    assert max_window_spread(5) == 2.0
    assert max_window_spread(3) == 1.0


def test_max_window_spread_folds_full_table():
    # the residues of the half table give the spread of the whole period's
    # prefix sums, for q = 1 and q = 3 (mod 4) alike
    primes = [q for q in range(3, 3000, 2) if is_prime(q)]
    assert {q % 4 for q in primes} == {1, 3}
    for q in primes:
        sums = np.cumsum(legendre_full(q), dtype=np.int64)
        assert max_window_spread(q) == float(sums.max() - sums.min()), q


def test_pv_scan_regression():
    worst, worst_q, ratios = pv_ratio_scan(10 ** 3)
    assert worst < 1.0
    assert all(r < 1.0 for _, r in ratios)
    assert worst_q == baselines.PV_WORST_PRIME  # attained low in the range


@pytest.mark.parametrize("limit", [2, 1, 0, -7])
def test_pv_scan_without_primes_refused(limit):
    with pytest.raises(ValueError):
        pv_ratio_scan(limit)


def test_pv_scan_agrees_with_max_window_spread():
    # the scan's buffers are sized for 2999: a mark or ramp left stale by
    # one prime would change a later, smaller prime's ratio
    _, _, ratios = pv_ratio_scan(3000)
    assert [q for q, _ in ratios] == primes_below(3001)[1:]
    for q, ratio in ratios:
        assert ratio == max_window_spread(q) / (math.sqrt(q) * math.log(q))


def test_pv_scan_refuses_oversized_limit_up_front(monkeypatch):
    def no_spread(*args):
        raise AssertionError("a prime was scanned")

    def no_sieve(*args):
        raise AssertionError("the primes were sieved")

    monkeypatch.setattr(bounds, "_spread", no_spread)
    monkeypatch.setattr(bounds, "primes_below", no_sieve)
    monkeypatch.setenv("BURGESS_TABLE_LIMIT", "1000")
    with pytest.raises(TableLimitExceeded):
        pv_ratio_scan(2000)
    with pytest.raises(LimitTooLarge):
        pv_ratio_scan(2 * SIEVE_LIMIT)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_holder_chain_holds_table_and_narrow_buckets():
    # a fresh Legendre chain at q = 10000019, 131 rough u by 630 n (82,530
    # products): measured 2,076,058 bytes above its 5,000,010-byte table,
    # the table build's blocks beside the int32 lams and int64 counts
    # (4,043,248 with int64 products and a full-length gather)
    chi = build_modulus(10000019).legendre()
    peak = traced_peak(holder_chain, chi, 12345, 630, 2)
    assert peak - vars(chi)["prefix"].sums.nbytes <= 2 << 20
    # its table and moment cached, 568 u by 3162 n: the int32 products,
    # np.unique's sorted copy and run indices; measured 27.7 bytes per
    # product (45.7 before)
    products = 568 * 3162
    assert traced_peak(holder_chain, chi, 12345, 3162, 2) <= 32 * products


def test_order_3_chain_holds_table_and_buckets():
    # a fresh order-3 chain at q = 10000141, 131 rough u by 630 n: beside
    # its 10,000,142-byte table, the buckets, then the moment before the
    # gather, the norms squared in place and certified a GATHER block at a
    # time; measured 2,214,777 bytes (3,587,587 with the moment after the
    # gather, its norms as new arrays and the certificate by BLOCK)
    chi = build_modulus(10000141).character(3333380)
    peak = traced_peak(holder_chain, chi, 12345, 630, 2)
    assert peak - vars(chi)["prefix"].sums.nbytes <= 2.75 * (1 << 20)


@pytest.mark.parametrize("order", [2, 3])
def test_window_sum_holds_result_and_a_block(order):
    # 2*10^5 scattered starts at q = 1000003 read GATHER at a time: the
    # result in the table's dtype (int32, or int64 packing two 32-bit lanes
    # at rank 2) and one block's int64 index temporaries, measured 296,080
    # and 404,008 bytes beside the result (6.4 and 8.2 MB with the whole
    # read in int64 at once)
    q = 1000003
    table = prefix_table(build_modulus(q).character((q - 1) // order))
    starts = np.random.default_rng(1).integers(-2 * q, 2 * q, 2 * 10 ** 5)
    w = window_sum(table, starts, 5000)
    assert w.shape == starts.shape and w.dtype == table.sums.dtype
    peak = traced_peak(window_sum, table, starts, 5000)
    assert peak <= w.nbytes + 64 * GATHER


def test_pv_scan_memory():
    # measured 1,116,345 bytes in a fresh process (1,027,861 on a second
    # call): one set of buffers for q = 39989 and the list of 4,202 ratios;
    # the bound leaves 16% headroom, less than one more q-sized int64 array
    assert traced_peak(pv_ratio_scan, 4 * 10 ** 4) <= 1_300_000


def test_max_window_spread_memory():
    # measured 4.50 bytes per residue: the (h+2)-byte mark, the walk over
    # the residues r_j <= h (about h/2 int64), the ramp built as long after
    # it, and the squares and block buffers; the bound leaves 13% headroom
    q = 1000003
    assert traced_peak(max_window_spread, q) <= 5.1 * q


@pytest.mark.parametrize("q", [131071, 131101, 131111])
def test_spread_and_gap_across_square_dtypes(q):
    # 131071: h = 65535, the largest table whose squares are one uint32
    # block (k^2 reaches 2^32 - 131071); 131101: h = 65550, the first
    # stepped one; 131111: the square of k = 2^16, the first past the
    # spread's first block, lands in [1, h], where the walk reads it
    h = (q - 1) // 2
    assert (h < 1 << 16) == (q == 131071)
    full = legendre_full(q)
    assert legendre_value_array(q).tolist() == full[:h + 1].tolist()
    sums = np.cumsum(full, dtype=np.int64)
    assert max_window_spread(q) == float(sums.max() - sums.min())
    # the squares mark every residue of the period in a q-entry mark, and
    # the same ones in [1, h] in an (h+2)-entry mark, the rest clipped to
    # h+1, whether the kernel builds its squares or reads a larger prime's
    for squares in ((), square_buffers(140009)):
        whole, clipped = np.zeros(q, dtype=bool), np.zeros(h + 2, dtype=bool)
        mark_squares(q, whole, True, squares)
        mark_squares(q, clipped, True, squares)
        assert np.array_equal(whole[1:], full[1:] == 1)
        assert np.array_equal(clipped[1:h + 1], whole[1:h + 1])
        assert clipped[h + 1] and not clipped[0] and not whole[0]
    edges = np.concatenate([[0], np.flatnonzero(full == -1), [q]])
    runs = np.diff(edges) - 1
    best = int(runs.argmax())
    assert nonresidue_max_gap(q) == (runs[best], edges[best] + 1, edges[1])


def test_least_nonresidue_examples():
    assert least_nonresidue(7) == 3
    assert least_nonresidue(3) == 2
    assert least_nonresidue(41) == 3
    with pytest.raises(ValueError):
        least_nonresidue(8)
    for q in (9, 15):  # Euler's test alone would answer 2
        with pytest.raises(CompositeModulus):
            least_nonresidue(q)


@pytest.mark.parametrize("q", [-1, 0, 1, 2])
def test_modulus_below_3_refused_alike(q):
    # one refusal, from certify_modulus, wherever a modulus enters
    calls = [build_modulus, legendre_value_array, max_window_spread,
             nonresidue_max_gap, least_nonresidue,
             lambda q: extremal_scan(q, 1, 5, [0]),
             lambda q: moment_check(q, 1)]
    for call in calls:
        with pytest.raises(CompositeModulus, match=f"{q} is not an odd prime"):
            call(q)


def test_nonresidue_gap_examples():
    assert nonresidue_max_gap(7) == (2, 1, 3)
    assert nonresidue_max_gap(3) == (1, 1, 2)


def test_nonresidue_gap_matches_full_table():
    # the half table's mirror against the longest run of the whole period
    for q in [q for q in range(3, 3000, 2) if is_prime(q)] + [10007, 10009]:
        edges = np.concatenate(
            [[0], np.flatnonzero(legendre_full(q) == -1), [q]])
        runs = np.diff(edges) - 1
        best = int(runs.argmax())
        assert nonresidue_max_gap(q) == (
            runs[best], edges[best] + 1, edges[1]), q


def test_least_nonresidue_by_two_routes():
    # Euler's criterion against the first nonresidue of the squares table
    for q in [q for q in range(3, 3000, 2) if is_prime(q)] + [1000003]:
        assert least_nonresidue(q) == nonresidue_max_gap(q)[2], q


@given(st.integers(1, 10 ** 5), st.sampled_from([101, 1009, 10007]),
       st.integers(2, 4))
@settings(max_examples=80, deadline=None)
def test_uv_budget_property(n, q, r):
    p = derive_params(n, q, r)
    assert 16 * p.U * p.V <= n
    assert p.degenerate == (p.U < 2)


def test_legendre_work_builds_no_dlog(monkeypatch):
    # the quadratic tables come from the squares and single values from the
    # order-d Euler criterion, so no primitive root is ever found
    def no_root(q):
        raise AssertionError(f"primitive root mod {q} searched")

    with monkeypatch.context() as patch:
        patch.setattr(chars_module, "find_primitive_root", no_root)
        mod = build_modulus(10007)
        chi = mod.legendre()
        assert holder_chain(chi, 17, int(10007 ** 0.4), 2).passed
        assert moment_check(chi, r=2).passed
        built = []

        def spy(q):
            built.append(build_modulus(q))
            return built[-1]

        patch.setattr(bounds, "build_modulus", spy)
        extremal_scan(10007, 5003, 40, [0, 17, 900])
        assert len(built) == 1
    q = 10000141
    big = build_modulus(q)
    for d in (2, 3):
        e = (q - 1) // d
        chi = big.character(e)  # chi(g^k) = e(k/d)
        assert chi.order == d
        for n in (2, 3, -5, q - 1):
            v = chi.value(n)
            assert v.den == d and pow(n, e, q) == pow(big.g, e * v.num, q)
