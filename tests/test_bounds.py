import math
import random
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
)
from burgess import bounds
from burgess.acceptance import holder_cells
from burgess.chars import (
    PrimeModulus,
    build_modulus,
    interval_sum,
    is_prime,
)
from burgess.errors import DegenerateParams, UnknownVariant
from burgess.moments import auto_window, moment_check, moment_sum
from burgess.sieve import primes_below
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


def test_certificate_rounds_up():
    # perfect-square norms: W = 1*3 + 2*2 + 3*1 + 12*2 = 34 exactly
    norm = np.array([0, 1, 4, 9, 144], dtype=np.int64)
    counts = np.array([5, 3, 2, 1, 2], dtype=np.int64)
    for r in (2, 3):
        assert bounds._certified(norm, counts, r, 34 ** (2 * r))
        assert not bounds._certified(norm, counts, r, 34 ** (2 * r) - 1)
    # W = sqrt(2): the upper bound exceeds it, so W^4 = 4 is not certified
    two, one = np.array([2], dtype=np.int64), np.array([1], dtype=np.int64)
    assert not bounds._certified(two, one, 2, 4)
    assert bounds._certified(two, one, 2, 5)
    # a norm whose shifted square would leave int64: inconclusive
    assert not bounds._certified(np.array([1 << 22], dtype=np.int64), one,
                                 2, 10 ** 100)


def test_holder_chain_falls_back_to_float(monkeypatch):
    monkeypatch.setattr(bounds, "_certified", lambda *a: False)
    chi = build_modulus(1009).character(336)
    rep = holder_chain(chi, 5, 15, 2)
    assert rep.passed and rep.path == "float"


def test_certificate_gets_int64_norms(monkeypatch):
    # _certified shifts norms left by 2 CERT_BITS, which int32 would wrap
    seen = []

    def spy(norm, *a):
        seen.append(norm.dtype)
        return real(norm, *a)

    real = bounds._certified
    monkeypatch.setattr(bounds, "_certified", spy)
    rep = holder_chain(build_modulus(1009).character(336), 5, 15, 2)
    assert rep.path == "certified" and seen == [np.int64]


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
        # the cache keeps one scalar per (V, r), no array
        assert set(chi.moments) == set(calls)
        assert not any(isinstance(v, np.ndarray) for v in chi.moments.values())
        for rep in reps:  # the same numbers as a character with no cache
            fresh = holder_chain(mod10007.character(chi.index), rep.M, n,
                                 rep.r)
            assert fresh.moment2r == rep.moment2r
            assert fresh.holder_rhs == rep.holder_rhs


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
    assert bounds._float_leq(1e100, 2, 10 ** 400, 1.0)  # within 1e-9
    assert not bounds._float_leq(1e100, 2, 10 ** 399, 1.0)
    assert bounds._float_leq(1e100, 2, 10 ** 399, math.inf)  # as lhs <= inf


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


def test_least_nonresidue_examples():
    assert least_nonresidue(7) == 3
    assert least_nonresidue(3) == 2
    assert least_nonresidue(41) == 3
    with pytest.raises(ValueError):
        least_nonresidue(8)


def test_nonresidue_gap_examples():
    assert nonresidue_max_gap(7) == (2, 1)
    assert nonresidue_max_gap(3) == (1, 1)


def test_nonresidue_gap_baseline_q10007():
    gap, start = nonresidue_max_gap(10007)
    assert gap == baselines.NONRESIDUE_GAP_Q10007
    cap = math.ceil(10007 ** 0.25 * math.log(10007))
    assert gap <= cap * baselines.NONRESIDUE_GAP_CONSTANT + 1e-9


def test_nonresidue_gap_matches_full_table():
    # the half table's mirror against the longest run of the whole period
    for q in [q for q in range(3, 3000, 2) if is_prime(q)] + [10007, 10009]:
        edges = np.concatenate(
            [[0], np.flatnonzero(legendre_full(q) == -1), [q]])
        runs = np.diff(edges) - 1
        best = int(runs.argmax())
        assert nonresidue_max_gap(q) == (runs[best], edges[best] + 1), q


def test_least_nonresidue_within_first_gap():
    for q in (3, 7, 11, 101, 1009, 10007):
        gap, start = nonresidue_max_gap(q)
        assert least_nonresidue(q) <= start + gap


def test_holder_c0_standin_stable():
    measured = baselines.measure_holder_c0_standin()
    assert abs(measured - baselines.HOLDER_C0_STANDIN) < 1e-12


@given(st.integers(1, 10 ** 5), st.sampled_from([101, 1009, 10007]),
       st.integers(2, 4))
@settings(max_examples=80, deadline=None)
def test_uv_budget_property(n, q, r):
    p = derive_params(n, q, r)
    assert 16 * p.U * p.V <= n
    assert p.degenerate == (p.U < 2)


def test_legendre_work_builds_no_dlog(monkeypatch):
    # the quadratic values come from the squares and single values from the
    # order-d Euler criterion, so no class table is ever built
    def no_table(self, d):
        raise AssertionError(f"class table mod {d} built")

    monkeypatch.setattr(PrimeModulus, "classes", no_table)
    mod = build_modulus(10007)
    chi = mod.legendre()
    assert holder_chain(chi, 17, int(10007 ** 0.4), 2).passed
    assert moment_check(chi, r=2).passed
    built = []

    def spy(q):
        built.append(build_modulus(q))
        return built[-1]

    monkeypatch.setattr(bounds, "build_modulus", spy)
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
