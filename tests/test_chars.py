import gc
import math
import random
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from burgess import acceptance, bounds
from burgess import chars as chars_module
from burgess.chars import (
    BLOCK,
    LATTICE,
    POWER_BLOCK,
    PUT_BYTES,
    TABLE_CEILING,
    CharValue,
    PrimeModulus,
    build_modulus,
    find_primitive_root,
    interval_sum,
    is_prime,
    lattice_complex,
    legendre_value_array,
    mark_squares,
    mirror_classes,
    prefix_table,
    reduce_mod,
    square_buffers,
    square_residues,
    window_array,
    window_sum,
)
from burgess.errors import (
    CompositeModulus,
    TableLimitExceeded,
    TrivialCharacter,
    WindowTooLarge,
)
from burgess.sieve import primes_between
from oracles import (
    all_windows,
    full_prefix,
    legendre_full,
    scatter_classes,
    value_table,
)

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 101]
FLOAT_RTOL = 1e-9  # perfbench's tolerance for sums taken in floats


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


def library_classes(chi):
    """chi's classes for n in [0, q-1] through mirror_classes, -1 at 0."""
    return np.concatenate([[-1], mirror_classes(chi, np.arange(1, chi.q))])


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
    mod = build_modulus(7)  # g = 3; the full dlog is the d = q-1 class table
    # class tables hold n in [0, h], h = 3; the index-1 character's classes
    # are the full dlog mod 6
    assert library_classes(mod.character(1)).tolist() == [-1, 0, 2, 1, 4, 5, 3]
    assert mod.classes(6).tolist() == [-1, 0, 2, 1]
    assert mod.classes(3).tolist() == [-1, 0, 2, 1]
    assert mod.classes(2).tolist() == [-1, 0, 0, 1]
    assert build_modulus(3).classes(2).tolist() == [-1, 0]


def test_class_table_dtype_holds_minus_d():
    assert build_modulus(1009).classes(3).dtype == np.int8
    assert build_modulus(1009).classes(1008).dtype == np.int16
    q = 40009  # above 32769, so q - 1 needs int32
    assert is_prime(q)
    assert build_modulus(q).classes(q - 1).dtype == np.int32


def test_build_modulus_rejects_composite_and_oversize(monkeypatch):
    monkeypatch.delenv("BURGESS_TABLE_LIMIT", raising=False)
    with pytest.raises(CompositeModulus):
        build_modulus(2 ** 26 + 1)
    with pytest.raises(TableLimitExceeded):  # the first prime above 2^26
        build_modulus(67108879)


def test_table_limit_env_override(monkeypatch):
    monkeypatch.setenv("BURGESS_TABLE_LIMIT", "50")
    with pytest.raises(TableLimitExceeded):
        build_modulus(101)
    monkeypatch.setenv("BURGESS_TABLE_LIMIT", "200")
    assert build_modulus(101).q == 101
    # the same cap covers the quadratic value table
    monkeypatch.setenv("BURGESS_TABLE_LIMIT", "1000")
    with pytest.raises(TableLimitExceeded):
        legendre_value_array(1009)
    assert len(legendre_value_array(997)) == 499  # chi(n) for n in [0, h]
    # q < 2^31 keeps the int64 products of the table code exact
    for cap in (2 ** 31, 2 ** 40):
        monkeypatch.setenv("BURGESS_TABLE_LIMIT", str(cap))
        with pytest.raises(TableLimitExceeded):
            build_modulus(101)
        with pytest.raises(TableLimitExceeded):
            legendre_value_array(101)
    monkeypatch.setenv("BURGESS_TABLE_LIMIT", str(2 ** 31 - 1))
    assert build_modulus(101).q == 101


def test_modulus_holds_no_table():
    mod = build_modulus(101)
    for m in (50, 5):
        chi = mod.character(m)
        chi.prefix
        chi.value(3)
        # g is cached once read; the Legendre character (m = 50) never reads it
        assert vars(mod) == ({"q": 101} if m == 50 else {"q": 101, "g": 2})


def test_planted_non_primitive_root_fails_on_first_read():
    mod = PrimeModulus(q=101, g=4)  # 4 = 2^2 has order 50, not 100
    for _ in range(2):  # every read checks its table
        with pytest.raises(AssertionError):
            mod.classes(100)
    assert vars(mod) == {"q": 101, "g": 4}


def test_planted_root_caught_by_surjectivity_alone():
    # 2 has order 51 mod 103: the anchors c[1] = 0, c[2] = 1 mod 3 hold,
    # but half the residues are never reached
    assert pow(2, 51, 103) == 1
    with pytest.raises(AssertionError, match="surjective"):
        PrimeModulus(q=103, g=2).classes(3)


def test_character_caches_only_its_prefix(mod101):
    for m in (50, 5):
        chi = mod101.character(m)
        interval_sum(chi, 0, 100)  # reads the half class table
        assert vars(chi) == {"modulus": mod101, "index": m}
        table = chi.prefix
        assert vars(chi) == {"modulus": mod101, "index": m, "prefix": table}


def bits(x):
    """The raw IEEE bits of complex values, so -0.0 and 0.0 differ."""
    return np.atleast_1d(np.asarray(x, dtype=np.complex128)).view(np.int64)


@pytest.mark.parametrize("q", [101, 1009, 10007])
def test_complex_values_from_roots_bit_identical(q):
    # the d-entry root table gives the bits of q direct exponentials
    mod = build_modulus(q)
    orders = [d for d in (3, 4, 6, q - 1) if (q - 1) % d == 0]
    indices = [(q - 1) // d for d in orders] + [2]  # index 2: gcd 2, d > 6
    assert math.gcd(2, q - 1) == 2 and (q - 1) // 2 > 6
    for m in indices:
        chi = mod.character(m)
        s = (q - 1) // chi.order  # oracle float input: class * s
        c = chi._class_of(scatter_classes(mod, chi.order))
        want = np.exp(2j * np.pi * (c * s).astype(np.float64) / (q - 1))
        want[0] = 0
        got = value_table(chi)
        assert np.array_equal(bits(got), bits(want)), m
        assert len(np.unique(got[1:])) == chi.order


def test_prefix_table_freed_with_its_character(mod101):
    gc.disable()
    try:
        for m in (5, 50):
            chi = mod101.character(m)
            ref = weakref.ref(chi.prefix)
            del chi  # no reference cycle: freed without the collector
            assert ref() is None
    finally:
        gc.enable()


def test_prefix_table_holds_no_character(mod101):
    table = prefix_table(mod101.character(5))
    assert not hasattr(table, "chi")
    assert set(vars(table)) == {"sums", "order"}
    assert table.q == 101


def test_values_dtype_picks_exact_path(mod101, mod1009):
    assert value_table(mod101.character(0)).dtype == np.int8
    assert value_table(mod101.legendre()).dtype == np.int8
    assert value_table(mod101.character(5)).dtype == np.complex128
    assert prefix_table(mod101.legendre()).exact
    assert not prefix_table(mod101.character(5)).exact
    # orders 3, 4 and 6: coordinate pairs in 16-bit lanes as every window of
    # q = 1009 is below 2^15, packed in one int32, 4 bytes per residue
    for d in (3, 4, 6):
        table = prefix_table(mod1009.character(1008 // d))
        assert table.exact and table.rank == 2
        assert table.sums.dtype == np.int32 and table.sums.shape == (505,)
        assert window_array(table, 1).dtype == np.int16
    assert prefix_table(mod101.legendre()).sums.shape == (51,)


def test_classes_ramp_matches_plain_scatter():
    # q - 1 = 32796 spans five 2^13 blocks of powers; 2^13 mod d != 0 for
    # d = 3, 6, 5466; 8199 and q - 1 lie above the ramp
    mod = build_modulus(32797)
    assert (mod.q - 1) // POWER_BLOCK >= 4
    for d in (2, 3, 4, 6, 5466, 8199, mod.q - 1):
        assert (mod.q - 1) % d == 0
        got = mod.classes(d)
        assert got.dtype == np.min_scalar_type(-d)
        h = (mod.q - 1) // 2
        assert np.array_equal(got, scatter_classes(mod, d)[:h + 1]), d


@pytest.mark.parametrize("q", [101, 1009])
def test_classes_below_a_power_block_match_scatter(q):
    # h < POWER_BLOCK: the ramp is h + d entries; the identity classes are
    # the one-power-at-a-time oracle's, and the order-2 payload +-1 takes
    # the place of classes 0 and 1, with -2 below both at 0 (orders 3 and 6
    # do not divide 100)
    mod = build_modulus(q)
    h = (q - 1) // 2
    assert h < POWER_BLOCK
    orders = [d for d in (2, 3, 4, 6) if (q - 1) % d == 0]
    assert orders == ([2, 4] if q == 101 else [2, 3, 4, 6])
    for d in orders:
        want = scatter_classes(mod, d)[:h + 1]
        got = mod.classes(d)
        assert got.dtype == np.min_scalar_type(-d)
        assert np.array_equal(got, want), d
    got = mod.classes(2, np.array(LATTICE[2][0], dtype=np.int8))
    want = scatter_classes(mod, 2)[:h + 1]
    assert got.dtype == np.int8 and got[0] == -2
    assert np.array_equal(got[1:], 1 - 2 * want[1:])


@pytest.mark.parametrize("d", [3, 1008])
def test_classes_refuse_a_payload_outside_order_two(d):
    # only order 2 writes a payload; no other order reads one
    with pytest.raises(ValueError):
        build_modulus(1009).classes(d, np.arange(d, dtype=np.int16))


@pytest.mark.parametrize("q", [1009, 32797, 131101])
def test_blocked_prefix_bit_identical(q):
    # 131101: the classes take two BLOCK slices
    mod = build_modulus(q)
    orders = [d for d in (3, 4, 6, 5, 12, q - 1) if (q - 1) % d == 0]
    h = (q - 1) // 2
    for m in [(q - 1) // d for d in orders] + [2, 7]:
        chi = mod.character(m)
        got = chars_module.unpack(prefix_table(chi).sums, chi.order)
        want = full_prefix(chi)[..., :h + 1]
        assert got.dtype == (np.int16 if chi.order in LATTICE and q < 1 << 15
                             else np.int32 if chi.order in LATTICE
                             else np.complex128)
        assert got.shape == want.shape
        if chi.order in LATTICE:
            assert np.array_equal(got, want), m
        else:
            assert np.array_equal(bits(got), bits(want)), m


def test_prefix_build_holds_table_and_a_block():
    # the modulus scatters the int8 classes into the top bytes of the
    # 8(h+1)-byte half table, and their packed values are gathered over
    # them and summed in place: beside it only O(BLOCK) temporaries, no
    # class table (h+1 bytes) and no coordinate gather of one
    q = 1000003
    chi = build_modulus(q).character((q - 1) // 3)
    tracemalloc.start()
    try:
        table = prefix_table(chi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    h = (q - 1) // 2
    assert table.sums.nbytes == 8 * (h + 1)
    assert peak <= table.sums.nbytes + 10 * BLOCK


# h+1 = 505 lies below one POWER_BLOCK; 16399 = 2 POWER_BLOCK + 15 ends in
# a short block, and the blocks near the end overlap their own classes.
# Full BLOCK slices of 1- and 2-byte entries are summed a word at a time:
# 131071 has exactly one (h+1 = BLOCK; 131070 has no factor 4), 131101 one
# and a 15-entry one, 400321 three, whose carries pass +-127 at every order.
@pytest.mark.parametrize("q", [1009, 32797, 131071, 131101, 400321])
def test_prefix_table_bytes_match_the_full_oracle(q):
    # every lane width of orders 2, 3, 4 and 6, each entry kept mod 2^w and
    # packed a + 2^w b at rank 2: the classes written into the table's top
    # bytes and widened in place, and the streamed slices, give the
    # oracle's bytes
    mod = build_modulus(q)
    h = (q - 1) // 2
    wrapped = set()
    for d in (2, 3, 4, 6):
        if (q - 1) % d:
            continue
        for m in sorted({1, d - 1}):
            chi = mod.character(m * (q - 1) // d)
            full = full_prefix(chi)[..., :h + 1]
            for span, bits in ((100, 8), (1000, 16), (1 << 15, 32)):
                table = prefix_table(chi, span)
                dtype = chars_module.sum_dtype(d, span)
                want = (full if d == 2 else full[0] + (full[1] << bits))
                want = want.astype(dtype).tobytes()
                assert table.sums.dtype == dtype
                assert dtype.itemsize * 8 == bits * len(LATTICE[d])
                assert table.sums.tobytes() == want, (d, m, span)
                streamed = list(chars_module.prefix_slices(chi, span))
                assert np.concatenate(streamed).tobytes() == want, (d, m, span)
            carried = full[..., BLOCK - 1:h:BLOCK]  # into each later slice
            if carried.size and np.abs(carried).max() > 127:
                wrapped.add(d)  # wraps in an 8-bit lane
    if q == 400321:
        assert wrapped == {2, 3, 4, 6}


def test_wide_prefix_build_holds_table_and_blocks():
    # an order-3 table for windows below 128 at q ~ 10^7: the int8 classes
    # are scattered into the top half of the int16 table and widened in
    # place, each POWER_BLOCK of them gathered from an intp copy, so beside
    # the 2(h+1) bytes only the blocks of powers and one such copy
    q = 10000141
    chi = build_modulus(q).character((q - 1) // 3)
    tracemalloc.start()
    try:
        table = prefix_table(chi, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    h = (q - 1) // 2
    assert table.sums.dtype == np.int16
    assert table.sums.nbytes == 2 * (h + 1)
    assert peak <= 2 * (h + 1) + 7 * BLOCK


def test_square_residues_step_in_uint32_at_the_limit():
    # q = 2^31 - 1, the largest prime below TABLE_CEILING: every sum of two
    # residues is near 2^32, and the first stepped blocks still equal k^2
    # mod q, whether the first block is built (2^13 - 1 squares) or read
    # from a larger prime's buffers (2^16 - 1, squares past q); no table
    q = (1 << 31) - 1
    assert q < TABLE_CEILING and is_prime(q)
    for squares, b in (((), POWER_BLOCK - 1), (square_buffers(q), BLOCK - 1)):
        tracemalloc.start()
        try:
            blocks = square_residues(q, squares)
            k = 1
            for s in (next(blocks) for _ in range(4)):
                assert s.dtype == np.intp and len(s) == b
                want = np.arange(k, k + b, dtype=np.int64)
                assert np.array_equal(s, want * want % q), k
                k += b
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 22


@pytest.mark.parametrize("q", [16381, 16411, 131101])
def test_mark_squares_at_every_step_boundary(q):
    # first blocks of B = h - 1, h and h + 1 squares: one stepped block of
    # one square, none, none; and a first block of a third of h, stepped
    # twice with a short last block; into a q-entry and an (h+2)-entry mark
    h = (q - 1) // 2
    full = legendre_full(q)
    for b in (h - 1, h, h + 1, h // 3 + 1):
        squares = square_buffers(2 * min(b, BLOCK - 1) + 1)
        whole, clipped = np.zeros(q, dtype=bool), np.zeros(h + 2, dtype=bool)
        mark_squares(q, whole, True, squares)
        mark_squares(q, clipped, True, squares)
        assert np.array_equal(whole[1:], full[1:] == 1), b
        assert np.array_equal(clipped[1:h + 1], whole[1:h + 1]), b
        assert clipped[h + 1] and not clipped[0] and not whole[0]


@pytest.mark.parametrize("q", [16381, 16411, 4194287, 4194301, 4194319,
                               4194329])
def test_order_two_classes_match_the_squares(q):
    # q = 1 and 3 (mod 4): h = 2^13 - 2 (one built block) and 2^13 + 2
    # (stepped), then two primes on each side of the 2^21-byte switch
    # (4194301: h + 2 = 2^21, the largest fancy-store int8 mark)
    h = (q - 1) // 2
    if q > 1 << 20:
        assert (h + 2 > PUT_BYTES) == (q > 4194301)
    vals = PrimeModulus(q).classes(2, np.array(LATTICE[2][0], np.int8))
    assert vals[0] < -1
    vals[0] = 0
    assert np.array_equal(vals, legendre_full(q)[:h + 1]), q


def test_power_classes_past_the_put_switch_match_scatter():
    # the int32 full-order classes at q = 1048583 fill 4 (h + 1) > 2^21
    # bytes, so the powers are written by np.put; the int8 classes of the
    # same q stay below the switch (q - 1 = 2 * 29 * 101 * 179)
    mod = build_modulus(1048583)
    h = (mod.q - 1) // 2
    assert 4 * (h + 1) > PUT_BYTES >= h + 2
    dlog = scatter_classes(mod, mod.q - 1)[:h + 1]
    got = mod.classes(mod.q - 1)
    assert got.dtype == np.int32 and np.array_equal(got, dlog)
    for d in (29, 58, 101):
        got = mod.classes(d)
        assert got.dtype == np.int8 and got[0] == -1
        assert np.array_equal(got[1:], dlog[1:] % d), d


def test_legendre_prefix_build_holds_table_and_a_block():
    # the squares are marked in the int32 table itself and summed in place:
    # beside it the 2^13 uint32 squares with their quotient and intp
    # residue buffers, and two uint32 blocks of as many stepped residues
    # (about 200,000 bytes), no int8 value table (h+2 bytes) and no
    # 4(h+1)-byte copy
    q = 10000019
    chi = build_modulus(q).legendre()
    tracemalloc.start()
    try:
        table = prefix_table(chi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    h = (q - 1) // 2
    assert table.sums.nbytes == 4 * (h + 1)
    assert peak <= table.sums.nbytes + 4 * BLOCK


def test_full_order_prefix_build_holds_no_root_table():
    # d > BLOCK: each slice's roots come from its own classes, which the
    # modulus scatters into the top bytes of the complex table, so beside
    # it no int32 class table (4(h+1) bytes), only the roots' temporaries,
    # taken POWER_BLOCK classes at a time
    q = 1000003
    chi = build_modulus(q).character(1)
    assert chi.order > BLOCK
    tracemalloc.start()
    try:
        table = prefix_table(chi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    h = (q - 1) // 2
    assert table.sums.nbytes == 16 * (h + 1)
    assert peak <= table.sums.nbytes + 7 * BLOCK  # measured 6.17 BLOCK


# q = 1 and q = 3 (mod 4); 1008 = 16 * 63 and 1062 = 2 * 9 * 59, so the
# orders below include even and odd characters of every kind
MIRROR_CELLS = [(1009, (2, 3, 4, 6, 16, 63)), (1063, (2, 3, 6, 9, 59))]


@pytest.mark.parametrize("q, orders", MIRROR_CELLS)
def test_mirrored_accessor_matches_full_oracle(q, orders):
    mod = build_modulus(q)
    h = (q - 1) // 2
    signs = set()
    for d in orders:
        chi = mod.character((q - 1) // d * (d - 1 if d > 2 else 1))
        assert chi.order == d
        table = prefix_table(chi)
        want = full_prefix(chi)
        assert table.sign == -chi(-1).as_complex().real
        signs.add(table.sign)
        got = chars_module.unpack(table.at(np.arange(q + 1, dtype=np.int64)),
                                  d)
        assert got.shape == want.shape
        assert [chars_module.unpack(table.at(k), d).tolist()
                for k in (0, h, h + 1, q - 1, q)] == [
            got[..., k].tolist() for k in (0, h, h + 1, q - 1, q)]
        if table.exact:
            assert got.dtype == np.int16 and np.array_equal(got, want), d
        else:  # the stored half bit for bit, the mirrored half to rounding
            assert np.array_equal(bits(got[:h + 1]), bits(want[:h + 1]))
            assert np.abs(got - want).max() <= 1e-12 * q, d
    assert signs == {-1, 1}


@pytest.mark.parametrize("q, orders", MIRROR_CELLS)
def test_window_sum_straddling_h_and_q(q, orders):
    mod = build_modulus(q)
    h = (q - 1) // 2
    for d in orders:
        chi = mod.character((q - 1) // d)
        table = prefix_table(chi)
        full = full_prefix(chi)
        for v in (1, 2, 7, h - 1, h, h + 1, q - 1, q):
            want = all_windows(full, v)
            lams = np.array([s + t for s in (0, h - v, h, q - v, q, 2 * q)
                             for t in range(-3, 4)], dtype=np.int64)
            got = window_sum(table, lams, v)
            ref = want[..., lams % q]
            if table.exact:
                assert np.array_equal(got, ref), (d, v)
                assert [window_sum(table, int(m), v).tolist()
                        for m in lams] == ref.T.tolist()
            else:
                assert np.abs(got - ref).max() <= 1e-12 * q, (d, v)
            assert np.array_equal(window_array(table, v),
                                  window_sum(table, np.arange(1, q + 1), v))


def test_legendre_paths_find_no_primitive_root(monkeypatch):
    def no_root(q):
        raise AssertionError("primitive root searched")

    monkeypatch.setattr(chars_module, "find_primitive_root", no_root)
    for q in (10007, 10009):
        mod = build_modulus(q)
        chi = mod.legendre()
        assert prefix_table(chi).sums[-1] == int(
            np.sum(legendre_value_array(q)))
        bounds.extremal_scan(q, (q - 1) // 2, 100, [0, 5, q - 3])
        bounds.max_window_spread(q)
        assert [chi(n).as_int() for n in range(-3, 40)] == [
            euler_criterion(n, q) for n in range(-3, 40)]
        # 5000 terms > isqrt(q): the half class table, read across h
        assert interval_sum(chi, q // 2 - 2000, 5000) == sum(
            euler_criterion(n, q) for n in range(q // 2 - 1999, q // 2 + 3001))
        assert mirror_classes(chi, np.arange(1, q)).tolist() == [
            (1 - euler_criterion(n, q)) // 2 for n in range(1, q)]
        assert vars(mod) == {"q": q}
    with pytest.raises(AssertionError, match="primitive root"):
        build_modulus(10007).character(3).prefix


def test_dlog_is_bijection(mod101):
    assert sorted(library_classes(mod101.character(1))[1:].tolist()) == list(
        range(100))


def test_value_euler_criterion():
    mod = build_modulus(7)
    chi = mod.legendre()
    assert chi(3).as_int() == -1
    assert chi(2).as_int() == 1
    assert chi(14).is_zero
    for n in range(1, 14):
        assert chi(n).as_int() == euler_criterion(n, 7)


def test_quadratic_value_reads_no_dlog(monkeypatch):
    def no_table(self, d):
        raise AssertionError("class table built")

    monkeypatch.setattr(PrimeModulus, "classes", no_table)
    chi = build_modulus(10007).legendre()
    assert chi.value(3).as_int() == euler_criterion(3, 10007)


def test_quadratic_value_equals_dlog_value():
    # the order-d Euler criterion agrees with the class table, for every
    # character; at q = 1009 a sample of n keeps it to ~33k value calls
    rng = random.Random(11)
    for q in (101, 103, 1009):
        mod = build_modulus(q)
        ns = range(-q, 2 * q)
        if q == 1009:
            ns = [-q, 0, q] + rng.sample(ns, 30)
        dlog = scatter_classes(mod, q - 1)
        for m in range(q - 1):
            chi = mod.character(m)
            c = chi._class_of(dlog)
            for n in ns:
                want = (CharValue(None, chi.order) if n % q == 0 else
                        CharValue(int(c[n % q]), chi.order))
                assert chi.value(n) == want, (q, m, n)


def test_value_full_order_is_discrete_log():
    # index 1 has order q - 1, so chi(n) = e(dlog(n)/(q-1)) and g^num = n;
    # baby-step giant-step takes O(sqrt(q)) steps per value
    q = 10000019
    mod = build_modulus(q)
    chi = mod.character(1)
    rng = random.Random(5)
    for n in [1, mod.g, q - 1] + [rng.randrange(1, q) for _ in range(20)]:
        v = chi.value(n)
        assert v.den == q - 1 and pow(mod.g, v.num, q) == n


def test_char_value_forms():
    mod = build_modulus(5)
    chi = mod.legendre()
    v = chi.value(2)
    assert v == CharValue(num=1, den=2)  # e(1/2) = -1
    assert v.as_int() == -1
    assert abs(v.as_complex() + 1) < 1e-12


def test_interval_sum_examples():
    mod = build_modulus(7)
    chi = mod.legendre()
    assert interval_sum(chi, 0, 7) == 0
    assert interval_sum(chi, 0, 3) == 1
    assert interval_sum(chi, 0, 0) == 0


def test_interval_sum_matches_per_term(mod101):
    rng = random.Random(7)
    chi = mod101.legendre()
    for _ in range(50):
        m = rng.randint(-300, 300)
        n = rng.randint(0, 250)
        direct = sum(euler_criterion(k, 101) for k in range(m + 1, m + n + 1))
        assert interval_sum(chi, m, n) == direct


def test_interval_sum_complex_reads_interval(mod1009):
    # complex sums go block by block, so they match one sum over the
    # interval's values to FLOAT_RTOL of its n % q unit terms
    q = mod1009.q
    for m in (1, 5):  # orders 1008; order 3 (m = 336) takes the exact path
        chi = mod1009.character(m)
        vals = value_table(chi)
        for start, n in ((0, 0), (0, 1), (-7, 10), (1000, 30), (3, q - 1),
                         (0, q), (-5, q + 17), (2 * q + 3, 3 * q + 500)):
            idx = (start + 1 + np.arange(n % q, dtype=np.int64)) % q
            got = interval_sum(chi, start, n)
            assert type(got) is complex
            want = complex(vals[idx].sum())
            assert abs(got - want) <= FLOAT_RTOL * len(idx), (m, start, n)


def lattice_oracle(chi, m, n):
    """sum over (m, m+n] of chi(k)'s LATTICE column, from single values."""
    cols = [(0, 0) if v.is_zero else tuple(c[v.num] for c in LATTICE[v.den])
            for v in map(chi.value, range(m + 1, m + n + 1))]
    return tuple(map(sum, zip(*cols))) if cols else (0, 0)


@pytest.mark.parametrize("d", [3, 4, 6])
def test_interval_sum_lattice_orders_exact(mod1009, d):
    q = mod1009.q
    rng = random.Random(d)
    for chi in (mod1009.character(1008 // d),
                mod1009.character(1008 // d).conjugate()):
        vals = value_table(chi)
        cells = [(0, 0), (0, 1), (-7, 10), (1000, 30), (3, q - 1), (0, q),
                 (-5, q + 17)] + [(rng.randint(-2 * q, 2 * q),
                                   rng.randint(0, 2 * q)) for _ in range(20)]
        for start, n in cells:
            got = interval_sum(chi, start, n)
            assert type(got) is tuple and all(type(x) is int for x in got)
            assert got == lattice_oracle(chi, start, n % q), (start, n)
            idx = (start + 1 + np.arange(n % q, dtype=np.int64)) % q
            want = complex(vals[idx].sum())
            assert abs(lattice_complex(d, got) - want) <= 1e-9 * q


def test_orthogonality_exact_for_lattice_orders(mod1009):
    # the q - 1 values after m sum to exactly minus chi(m)'s column
    for d in (3, 4, 6):
        chi = mod1009.character(1008 // d)
        for m in (0, 1, 2, 500, 1008, -3):
            s = interval_sum(chi, m, 1008)
            want = lattice_oracle(chi, m - 1, 1)
            assert s == (-want[0], -want[1])
        assert acceptance._full_period_ok(chi, range(-3, 1010))


def test_interval_sum_trivial_character(mod101):
    chi0 = mod101.character(0)
    s = interval_sum(chi0, 0, 101)
    assert s == 100 and isinstance(s, int)  # all but the multiple of q


def forbid_tables(monkeypatch):
    def no_table(*args):
        raise AssertionError("q-wide table built")

    monkeypatch.setattr(chars_module, "legendre_value_array", no_table)
    monkeypatch.setattr(PrimeModulus, "classes", no_table)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_short_interval_sum_builds_no_table(monkeypatch, d):
    # at q = 10009, L (isqrt(d-1)+1) <= isqrt(q) = 100 allows L <= limit
    q = 10009
    chi = build_modulus(q).character((q - 1) // d)
    limit = math.isqrt(q) // (math.isqrt(d - 1) + 1)
    cells = [(0, 1), (-7, limit), (q - 5, 12), (3 * q - 1, q + 4),
             (123, limit), (q - limit, 2 * q + limit), (17, q)]
    table = chi.prefix
    want = []
    for m, n in cells:  # the table path, before tables are forbidden
        w = (window_sum(table, m, n % q) if n % q
             else np.zeros((2,) * (table.rank == 2), dtype=np.int32))
        want.append(int(w) if d == 2 else tuple(map(int, w)))
    forbid_tables(monkeypatch)
    for (m, n), w in zip(cells, want):
        got = interval_sum(chi, m, n)
        assert got == w and type(got) is type(w), (m, n)
        if d > 2:
            assert all(type(x) is int for x in got)
    with pytest.raises(AssertionError, match="table built"):
        interval_sum(chi, 0, limit + 1)


def test_short_interval_sum_complex_matches_values(monkeypatch):
    q = 10009
    chi = build_modulus(q).character(139)  # order 72: up to 100 // 9 terms
    vals = value_table(chi)
    cells = [(0, 11), (q - 4, 9), (-1, 5), (2 * q + 7, q + 3), (5, 0)]
    want = [complex(vals[(m + 1 + np.arange(n % q)) % q].sum())
            for m, n in cells]
    forbid_tables(monkeypatch)
    for (m, n), w in zip(cells, want):
        got = interval_sum(chi, m, n)
        assert type(got) is complex
        assert abs(got - w) <= FLOAT_RTOL * (n % q), (m, n)


def test_reduce_mod_equals_remainder():
    rng = np.random.default_rng(3)
    near = (1 << 31) - 1 - rng.integers(0, 1 << 10, 4096)  # residues < 2^31
    for q in (3, 20011, 10000141, (1 << 31) - 1, 3037000493):
        for x in (rng.integers(-(1 << 62), 1 << 62, 4096),
                  near * near[::-1], -near * near, rng.integers(-q, q, 4096)):
            assert np.array_equal(reduce_mod(x.copy(), q), x % q), q


def test_prefix_table_example():
    mod = build_modulus(5)
    table = prefix_table(mod.legendre())
    assert table.sums.tolist() == [0, 1, 0]
    assert table.at(np.arange(6)).tolist() == [0, 1, 0, -1, 0, 0]


def test_prefix_table_requires_nontrivial(mod101):
    with pytest.raises(TrivialCharacter):
        prefix_table(mod101.character(0))


def test_prefix_final_entry_zero(mod101, mod1009):
    for mod in (mod101, mod1009):
        q = mod.q
        for m in (1, 2, (q - 1) // 2, q - 2):
            table = prefix_table(mod.character(m))
            for final in (table.at(q), table.at(q - 1)):
                assert final.tolist() == (0 if final.ndim == 0 else [0, 0])


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
            assert window_sum(table, lam, v) == interval_sum(chi, lam, v)
        # the same kernel over an array of starts, one gather
        lams = [rng.randint(-2 * mod.q, 2 * mod.q) for _ in range(1000)]
        v = rng.randint(1, mod.q)
        got = window_sum(table, np.array(lams, dtype=np.int64), v)
        assert got.dtype == (np.int8 if mod.q < 128 else np.int16)
        assert got.tolist() == [interval_sum(chi, lam, v) for lam in lams]


def test_window_equals_interval_complex(mod101):
    rng = random.Random(43)
    chi = mod101.character(5)
    table = prefix_table(chi)
    for _ in range(200):
        lam = rng.randint(-202, 202)
        v = rng.randint(1, 101)
        w = window_sum(table, lam, v)
        s = interval_sum(chi, lam, v)
        assert abs(w - s) < 1e-9 * v + 1e-12
    lams = [rng.randint(-202, 202) for _ in range(200)]
    v = rng.randint(1, 101)
    got = window_sum(table, np.array(lams, dtype=np.int64), v)
    assert got.dtype == np.complex128
    for w, lam in zip(got, lams):
        assert abs(w - interval_sum(chi, lam, v)) < 1e-9 * v + 1e-12


def test_window_sum_widens_32_bit_starts():
    # q = 2^31 - 1: windows from starts near q end past 2^31, where b = a + v
    # would wrap in int32; the ends of a +-1 walk stand for the table, and
    # every read lands in its head (S_k = S_{q-1-k} as (q-1)/2 is odd)
    q = 2 ** 31 - 1
    walk = np.random.default_rng(3).choice([-1, 1], 64)
    head = np.concatenate([[0], np.cumsum(walk)]).astype(np.int32)
    table = chars_module.PrefixEnds(head, head[-1:], 2, (q - 1) // 2)
    starts = np.array([q - 3, q - 1, q, 1, 5, -7], dtype=np.int32)
    v = 10

    def s(k):  # S_k, k in [0, q]: S_q = S_0
        return int(head[max(min(k, q - 1 - k), 0)])

    want = [s((a - 1) % q + 1 + v - q * ((a - 1) % q + 1 + v > q))
            - s((a - 1) % q + 1) for a in starts.tolist()]
    assert window_sum(table, starts, v).tolist() == want
    assert window_sum(table, starts.astype(np.int64), v).tolist() == want


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
            c = library_classes(chi)
            for a in range(1, q):
                for b in range(1, q):
                    assert c[a * b % q] == (c[a] + c[b]) % chi.order


def test_multiplicativity_all_pairs_q101(mod101):
    a = np.arange(1, 101, dtype=np.int64)
    prod_idx = np.outer(a, a) % 101
    for m in (1, 2, 17, 50, 99):
        chi = mod101.character(m)
        c = library_classes(chi)
        assert np.array_equal(c[prod_idx],
                              (c[a][:, None] + c[a][None, :]) % chi.order)


def test_orthogonality_every_start(mod101):
    # (start, start + q - 1] misses only the residue start, so the sum of
    # those q - 1 gathered values is -chi(start)
    for m in (1, 3, 50):
        chi = mod101.character(m)
        for start in range(-5, 106):
            s = interval_sum(chi, start, 100)
            if chi.is_quadratic:
                assert s == -chi(start).as_int()
            else:
                err = abs(s + chi(start).as_complex())
                assert err <= 1e-9 * 101


def test_order_invariant(mod101):
    for m in range(1, 100):
        chi = mod101.character(m)
        d = chi.order
        assert 100 % d == 0
        c = library_classes(chi)
        assert c[0] == -1 and c[1:].min() == 0 and c[1:].max() < d
        assert math.gcd(int(c[mod101.g]), d) == 1  # chi(g) has order d


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
        assert abs(interval_sum(chi, m, n)) <= nonzero + 1e-9


def test_exact_int_tracks_re(mod101):
    # the real path returns an exact Python int, not a float or complex
    s = interval_sum(mod101.legendre(), 3, 57)
    assert type(s) is int
    assert s == sum(euler_criterion(k, 101) for k in range(4, 61))
    assert type(interval_sum(mod101.character(5), 3, 57)) is complex


def test_legendre_value_array_matches_dlog_path(mod101, mod1009):
    # 131101: the squares take two blocks
    for mod in (mod101, mod1009, build_modulus(131101)):
        # chi(g^k) = (-1)^k, over the half period [0, h]
        h = (mod.q - 1) // 2
        assert legendre_value_array(mod.q).tolist() == [0] + [
            1 - 2 * k for k in scatter_classes(mod, 2)[1:h + 1].tolist()]


@pytest.mark.parametrize("q", [262153, 262147])  # 1 and 3 (mod 4)
def test_legendre_value_array_euler_criterion(q):
    # q > 4 BLOCK: the squares k <= h span three blocks
    h = (q - 1) // 2
    assert h > 2 * chars_module.BLOCK
    vals = legendre_value_array(q)
    assert vals.dtype == np.int8 and vals.shape == (h + 1,)
    assert vals.tolist() == [euler_criterion(n, q) for n in range(h + 1)]


@pytest.mark.parametrize("q", [1009, 1019])  # 1 and 3 (mod 4)
def test_quadratic_interval_sum_across_mirror_and_periods(q):
    # long enough for the table path; each interval crosses h, q, or both
    chi = build_modulus(q).legendre()
    h = (q - 1) // 2
    assert math.isqrt(q) < 40
    cells = [(h - 20, 40), (h - 1, 2), (h, 1), (0, h + 1), (q - 50, 100),
             (h - 30, q), (-3 * q + 7, 2 * q + 333), (5 * q - 1, 3 * q + 1),
             (q, q), (h + 3, q + h)]
    for m, n in cells:
        got = interval_sum(chi, m, n)
        assert type(got) is int
        assert got == sum(euler_criterion(k, q)
                          for k in range(m + 1, m + n + 1)), (m, n)


@pytest.mark.parametrize("d", [2, 3])
def test_long_interval_sum_holds_class_table_and_a_block(d):
    # the int8 half class table (h+1 bytes) read POWER_BLOCK classes at a
    # time: beside it one run's int64 bincount input, no interval-long array
    q = 1000003
    chi = build_modulus(q).character((q - 1) // d)
    for m, n in ((-7, q - 1), (12345, 400000), (q - 1000, 3 * q + 700000)):
        tracemalloc.start()
        try:
            interval_sum(chi, m, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (q + 1) // 2 + 9 * BLOCK, (m, n)


def hex_complex(re, im):
    return complex(float.fromhex(re), float.fromhex(im))


def test_long_complex_interval_sum_pinned():
    # L > BLOCK: the roots of several blocks, mirrored ones too, each block
    # summed and the block sums added in order; within FLOAT_RTOL of the L
    # unit terms of the one sum over all L roots that came before
    chi = build_modulus(1000003).character(5)
    for m, n, now, before in (
            (999003, 8000015, ("-0x1.034562db45300p+2", "0x1.1ac556e34c690p+2"),
             ("-0x1.034562db45280p+2", "0x1.1ac556e34c7c0p+2")),
            (12345, 1999994, ("-0x1.1cda2cf5275c0p-1", "0x1.b1d884e125b38p+1"),
             ("-0x1.1cda2cf527200p-1", "0x1.b1d884e125a60p+1"))):
        assert n % chi.q > BLOCK
        got = interval_sum(chi, m, n)
        assert np.array_equal(bits(got), bits(hex_complex(*now)))
        assert abs(got - hex_complex(*before)) <= FLOAT_RTOL * (n % chi.q)


# q - 1 = 1000080 = 2^4 3^3 5 463 (orders 5 and 10 read int8 classes, the
# full order int32 ones); each interval crosses h, q or both
LONG_COMPLEX_CELLS = [(500040 - 70000, 140000), (1000081 - 5000, 10000),
                      (-7, 1000080), (12345, 3 * 1000081 + 700000),
                      (500037, 1000081 + 500040), (5 * 1000081 + 900051, 300000)]


@pytest.mark.parametrize("d", [5, 10, 1000080])
def test_long_complex_interval_sum_by_blocks(d):
    # a long complex sum holds the half class table and O(BLOCK) beside
    # it: the roots of POWER_BLOCK classes at a time, no L-entry array; it
    # matches one sum over the interval's values to FLOAT_RTOL of its L
    # unit terms
    q = 1000081
    chi = build_modulus(q).character((q - 1) // d)
    vals = value_table(chi)
    for m, n in LONG_COMPLEX_CELLS:
        idx = (m + 1 + np.arange(n % q, dtype=np.int64)) % q
        got = interval_sum(chi, m, n)
        assert abs(got - complex(vals[idx].sum())) <= FLOAT_RTOL * len(idx), (
            m, n)
    classes = chi.modulus.classes(d).nbytes
    tracemalloc.start()
    try:
        interval_sum(chi, -7, q - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= classes + 7 * BLOCK


@given(st.sampled_from(SMALL_PRIMES), st.data())
@settings(max_examples=60, deadline=None)
def test_value_multiplicativity_property(q, data):
    mod = build_modulus(q)
    m = data.draw(st.integers(min_value=1, max_value=q - 2))
    a = data.draw(st.integers(min_value=1, max_value=q - 1))
    b = data.draw(st.integers(min_value=1, max_value=q - 1))
    chi = mod.character(m)
    va, vb, vab = chi.value(a), chi.value(b), chi.value(a * b)
    assert vab.num == (va.num + vb.num) % chi.order


@given(st.integers(min_value=0, max_value=3000))
@settings(max_examples=80)
def test_is_prime_against_factor_scan(n):
    naive = n >= 2 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))
    assert is_prime(n) == naive


def test_is_prime_matches_the_sieve():
    # every n in [-3, 10^5) and the 10^4 below 10^6, past 997^2; a prime
    # square and the largest prime below the table ceiling
    for lo, hi in ((-3, 10 ** 5), (10 ** 6 - 10 ** 4, 10 ** 6)):
        assert [n for n in range(lo, hi) if is_prime(n)] == primes_between(
            lo, hi - 1)
    assert not is_prime(46337 ** 2)
    assert is_prime(2 ** 31 - 1)


def test_factorize_multiplies_back():
    # the 6k +- 1 wheel misses no factor: every n below 10^5, prime powers,
    # products of the pair members 6k - 1 and 6k + 1, and 2^31 - 2
    cells = list(range(1, 10 ** 5)) + [
        5 ** 9, 7 ** 8, 29 * 31, 41 * 43 ** 2, 3 * 46337 ** 2,
        12 * 10000141, 2 ** 31 - 2]
    for n in cells:
        got = chars_module.factorize(n)
        assert math.prod(p ** e for p, e in got.items()) == n, n
        assert all(is_prime(p) and e >= 1 for p, e in got.items()), n


# Narrow prefix tables.  Order-3 characters are always even; q = 1 (mod 24)
# makes orders 2, 4 and 6 even too, q = 13 (mod 24) makes order 4 odd and
# q = 19 (mod 24) orders 2 and 6.  Every q is above 2^15, so a window of
# 2^15 fits.
NARROW_CELLS = [(32833, (2, 3, 4, 6)), (32797, (2, 3, 4, 6)),
                (32779, (2, 3, 6))]
NARROW_SPANS = ((127, np.int8), (128, np.int16), (2 ** 15 - 1, np.int16),
                (2 ** 15, np.int32))


def test_narrow_tables_read_every_window_exactly():
    # each table kept mod 2^b in the narrowest dtype for its span gives
    # every window of that length as the int64 oracle does, the starts that
    # read the mirrored half included
    parities = {}
    for q, orders in NARROW_CELLS:
        mod = build_modulus(q)
        h = (q - 1) // 2
        for d in orders:
            chi = mod.character((q - 1) // d)
            parities.setdefault(d, set()).add(chi(-1).as_int())
            full = full_prefix(chi)
            for v, dtype in NARROW_SPANS:
                table = prefix_table(chi, v)
                assert table.span >= v
                assert table.sums.dtype == chars_module.sum_dtype(d, v)
                assert table.sums.itemsize == (
                    len(LATTICE[d]) * np.dtype(dtype).itemsize)
                want = np.roll(all_windows(full, v), -1, axis=-1)  # 1 .. q
                got = window_array(table, v)
                assert got.dtype == dtype
                assert np.array_equal(got, want), (q, d, v)
                lams = np.arange(-q, 2 * q, 11, dtype=np.int64)
                assert np.array_equal(window_sum(table, lams, v),
                                      want[..., (lams - 1) % q])
                for lam in (1, h - v, h, h + 1, q - v, q - 1, q, 5 * q + 3):
                    assert np.array_equal(window_sum(table, lam, v),
                                          want[..., (lam - 1) % q]), lam
    assert parities == {2: {-1, 1}, 3: {1}, 4: {-1, 1}, 6: {-1, 1}}


@pytest.mark.parametrize("w", [8, 16, 32])
def test_unpack_recovers_every_lane_pair(w):
    # a difference of packed sums is a + 2^w b mod 2^(2w); unpack gives (a, b)
    # back in w-bit lanes for |a|, |b| < 2^(w-1): every pair at 8 bits, the
    # extremes and random pairs at 16 and 32, as arrays and as scalars
    top = (1 << (w - 1)) - 1
    if w == 8:
        a, b = (x.ravel() for x in np.mgrid[-top:top + 1, -top:top + 1])
    else:
        edge = np.array([-top, -top + 1, -1, 0, 1, top - 1, top])
        a, b = (x.ravel() for x in np.meshgrid(edge, edge))
        rng = np.random.default_rng(w)
        a = np.concatenate([a, rng.integers(-top, top + 1, 4096)])
        b = np.concatenate([b, rng.integers(-top, top + 1, 4096)])
    packed = (a + (b << w)).astype(f"i{w // 4}")  # wraps mod 2^(2w)
    for order in (3, 4, 6):
        got = chars_module.unpack(packed, order)
        assert got.dtype == np.dtype(f"i{w // 8}") and got.shape == (2, len(a))
        assert np.array_equal(got[0], a) and np.array_equal(got[1], b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(0, len(a), max(len(a) // 64, 1)):
            assert chars_module.unpack(packed[i], 3).tolist() == [a[i], b[i]]
    assert chars_module.unpack(packed, 2) is packed


def test_narrow_table_refuses_a_longer_window(mod1009):
    table = prefix_table(mod1009.legendre(), 127)
    assert table.sums.dtype == np.int8 and table.span == 127
    window_sum(table, 5, 127)
    for read in (lambda: window_sum(table, 5, 128),
                 lambda: window_array(table, 128)):
        with pytest.raises(ValueError, match="span"):
            read()


@pytest.mark.parametrize("q", [1000033, 10000019])
def test_scalar_reads_of_a_narrow_table_do_not_warn(q):
    # int starts go through np.subtract and np.negative, which wrap silently
    # where NumPy scalar arithmetic warns; q = 1 (mod 4) is even, so reads
    # past h negate stored entries, -128 among them
    table = prefix_table(build_modulus(q).legendre(), 100)
    assert table.sums.dtype == np.int8
    starts = list(range(1, q + 1, q // 500)) + [q - 100, q - 1, q]
    want = window_sum(table, np.array(starts, dtype=np.int64), 100)
    low = np.flatnonzero(table.sums == -128)
    assert len(low)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [window_sum(table, lam, 100) for lam in starts]
        mirrored = table.at(q - 1 - int(low[0]))
    assert got == want.tolist()
    assert mirrored == -128  # -(-128) wraps to itself: 128 mod 2^8


def test_narrow_prefix_build_holds_table_and_a_block():
    # an order-3 table for windows below 128: two 8-bit lanes packed in one
    # int16 over the half (2(h+1) bytes) and O(BLOCK) temporaries, no class
    # table, against 8(h+1) bytes for the table serving every window.  The
    # word kernel's carry words and ramp stay within the 5.16 BLOCK
    # measured before it plus 2 BLOCK w, w = 2
    q = 1000003
    chi = build_modulus(q).character((q - 1) // 3)
    tracemalloc.start()
    try:
        table = prefix_table(chi, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    h = (q - 1) // 2
    assert table.sums.dtype == np.int16
    assert table.sums.nbytes == 2 * (h + 1)
    assert peak <= 2 * (h + 1) + 9 * BLOCK


def test_narrow_legendre_build_holds_table_and_carry_words():
    # the int8 classes are the table and are summed in place, a word at a
    # time: beside the h+1 bytes the squares' buffers, and the word
    # kernel's BLOCK + 8 bytes of carry words and POWER_BLOCK + 1-byte
    # ramp, allocated once per build; within the 3.04 BLOCK measured before
    # the kernel plus 2 BLOCK
    q = 1000003
    chi = build_modulus(q).legendre()
    tracemalloc.start()
    try:
        table = prefix_table(chi, 63)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.sums.dtype == np.int8 and table.sums.nbytes == (q + 1) // 2
    assert peak <= table.sums.nbytes + 5 * BLOCK
