"""Work-count pins: how many times each public operation builds a q-sized
table, finds a primitive root or sieves a rough set.

The time gates have wide headroom, so they do not see work done twice; these
counts do.  A change that lowers a count updates its pin here.
"""
import functools
from collections import Counter

import pytest

from burgess import acceptance, bounds, chars, cli, congruence, moments, sieve
from burgess.bounds import holder_chain, max_window_spread, pv_ratio_scan
from burgess.chars import build_modulus, interval_sum
from burgess.errors import WindowTooLarge
from burgess.moments import moment_check, moment_sum

COUNTED = ("mark_squares", "prefix_table", "prefix_slices",
           "find_primitive_root", "enumerate_rough")
Q = 1000003  # q - 1 = 2 * 3 * 166667: orders 2 and 3


def counted(seen, name, fn):
    """fn, counting its calls in seen[name]."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        seen[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.fixture
def counts(monkeypatch):
    """A Counter of calls, by name, through wrappers put in every module
    that binds a counted function, and of PrimeModulus.classes."""
    seen = Counter()
    for name in COUNTED:
        wrapper = None
        for module in (acceptance, bounds, chars, cli, moments, sieve):
            if name in vars(module):
                wrapper = wrapper or counted(seen, name, vars(module)[name])
                monkeypatch.setattr(module, name, wrapper)
        assert wrapper is not None, name
    monkeypatch.setattr(chars.PrimeModulus, "classes",
                        counted(seen, "classes", chars.PrimeModulus.classes))
    return seen


@pytest.fixture
def distributions(monkeypatch):
    """A Counter of collision_distribution calls, through one wrapper put in
    every module that binds it."""
    seen = Counter()
    name = "collision_distribution"
    wrapper = counted(seen, name, congruence.collision_distribution)
    for module in (acceptance, bounds, cli, congruence):
        if name in vars(module):
            monkeypatch.setattr(module, name, wrapper)
    return seen


@pytest.mark.parametrize("order, pinned", [
    (2, {"enumerate_rough": 1, "prefix_table": 1, "prefix_slices": 1,
         "classes": 1, "mark_squares": 1}),
    (3, {"enumerate_rough": 1, "prefix_table": 1, "prefix_slices": 1,
         "classes": 1, "find_primitive_root": 1}),
])
def test_holder_chain_counts(counts, order, pinned):
    # five windows under one character: one rough set, table and moment
    chi = build_modulus(Q).character((Q - 1) // order)
    for m in range(0, 5 * 9973, 9973):
        assert holder_chain(chi, m, 251, 2).passed
    assert counts == pinned


@pytest.mark.parametrize("order, pinned", [
    (2, {"prefix_slices": 1, "classes": 1, "mark_squares": 1}),
    (3, {"prefix_slices": 1, "classes": 1, "find_primitive_root": 1}),
])
def test_moment_check_counts(counts, order, pinned):
    assert moment_check(Q, (Q - 1) // order).passed
    assert counts == pinned


@pytest.mark.parametrize("V", [0, -1, -5, Q + 1])
def test_moment_refuses_a_window_before_any_table(counts, capsys, V):
    # V < 1 and V > q are refused before a class table is built, and the
    # CLI exits 2 on them
    chi = build_modulus(Q).character((Q - 1) // 3)
    with pytest.raises(WindowTooLarge if V > Q else ValueError):
        moment_sum(chi, V, 2)
    assert cli.main(["moments", "--q", str(Q), "--V", str(V)]) == 2
    assert "error" in capsys.readouterr().err
    assert counts == {}  # no class table, primitive root or prefix sum


def test_long_interval_sum_counts(counts):
    chi = build_modulus(Q).character((Q - 1) // 3)
    interval_sum(chi, 12345, 400000)
    assert counts == {"classes": 1, "find_primitive_root": 1}


def test_long_quadratic_interval_sum_counts(counts):
    # the order-2 class table comes from the squares: no primitive root
    interval_sum(build_modulus(Q).legendre(), 12345, 400000)
    assert counts == {"classes": 1, "mark_squares": 1}


def test_criterion_1_counts(counts):
    assert acceptance.criterion_1(primes=(101,)).passed
    # six of the class tables are the Legendre character's, from the squares
    assert counts == {"classes": 594, "mark_squares": 6,
                      "find_primitive_root": 1}


def test_spread_counts(counts):
    # one kernel call per spread, and no value table
    _, _, ratios = pv_ratio_scan(4 * 10 ** 4)
    assert len(ratios) == 4202
    assert counts == {"mark_squares": 4202}
    counts.clear()
    max_window_spread(Q)
    assert counts == {"mark_squares": 1}


@pytest.mark.parametrize("cmd, pinned", [
    ("holder", {"enumerate_rough": 1, "prefix_table": 1, "prefix_slices": 1,
                "classes": 1, "find_primitive_root": 1}),
    ("scan", {"prefix_table": 1, "prefix_slices": 1, "classes": 1,
              "find_primitive_root": 1}),
    # moments streams one class table for each r; the modulus is shared
    ("moments", {"prefix_slices": 2, "classes": 2,
                 "find_primitive_root": 1}),
])
def test_cli_sweep_counts(counts, tmp_path, cmd, pinned):
    # two r and three windows under one character: one modulus, and for
    # holder and scan one table and rough set, serve every cell
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("r_values = 2,3\nM_spec = random:3\n")
    code, records = cli.run_subcommand([cmd, "--q", str(Q), "--index",
                                        str((Q - 1) // 3), "--config",
                                        str(cfg)])
    assert code == 0 and {r["inputs"]["r"] for r in records} == {2, 3}
    assert counts == pinned


def test_congruence_distribution_counts(distributions):
    # the count reads one distribution
    code, records = cli.run_subcommand(["congruence", "--q", "10000019",
                                        "--M", "0", "--N", "q^0.45"])
    assert code == 0 and records[0]["passes"] == {}
    assert distributions == {"collision_distribution": 1}


def test_criterion_3_distribution_counts(distributions):
    assert acceptance.criterion_3(count=50).passed
    assert distributions == {"collision_distribution": 50}
