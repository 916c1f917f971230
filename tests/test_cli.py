import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from burgess import bounds, chars, cli, moments
from burgess.errors import TableLimitExceeded

ROOT = Path(__file__).resolve().parents[1]

# One small-q invocation per subcommand (the README examples, scaled down).
SMOKE_ARGV = {
    "sum": ["--q", "101", "--legendre", "--M", "0", "--N", "101"],
    "scan": ["--q", "1009", "--N", "q^0.4", "--M-spec", "random:5"],
    "moments": ["--q", "101", "--legendre", "--r", "2", "--V", "auto"],
    "sieve": ["--z", "11"],
    "rough": ["--z", "10", "--U", "10000", "--t", "11", "--ratio",
              "--C", "4"],
    "congruence": ["--q", "1009", "--M", "0", "--N", "q^0.45",
                   "--brute-force"],
    "holder": ["--q", "1009", "--r", "2", "--N", "q^0.4",
               "--M-spec", "random:3"],
    "bounds": ["--q", "1009", "--N", "500", "--r", "2"],
    "nonresidue": ["--q", "1009"],
    "verify": [],
}


def run(argv, capsys):
    code, records = cli.run_subcommand(argv)
    out = capsys.readouterr().out
    return code, records, out


def test_sum_orthogonality_exit_zero(capsys):
    code, records, out = run(
        ["sum", "--q", "101", "--legendre", "--M", "0", "--N", "101"], capsys)
    assert code == 0
    assert len(records) == 1
    assert records[0]["outputs"]["exact_int"] == 0
    parsed = json.loads(out.strip())
    assert parsed["schema"] == 1
    assert parsed == records[0]  # serialization round-trips losslessly


def test_spf_builds_no_table(capsys):
    # spf(2^27 - 1 = 7 * 73 * 262657) by trial division, not from an
    # (n + 1)-entry int64 table
    tracemalloc.start()
    try:
        assert cli.main(["sieve", "--z", "11", "--spf", str(2 ** 27 - 1)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["outputs"]["spf"] == 7
    assert peak < 2 ** 20


BIG_M = 10 ** 20  # a window start beyond int64
# the digits of each int that prints null beside its <key>_log10
PAST_STR_DIGITS = {
    "sieve --z 11000": {"primorial": 4724},
    "holder --q 10007 --legendre --r 600 --M-spec 1": {"holder_lhs": 4704,
                                                       "holder_rhs": 5242},
}


@pytest.mark.parametrize("argv, code", [
    ("moments --q 10007 --legendre --r 100", 0),
    ("holder --q 10007 --r 100", 0),
    ("bounds --q 10007 --r 100000", 0),
    ("sieve --z inf", 2),
    (f"sum --q 101 --M {BIG_M} --N 5", 0),
    (f"holder --q 10007 --M-spec {BIG_M}", 0),
    (f"congruence --q 10007 --M {BIG_M}", 0),
    (f"congruence --q 10007 --M {BIG_M} --u1 2 --u2 3", 0),
    # a float past the double range is reported as null, never a crash
    ("holder --q 10009 --index 3336 --r 100", 0),  # order 3: W^{2r}
    ("holder --q 10007 --index 5 --r 100 --M-spec 1", 0),  # complex: rhs too
    (f"bounds --q 10007 --N {10 ** 400}", 0),
    (f"scan --q 10007 --N {10 ** 400} --M-spec 1", 0),
    # an exact int past str()'s digit limit is reported as null too
    ("sieve --z 11000", 0),
    ("holder --q 10007 --legendre --r 600 --M-spec 1", 0),
])
def test_large_inputs_exit_code(argv, code, capsys):
    # huge r, an infinite z, starts past int64, N past the double range and
    # ints past the digit limit are results or refusals
    assert cli.main(argv.split()) == code
    digits = PAST_STR_DIGITS.get(argv, {})
    if digits and getattr(sys, "get_int_max_str_digits", lambda: 0)():
        rec = json.loads(capsys.readouterr().out)
        for key, n in digits.items():
            assert rec["outputs"][key] is None
            assert n - 1 < rec["outputs"][f"{key}_log10"] < n, key


@pytest.mark.parametrize("argv", [
    "sum --q 101 --N 5 --M {}",
    "sum --q 101 --N 50 --M {}",
    "sum --q 101 --index 5 --N 50 --M {}",
    "holder --q 10007 --M-spec {}",
    "congruence --q 10007 --M {}",
    "congruence --q 10007 --u1 2 --u2 3 --M {}",
])
def test_start_beyond_int64_reads_as_its_residue(argv, capsys):
    q = int(argv.split()[2])
    _, (big,), _ = run(argv.format(BIG_M).split(), capsys)
    _, (small,), _ = run(argv.format(BIG_M % q).split(), capsys)
    assert big["outputs"] == small["outputs"]
    assert big["passes"] == small["passes"]


def test_table_cap_covers_every_table(monkeypatch, capsys):
    monkeypatch.setenv("BURGESS_TABLE_LIMIT", "1000")
    assert cli.main(["moments", "--q", "1009"]) == 2
    assert cli.main(["nonresidue", "--q", "1009"]) == 2
    monkeypatch.setenv("BURGESS_TABLE_LIMIT", str(2 ** 31))
    assert cli.main(["nonresidue", "--q", "101"]) == 2
    assert capsys.readouterr().out == ""


def test_congruence_overflow_modulus_exit_2(capsys):
    q = 4294967311
    assert cli.main(["congruence", "--q", str(q), "--M", str(q - 200),
                     "--N", "150", "--z", "2", "--U", "40",
                     "--brute-force"]) == 2
    assert "overflow" in capsys.readouterr().err


def test_verify_streams_records_before_a_crash(tmp_path, monkeypatch,
                                               capsys):
    from burgess import acceptance

    def boom(*args, **kwargs):
        raise RuntimeError("planted failure")

    monkeypatch.setattr(acceptance, "criterion_2", boom)
    out = tmp_path / "verify.jsonl"
    assert cli.main(["verify", "--output", str(out)]) == 3
    assert "RuntimeError: planted failure" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert [json.loads(line)["inputs"]["criterion"] for line in lines] == [1]


@pytest.mark.parametrize("name", sorted(SMOKE_ARGV))
def test_subcommand_smoke(name, capsys):
    code, records, out = run([name] + SMOKE_ARGV[name], capsys)
    assert code == 0
    assert records
    assert all(r["command"] == name for r in records)
    assert [json.loads(line) for line in out.splitlines()] == records


def test_seed_changes_random_windows(capsys):
    argv = ["scan", "--q", "1009", "--N", "25", "--M-spec", "random:8"]
    _, rec1, _ = run(argv + ["--seed", "1"], capsys)
    _, rec2, _ = run(argv + ["--seed", "2"], capsys)
    assert (rec1[0]["outputs"]["argmax_M"] != rec2[0]["outputs"]["argmax_M"]
            or rec1[0]["outputs"]["max_abs_sum"]
            != rec2[0]["outputs"]["max_abs_sum"])


def test_csv_and_jsonl_schema_parity(capsys):
    argv = ["moments", "--q", "101", "--r", "2", "--V", "6"]
    _, _, out_json = run(argv, capsys)
    _, _, out_csv = run(argv + ["--format", "csv"], capsys)
    flat = cli.flatten_record(json.loads(out_json.strip()))
    reader = csv.DictReader(io.StringIO(out_csv))
    row = next(iter(reader))
    assert set(row) == set(flat)


def test_records_sorted_on_q_r_m(tmp_path, capsys):
    argv = ["holder", "--primes", "1009,101", "--r", "2",
            "--N", "q^0.4", "--M-spec", "5,1", "--V", "6"]
    _, records, _ = run(argv, capsys)
    keys = [(r["inputs"]["q"], r["inputs"]["r"], r["inputs"]["M"])
            for r in records]
    assert keys == sorted(keys)
    # several characters per q: grouped by character within each (q, r)
    cfg = tmp_path / "cubic.cfg"
    cfg.write_text("char_spec = orders-dividing:3\n")
    _, records, _ = run(["holder", "--config", str(cfg),
                         "--primes", "1009,103"] + argv[3:], capsys)
    keys = [tuple(r["inputs"][k] for k in ("q", "r", "char_index", "M"))
            for r in records]
    assert keys == sorted(keys)
    assert {k[:3] for k in keys} == {(103, 2, 34), (103, 2, 68),
                                     (1009, 2, 336), (1009, 2, 672)}
    assert len(keys) == 8


def test_sweep_order_q_index_r_m(tmp_path, capsys):
    # every r and M of one character before the next index
    cfg = tmp_path / "order.cfg"
    cfg.write_text("primes = 1021,1009\nchar_spec = orders-dividing:3\n"
                   "r_values = 3,2\nM_spec = 5,1\n")
    cells = [(q, m, r) for q, ms in ((1009, (336, 672)), (1021, (340, 680)))
             for m in ms for r in (2, 3)]
    for cmd, fields in (("holder", ("q", "char_index", "r", "M")),
                        ("scan", ("q", "char_index", "r")),
                        ("moments", ("q", "char_index", "r"))):
        code, records, _ = run([cmd, "--config", str(cfg)], capsys)
        keys = [tuple(r["inputs"][k] for k in fields) for r in records]
        assert code == 0 and keys == sorted(keys), cmd
        assert list(dict.fromkeys(k[:3] for k in keys)) == cells, cmd


@pytest.mark.parametrize("index", [5004, 3336, 1668, 1251])
def test_sweeps_match_direct_calls(index, tmp_path, capsys):
    # q - 1 = 2^3 3^2 139: orders 2, 3, 6 and 8 (the float path).  A sweep's
    # character serves both r and every M; each record equals the library's
    # answer on a fresh character
    q, starts = 10009, [3, 4999, 9001]
    cfg = tmp_path / "same.cfg"
    cfg.write_text("r_values = 2,3\n")
    argv = ["--q", str(q), "--index", str(index), "--config", str(cfg)]
    windows = ["--M-spec", ",".join(map(str, starts))]

    def fresh():
        return chars.build_modulus(q).character(index)

    _, records, _ = run(["holder"] + argv + windows, capsys)
    assert [(r["inputs"]["r"], r["inputs"]["M"]) for r in records] == [
        (r, m) for r in (2, 3) for m in starts]
    for rec in records:
        i = rec["inputs"]
        report = bounds.holder_chain(fresh(), i["M"], i["N"], i["r"])
        assert rec["passes"]["holder"] == report.passed
        for k in ("rough_count", "W", "first_moment", "second_moment",
                  "moment2r", "holder_lhs", "holder_rhs", "exact", "path"):
            assert rec["outputs"][k] == cli.jsonable(getattr(report, k)), k
    _, records, _ = run(["scan"] + argv + windows, capsys)
    assert [r["inputs"]["r"] for r in records] == [2, 3]
    for rec in records:
        i = rec["inputs"]
        res = bounds.extremal_scan(q, index, i["N"], starts, r=i["r"])
        assert rec["outputs"] == cli.jsonable(
            {"windows": res.windows, "max_abs_sum": res.max_abs_sum,
             "argmax_M": res.argmax_M, "worst_ratio": res.worst_ratio})
    _, records, _ = run(["moments"] + argv, capsys)
    assert [r["inputs"]["r"] for r in records] == [2, 3]
    for rec in records:
        report = moments.moment_check(q, index, V="auto", r=rec["inputs"]["r"])
        assert rec["passes"]["moment_le_bound"] == report.passed
        for k in ("moment", "bound", "margin", "exact", "specialized_bound"):
            assert rec["outputs"][k] == cli.jsonable(getattr(report, k)), k


def test_holder_record_says_which_path(capsys):
    # order 3 (index 336): certified; the Legendre character: exact
    code, records, _ = run(["holder", "--q", "1009", "--index", "336",
                            "--r", "2", "--N", "q^0.4", "--M-spec", "1,5"],
                           capsys)
    assert code == 0 and len(records) == 2
    for rec in records:
        assert rec["outputs"]["path"] == "certified"
        assert rec["outputs"]["exact"] is False
        assert type(rec["outputs"]["moment2r"]) is int
    _, records, _ = run(["holder", "--q", "1009", "--legendre", "--r", "2",
                         "--N", "q^0.4", "--M-spec", "1"], capsys)
    assert records[0]["outputs"]["path"] == "exact"


def test_sum_lattice_order_keeps_its_keys(capsys):
    # order 4 at q = 1009: exact Z[i] coordinates, reported as re and im
    code, records, _ = run(["sum", "--q", "1009", "--index", "252",
                            "--M", "3", "--N", "100"], capsys)
    out = records[0]["outputs"]
    assert code == 0
    assert set(out) == {"re", "im", "exact_int", "abs", "order"}
    assert out["exact_int"] is None and out["order"] == 4
    assert out["re"] == int(out["re"]) and out["im"] == int(out["im"])


def test_config_r_values_reach_sweeps(tmp_path, capsys):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("primes = 101\nr_values = 3,2\nM_spec = 1,5\n")
    for cmd in ("scan", "moments", "holder"):
        _, records, _ = run([cmd, "--config", str(cfg)], capsys)
        rs = [r["inputs"]["r"] for r in records]
        assert list(dict.fromkeys(rs)) == [2, 3], cmd


def test_config_file_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "# sweep config\n"
        "primes = 101,1009\n"
        "char_spec = legendre\n"
        "r_values = 2\n"
        "N_spec = q^0.4\n"
        "M_spec = random:3\n"
        "seed = 5\n")
    cfg = cli.load_config(str(cfg_path))
    assert cfg.primes == [101, 1009]
    assert cfg.seed == 5
    code, records, _ = run(["scan", "--config", str(cfg_path)], capsys)
    assert code == 0
    assert {r["inputs"]["q"] for r in records} == {101, 1009}
    assert all(r["config_hash"] == cfg.hash() for r in records)


def test_config_rejects_unknown_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("banana = 3\n")
    with pytest.raises(ValueError):
        cli.load_config(str(bad))
    assert cli.main(["scan", "--config", str(bad)]) == 2


def test_empty_scan_exit_2(capsys):
    assert cli.main(["scan", "--q", "101", "--M-spec", "random:0"]) == 2
    assert capsys.readouterr().out == ""


def test_empty_sweep_exit_2(tmp_path, capsys):
    cfg = tmp_path / "none.cfg"
    cfg.write_text("primes = 101\nchar_spec = orders-dividing:1\n")
    for cmd in ("scan", "moments", "holder"):
        assert cli.main([cmd, "--config", str(cfg)]) == 2
    assert capsys.readouterr().out == ""


def test_congruence_config_zero_u_exit_2(tmp_path, capsys):
    # a config U = 0 reaches enumerate_rough instead of the derived U
    cfg = tmp_path / "u0.cfg"
    cfg.write_text("U = 0\n")
    argv = ["congruence", "--q", "10007", "--M", "0", "--N", "q^0.45",
            "--config", str(cfg)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""
    cfg.write_text("U = 40\n")
    _, records, _ = run(argv, capsys)
    assert records[0]["inputs"]["U"] == 40


def test_config_v_reaches_holder_and_moments(tmp_path, capsys):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("V = 7\n")
    holder = ["holder", "--q", "1009", "--legendre", "--r", "2",
              "--N", "q^0.4", "--M-spec", "1", "--config", str(cfg)]
    _, records, _ = run(holder, capsys)
    assert records[0]["outputs"]["V"] == 7
    assert records[0]["outputs"]["params_source"] == "override"
    _, records, _ = run(holder + ["--V", "9"], capsys)  # the flag wins
    assert records[0]["outputs"]["V"] == 9
    moments = ["moments", "--q", "1009", "--legendre"]
    _, from_cfg, _ = run(moments + ["--config", str(cfg)], capsys)
    _, from_flag, _ = run(moments + ["--V", "7"], capsys)
    for records in (from_cfg, from_flag):
        assert records[0]["inputs"]["V"] == 7
        assert records[0]["outputs"]["specialized_bound"] is None
    assert from_cfg[0]["outputs"] == from_flag[0]["outputs"]
    _, records, _ = run(moments + ["--config", str(cfg), "--V", "auto"],
                        capsys)
    assert records[0]["inputs"]["V"] == 11


def test_modulus_above_ceiling_refused_at_once(capsys):
    q = str(2 ** 61 - 1)  # prime: trial division would run for minutes
    for argv in (["sum", "--q", q], ["moments", "--q", q],
                 ["nonresidue", "--q", q]):
        t0 = time.perf_counter()
        assert cli.main(argv) == 2, argv
        assert time.perf_counter() - t0 < 2.0, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ceiling" in captured.err


def test_prime_range_above_ceiling_refused_before_listing(capsys):
    # the range is refused by its top alone: it is never listed
    argv = ["scan", "--primes", "2305843009213693951..2305843009213693961",
            "--N", "5", "--M-spec", "1"]
    t0 = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - t0 < 2.0
    captured = capsys.readouterr()
    assert captured.out == "" and "ceiling" in captured.err


def test_prime_range_from_one_sieve(monkeypatch):
    spans = ["1..200", "1000..1100:3", "100..1:-7", "7..7", "8..10",
             "10..5", "2..2"]
    want = {t: sorted(p for p in cli.parse_range(t) if chars.is_prime(p))
            for t in spans}
    monkeypatch.setattr(chars, "is_prime", None)  # no trial division
    for t in spans:
        assert cli.parse_primes_spec(t) == want[t], t
    with pytest.raises(TableLimitExceeded):  # above the cap, not listed
        cli.parse_primes_spec("1000000000..1000100000")


def test_config_defaults_runnable(tmp_path, capsys):
    empty = tmp_path / "empty.cfg"
    empty.write_text("\n")
    code, records, _ = run(["scan", "--config", str(empty)], capsys)
    assert code == 0 and records


def test_n_spec_parsing():
    assert cli.parse_n_spec("q^0.5", 100) == 10
    assert cli.parse_n_spec("17", 100) == 17
    assert cli.parse_n_spec("q^0.4", 10007) == 39
    assert cli.parse_n_spec(str(10 ** 400), 101) == 10 ** 400
    for power in ("q^400", "q^inf", "q^-inf", "q^nan"):  # not a double
        with pytest.raises(ValueError, match="give N as an integer"):
            cli.parse_n_spec(power, 101)


def test_m_spec_parsing():
    import random
    rng = random.Random(0)
    assert cli.parse_m_spec("0,5,9", 101, rng) == [0, 5, 9]
    assert cli.parse_m_spec("0..90:30", 101, rng) == [0, 30, 60, 90]
    draws = cli.parse_m_spec("random:4", 101, rng)
    assert len(draws) == 4 and all(0 <= m < 101 for m in draws)


def test_char_indices_spec():
    assert cli.char_indices("legendre", 101) == [50]
    assert cli.char_indices("index:7", 101) == [7]
    idx3 = cli.char_indices("orders-dividing:3", 1009)
    assert idx3 == [336, 672]
    assert cli.char_indices("orders-dividing:3", 101) == []


def test_failed_check_maps_to_exit_1(monkeypatch, capsys):
    from burgess import acceptance
    fake = acceptance.CriterionResult(cid=1, name="forced failure",
                                      passed=False, details={})
    monkeypatch.setattr(acceptance, "run_suite", lambda: [fake])
    code, records = cli.run_subcommand(["verify"])
    capsys.readouterr()
    assert code == 1
    assert records[0]["passes"]["criterion"] is False


def test_verify_reads_no_clock(monkeypatch, capsys):
    # every read of the clock jumps 1,000 s: seconds show in the timings
    # alone, and each criterion still passes on its numbers
    clock = iter(range(0, 10 ** 9, 1000))
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(clock)))
    assert cli.main(["verify"]) == 0
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert [rec["inputs"]["criterion"] for rec in records] == [*range(1, 10)]
    assert all(rec["passes"]["criterion"] is True for rec in records)
    assert all(rec["timings"]["elapsed_s"] >= 1000 for rec in records)


def test_crash_exit_3_keeps_streamed_records(tmp_path, monkeypatch, capsys):
    real = cli.bnd.holder_chain
    calls = []

    def crash_on_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise AssertionError("planted failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.bnd, "holder_chain", crash_on_second)
    out = tmp_path / "res.jsonl"
    code = cli.main(["holder", "--q", "1009", "--M-spec", "1,5,9",
                     "--output", str(out)])
    assert code == 3
    assert "AssertionError: planted failure" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["inputs"]["M"] == 1


def test_nonresidue_routes_disagreeing_exit_1(monkeypatch, capsys):
    # 2 is a nonresidue mod 1000003, so an Euler route answering 3 fails
    monkeypatch.setattr(bounds, "least_nonresidue", lambda q: 3)
    assert cli.main(["nonresidue", "--q", "1000003"]) == 1
    rec = json.loads(capsys.readouterr().out)
    assert rec["passes"] == {"least_by_squares": False}


def test_output_file(tmp_path, capsys):
    out = tmp_path / "res.jsonl"
    code, _ = cli.run_subcommand(
        ["nonresidue", "--q", "101", "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    rec = json.loads(out.read_text().strip())
    assert rec["outputs"]["least"] == 2  # 101 = 5 mod 8, so 2 is an NR
    # invalid input fails before the first record: no file is written
    bad = tmp_path / "bad.jsonl"
    assert cli.main(["sum", "--q", "12", "--output", str(bad)]) == 2
    assert not bad.exists()


def burgess_process(argv, **streams):
    """`python -m burgess argv` with its output block-buffered as on a pipe
    by default, so what is left in a buffer is flushed at exit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.Popen([sys.executable, "-m", "burgess", *argv.split()],
                            env=env, **streams)


@pytest.mark.parametrize("argv, lines_read", [
    ("scan --primes 1000..3000 --N 20 --M-spec random:3", 1),  # | head -1
    ("sieve --z 11000 --format csv", 0),  # | head -c 0
])
def test_a_closed_stdout_ends_the_run_quietly(argv, lines_read):
    # the scan writes about 150 KB, more than a pipe holds, so it is still
    # writing when the reader goes; the CSV is written once, at the end
    proc = burgess_process(argv, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE)
    for _ in range(lines_read):
        assert json.loads(proc.stdout.readline())["command"] == "scan"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == 0


def test_a_closed_stderr_ends_the_run_quietly():
    # verify 2>&1 >/dev/null | head -1: the reader of the progress lines
    # goes after criterion 1's
    proc = burgess_process("verify", stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE)
    assert proc.stderr.readline().startswith(b"PASS criterion 1")
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
