import csv
import io
import json

import pytest

from burgess import cli

# Public operations of the library, one owner subcommand each.
OPERATION_REGISTRY = {
    "find_primitive_root", "build_modulus", "interval_sum",
    "prefix_table", "window_sum",
    "build_spf", "primes_below", "mertens_product",
    "enumerate_rough", "count_rough_divisible", "rough_density_ratio",
    "collision_distribution", "congruence_count",
    "brute_force_congruence_count", "pair_collision_count",
    "moment_sum", "weil_bound", "moment_check",
    "derive_params", "bound_value", "holder_chain", "extremal_scan",
    "least_nonresidue", "nonresidue_max_gap",
    "run_acceptance",
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


def test_moments_subcommand_passes(capsys):
    code, records, _ = run(
        ["moments", "--q", "101", "--legendre", "--r", "2", "--V", "auto"],
        capsys)
    assert code == 0
    assert records[0]["passes"]["moment_le_bound"] is True


def test_invalid_input_exit_2():
    assert cli.main(["sum", "--q", "12", "--M", "0", "--N", "5"]) == 2
    assert cli.main(["sum"]) == 2  # missing --q
    assert cli.main(["bounds", "--q", "101", "--variant", "bogus"]) == 2


def test_verify_small_suite(capsys):
    code, records, _ = run(["verify", "--suite", "small"], capsys)
    assert code == 0
    assert all(r["passes"]["criterion"] for r in records)
    criteria = [r["inputs"]["criterion"] for r in records]
    assert criteria == sorted(criteria)


def test_every_subcommand_exists():
    assert set(cli.COMMAND_TABLE) == set(cli.SUBCOMMANDS)


def test_command_table_partitions_registry():
    owned = [op for ops in cli.COMMAND_TABLE.values() for op in ops]
    assert len(owned) == len(set(owned))  # exactly one subcommand each
    assert set(owned) == OPERATION_REGISTRY


def test_determinism_modulo_timings(capsys):
    argv = ["scan", "--q", "101", "--N", "q^0.4", "--M-spec", "random:6",
            "--seed", "99"]
    _, rec1, out1 = run(argv, capsys)
    _, rec2, out2 = run(argv, capsys)

    def strip(lines):
        cleaned = []
        for line in lines.strip().splitlines():
            d = json.loads(line)
            d.pop("timings")
            cleaned.append(json.dumps(d, sort_keys=True))
        return cleaned

    assert strip(out1) == strip(out2)


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


def test_records_sorted_on_q_r_m(capsys):
    argv = ["holder", "--primes", "1009,101", "--r", "2",
            "--N", "q^0.4", "--M-spec", "5,1", "--V", "6"]
    _, records, _ = run(argv, capsys)
    keys = [(r["inputs"]["q"], r["inputs"]["r"], r["inputs"]["M"])
            for r in records]
    assert keys == sorted(keys)


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


def test_config_defaults_runnable(tmp_path, capsys):
    empty = tmp_path / "empty.cfg"
    empty.write_text("\n")
    code, records, _ = run(["scan", "--config", str(empty)], capsys)
    assert code == 0 and records


def test_n_spec_parsing():
    assert cli.parse_n_spec("q^0.5", 100) == 10
    assert cli.parse_n_spec("17", 100) == 17
    assert cli.parse_n_spec("q^0.4", 10007) == 39


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
                                      passed=False, elapsed=0.0)
    monkeypatch.setattr(acceptance, "run_suite", lambda suite: [fake])
    code, records = cli.run_subcommand(["verify", "--suite", "small"])
    capsys.readouterr()
    assert code == 1
    assert records[0]["passes"]["criterion"] is False


def test_output_file(tmp_path, capsys):
    out = tmp_path / "res.jsonl"
    code, _ = cli.run_subcommand(
        ["nonresidue", "--q", "101", "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    rec = json.loads(out.read_text().strip())
    assert rec["outputs"]["least"] == 2  # 101 = 5 mod 8, so 2 is an NR
