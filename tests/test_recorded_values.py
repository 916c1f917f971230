"""The recorded values of tests/recorded_values.json, read by
scripts/recorded_values.py.  Every cell but the two spread cells is
checked here (about 3 s); those two, each a pass over every prime up to
a limit (about 2.5 s each), are checked by the script in CI.  A
perturbed file fails and names the cell that moved."""

import argparse
import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from burgess.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "recorded_values.py"
_spec = importlib.util.spec_from_file_location("recorded_values", SCRIPT)
rv = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rv)


def but_the_spreads(kind, inputs):
    return kind != "spread"


def groups():
    return json.loads(rv.RECORDED.read_text())


def cells(kind):
    return next(g for g in groups() if g["kind"] == kind)["cells"]


def test_every_cell_but_the_spreads_agrees():
    recorded = groups()
    assert [g["kind"] for g in recorded] == list(rv.COMPUTE)
    assert rv.run(recorded, but_the_spreads) == []


def test_the_file_is_as_the_recorder_writes_it():
    text = rv.RECORDED.read_text()
    assert rv.dumps(json.loads(text)) == text


def test_the_cells_cover_each_path():
    counts = {g["kind"]: len(g["cells"]) for g in groups()}
    assert counts == {"cli": 78, "interval_sum": 39, "prefix_digest": 22,
                      "spread": 2, "holder": 44, "moment": 31,
                      "nonresidue": 4, "holder_c0": 1, "divisible_count": 1,
                      "pair_collision": 1}
    runs = cells("cli")
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert {c["argv"][0] for c in runs} == set(subparsers.choices)
    assert {c["want"]["code"] for c in runs} == {0, 1, 2}
    assert all(("error" in c["want"]) == (c["want"]["code"] == 2)
               for c in runs)
    chains = cells("holder")
    assert {c["want"]["path"] for c in chains} == {"exact", "certified",
                                                    "float"}
    assert {(c["q"] - 1) // c["index"] for c in chains} == set(range(2, 13))
    moments = cells("moment")
    assert {c["table"] for c in moments} == {False, True}
    assert any(c["V"] ** 2 > c["q"] for c in moments)  # by np.unique
    # order 2 at q = 3 (mod 4), in 8-bit lanes (two windows a key) and not
    assert {(c["V"], c["table"]) for c in moments if c["q"] % 4 == 3
            and 2 * c["index"] == c["q"] - 1} == {
        (v, t) for v in (1, 127, 128) for t in (False, True)}
    assert any(isinstance(c["want"]["moment"], str) for c in moments)
    sums = cells("interval_sum")
    short = {}  # (q, order) -> whether its sums read the Euler criterion
    for c in sums:
        q, d = c["q"], (c["q"] - 1) // c["index"]
        short.setdefault((q, d), set()).add(
            c["n"] % q * (math.isqrt(d - 1) + 1) <= math.isqrt(q))
    assert sum(s == {True, False} for s in short.values()) == 6
    assert {(c["q"] - 1) // c["index"] for c in sums if c["n"] > c["q"] // 2
            and isinstance(c["want"]["sum"], list)
            and isinstance(c["want"]["sum"][0], float)} == {5, 10, 1000080}


def flip(digest):
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def max_ulp_up(records):
    out = records[0]["outputs"]
    out["max_abs_sum"] = math.nextafter(out["max_abs_sum"], math.inf)
    return records


@pytest.mark.parametrize("kind, pick, field, perturb", [
    ("prefix_digest", lambda c: c["q"] == 131071, "sha256", flip),
    ("interval_sum", lambda c: isinstance(c["want"]["sum"], int), "sum",
     lambda x: x + 1),
    ("cli", lambda c: c["argv"][:3] == ["scan", "--q", "1000003"], "records",
     max_ulp_up),
])
def test_a_perturbed_value_names_its_cell(kind, pick, field, perturb):
    chosen = [c for c in cells(kind) if pick(c)][:2]
    chosen[0]["want"][field] = perturb(chosen[0]["want"][field])
    problems = rv.run([{"kind": kind, "cells": chosen}])
    assert len(problems) == 1
    assert problems[0].startswith(rv.cell_name(kind, chosen[0]) + ": " + field)


def test_a_cli_record_must_be_strict_json(monkeypatch):
    def nan_out(argv):
        print('{"outputs": {"moment": NaN}, "timings": {}}')
        return 0

    monkeypatch.setattr(rv, "burgess_main", nan_out)
    cell = {"argv": ["moments", "--q", "101"]}
    assert rv.run([{"kind": "cli", "cells": [cell]}]) == [
        f"{rv.cell_name('cli', cell)}: ValueError: NaN is not strict JSON"]


def test_a_rough_field_is_held_to_float_rtol():
    chain = next(c for c in cells("holder") if c["want"]["path"] == "float")
    W = chain["want"]["W"]
    assert rv.agrees(W * (1 + 1e-12), W, rough=True)
    assert not rv.agrees(W * (1 + 1e-8), W, rough=True)
    assert not rv.agrees(W, W * (1 + 1e-12))  # elsewhere bit for bit
    exact = next(c for c in cells("holder") if c["want"]["path"] == "exact")
    assert not rv.agrees(float(exact["want"]["W"]), exact["want"]["W"],
                         rough=True)  # an int W stays an int
    past = next(c["want"]["moment"] for c in cells("moment")
                if isinstance(c["want"]["moment"], str))
    assert rv.agrees(rv.encode(Fraction(past) * (1 + Fraction(1, 10 ** 12))),
                     past, rough=True)
    assert not rv.agrees(rv.encode(Fraction(past) * 2), past, rough=True)


def test_stored_forms():
    assert rv.encode(2 ** 53) == 2 ** 53
    assert rv.encode(2 ** 53 + 1) == str(2 ** 53 + 1)
    assert rv.encode((1, -2)) == [1, -2]
    assert rv.encode([{"U": 2 ** 53 + 1, "W": None}]) == [
        {"U": str(2 ** 53 + 1), "W": None}]  # a CLI record
    assert not rv.agrees(rv.encode((1.0, -2.0)), [1, -2])
    assert rv.encode(complex(1, -2)) == [1.0, -2.0]
    assert not rv.agrees(rv.encode(complex(1, -2)), [1, -2])
    with pytest.raises(TypeError):
        rv.encode(np.int64(3))  # a NumPy scalar is not a recorded int


def test_a_time_limit_is_asserted():
    cell = cells("cli")[0]
    problems = rv.run([{"kind": "cli", "cell_limit_s": 0, "limit_s": 0,
                        "cells": [cell]}])
    assert [p.split(": ")[0] for p in problems] == [
        rv.cell_name("cli", cell), "cli group"]


def test_the_script_exits_1_naming_the_cell(tmp_path, monkeypatch, capsys):
    chosen = [c for c in cells("prefix_digest") if c["q"] == 131071]
    digest = chosen[1]["want"]["sha256"]
    chosen[1]["want"]["sha256"] = flip(digest)
    path = tmp_path / "values.json"
    path.write_text(rv.dumps([{"kind": "prefix_digest", "cells": chosen}]))
    monkeypatch.setattr(rv, "RECORDED", path)
    assert rv.main([]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{rv.cell_name('prefix_digest', chosen[1])}: sha256 "
        f"{flip(digest)} -> {digest}"]


def test_record_rewrites_only_what_moved(tmp_path, monkeypatch):
    chosen = [c for c in cells("holder") if c["q"] == 55441][:4]
    recorded = rv.dumps([{"kind": "holder", "cells": chosen}])
    chosen[2]["want"]["W"] += 1
    del chosen[3]["want"]
    path = tmp_path / "values.json"
    path.write_text(rv.dumps([{"kind": "holder", "cells": chosen}]))
    monkeypatch.setattr(rv, "RECORDED", path)
    assert rv.main(["--record"]) == 0
    assert path.read_text() == recorded
