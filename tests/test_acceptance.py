"""The acceptance gate: every criterion at its stated scale and tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion; the same checks back the CLI's `verify`.
"""

import math

import pytest

from burgess import acceptance, baselines


def _gate(result):
    print(acceptance.format_line(result))
    assert result.passed, result.details
    return result


def test_criterion_1_character_algebra():
    res = _gate(acceptance.criterion_1())
    # indices 1..99 exhaustively at q=101, Legendre + 3 seeded at 1009/10007
    assert res.details["checked"] == 99 + 4 + 4
    assert res.elapsed < 5.0


def test_criterion_2_moment_bound():
    res = _gate(acceptance.criterion_2())
    cells = res.details["cells"]
    # Legendre everywhere; order-3 character exactly where 3 | q-1
    assert {c["q"] for c in cells} == {101, 1009, 10007}
    assert len([c for c in cells if c["q"] == 1009]) == 6
    assert len([c for c in cells if c["q"] == 101]) == 3
    assert all(c["moment"] <= c["bound"] for c in cells)
    assert all(c["moment"] <= c["specialized_bound"] for c in cells)


def test_criterion_3_oracle_equivalence():
    res = _gate(acceptance.criterion_3())
    assert res.details["instances"] == 200


def test_criterion_4_averaging_chain():
    res = _gate(acceptance.criterion_4())
    assert len(res.details["cells"]) == 6  # 3 primes x 2 r-values
    assert res.elapsed < 30.0


def test_criterion_5_density_bracket():
    res = _gate(acceptance.criterion_5())
    for row in res.details["rows"]:
        assert 0.3 <= row["ratio"] <= 3.0
        assert abs(row["ratio"] - res.details["expected_near"]) < 0.05
    assert res.elapsed < 5.0


def test_criterion_6_collision_ratio_regression():
    res = _gate(acceptance.criterion_6())
    assert res.details["ratio"] <= 5.0


def test_criterion_7_polya_vinogradov():
    res = _gate(acceptance.criterion_7())
    assert res.details["worst_ratio"] < 1.0
    assert res.elapsed < 60.0


def test_criterion_8_moment_performance():
    res = _gate(acceptance.criterion_8())
    assert res.details["unfolded_identical"]


def test_criterion_9_refined_scan():
    res = _gate(acceptance.criterion_9())
    assert res.details["ordering"]


@pytest.mark.parametrize("criterion, name", [
    (acceptance.criterion_6, "COLLISION_RATIO"),
    (acceptance.criterion_7, "PV_WORST_RATIO"),
    (acceptance.criterion_9, "REFINED_WORST_RATIO"),
])
def test_a_frozen_ratio_one_ulp_off_fails(criterion, name, monkeypatch):
    value = getattr(baselines, name)
    monkeypatch.setattr(baselines, name, math.nextafter(value, math.inf))
    assert not criterion().passed
