"""The acceptance gate: every criterion at its stated scale and tolerance.

Run with `pytest tests/test_acceptance.py -v` to see one PASSED/FAILED
line per criterion; the same checks back the CLI's `verify`.
"""

import math

import pytest

from burgess import acceptance, baselines


def _gate(criterion):
    """The details of a criterion that passes."""
    passed, details = criterion()
    assert passed, details
    return details


def test_criterion_1_character_algebra():
    details = _gate(acceptance.criterion_1)
    # indices 1..99 exhaustively at q=101, Legendre + 3 seeded at 1009/10007
    assert details["checked"] == 99 + 4 + 4


def test_criterion_2_moment_bound():
    details = _gate(acceptance.criterion_2)
    cells = details["cells"]
    # Legendre everywhere; order-3 character exactly where 3 | q-1
    assert {c["q"] for c in cells} == {101, 1009, 10007}
    assert len([c for c in cells if c["q"] == 1009]) == 6
    assert len([c for c in cells if c["q"] == 101]) == 3
    assert all(c["moment"] <= c["bound"] for c in cells)
    assert all(c["moment"] <= c["specialized_bound"] for c in cells)


def test_criterion_3_oracle_equivalence():
    details = _gate(acceptance.criterion_3)
    assert details["instances"] == 200


def test_criterion_4_averaging_chain():
    details = _gate(acceptance.criterion_4)
    assert len(details["cells"]) == 6  # 3 primes x 2 r-values


def test_criterion_5_density_bracket():
    details = _gate(acceptance.criterion_5)
    for row in details["rows"]:
        assert 0.3 <= row["ratio"] <= 3.0
        assert abs(row["ratio"] - details["expected_near"]) < 0.05


def test_criterion_6_collision_ratio_regression():
    details = _gate(acceptance.criterion_6)
    assert details["ratio"] <= 5.0


def test_criterion_7_polya_vinogradov():
    details = _gate(acceptance.criterion_7)
    assert details["worst_ratio"] < 1.0


def test_criterion_8_moment_performance():
    details = _gate(acceptance.criterion_8)
    assert details["unfolded_identical"]


def test_criterion_9_refined_scan():
    details = _gate(acceptance.criterion_9)
    assert details["ordering"]


@pytest.mark.parametrize("criterion, name", [
    (acceptance.criterion_6, "COLLISION_RATIO"),
    (acceptance.criterion_7, "PV_WORST_RATIO"),
    (acceptance.criterion_9, "REFINED_WORST_RATIO"),
])
def test_a_frozen_ratio_one_ulp_off_fails(criterion, name, monkeypatch):
    value = getattr(baselines, name)
    monkeypatch.setattr(baselines, name, math.nextafter(value, math.inf))
    passed, _ = criterion()
    assert not passed
