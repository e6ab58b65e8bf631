"""Tests of the benchmark's own reference values and checks.

Run from the root of a checkout: python3 -m pytest perfbench
"""
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from workloads import run_cli  # noqa: E402


@pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6)])
def test_injective_closed_form_matches_direct_sum(k, n):
    assert checks.injective_cycle_exact(k, n) == checks.injective_cycle_direct(k, n)


@pytest.mark.parametrize("k,limit", [(1, 1), (2, -1), (3, 2)])
def test_injective_closed_form_tends_to_the_haar_limit(k, limit):
    # the rational limits of criterion 5: 1, -1 and 2 for the 2-, 4-, 6-cycles
    gaps = [abs(float(checks.injective_cycle_exact(k, n)) - limit)
            for n in (50, 100, 200)]
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("n", range(3, 9))
def test_weingarten_matches_textbook_values(n):
    n = Fraction(n)
    assert checks.wg((1, 1), n) == 1 / (n * n - 1)
    assert checks.wg((2,), n) == -1 / (n * (n * n - 1))
    assert checks.wg((1, 1, 1), n) == (n * n - 2) / (n * (n * n - 1) * (n * n - 4))
    assert checks.wg((2, 1), n) == -1 / ((n * n - 1) * (n * n - 4))
    assert checks.wg((3,), n) == 2 / (n * (n * n - 1) * (n * n - 4))


def test_permutation_of_type():
    assert checks.permutation_of_type((3,)) == (1, 2, 0)
    assert checks.permutation_of_type((2, 1)) == (1, 0, 2)


@pytest.mark.parametrize("state,other,part,coeff", [
    ("tracial", "entangled", "0,1,0,1", 5.0 ** -2),
    ("entangled", "tracial", "0,0,1,1", 5.0 ** -1)])
def test_decomposition_closed_form_matches_program_at_k2(state, other, part,
                                                         coeff):
    assert checks.pairing_coefficient(state, 2, 5) == (part, coeff)
    doc = json.loads(run_cli(["decompose", "--state", state, "--k", "2",
                              "--n", "5", "--seed", "4"]))
    checks.check_decomposition(doc, state, 2, 5)
    with pytest.raises(checks.CheckFailed):
        checks.check_decomposition(doc, other, 2, 5)


def test_certificate_check_rejects_a_dangerous_quotient():
    doc = {"verdict": "VANISHES", "quotients": [
        {"partition": "0,1", "eta": "0", "validity": "valid"}]}
    with pytest.raises(checks.CheckFailed):
        checks.check_certificate(doc)
    doc["quotients"][0]["validity"] = "not_cactus"
    checks.check_certificate(doc)


def test_estimate_band_and_pool():
    checks.check_estimate("ok", 1.0 + 0.5j, 0.1, Fraction(1))
    with pytest.raises(checks.CheckFailed):
        checks.check_estimate("far", 2.0, 0.1, 1)
    pool = checks.Pool()
    for _ in range(100):
        pool.add("k", 1.05, 0.1, 1)   # each 0.5 stderr off; pooled 5 off
    key, z = pool.worst()
    assert key == "k" and z == pytest.approx(5.0)
