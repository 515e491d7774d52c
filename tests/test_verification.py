from dataclasses import replace
from fractions import Fraction as F

import pytest

import ghkit.verification as verification
from ghkit.dynamics import DEFAULT_SAMPLED_FACTORS
from ghkit.hedgehogs import HedgehogSpec
from ghkit.verification import CHECKS, run_check, suite_names


def test_suite_names_selection():
    assert suite_names("all") == list(CHECKS)
    assert suite_names("stabilizers,bucket-construction") == [
        "stabilizers",
        "bucket-construction",
    ]
    with pytest.raises(KeyError):
        suite_names("nope")


@pytest.mark.parametrize("selector", [",", "", " , "])
def test_suite_names_refuses_an_empty_selection(selector):
    with pytest.raises(ValueError, match="no checks selected"):
        suite_names(selector)


def test_check_results_carry_claims():
    result = run_check("bucket-construction", seed=7)
    assert result.passed
    assert result.claim
    assert result.witness is None


def test_crashing_check_is_reported_not_raised(monkeypatch):
    def boom(seed):
        raise RuntimeError("synthetic crash")

    monkeypatch.setitem(
        verification.CHECKS, "bucket-construction", ("claim", boom)
    )
    result = run_check("bucket-construction")
    assert not result.passed
    assert "synthetic crash" in (result.witness or "")


# planted faults: a check that passes a wrong verdict or closed form shows nothing


@pytest.mark.parametrize("lam", [x for x in DEFAULT_SAMPLED_FACTORS if x != 1])
def test_stabilizers_fails_on_an_accepted_factor_other_than_1(monkeypatch, lam):
    real = verification.stabilizer_finite

    def plant(obj, sampled=DEFAULT_SAMPLED_FACTORS):
        report = real(obj, sampled)
        return replace(report, accepted=tuple(sorted({*report.accepted, lam})))

    monkeypatch.setattr(verification, "stabilizer_finite", plant)
    result = run_check("stabilizers")
    assert not result.passed
    assert "space 0: accepted" in result.witness


def test_stabilizers_fails_when_a_point_accepts_only_1(monkeypatch):
    real = verification.stabilizer_finite

    def plant(obj, sampled=DEFAULT_SAMPLED_FACTORS):
        report = real(obj, sampled)
        if isinstance(obj, HedgehogSpec) or len(obj) > 1:
            return report
        return replace(report, accepted=(F(1),), zero_distance_sampled=(F(1),))

    monkeypatch.setattr(verification, "stabilizer_finite", plant)
    result = run_check("stabilizers")
    assert not result.passed
    assert "one-point space: accepted (Fraction(1, 1),)" in result.witness


def test_scaling_dynamics_fails_on_a_doubled_closed_form(monkeypatch):
    real = verification.d_lambda_probe

    def plant(space, factors):
        probe = real(space, factors)
        return replace(probe, samples=tuple((lam, 2 * d) for lam, d in probe.samples))

    monkeypatch.setattr(verification, "d_lambda_probe", plant)
    result = run_check("scaling-dynamics")
    assert not result.passed
    assert "space 0: d_lambda gave" in result.witness
