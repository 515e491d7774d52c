import pytest

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
    import ghkit.verification as verification

    def boom(seed):
        raise RuntimeError("synthetic crash")

    monkeypatch.setitem(
        verification.CHECKS, "bucket-construction", ("claim", boom)
    )
    result = run_check("bucket-construction")
    assert not result.passed
    assert "synthetic crash" in (result.witness or "")
