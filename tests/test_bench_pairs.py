"""The claim and verdict rules of ``tools/bench_pairs.py`` on fixed pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# ten [parent, change] pairs: the parent's quartiles are 0.02985 and 0.030425
# around a median of 0.0301 (IQR 0.000575, 1.9% of the median)
PARENT = [0.0300, 0.0295, 0.0310, 0.0302, 0.0298, 0.0305, 0.0290, 0.0306, 0.0301, 0.0301]


def _pairs(change):
    return [[p, c] for p, c in zip(PARENT, change, strict=True)]


def test_claim_met_when_nine_of_ten_pairs_fall_by_more_than_the_iqr():
    change = [p - 0.002 for p in PARENT]
    change[3] = PARENT[3] + 0.001  # one pair against the change
    result = bench_pairs.claim(_pairs(change))
    assert result["change_lower_in_pairs"] == 9
    assert result["parent_iqr"] == pytest.approx(0.000575)
    assert result["median_difference"] > result["parent_iqr"]
    assert result["met"] is True


def test_claim_not_met_at_eight_of_ten_pairs():
    change = [p - 0.002 for p in PARENT]
    change[3] = change[7] = 0.0320
    result = bench_pairs.claim(_pairs(change))
    assert result["change_lower_in_pairs"] == 8
    assert result["met"] is False


def test_claim_not_met_when_the_median_gain_is_inside_the_parent_iqr():
    change = [p - 0.0005 for p in PARENT]
    result = bench_pairs.claim(_pairs(change))
    assert result["change_lower_in_pairs"] == 10
    assert result["median_difference"] == pytest.approx(0.0005)
    assert result["met"] is False


def test_claim_on_a_higher_is_better_metric():
    change = [p + 0.002 for p in PARENT]
    assert bench_pairs.claim(_pairs(change), lower=False)["met"] is True
    assert bench_pairs.claim(_pairs(change))["met"] is False


def test_verdicts():
    within = bench_pairs.verdict(_pairs([p * 1.05 for p in PARENT]), 0.25)
    assert within["verdict"] == "within bound"
    assert within["median_change_pct"] == pytest.approx(5.0, abs=0.01)
    assert within["change_lower_in_pairs"] == 0
    assert within["parent_iqr_pct_of_median"] == 1.9
    assert within["bound_pct"] == 25.0
    assert within["parent"]["n"] == within["change"]["n"] == 10
    assert bench_pairs.verdict(_pairs([p * 1.3 for p in PARENT]), 0.25)["verdict"] == (
        "worse than bound")
    # at a 1% bound the parent's own 1.9% spread cannot resolve a 0.5% change
    assert bench_pairs.verdict(_pairs([p * 1.005 for p in PARENT]), 0.01)["verdict"] == (
        "unresolved")
    # unless every change run reads better than every parent run
    assert bench_pairs.verdict(_pairs([0.020] * 10), 0.01)["verdict"] == "within bound"


def test_pairs_and_seed_ranges_keep_their_order():
    summary = bench_pairs.verdict([[2.0, 1.0], [1.0, 3.0], [3.0, 2.0]], 0.25)
    assert summary["pairs"] == [[2.0, 1.0], [1.0, 3.0], [3.0, 2.0]]
    assert summary["parent"] == {"median": 2.0, "q1": 1.5, "q3": 2.5, "n": 3}
    assert bench_pairs._seed_range("11-20") == list(range(11, 21))
    assert bench_pairs._seed_range("3") == [3]
