"""The claim, verdict and byte-comparison rules of ``tools/bench_pairs.py``."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from specden import chebgauss, cli, sampling
from specden.estimators import CONTRACT_GRID

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


def _write(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return bench_pairs.artifact_digests(root)


def test_byte_comparison_ignores_only_the_estimate_records_elapsed_time(tmp_path):
    record = {"config_hash": "abc", "elapsed_s": 0.25, "rows": 5}
    files = {"estimate.csv": "nu,value\n0.1,0.5\n",
             "estimate_record.json": json.dumps(record, indent=2, sort_keys=True),
             "sub/plan.json": "{}\n"}
    parent = _write(tmp_path / "parent", files)
    assert sorted(parent) == ["estimate.csv", "estimate_record.json", "sub/plan.json"]
    same = _write(tmp_path / "same", {**files, "estimate_record.json": json.dumps(
        {**record, "elapsed_s": 9.5}, indent=2, sort_keys=True)})
    assert bench_pairs.byte_mismatches(parent, same) == []
    # any other byte counts: a row, another record value, the elapsed time of
    # any other artifact, and a file only one side wrote
    other = _write(tmp_path / "other", {
        "estimate.csv": "nu,value\n0.1,0.50000000000000011\n",
        "estimate_record.json": json.dumps({**record, "rows": 6}, indent=2, sort_keys=True),
        "sub/plan.json": '{"elapsed_s": 0.25}\n', "extra.csv": ""})
    assert bench_pairs.byte_mismatches(parent, other) == [
        "estimate.csv", "estimate_record.json", "extra.csv", "sub/plan.json"]
    assert bench_pairs.byte_mismatches(other, {}) == sorted(other)


def test_printed_lines_count_but_the_output_directory_does_not(tmp_path):
    parent, change = tmp_path / "parent" / "0", tmp_path / "change" / "0"
    printed = bench_pairs.printed_digests(f"wrote {parent}/plan.json\n".encode(), b"", parent)
    moved = bench_pairs.printed_digests(f"wrote {change}/plan.json\n".encode(), b"", change)
    assert bench_pairs.byte_mismatches(printed, moved) == []
    reworded = bench_pairs.printed_digests(f"wrote {change}/plan.json!\n".encode(), b"", change)
    assert bench_pairs.byte_mismatches(printed, reworded) == ["stdout"]
    warned = bench_pairs.printed_digests(f"wrote {change}/plan.json\n".encode(), b"note\n", change)
    assert bench_pairs.byte_mismatches(printed, warned) == ["stderr"]


def test_byte_commands_reach_every_transform_both_routes_a_per_peak_verify_and_bench(
        tmp_path, monkeypatch, capsys):
    commands = bench_pairs.BYTE_COMMANDS
    assert sorted(c[2] for c in commands if c[0] == "transform") == ["fejer", "git", "jackson", "qfejer"]
    assert ["bench"] in commands
    routes = set()
    for i, argv in enumerate(c for c in commands if c[0] == "estimate"):
        assert cli.main([*argv, "--out", str(tmp_path / str(i))]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("drew")]
        routes.add((argv[2], "per eigenvalue" in line))
    assert routes == {(m, per_peak) for m in ("fejer", "qfejer") for per_peak in (False, True)}
    # the verify's trials are drawn per peak
    drawn = []
    sample = sampling.FejerPeaks.sample
    monkeypatch.setattr(sampling.FejerPeaks, "sample", lambda *a: drawn.append(1) or sample(*a))
    (verify,) = [c for c in commands if c[0] == "verify"]
    assert verify[2] == "fejer"
    assert cli.main([*verify, "--out", str(tmp_path / "verify")]) == 0
    assert len(drawn) == 4


def test_byte_commands_reach_the_plan_nearest_a_rounding_flip(tmp_path):
    # per_order_shots is the ceiling of 2 ln(2/eta) (L c_max / beta)^2, which
    # here lies 0.005 below the next integer
    (plan,) = [c for c in bench_pairs.BYTE_COMMANDS if c[:3] == ["plan", "--method", "git"]]
    assert cli.main([*plan, "--out", str(tmp_path)]) == 0
    (row,) = json.loads((tmp_path / "plan.json").read_text())["plans"]
    assert (row["method"], row["order"], row["per_order_shots"]) == ("git", 7031, 40855870975)
    target = cli._resolve_config(cli._PARSER.parse_args(plan)).target()
    c_max = np.max(np.abs(chebgauss.coefficient_table(row["lam"], CONTRACT_GRID, row["order"])))
    argument = 2.0 * math.log(2.0 / target.eta) * (row["order"] * c_max / target.beta) ** 2
    assert 0.0 < row["per_order_shots"] - argument < 0.01


def test_byte_commands_reach_the_amplifiers_refusal(capsys):
    # k = 212: the one ramp fails its contract there, so the jackson plan exits 3
    (plan,) = [c for c in bench_pairs.BYTE_COMMANDS if c[:3] == ["plan", "--method", "jackson"]]
    assert cli.main(plan) == 3
    assert capsys.readouterr().err.startswith("out of regime: no contract-satisfying amplifier at degree 212:")
