"""End-to-end tests of the command line interface.

Each test drives ``specden.cli.main`` in process with an argv list,
checking exit codes, printed summaries, and the determinism contract of
the written files.
"""

import json

import numpy as np
import pytest

from specden.cli import main
from specden.operators import random_model, write_model_file


def run_cli(*args):
    return main(list(args))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert "specden" in capsys.readouterr().out


def test_plan_fejer_goldens(capsys):
    assert run_cli("plan", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1") == 0
    out = capsys.readouterr().out
    assert "grid_size=64" in out
    assert "n_samples=185" in out
    assert "n_samples_faulty=738" in out


def test_plan_git_golden(capsys):
    assert run_cli(
        "plan", "--method", "git", "--sigma", "0.1", "--delta", "0.2", "--beta", "0.05"
    ) == 0
    out = capsys.readouterr().out
    assert "order=55" in out
    assert "regime=intermediate" in out
    assert "bound_ok=False" in out


def test_plan_all_writes_json(tmp_path, capsys):
    out_dir = tmp_path / "plans"
    assert run_cli(
        "plan", "--method", "all", "--sigma", "0.25", "--delta", "0.1",
        "--out", str(out_dir),
    ) == 0
    data = json.loads((out_dir / "plan.json").read_text())
    methods = {row["method"] for row in data["plans"]}
    assert methods == {"fejer", "qfejer", "git", "jackson"}
    assert data["target"]["sigma"] == 0.25


def test_estimate_requires_seed(tmp_path):
    assert run_cli(
        "estimate", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1",
        "--gen", "dense:8", "--out", str(tmp_path / "x"),
    ) == 2


def test_estimate_byte_identical_reruns(tmp_path, capsys):
    common = [
        "estimate", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1",
        "--gen", "dense:8", "--seed", "42",
    ]
    assert run_cli(*common, "--out", str(tmp_path / "a")) == 0
    assert run_cli(*common, "--out", str(tmp_path / "b")) == 0
    a = (tmp_path / "a" / "estimate.csv").read_bytes()
    b = (tmp_path / "b" / "estimate.csv").read_bytes()
    assert a == b
    # histogram column sums to one
    rows = [
        line.split(",") for line in a.decode().splitlines()
        if line and not line.startswith("#") and not line.startswith("frequency")
    ]
    assert abs(sum(float(v) for _, v in rows) - 1.0) < 1e-9


def test_estimate_seed_changes_output(tmp_path):
    common = [
        "estimate", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1",
        "--gen", "dense:8",
    ]
    assert run_cli(*common, "--seed", "42", "--out", str(tmp_path / "a")) == 0
    assert run_cli(*common, "--seed", "43", "--out", str(tmp_path / "b")) == 0
    assert (tmp_path / "a" / "estimate.csv").read_bytes() != (tmp_path / "b" / "estimate.csv").read_bytes()


def test_estimate_git_single_frequency(tmp_path):
    out = tmp_path / "g"
    assert run_cli(
        "estimate", "--method", "git", "--sigma", "0.2", "--delta", "0.25",
        "--beta", "0.2", "--gen", "dense:6", "--seed", "7", "--nu", "0.1",
        "--samples", "6000", "--out", str(out),
    ) == 0
    record = json.loads((out / "estimate_record.json").read_text())
    assert record["method"] == "git"
    assert record["rows"] == 1
    assert record["budget"]["per_order_shots"] >= 1


def test_estimate_qfejer_merged_bins(tmp_path):
    out = tmp_path / "q"
    assert run_cli(
        "estimate", "--method", "qfejer", "--sigma", "0.25", "--delta", "0.1",
        "--gen", "dense:8", "--seed", "11", "--out", str(out),
    ) == 0
    lines = (out / "estimate.csv").read_text().splitlines()
    rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("frequency")]
    assert len(rows) == 256 // 2 + 1
    total = sum(float(l.split(",")[1]) for l in rows)
    assert abs(total - 1.0) < 1e-9


def test_transform_writes_exact_values(tmp_path):
    out = tmp_path / "t"
    assert run_cli(
        "transform", "--method", "git", "--sigma", "0.25", "--delta", "0.2",
        "--gen", "spiked:12", "--seed", "5", "--out", str(out),
    ) == 0
    lines = (out / "transform.csv").read_text().splitlines()
    assert any(l.startswith("# method: git") for l in lines)
    rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("frequency")]
    assert len(rows) > 100  # dense default grid at delta/20 spacing


def test_model_file_input(tmp_path):
    op, psi = random_model(6, seed=9)
    model_path = tmp_path / "model.txt"
    write_model_file(model_path, op, psi)
    out = tmp_path / "m"
    assert run_cli(
        "transform", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1",
        "--model", str(model_path), "--out", str(out),
    ) == 0
    assert (out / "transform.csv").exists()


def test_exit_code_validation():
    assert run_cli("plan", "--method", "fejer", "--sigma", "1.5", "--delta", "0.1") == 2


def test_exit_code_out_of_regime():
    # beta above the planner ceiling beta_high ~ 0.255 at this loose target
    assert run_cli(
        "plan", "--method", "git", "--sigma", "0.9", "--delta", "0.9", "--beta", "0.5"
    ) == 3


def test_exit_code_resource_limit(tmp_path, capsys):
    assert run_cli("plan", "--method", "fejer", "--sigma", "0.25", "--delta", "1e-8") == 4
    # the per-order shot count exceeds the sampler's 64-bit range; plan still prints it
    target = ["--method", "git", "--sigma", "0.1", "--delta", "0.3", "--beta", "1e-8"]
    capsys.readouterr()
    assert run_cli("estimate", *target, "--gen", "dense:8", "--seed", "1",
                   "--out", str(tmp_path / "e")) == 4
    assert "resource cap" in capsys.readouterr().out
    assert run_cli("plan", *target) == 0
    assert "per_order_shots=" in capsys.readouterr().out


def test_exit_code_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert run_cli(
        "estimate", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1",
        "--gen", "dense:4", "--seed", "1", "--out", str(blocker / "sub"),
    ) == 5


def test_bad_gen_spec():
    assert run_cli(
        "estimate", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1",
        "--gen", "dense", "--seed", "1",
    ) == 2
    assert run_cli(
        "estimate", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1",
        "--gen", "dense:4:mystery=1", "--seed", "1",
    ) == 2


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# base settings\nsigma = 0.25\ndelta = 0.2\nmethod = fejer\n")
    assert run_cli("plan", "--config", str(cfg)) == 0
    out1 = capsys.readouterr().out
    assert "grid_size=32" in out1
    # flag overrides the file
    assert run_cli("plan", "--config", str(cfg), "--delta", "0.1") == 0
    assert "grid_size=64" in capsys.readouterr().out


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sigma = 0.25\nwavelength = 4\n")
    assert run_cli("plan", "--config", str(cfg), "--delta", "0.1") == 2


def test_verify_fejer_quick(tmp_path, capsys):
    out = tmp_path / "v"
    assert run_cli(
        "verify", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1",
        "--beta", "0.1", "--gen", "dense:8:count=2", "--seed", "99",
        "--trials", "8", "--out", str(out), "--workers", "1",
    ) == 0
    printed = capsys.readouterr().out
    assert "fejer:" in printed and "PASS" in printed
    report = json.loads((out / "verify_report.json").read_text())
    assert report["pass"] is True
    assert report["n_models"] == 2
    assert report["reports"]["fejer"]["n_trials"] == 8
    assert all(row["ok"] for row in report["fault_sweep"])
    assert (out / "fault_sweep.csv").exists()


def test_verify_spreads_trials_over_models(tmp_path):
    out = tmp_path / "v"
    assert run_cli(
        "verify", "--method", "fejer", "--sigma", "0.25", "--delta", "0.2",
        "--gen", "dense:6:count=3", "--seed", "5", "--trials", "8",
        "--out", str(out), "--workers", "1",
    ) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["reports"]["fejer"]["n_trials"] == 8


def test_verify_workers_deterministic(tmp_path):
    common = [
        "verify", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1",
        "--gen", "dense:6:count=2", "--seed", "17", "--trials", "4",
    ]
    assert run_cli(*common, "--workers", "1", "--out", str(tmp_path / "w1")) == 0
    assert run_cli(*common, "--workers", "2", "--out", str(tmp_path / "w2")) == 0
    r1 = (tmp_path / "w1" / "verify_report.json").read_bytes()
    r2 = (tmp_path / "w2" / "verify_report.json").read_bytes()
    assert r1 == r2


def test_bench_writes_fits(tmp_path, capsys):
    out = tmp_path / "bench"
    assert run_cli("bench", "--out", str(out), "--seed", "1") == 0
    scaling = (out / "scaling.csv").read_text().splitlines()
    fit_lines = [l for l in scaling if l.startswith("# fit ")]
    assert len(fit_lines) == 4
    for line in fit_lines:
        assert "exponent=" in line and "r2=" in line
    complexity = (out / "complexity.csv").read_text().splitlines()
    data = [l for l in complexity if l and not l.startswith("#")]
    assert data[0] == "method,delta,eps,kernel_order,n_samples,note"
    assert all(len(l.split(",")) == 6 for l in data)
