"""End-to-end tests of the command line interface.

Each test drives ``specden.cli.main`` in process with an argv list,
checking exit codes, printed summaries, and the determinism contract of
the written files.
"""

import json
import tracemalloc

import numpy as np
import pytest

from specden import chebgauss, cli, sampling
from specden.cli import main
from specden.errors import ResourceLimitError
from specden.estimators import plan_fejer_samples
from specden.kernels import fejer_plan
from specden.operators import HermitianOperator, ProbeState, random_model, write_model_file


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


@pytest.mark.parametrize(
    "command, allowed",
    [("estimate", "('fejer', 'qfejer', 'git')"), ("transform", "('fejer', 'qfejer', 'git', 'jackson')")],
)
def test_single_method_commands_reject_all(tmp_path, capsys, command, allowed):
    assert run_cli(
        command, "--method", "all", "--sigma", "0.1", "--delta", "0.1",
        "--gen", "dense:8", "--seed", "1", "--out", str(tmp_path),
    ) == 2
    assert f"'{command}' supports methods {allowed}, got 'all'" in capsys.readouterr().out


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


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--method", "git", "--sigma", "0.1", "--delta", "1e-9"],
        ["verify", "--method", "git", "--sigma", "0.1", "--delta", "0.3",
         "--grid-spacing", "1e-10", "--trials", "2", "--workers", "1"],
    ],
    ids=["transform", "verify"],
)
def test_grid_spacing_over_cap_refused_before_allocating(tmp_path, capsys, argv):
    # 2 / h points over [-1, 1] would take hundreds of GiB
    tracemalloc.start()
    try:
        code = run_cli(*argv, "--gen", "dense:4", "--seed", "1", "--out", str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert "resource cap" in capsys.readouterr().out
    assert peak < 16 * 2**20


def test_fault_sweep_shrinks_to_the_memory_cap(monkeypatch, capsys):
    # A cap of 2^12 amplitudes stands in for the real 2^22, whose shrunk sweep
    # would hold a 64 MiB statevector: dim 4 at the planned n = 4096 is over it.
    cap = 2**12
    monkeypatch.setattr(cli, "MEMORY_CAP", cap)
    monkeypatch.setattr(sampling, "MEMORY_CAP", cap)
    op = HermitianOperator(np.diag([-0.5, -0.1, 0.2, 0.6]))
    psi = ProbeState(np.full(4, 0.5))
    cfg = cli.RunConfig(command="verify", sigma=0.02, delta=0.02, trials=1, seed=1)
    target = cfg.target()
    planned_n = fejer_plan(target).n
    assert planned_n == 4096
    with pytest.raises(ResourceLimitError):
        sampling.statevector_qpe(op, psi, 12)
    rows = cli._fault_sweep(cfg, target, op, psi, 7)
    assert "fault sweep shrunk to n=1024" in capsys.readouterr().out
    _, planned_dt = plan_fejer_samples(target.beta, target.eta, faulty=True, n=planned_n)
    assert [row["delta_t"] for row in rows] == sorted({1e-3, 1e-2, planned_dt})
    for row in rows:
        assert row["n"] == 1024 and op.dim * row["n"] <= cap
        assert row["bound"] == 10 * row["delta_t"]
        assert row["realizations"] == 1 and row["ok"]
    # a sweep that fits runs at the planned n and says nothing
    roomy = cli.RunConfig(command="verify", sigma=0.25, delta=0.1, trials=1, seed=1)
    rows = cli._fault_sweep(roomy, roomy.target(), op, psi, 7)
    assert capsys.readouterr().out == ""
    assert {row["n"] for row in rows} == {fejer_plan(roomy.target()).n}


def test_plan_jackson_fine_targets(capsys):
    # k * degree = 59 * 48,000: the window is built by FFTs in O(k * degree) memory
    assert run_cli("plan", "--method", "jackson", "--sigma", "0.1", "--delta", "0.001") == 0
    assert "degree=48000, amplifier_degree=59" in capsys.readouterr().out
    # k * degree ~ 4.2e8 exceeds the grid cap and is refused before allocating
    assert run_cli("plan", "--method", "jackson", "--sigma", "0.1", "--delta", "1e-5") == 4
    assert "resource cap" in capsys.readouterr().out


def test_git_commands_build_each_coefficient_table_once(tmp_path, monkeypatch):
    builds = []
    build = chebgauss._series_coefficient_table

    def counted(lam, freqs, order):
        builds.append(freqs.size)
        return build(lam, freqs, order)

    monkeypatch.setattr(chebgauss, "_series_coefficient_table", counted)
    chebgauss._cached_coefficient_table.cache_clear()
    assert run_cli(
        "estimate", "--method", "git", "--sigma", "0.25", "--delta", "0.2",
        "--gen", "dense:8", "--seed", "3", "--out", str(tmp_path / "e"),
    ) == 0
    # one grid: the shots are sized and the estimate reconstructed on one table
    assert builds == [201]
    builds.clear()
    chebgauss._cached_coefficient_table.cache_clear()
    assert run_cli(
        "verify", "--method", "git", "--sigma", "0.25", "--delta", "0.2",
        "--gen", "dense:6:count=2", "--seed", "5", "--trials", "6",
        "--out", str(tmp_path / "v"), "--workers", "1",
    ) == 0
    # the contract grid and the dense observable grid, each shared by every
    # trial of both models
    assert len(builds) == 2 and 5 in builds


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
