"""End-to-end tests of the command line interface.

Each test drives ``specden.cli.main`` in process with an argv list,
checking exit codes, printed summaries, and the determinism contract of
the written files.
"""

import argparse
import dataclasses
import hashlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specden import chebgauss, cli, estimators, kernels, sampling
from specden.cli import main
from specden.errors import ResourceLimitError
from specden.estimators import ESTIMATION_METHODS, plan_fejer_samples
from specden.kernels import AccuracyTarget, fejer_plan
from specden.metrics import ObservableFn, bounded_observables, contract_report
from specden.numerics import derive_seed, derive_seeds, fmt_float
from specden.operators import (
    HermitianOperator,
    ProbeState,
    SpectralModel,
    diagonalize,
    normalize_spectrum,
    random_model,
    random_spectrum,
)


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


def test_plan_git_fine_target_golden(capsys):
    # the series table projects on 7031 nodes, where a Vandermonde route would hold 395 MB
    assert run_cli("plan", "--method", "git", "--sigma", "0.1", "--delta", "0.002") == 0
    out = capsys.readouterr().out
    assert "order=7031," in out
    assert "per_order_shots=40855870975," in out
    assert "n_samples=287257628825225," in out


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


@pytest.mark.parametrize("argv", [["--out", "."], ["--out", "./"], ["--config", "c.txt"]])
def test_plan_writes_json_to_the_working_directory(tmp_path, monkeypatch, capsys, argv):
    # an output directory of "." is given, so plan writes there as for any other
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text("out = .\n")
    assert run_cli("plan", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1", *argv) == 0
    assert json.loads((tmp_path / "plan.json").read_text())["plans"][0]["method"] == "fejer"
    assert capsys.readouterr().out.endswith("wrote plan.json\n")


def test_plan_without_out_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("plan", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1") == 0
    assert list(tmp_path.iterdir()) == []


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


def _csv_table(path) -> np.ndarray:
    lines = path.read_text().splitlines()
    return np.array([[float(x) for x in line.split(",")] for line in lines[lines.index("frequency,value") + 1:]])


def test_qfejer_transform_and_estimate_share_their_frequencies(tmp_path):
    # the transform is the mirror-merged exact reference the estimate samples:
    # 65 recovered frequencies in [-3, 1], not the 128 walk outcomes in [-1, 1)
    common = ["--method", "qfejer", "--sigma", "0.2", "--delta", "0.25", "--gen", "gapped:8",
              "--seed", "11", "--out", str(tmp_path)]
    assert run_cli("transform", *common) == 0
    assert run_cli("estimate", *common) == 0
    transform, estimate = _csv_table(tmp_path / "transform.csv"), _csv_table(tmp_path / "estimate.csv")
    assert transform.shape == estimate.shape == (65, 2)
    assert transform[:, 0].tobytes() == estimate[:, 0].tobytes()
    assert transform[0, 0] == -3.0 and transform[-1, 0] == 1.0
    assert abs(transform[:, 1].sum() - 1.0) < 1e-12


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


def test_model_file_input(tmp_path, write_model_file):
    op, psi = random_model(6, seed=9)
    model_path = tmp_path / "model.txt"
    write_model_file(model_path, op, psi)
    out = tmp_path / "m"
    assert run_cli(
        "transform", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1",
        "--model", str(model_path), "--out", str(out),
    ) == 0
    assert (out / "transform.csv").exists()


@pytest.mark.parametrize("method", ["fejer", "git"])
@pytest.mark.parametrize("gen, solves", [
    ("spiked:64", []), ("gapped:64", []), ("dense:64", ["eigvalsh"]),
])
def test_estimate_solves_each_model_at_most_once(
    tmp_path, eigensolves, qrs, matrix_builds, method, gen, solves
):
    # generated spectra are carried from the generator to the model: the
    # dense generator solves one real tridiagonal for its eigenvalues, the
    # others draw theirs; the estimate reads no Haar basis (a QR) and no
    # operator matrix
    assert run_cli(
        "estimate", "--method", method, "--sigma", "0.1", "--delta", "0.1",
        "--gen", gen, "--seed", "3", "--out", str(tmp_path),
    ) == 0
    assert [name for name, _ in eigensolves] == solves
    assert all(np.isrealobj(a) and a.shape == (64, 64) for _, a in eigensolves)
    assert qrs == [] and matrix_builds == []


def test_estimate_from_model_file_solves_once(tmp_path, eigensolves, matrix_builds, write_model_file):
    op, psi = random_model(12, seed=4, kind="spiked")
    model_path = tmp_path / "model.txt"
    # a norm above 1, so normalization maps the spectrum solved from the file
    write_model_file(model_path, HermitianOperator(3.0 * op.matrix), psi)
    eigensolves.clear()
    matrix_builds.clear()
    assert run_cli(
        "estimate", "--sigma", "0.1", "--delta", "0.1", "--model", str(model_path),
        "--seed", "3", "--out", str(tmp_path / "m"),
    ) == 0
    assert [name for name, _ in eigensolves] == ["eigh"]
    # the file's matrix, and no second one for the normalized operator
    assert matrix_builds == [(12, 12)]


def test_verify_builds_no_basis_for_the_fault_sweep(tmp_path, qrs, matrix_builds):
    # the contract reads spectra only, and the fault sweep runs the register
    # on the first model's eigenvalues and drawn amplitudes
    assert run_cli(
        "verify", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1",
        "--gen", "spiked:16:count=2", "--trials", "3", "--seed", "1",
        "--workers", "1", "--out", str(tmp_path),
    ) == 0
    assert qrs == []
    assert matrix_builds == []


def _write_csv_per_cell(path, header, columns, rows):
    # The writer with one fmt_float or str call per cell.
    lines = [f"# {k}: {v}" for k, v in header]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt_float(c) if isinstance(c, float) else str(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


def _same_csv_bytes(columns, rows, written=None):
    # _write_csv of the columns `written` (default: the rows' columns, as lists)
    # against the per-cell writer of the rows
    if written is None:
        written = {name: [row[i] for row in rows] for i, name in enumerate(columns)}
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        cli._write_csv(got, [("specden", "test")], written)
        _write_csv_per_cell(want, [("specden", "test")], columns, rows)
        return got.read_bytes() == want.read_bytes()


# a few floats, signed zeros included, so that a block repeats its values
_REPEATING_FLOATS = st.sampled_from([0.0, -0.0, 0.5, 1.0 / 3.0, -2.0, 5e-324, float("inf"), float("nan")])


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.tuples(st.floats(), st.floats()), max_size=40)
    | st.lists(st.tuples(_REPEATING_FLOATS, _REPEATING_FLOATS), max_size=40),
    size=st.sampled_from([None, cli._CSV_BLOCK - 1, cli._CSV_BLOCK, cli._CSV_BLOCK + 1, 10_000]),
)
def test_write_csv_float_rows_match_per_cell_writer(rows, size):
    if size is not None and rows:
        # the drawn rows, repeated to fill blocks around the block size
        rows = list(itertools.islice(itertools.cycle(rows), size))
    assert _same_csv_bytes(["frequency", "value"], rows)
    # float array columns are written as their rows would be
    array = np.array(rows, dtype=float).reshape(-1, 2)
    assert _same_csv_bytes(["frequency", "value"], rows, {"frequency": array[:, 0], "value": array[:, 1]})


def test_write_csv_keys_repeated_floats_on_their_bits():
    # each value repeated within a block: -0.0 keeps its sign beside 0.0,
    # and a NaN of either sign prints nan
    specials = [0.0, -0.0, float("nan"), -float("nan"), float("inf"), float("-inf"), 5e-324]
    values = np.repeat(specials, 3)
    rows = [(float(i), x) for i, x in enumerate(values.tolist())]
    assert _same_csv_bytes(["frequency", "value"], rows,
                           {"frequency": np.arange(values.size, dtype=float), "value": values})
    assert _same_csv_bytes(["value"], [(x,) for x in values.tolist()], {"value": values})


@pytest.mark.parametrize("size", [cli._CSV_BLOCK - 1, cli._CSV_BLOCK, cli._CSV_BLOCK + 1])
def test_write_csv_histogram_column_matches_per_cell_writer(size):
    # integer counts over N shots on n bins, most of them empty
    shots = 1_000
    counts = np.bincount(np.random.default_rng(size).integers(0, size, shots), minlength=size)
    frequencies, values = np.linspace(-1.0, 1.0, size), counts / shots
    assert _same_csv_bytes(["frequency", "value"], list(zip(frequencies.tolist(), values.tolist())),
                           {"frequency": frequencies, "value": values})


def test_write_csv_streams_a_large_array(tmp_path):
    # 2^16 rows: the whole text as one list of lines, one string and its
    # encoding peaked at 9.1 MB (145 B per row)
    rng = np.random.default_rng(7)
    columns = dict(zip(["frequency", "value"], rng.standard_normal((2, 2**16))))
    # and a histogram's column, mostly zeros, whose repeated values are formatted once each
    columns["histogram"] = np.bincount(rng.integers(0, 2**16, 18_445), minlength=2**16) / 18_445
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "big.csv", [("specden", "test")], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_write_csv_failing_midway_leaves_the_earlier_file(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_BLOCK", 2)
    path = tmp_path / "out.csv"
    cli._write_csv(path, [("specden", "test")], {"a": [1.0, 2.0]})
    before = path.read_bytes()
    read = []

    class Column(list):
        # a column whose second block cannot be read
        def __getitem__(self, index):
            if isinstance(index, slice):
                read.append(index.start)
                if index.start > 0:
                    raise RuntimeError("block 2")
            return super().__getitem__(index)

    with pytest.raises(RuntimeError, match="block 2"):
        cli._write_csv(path, [("specden", "test")], {"a": Column([3.0, 4.0, 5.0, 6.0])})
    # the first block was written before the second raised
    assert read == [0, 2]
    assert path.read_bytes() == before
    with pytest.raises(RuntimeError, match="block 2"):
        cli._write_csv(tmp_path / "new.csv", [("specden", "test")], {"a": Column([3.0, 4.0, 5.0])})
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_io_error_midway_exits_5_and_keeps_the_earlier_artifacts(tmp_path, monkeypatch, capsys):
    common = ["estimate", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1",
              "--gen", "dense:8", "--out", str(tmp_path)]
    assert run_cli(*common, "--seed", "1") == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(cli, "_CSV_BLOCK", 2)

    class FullDisk:
        # a file whose third write fails, as on a full disk
        def __init__(self, *args):
            self.file, self.writes = open(*args), 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, text):
            self.writes += 1
            if self.writes == 3:
                raise OSError(28, "No space left on device")
            return self.file.write(text)

    monkeypatch.setattr(cli, "open", FullDisk, raising=False)
    assert run_cli(*common, "--seed", "2") == 5
    assert capsys.readouterr().err.endswith("i/o error: [Errno 28] No space left on device\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_write_csv_mixed_rows_match_per_cell_writer():
    specials = [0.1, 1.0 / 3.0, -0.0, 5e-324, 1e308, float("inf"), float("-inf"), float("nan")]
    assert _same_csv_bytes(["frequency", "value"], [(x, np.float64(x)) for x in specials])
    # the (int, float, float, float, int, bool) rows of fault_sweep.csv
    sweep = [
        (128, 0.001, 0.007, 0.00019843751308523672, 20, True),
        (128, 0.1 / 14, 0.05, 0.001415446668801279, np.int64(20), False),
    ]
    assert _same_csv_bytes(["n", "delta_t", "bound", "measured", "realizations", "ok"], sweep)
    # a certified row, whose measured cell is empty
    assert _same_csv_bytes(["n", "delta_t", "bound", "measured", "realizations", "ok"],
                           [(128, 0.001, 0.007, "", 0, True)])
    # string, float and other columns side by side, and no rows at all
    mixed = [("git", 0.1, 3), ("fejer", 2.0, None), ("jackson", np.float64(0.2), True)]
    assert _same_csv_bytes(["method", "eps", "n"], mixed)
    assert _same_csv_bytes(["a"], [])


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
    assert f"'{command}' supports methods {allowed}, got 'all'" in capsys.readouterr().err


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
    assert "resource cap" in capsys.readouterr().err
    assert run_cli("plan", *target) == 0
    assert "per_order_shots=" in capsys.readouterr().out


_EDGE_TARGET = ["--sigma", "0.1", "--delta", "0.2"]
_EDGE_MODEL = ["--gen", "dense:4", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["estimate", "--method", "fejer", *_EDGE_TARGET, "--gen", "dense:4", "--seed", "-1"], 2),
        (["verify", "--method", "fejer", *_EDGE_TARGET, *_EDGE_MODEL, "--grid-spacing", "inf",
          "--trials", "2", "--workers", "1"], 2),
        (["estimate", "--method", "fejer", *_EDGE_TARGET, *_EDGE_MODEL, "--samples", str(10**20)], 4),
        (["plan", "--method", "fejer", *_EDGE_TARGET, "--beta", "1e-300"], 4),
        (["plan", "--method", "git", *_EDGE_TARGET, "--beta", "1e-200"], 4),
        (["transform", "--method", "git", *_EDGE_TARGET, *_EDGE_MODEL, "--nu", "nan"], 2),
        (["estimate", "--method", "git", *_EDGE_TARGET, "--gen", "dense:4:count=0", "--seed", "1"], 2),
        (["verify", "--method", "fejer", *_EDGE_TARGET, *_EDGE_MODEL, "--trials", "0"], 2),
        # a dim x dim draw over GRID_CAP cells is refused before drawing
        (["estimate", "--method", "fejer", *_EDGE_TARGET, "--gen", "dense:10000000", "--seed", "1"], 4),
        (["estimate", "--method", "fejer", *_EDGE_TARGET, "--gen", "gapped:10000000", "--seed", "1"], 4),
        (["estimate", "--method", "fejer", *_EDGE_TARGET, "--gen", "spiked:100000", "--seed", "1"], 4),
        # the window's Chebyshev series holds for |nu - omega| <= 2 only
        (["transform", "--method", "jackson", *_EDGE_TARGET, *_EDGE_MODEL, "--nu", "1.5"], 2),
        # a nan probe, a nan or inf entry, and a model file that is not UTF-8
        (["transform", "--method", "git", *_EDGE_TARGET, "--model", b"dim 2\n0.5 0\n0 -0.5\nnan 0\n"], 2),
        (["estimate", "--method", "fejer", *_EDGE_TARGET, "--seed", "1",
          "--model", b"dim 2\n0.5 0\n0 -0.5\nnan 0\n"], 2),
        (["transform", "--method", "git", *_EDGE_TARGET, "--model", b"dim 2\nnan 0\n0 -0.5\n1 0\n"], 2),
        (["transform", "--method", "git", *_EDGE_TARGET, "--model", b"dim 2\ninf 0\n0 -0.5\n1 0\n"], 2),
        (["transform", "--method", "git", *_EDGE_TARGET, "--model", b"dim 2\n0.5 0\n0 -0.5\n1 0\xff\n"], 2),
        # count x dim eigenvalues over GRID_CAP are refused before the first draw
        (["estimate", "--method", "fejer", *_EDGE_TARGET, "--gen", "dense:8:count=10000000", "--seed", "1"], 4),
        (["verify", "--method", "fejer", *_EDGE_TARGET, "--gen", "dense:8:count=10000000", "--seed", "1",
          "--trials", "2"], 4),
        # a Fejer grid whose planned size overflows a float is over the cap too
        (["plan", "--method", "fejer", "--sigma", "1e-200", "--delta", "1e-200"], 4),
        (["plan", "--method", "qfejer", "--sigma", "1e-300", "--delta", "1e-200"], 4),
        (["estimate", "--method", "fejer", "--sigma", "1e-300", "--delta", "1e-300", *_EDGE_MODEL], 4),
        # a target loose enough for tau >= 1 is valid, but no window is built there
        (["transform", "--method", "jackson", "--sigma", "0.9", "--delta", "0.9", *_EDGE_MODEL], 3),
        # k = 212 puts tau ~ 4.5e-16 below the rounding of the amplifier's evaluation
        (["plan", "--method", "jackson", "--sigma", "1e-13", "--delta", "0.01"], 3),
        (["transform", "--method", "jackson", "--sigma", "1e-13", "--delta", "0.01", *_EDGE_MODEL], 3),
        # git's exact-kernel projection past GRID_CAP nodes: 4 (L + 1) = 74,336,912
        (["estimate", "--method", "git", "--sigma", "0.1", "--delta", "1e-6", "--nu", "0", *_EDGE_MODEL], 4),
        (["verify", "--method", "git", "--sigma", "0.1", "--delta", "1e-6", "--grid-spacing", "0.1",
          *_EDGE_MODEL, "--trials", "2", "--workers", "1"], 4),
        # the series table's 5 x (L + 1) cells past GRID_CAP, refused before the table exists
        (["plan", "--method", "git", "--sigma", "0.1", "--delta", "1e-8"], 4),
        # the analytic tsa row's counts overflow, or divide by a delta^3 that underflows
        (["bench", "--sigma", "1e-160", "--delta", "0.5"], 4),
        (["bench", "--sigma", "1e-300", "--delta", "0.5"], 4),
        (["bench", "--delta", "1e-120"], 4),
        # gap and ground_weight are read by the gapped ensemble alone, as numbers within range
        (["estimate", "--method", "fejer", *_EDGE_TARGET, "--gen", "dense:8:gap=0.5", "--seed", "1"], 2),
        (["estimate", "--method", "git", *_EDGE_TARGET, "--gen", "spiked:8:ground_weight=0.5", "--seed", "1"], 2),
        (["estimate", "--method", "fejer", *_EDGE_TARGET, "--gen", "gapped:8:gap=0.9", "--seed", "1"], 2),
        (["estimate", "--method", "fejer", *_EDGE_TARGET, "--gen", "gapped:8:ground_weight=1.5", "--seed", "1"], 2),
        (["estimate", "--method", "fejer", *_EDGE_TARGET, "--gen", "gapped:8:gap=wide", "--seed", "1"], 2),
        # the series table's F (L + 1) (L/2 + 1) Clenshaw steps past 2^36: 2.7e11 and 7.5e12
        (["plan", "--method", "git", "--sigma", "0.1", "--delta", "5e-5"], 4),
        (["plan", "--method", "git", "--sigma", "0.1", "--delta", "1e-5"], 4),
        # --model beside --gen, a git plan with no --sigma, a config file's unknown method
        (["estimate", "--method", "fejer", *_EDGE_TARGET, *_EDGE_MODEL, "--model", b"dim 2\n0.5 0\n0 -0.5\n1 0\n"], 2),
        (["plan", "--method", "git", "--delta", "0.1"], 2),
        (["plan", "--config", b"method = wavelet\n", *_EDGE_TARGET], 2),
    ],
    ids=["negative-seed", "infinite-spacing", "samples-past-int64", "fejer-budget-overflow",
         "git-budget-overflow", "nan-nu", "zero-models", "zero-trials", "dense-dim-over-cap",
         "gapped-dim-over-cap", "spiked-dim-over-cap", "jackson-nu-outside-the-window",
         "nan-probe-transform", "nan-probe-estimate", "nan-matrix", "inf-matrix", "model-not-utf8",
         "estimate-count-over-cap", "verify-count-over-cap", "fejer-grid-overflow",
         "qfejer-grid-overflow", "estimate-grid-overflow", "jackson-degenerate-transform",
         "jackson-amplifier-floor-plan", "jackson-amplifier-floor-transform",
         "git-projection-nodes-over-cap-estimate", "git-projection-nodes-over-cap-verify",
         "git-series-table-over-cap", "bench-tsa-overflow", "bench-tsa-eps-underflow",
         "bench-tsa-delta-underflow", "dense-gap", "spiked-ground-weight", "gapped-gap-too-wide",
         "gapped-ground-weight-above-1", "gapped-gap-not-a-number", "git-series-table-steps-5e-5",
         "git-series-table-steps-1e-5", "model-and-gen", "git-plan-without-sigma", "config-unknown-method"],
)
def test_edge_inputs_exit_with_their_documented_code(tmp_path_factory, tmp_path, capsys, argv, code):
    # a bytes item is written to a model or config file outside the output directory
    model = tmp_path_factory.mktemp("model") / "model.txt"
    for arg in argv:
        if isinstance(arg, bytes):
            model.write_bytes(arg)
    argv = [str(model) if isinstance(arg, bytes) else arg for arg in argv]
    # an exception escaping main fails the test on its own; none may
    assert run_cli(*argv, "--out", str(tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith({2: "error: ", 3: "out of regime: ", 4: "resource cap: "}[code])
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_a_generator_parameter_its_kind_does_not_read_is_named(capsys):
    assert run_cli("estimate", "--method", "fejer", *_EDGE_TARGET, "--gen", "dense:8:gap=0.5", "--seed", "1") == 2
    assert capsys.readouterr().err == "error: generator kind 'dense' takes no parameter 'gap'\n"
    # an unknown name is named as unknown, not as a bad value
    assert run_cli("estimate", "--method", "fejer", *_EDGE_TARGET, "--gen", "dense:8:mystery=1", "--seed", "1") == 2
    assert capsys.readouterr().err == "error: unknown generator parameter 'mystery'\n"


def test_a_warning_prints_as_one_line_and_the_report_is_still_written(tmp_path):
    # the tests turn warnings into errors, so the command runs in its own process
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["verify", "--method", "git", "--sigma", "0.1", "--delta", "0.2", "--grid-spacing", "2",
            "--gen", "dense:4", "--seed", "1", "--trials", "2", "--out", str(tmp_path)]
    done = subprocess.run([sys.executable, "-m", "specden", *argv], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stderr == "warning: grid spacing 2 exceeds kernel width 0.0932; the integral may be inaccurate\n"
    assert (tmp_path / "verify_report.json").exists()


def test_an_over_cap_fejer_grid_names_its_planned_size(capsys):
    # the raw size is checked against the cap, so the count printed is a float, not 302 digits
    assert run_cli("plan", "--sigma", "1e-300", "--delta", "0.1") == 4
    assert capsys.readouterr().err == (
        "resource cap: 9.999999999999999e+300 bins of the planned grid exceed the cap 67108864\n")


def test_degenerate_jackson_target_plans_a_zero_degree_floor(tmp_path, capsys):
    # past tau = 1 the floor (288 / delta) ln(1 / tau) is negative; the plan reports 0
    assert run_cli("plan", "--method", "jackson", "--sigma", "0.9", "--delta", "0.9",
                   "--out", str(tmp_path)) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "jackson: degree=54, amplifier_degree=0, tau=7.3636363636363642, d_min=0, kn_ok=True, degenerate=True")
    (row,) = json.loads((tmp_path / "plan.json").read_text())["plans"]
    assert row == {"method": "jackson", "degree": 54, "amplifier_degree": 0, "tau": 7.363636363636364,
                   "d_min": 0.0, "kn_ok": True, "degenerate": True}


def test_config_file_negative_seed_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("seed = -1\n")
    assert run_cli("estimate", "--config", str(config), "--method", "git", *_EDGE_TARGET,
                   "--gen", "dense:4", "--out", str(tmp_path / "e")) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not (tmp_path / "e").exists()


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
    assert "resource cap" in capsys.readouterr().err
    assert peak < 16 * 2**20


def test_fault_sweep_shrinks_to_the_memory_cap(monkeypatch, capsys):
    # A cap of 2^12 amplitudes stands in for the real 2^22, whose shrunk
    # register would hold a 64 MiB statevector: dim 4 at the planned
    # n = 4096 is over it.  The rows state the bound at the planned n, and
    # only the fault-free register of the cross-check shrinks to n = 1024.
    cap = 2**12
    monkeypatch.setattr(cli, "MEMORY_CAP", cap)
    monkeypatch.setattr(sampling, "MEMORY_CAP", cap)
    op = HermitianOperator(np.diag([-0.5, -0.1, 0.2, 0.6]))
    psi = ProbeState(np.full(4, 0.5))
    model = diagonalize(op, psi)
    amplitudes = op.evecs.conj().T @ psi.vector
    target = cli.RunConfig(command="verify", sigma=0.02, delta=0.02).target()
    planned_n = fejer_plan(target).n
    assert planned_n == 4096
    with pytest.raises(ResourceLimitError):
        sampling.statevector_qpe(op, psi, 12)
    rows, check = cli._fault_sweep(target, op.evals, amplitudes, model)
    assert "simulator check shrunk to n=1024" in capsys.readouterr().out
    _, planned_dt = plan_fejer_samples(target.beta, target.eta, faulty=True, n=planned_n)
    assert [row["delta_t"] for row in rows] == sorted({1e-3, 1e-2, planned_dt})
    for row in rows:
        assert row["n"] == row["planned_n"] == 4096
        assert row["bound"] == 12 * row["delta_t"]
        assert row["measured"] is None and row["realizations"] == 0 and row["ok"]
    assert check["n"] == 1024 and op.dim * check["n"] <= cap
    assert check["tolerance"] == 1024 * 2.0**-52
    assert check["ok"] and check["deviation"] <= check["tolerance"]
    # a register that fits runs at the planned n and says nothing
    roomy = cli.RunConfig(command="verify", sigma=0.25, delta=0.1).target()
    rows, check = cli._fault_sweep(roomy, op.evals, amplitudes, model)
    assert capsys.readouterr().out == ""
    assert {row["n"] for row in rows} | {check["n"]} == {fejer_plan(roomy).n}


def test_fault_sweep_draws_each_generator_once(monkeypatch, eigensolves):
    # a faulty register of K ancilla bits draws K generators, each solved
    # once, and does not solve the operator again: it reads the
    # eigendecomposition the operator carries
    op, psi = random_model(4, seed=5)
    amplitudes = op.evecs.conj().T @ psi.vector
    draws = []
    gue = sampling._gue
    monkeypatch.setattr(sampling, "_gue", lambda *a: draws.append(a) or gue(*a))
    eigensolves.clear()
    k = 5
    sampling.eigenbasis_qpe(op.evals, amplitudes, k, sampling.FaultModel(1e-2, derive_seed(7, 700, 0)))
    assert len(draws) == k
    assert not any(a is op.matrix for _, a in eigensolves)
    assert [(name, a.shape) for name, a in eigensolves] == [("eigh", (4, 4))] * k


def test_certified_fault_rows_draw_no_generator(monkeypatch, eigensolves):
    # the fault rows sample nothing: only the fault-free register of the
    # cross-check runs, so no generator is drawn and nothing is solved
    op, psi = random_model(4, seed=5)
    model = diagonalize(op, psi)
    amplitudes = op.evecs.conj().T @ psi.vector
    monkeypatch.setattr(sampling, "_gue", lambda *a: pytest.fail("generator drawn"))
    eigensolves.clear()
    target = cli.RunConfig(command="verify", sigma=0.25, delta=0.1).target()
    rows, check = cli._fault_sweep(target, op.evals, amplitudes, model)
    assert [row["realizations"] for row in rows] == [0, 0, 0]
    assert check["ok"]
    assert eigensolves == []


def test_verify_fails_when_the_simulator_is_off_by_one_bin(tmp_path, monkeypatch, capsys):
    # a fault-free register shifted by one outcome bin: the contract passes,
    # the cross-check does not, and verify reports FAIL and still exits 0
    register = cli.eigenbasis_qpe

    def shifted(*args):
        return sampling.OutcomeDistribution(np.roll(register(*args).probs, 1))

    monkeypatch.setattr(cli, "eigenbasis_qpe", shifted)
    assert run_cli(
        "verify", "--method", "all", "--sigma", "0.25", "--delta", "0.1", "--gen", "spiked:8:count=2",
        "--trials", "8", "--seed", "3", "--out", str(tmp_path),
    ) == 0
    out = capsys.readouterr().out
    assert "simulator: n=64" in out and "-> MISMATCH" in out
    assert out.splitlines()[-1].startswith("FAIL; wrote")
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["pass"] is False
    assert report["simulator_check"]["ok"] is False
    assert all(entry["passed"] for entry in report["reports"].values())


@pytest.mark.parametrize("kind, dim, seed, delta, n", [("spiked", 2, 4, 1e-5, 2**21),
                                                      ("spiked", 64, 1, 1e-4, 2**16)])
def test_simulator_check_tolerance_holds_at_the_memory_cap(kind, dim, seed, delta, n):
    # dim * n = MEMORY_CAP, at the planned n (dim 2) or shrunk to it (dim 64).
    # The register rounds eigenvalue + 1 by up to 2^-53 and the Fejer
    # kernel's slope is at most about 0.85 n, so the deviation stays under
    # about 0.43 n 2^-52; the spiked:2 draw reads 0.41 of the tolerance, the
    # largest of 24 dim-2 draws (three kinds, seeds 1-8)
    evals, amplitudes = random_spectrum(dim, seed, kind)
    evals, _ = normalize_spectrum(evals)
    model = SpectralModel.from_amplitudes(evals, amplitudes)
    target = cli.RunConfig(command="verify", sigma=0.1, delta=delta).target()
    _, check = cli._fault_sweep(target, evals, amplitudes, model)
    assert check["n"] == n == sampling.MEMORY_CAP // dim and check["tolerance"] == n * 2.0**-52
    assert check["ok"] and check["deviation"] <= check["tolerance"]


@pytest.mark.parametrize("sigma, delta, n", [(0.9, 0.9, 4), (0.5, 0.9, 8)])
def test_simulator_check_tolerance_holds_on_the_smallest_registers(sigma, delta, n):
    # the smallest plans: rounding that does not shrink with n reads up to
    # 2.25 2^-52 at n = 4, past half of n 2^-52, so the tolerance keeps a
    # floor of 64 2^-52
    target = cli.RunConfig(command="verify", sigma=sigma, delta=delta).target()
    assert fejer_plan(target).n == n
    for kind, dim, seed in itertools.product(("dense", "gapped", "spiked"), (2, 8, 64), range(1, 9)):
        evals, amplitudes = random_spectrum(dim, seed, kind)
        evals, _ = normalize_spectrum(evals)
        model = SpectralModel.from_amplitudes(evals, amplitudes)
        _, check = cli._fault_sweep(target, evals, amplitudes, model)
        assert check["n"] == n and check["tolerance"] == 64 * 2.0**-52
        assert check["ok"] and check["deviation"] <= check["tolerance"]


# the (n, realizations, delta_t, bound, measured) rows of a plan with
# n = 128: steps 1e-3, 1e-2 and the planned 0.1 / 14, each bounded by
# log2(128) * delta_t and sampled on no realization
_CERTIFIED_ROWS = [(128, 0, dt, 7 * dt, None) for dt in (0.001, 0.1 / 14, 0.01)]


def test_verify_fault_sweep_golden(tmp_path):
    code = main([
        "verify", "--method", "all", "--sigma", "0.1", "--delta", "0.1",
        "--gen", "dense:8:count=2", "--trials", "20", "--seed", "9", "--workers", "1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    rows = report["fault_sweep"]
    assert [(r["n"], r["realizations"], r["delta_t"], r["bound"], r["measured"]) for r in rows] == _CERTIFIED_ROWS
    assert report["simulator_check"] == {
        "n": 128, "deviation": 8.326672684688674e-16, "tolerance": 128 * 2.0**-52, "ok": True,
    }


def test_verify_fault_sweep_golden_on_a_drawn_spectrum(tmp_path):
    # the register starts from the gapped draw's amplitudes, with no basis
    code = main([
        "verify", "--method", "all", "--sigma", "0.2", "--delta", "0.1",
        "--gen", "gapped:16:count=2", "--trials", "20", "--seed", "4", "--workers", "1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    rows = report["fault_sweep"]
    assert [(r["n"], r["realizations"], r["delta_t"], r["bound"], r["measured"]) for r in rows] == _CERTIFIED_ROWS
    assert all(r["ok"] for r in rows)
    assert report["simulator_check"] == {
        "n": 128, "deviation": 7.494005416219807e-16, "tolerance": 128 * 2.0**-52, "ok": True,
    }


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the Fejer grid folds an eigenvalue at +1 onto -1")
def test_fejer_contract_holds_with_an_eigenvalue_at_plus_one(tmp_path, write_model_file):
    # a hand-built model, so that the fold does not hang on a generator's draws
    model_path = tmp_path / "model.txt"
    write_model_file(model_path, HermitianOperator(np.diag([-0.5, 0.0, 0.3, 1.0])), ProbeState(np.full(4, 0.5)))
    assert run_cli(
        "verify", "--method", "fejer", "--sigma", "0.1", "--delta", "0.1", "--model", str(model_path),
        "--trials", "20", "--seed", "1", "--workers", "1", "--out", str(tmp_path / "v"),
    ) == 0
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())["reports"]["fejer"]
    assert report["pass_bound"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the Fejer grid folds an eigenvalue at +1 onto -1")
def test_fejer_contract_holds_for_a_generated_dense_model():
    # the contract of `verify --method fejer --sigma 0.1 --delta 0.03 --gen dense:8
    # --trials 20 --seed 3`: a generated dense model has its largest eigenvalue
    # at exactly +-1, here +1, and its identity observable misses its bound
    evals, amplitudes = random_spectrum(8, derive_seed(3, 500), "dense")
    model = SpectralModel.from_amplitudes(evals, amplitudes)
    target = AccuracyTarget(sigma=0.1, delta=0.03)
    observables = bounded_observables(
        [ObservableFn(np.ones_like, "one"), ObservableFn(lambda w: w, "identity")], target
    )
    stream = derive_seed(3, ESTIMATION_METHODS["fejer"].verify_stream)
    seeds = derive_seeds(derive_seed(stream, 100), 0, count=20)
    report = contract_report("fejer", observables, target, [(model, seeds)])
    assert evals.max() == 1.0 and report.pass_sigma and report.pass_beta
    assert report.pass_bound


@settings(max_examples=30, deadline=None)
@given(
    out=st.text(min_size=1, max_size=20),
    workers=st.none() | st.integers(1, 64),
    seed=st.none() | st.integers(0, 2**31),
    trials=st.integers(1, 500),
)
def test_config_hash_ignores_out_and_workers(out, workers, seed, trials):
    base = cli.RunConfig(command="verify", sigma=0.1, delta=0.2, seed=seed, trials=trials)
    moved = cli.RunConfig(
        command="verify", sigma=0.1, delta=0.2, seed=seed, trials=trials, out=out, workers=workers
    )
    assert moved.hash() == base.hash()
    assert cli.RunConfig(command="verify", sigma=0.1, delta=0.2, seed=seed, trials=trials + 1,
                         out=out).hash() != base.hash()


def _golden_argvs():
    """The command lines behind ``tests/test_golden_bytes.py``'s digests."""
    path = Path(__file__).with_name("test_golden_bytes.py")
    spec = importlib.util.spec_from_file_location("golden_bytes", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    transform = ["--sigma", "0.2", "--delta", "0.25", "--gen", "gapped:8", "--seed", "11"]
    return [
        *(["estimate", *argv] for argv, _, _ in golden.ESTIMATES.values()),
        *(["transform", "--method", m, *transform] for m in golden.TRANSFORMS),
        ["plan", "--method", "all", *golden._TARGET],
    ]


@pytest.mark.parametrize("argv", [
    *_golden_argvs(),
    ["verify", "--method", "all", "--sigma", "0.25", "--delta", "0.2", "--gen", "gapped:8",
     "--trials", "7", "--seed", "1", "--workers", "3", "--out", "elsewhere"],
    ["bench"],
])
def test_config_hash_is_hashlibs_sha256(argv):
    cfg = cli._resolve_config(cli._PARSER.parse_args(argv))
    items = sorted((k, v) for k, v in vars(cfg).items()
                   if v is not None and k not in ("out", "workers"))
    blob = "\n".join(f"{k}={v}" for k, v in items).encode()
    assert cfg.hash() == hashlib.sha256(blob).hexdigest()[:12]


def test_config_hash_loads_no_openssl(tmp_path, monkeypatch):
    # hashlib's sha256 is OpenSSL's; the config tag is CPython's own SHA-256
    def refuse(*args, **kwargs):
        raise AssertionError("OpenSSL's sha256 was called")

    monkeypatch.setattr(hashlib, "sha256", refuse)
    try:
        import _hashlib
    except ImportError:  # a CPython built without OpenSSL
        pass
    else:
        monkeypatch.setattr(_hashlib, "openssl_sha256", refuse)
    assert run_cli("plan", "--method", "all", "--sigma", "0.1", "--delta", "0.2",
                   "--out", str(tmp_path / "plan")) == 0
    assert run_cli("estimate", "--method", "git", "--sigma", "0.1", "--delta", "0.2",
                   "--gen", "gapped:8", "--seed", "9", "--out", str(tmp_path / "estimate")) == 0
    assert (tmp_path / "plan" / "plan.json").exists()
    assert (tmp_path / "estimate" / "estimate.csv").exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1", "--gen", "dense:8"],
    ["verify", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1", "--gen", "dense:8",
     "--trials", "2"],
])
def test_each_command_hashes_its_config_once(tmp_path, monkeypatch, argv):
    # estimate's CSV header and record, and verify's report and
    # fault_sweep.csv header, carry the one hash
    calls = []
    hash_config = cli.RunConfig.hash
    monkeypatch.setattr(cli.RunConfig, "hash", lambda cfg: calls.append(cfg) or hash_config(cfg))
    assert run_cli(*argv, "--seed", "1", "--out", str(tmp_path)) == 0
    assert len(calls) == 1
    config = hash_config(calls[0])
    written = {p.name: p.read_text() for p in tmp_path.iterdir()}
    assert len(written) == 2
    for name, text in written.items():
        if name.endswith(".csv"):
            assert f"\n# config: {config}\n" in text
        else:
            assert json.loads(text)["config"] == config


def test_cli_import_leaves_scipy_fft_and_linalg_unloaded():
    # the runtime needs numpy alone: any scipy module would add to every
    # command's start-up time.  numpy.fft and numpy.random are imported by
    # the modules that use them, so a forked op does not import them itself;
    # numpy.polynomial is not used (specden.numerics has its own Clenshaw)
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import specden.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))); "
        "print(sorted(m for m in ('numpy.fft', 'numpy.random') if m in sys.modules)); "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:3] == ["[]", "['numpy.fft', 'numpy.random']", "[]"]


def test_commands_import_no_numpy_or_scipy_module_after_the_cli(tmp_path):
    # every module a command needs, numpy's and the standard library's
    # alike, is loaded by `import specden.cli`, and every regex a command
    # compiles (argparse's nargs patterns) is in re's cache by then, so an op
    # forked right after that import pays for no import or compile of its own
    src = Path(__file__).resolve().parents[1] / "src"
    model = ["--gen", "dense:8", "--seed", "1", "--workers", "1"]
    runs = [
        ["plan", "--method", "all", "--sigma", "0.1", "--delta", "0.2"],
        *(["estimate", "--method", method, "--sigma", "0.1", "--delta", "0.3", "--beta", "0.1", *model]
          for method in ("git", "fejer", "qfejer")),
        ["verify", "--method", "all", "--sigma", "0.25", "--delta", "0.25", "--beta", "0.1",
         "--trials", "4", *model],
    ]
    runs = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(runs)]
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import specden.cli; "
        "import re._compiler as rc; compiled = []; compile_ = rc.compile; "
        "rc.compile = lambda p, flags=0: compiled.append(p) or compile_(p, flags); "
        "before = set(sys.modules); "
        f"codes = [specden.cli.main(argv) for argv in {runs!r}]; "
        "new = sorted(set(sys.modules) - before); "
        "print(codes, new, compiled, file=sys.stderr)"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip().splitlines()[-1] == "[0, 0, 0, 0, 0] [] []"


def test_plan_git_projection_over_cap_exits_4_fast(capsys):
    # the half-width Gaussian's projection would need 1.7e8 nodes
    start = time.perf_counter()
    assert run_cli("plan", "--method", "git", "--sigma", "0.1", "--delta", "1e-6") == 4
    assert time.perf_counter() - start < 5.0
    assert "resource cap" in capsys.readouterr().err


def test_plan_jackson_fine_targets(capsys):
    # k * degree = 59 * 48,000: the window is built by FFTs in O(k * degree) memory
    assert run_cli("plan", "--method", "jackson", "--sigma", "0.1", "--delta", "0.001") == 0
    assert "degree=48000, amplifier_degree=59" in capsys.readouterr().out
    # k * degree ~ 4.2e8 exceeds the grid cap and is refused before allocating
    assert run_cli("plan", "--method", "jackson", "--sigma", "0.1", "--delta", "1e-5") == 4
    assert "resource cap" in capsys.readouterr().err


def test_jackson_profile_is_built_only_where_a_normalization_is_read(tmp_path, monkeypatch, capsys):
    builds = []
    build = kernels._jackson_profile_coeffs

    def counted(k, degree, delta):
        builds.append(k * degree)
        return build(k, degree, delta)

    monkeypatch.setattr(kernels, "_jackson_profile_coeffs", counted)
    assert run_cli("plan", "--method", "all", "--sigma", "0.05", "--delta", "0.01") == 0
    assert (
        "jackson: degree=4800, amplifier_degree=50, tau=0.00026448029621793179, d_min=237247.02155205887, "
        "kn_ok=True, norm_lower=95, norm_upper=160.06773561941048"
    ) in capsys.readouterr().out.splitlines()
    # k * degree = 73 * 480,000: building the profile here takes 11 s and 1.4 GB
    start = time.perf_counter()
    assert run_cli("plan", "--method", "jackson", "--sigma", "0.1", "--delta", "0.0001") == 0
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out.splitlines() == [
        "jackson: degree=480000, amplifier_degree=73, tau=5.5558333472229172e-06, d_min=34849906.930432238, "
        "kn_ok=True, norm_lower=9000, norm_upper=16000.142230598023"
    ]
    assert builds == []
    # 4,001 frequencies x 300 eigenvalues are two blocks of cells, and each
    # reads the normalization: the profile is built once
    assert run_cli(
        "transform", "--method", "jackson", "--sigma", "0.25", "--delta", "0.9", "--grid-spacing", "0.0005",
        "--gen", "spiked:300", "--seed", "5", "--out", str(tmp_path / "t"),
    ) == 0
    assert builds == [8 * 54]


def test_git_commands_build_no_coefficient_table(tmp_path, monkeypatch):
    builds = []

    def counting(build):
        def counted(lam, freqs, order):
            builds.append((build.__name__, np.size(freqs)))
            return build(lam, freqs, order)
        return counted

    monkeypatch.setattr(chebgauss, "_direct_coefficient_table", counting(chebgauss._direct_coefficient_table))
    # the series table is reached through its module and through estimators' import
    series = counting(chebgauss.coefficient_table)
    monkeypatch.setattr(chebgauss, "coefficient_table", series)
    monkeypatch.setattr(estimators, "coefficient_table", series)
    assert run_cli(
        "estimate", "--method", "git", "--sigma", "0.25", "--delta", "0.2",
        "--gen", "dense:8", "--seed", "3", "--out", str(tmp_path / "e"),
    ) == 0
    assert run_cli(
        "verify", "--method", "git", "--sigma", "0.25", "--delta", "0.2",
        "--gen", "dense:6:count=2", "--seed", "5", "--trials", "6",
        "--out", str(tmp_path / "v"), "--workers", "1",
    ) == 0
    # shots are sized and every trial reconstructed from the exact kernel's
    # projection by DCT, with no series table and no direct table over a grid:
    # only projection_cmax's candidate rows are projected (34 rows, where the
    # two commands size their shots on 201 and 5 frequencies)
    assert {name for name, _ in builds} == {"_direct_coefficient_table"}
    assert sum(size for _, size in builds) < 64
    builds.clear()
    # plan still prices the published series table on the contract grid
    assert run_cli("plan", "--method", "git", "--sigma", "0.25", "--delta", "0.2") == 0
    assert builds == [("coefficient_table", 5)]


def test_exit_code_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert run_cli(
        "estimate", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1",
        "--gen", "dense:4", "--seed", "1", "--out", str(blocker / "sub"),
    ) == 5


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_5_without_a_traceback(tmp_path, unbuffered):
    # the reader of stdout is gone before the first line: a buffered stdout
    # fails at main's flush, an unbuffered one at the first print; an error
    # line goes to stderr, so the error keeps its own exit code, also when
    # lines were printed before it
    src = Path(__file__).resolve().parents[1] / "src"
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    target = ["--sigma", "0.2", "--delta", "0.2", "--gen", "dense:8"]
    verify = ["verify", "--method", "fejer", *target, "--trials", "5", "--seed", "1", "--workers", "1"]
    cases = [
        ([*verify, "--out", str(tmp_path)], 5),
        (["estimate", "--method", "fejer", *target, "--out", str(tmp_path)], 2),
        ([*verify, "--out", str(blocker / "sub")], 5),
    ]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": unbuffered}
    for argv, code in cases:
        child = subprocess.Popen([sys.executable, "-m", "specden", *argv], env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        child.stdout.close()
        _, err = child.communicate(timeout=120)
        assert child.returncode == code
        assert "Traceback" not in err


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


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sigma = 0.25\nwavelength = 4\n")
    assert run_cli("plan", "--config", str(cfg), "--delta", "0.1") == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: unknown key 'wavelength'\n"
    # a known key with a value its type refuses is a bad value
    cfg.write_text("sigma = abc\n")
    assert run_cli("plan", "--config", str(cfg), "--delta", "0.1") == 2
    assert capsys.readouterr().err == f"error: {cfg}:1: bad value for sigma: 'abc'\n"


# every option with a value its type reads, in RunConfig's field order
_OPTION_VALUES = {
    "method": "git", "sigma": "0.25", "delta": "0.1", "beta": "0.05", "eta": "0.1",
    "seed": "7", "trials": "3", "grid_spacing": "0.01", "model": "m.txt", "gen": "dense:4",
    "out": "runs/x", "workers": "2", "nu": "0.5", "samples": "9",
}


def _resolve(*argv):
    return cli._resolve_config(cli._PARSER.parse_args(["plan", *argv]))


def test_the_options_are_the_run_config_fields():
    assert [f.name for f in dataclasses.fields(cli.RunConfig)] == ["command", *_OPTION_VALUES]


@pytest.mark.parametrize("key", list(_OPTION_VALUES))
def test_config_file_keys_resolve_as_their_flags(tmp_path, key):
    value = _OPTION_VALUES[key]
    flag = _resolve("--" + key.replace("_", "-"), value)
    assert getattr(flag, key) is not None
    for spelling in {key, key.replace("_", "-")}:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{spelling} = {value}\n")
        assert _resolve("--config", str(cfg)) == flag


@pytest.mark.parametrize("key, low", [("seed", 0), ("trials", 1), ("workers", 1), ("samples", 1)])
def test_a_value_below_its_bound_reads_the_same_from_a_file_and_a_flag(tmp_path, capsys, key, low):
    target = ["plan", "--sigma", "0.25", "--delta", "0.1"]
    assert run_cli(*target, "--" + key, str(low - 1)) == 2
    from_flag = capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {low - 1}\n")
    assert run_cli(*target, "--config", str(cfg)) == 2
    assert capsys.readouterr().err == from_flag == f"error: {key} must be >= {low}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--sigma", "abc", "--delta", "0.1"],
        ["plan", "--method", "wavelet", "--sigma", "0.1", "--delta", "0.1"],
        ["plan", "--sigma", "0.1", "--delta", "0.1", "--wavelength", "4"],
        [],
    ],
    ids=["bad-float", "bad-method", "unknown-flag", "no-subcommand"],
)
def test_parse_errors_are_one_stderr_line(capsys, argv):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["plan", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: specden")


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
    # below the model count every model still runs one trial
    assert run_cli(
        "verify", "--method", "fejer", "--sigma", "0.25", "--delta", "0.25",
        "--gen", "dense:8:count=3", "--trials", "2", "--seed", "1",
        "--out", str(out), "--workers", "1",
    ) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["reports"]["fejer"]["n_trials"] == 3


def test_verify_workers_deterministic(tmp_path):
    # --workers is accepted and ignored: every count writes the same reports
    for method in ("fejer", "all"):
        common = [
            "verify", "--method", method, "--sigma", "0.25", "--delta", "0.1",
            "--gen", "dense:6:count=2", "--seed", "17", "--trials", "4",
        ]
        w1, w2 = tmp_path / f"{method}1", tmp_path / f"{method}2"
        assert run_cli(*common, "--workers", "1", "--out", str(w1)) == 0
        assert run_cli(*common, "--workers", "2", "--out", str(w2)) == 0
        for name in ("verify_report.json", "fault_sweep.csv"):
            assert (w1 / name).read_bytes() == (w2 / name).read_bytes()
        report = json.loads((w1 / "verify_report.json").read_text())
        assert set(report["reports"]) == ({"fejer"} if method == "fejer" else {"fejer", "git"})


@pytest.mark.parametrize("command", [["estimate", "--method", "fejer", "--seed", "1"],
                                     ["transform", "--method", "git", "--seed", "1"]])
def test_one_model_commands_draw_only_the_first_model(tmp_path, monkeypatch, command):
    # draw i reads the seed (seed, 500 + i) alone, so the first of 300,000
    # draws is the one draw of count=1
    calls = []
    draw = cli.random_spectrum
    monkeypatch.setattr(cli, "random_spectrum", lambda *a, **k: calls.append(a) or draw(*a, **k))
    rows = []
    for gen in ("dense:8:count=300000", "dense:8"):
        out = tmp_path / gen.replace(":", "_")
        assert run_cli(*command, "--sigma", "0.2", "--delta", "0.25", "--gen", gen, "--out", str(out)) == 0
        (csv,) = out.glob("*.csv")
        rows.append([line for line in csv.read_text().splitlines() if not line.startswith("# config")])
    assert len(calls) == 2
    assert rows[0] == rows[1]


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


def test_estimate_git_nu_outside_the_kernel_names_the_grid(tmp_path, capsys):
    # at nu = 5 every coefficient of the Gaussian's projection underflows to 0:
    # the error says that no requested frequency sees the kernel, and where
    argv = ["estimate", "--method", "git", "--sigma", "0.1", "--delta", "0.1", "--gen", "gapped:4",
            "--seed", "1", "--out", str(tmp_path)]
    assert run_cli(*argv, "--nu", "5") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no requested frequency sees the kernel")
    assert "nu = 5" in err
    assert "coefficient table" not in err
    assert not (tmp_path / "estimate.csv").exists()
    assert run_cli(*argv, "--nu", "-7.5") == 2
    assert "nu = -7.5" in capsys.readouterr().err


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # the parser is built when specden.cli is imported; every main call,
    # including one that fails validation, parses with that one parser
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(parser, *args, **kwargs):
        parsers.append(parser)
        return parse_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    monkeypatch.setattr(cli, "_build_parser", lambda: pytest.fail("parser rebuilt"))
    assert run_cli("plan", "--method", "fejer", "--sigma", "0.25", "--delta", "0.1") == 0
    assert run_cli("plan", "--method", "fejer", "--sigma", "1.5", "--delta", "0.1") == 2
    assert len(parsers) == 2 and parsers[0] is parsers[1] is cli._PARSER
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["spiked", "gapped"])
def test_per_eigenvalue_estimate_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, kind):
    # n = 256 bins and K = 64 eigenvalues against 185 shots: the histogram is
    # drawn per eigenvalue, with no BLAS reduction on the way to estimate.csv
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["estimate", "--method", "fejer", "--sigma", "0.1", "--delta", "0.05", "--beta", "0.1",
            "--gen", f"{kind}:64", "--seed", "1"]
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-m", "specden", *argv, "--out", str(out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "drew 185 shots per eigenvalue (n=256, K=64 peaks)" in done.stdout
        written.append((out / "estimate.csv").read_bytes())
    assert written[0] == written[1]


def test_estimate_names_the_route_of_its_histogram(tmp_path, capsys):
    target = ["--sigma", "0.1", "--delta", "0.2", "--beta", "0.1", "--seed", "5"]
    assert run_cli("estimate", "--method", "qfejer", *target, "--gen", "spiked:16",
                   "--out", str(tmp_path)) == 0
    assert "drew 185 shots per eigenvalue (n=256, K=32 peaks)" in capsys.readouterr().out
    assert run_cli("estimate", "--method", "fejer", *target, "--gen", "gapped:16",
                   "--out", str(tmp_path)) == 0
    assert "drew 185 shots from the n-bin distribution (n=64, K=16 peaks)" in capsys.readouterr().out
    assert run_cli("estimate", "--method", "git", *target, "--gen", "gapped:16",
                   "--out", str(tmp_path)) == 0
    assert "drew" not in capsys.readouterr().out


@pytest.mark.parametrize("gen", ["spiked:8:count=2", "spiked:64"])
@pytest.mark.parametrize("argv", [
    ("verify", "--method", "all", "--trials", "5", "--workers", "1"),
    ("estimate", "--method", "fejer"),
    ("estimate", "--method", "qfejer"),
    ("transform", "--method", "fejer"),
    ("transform", "--method", "qfejer"),
])
def test_histogram_commands_never_evaluate_a_discrete_kernel(tmp_path, argv, gen):
    # the outcome distribution is the histogram methods' one exact route, for the
    # n-bin draws (spiked:8) and the per-eigenvalue draws (spiked:64, n = 256)
    # alike: a discrete kernel has no value to evaluate, and sigma_accuracy sums
    # fejer_eval over its windows itself
    assert not any(hasattr(k, "value") for k in (kernels.FejerKernel, kernels.QubitizedFejerKernel))
    assert run_cli(*argv, "--sigma", "0.1", "--delta", "0.05", "--beta", "0.1", "--gen", gen,
                   "--seed", "3", "--out", str(tmp_path)) == 0
