"""Golden bytes of the command line's artifacts.

Each case runs one command and pins the sha256 of what it writes (in
process, except ``verify``, which runs in a fresh process at one and two
BLAS threads): `estimate.csv` and `estimate_record.json` (without `elapsed_s`)
for every estimation method, `transform.csv` for every method,
`plan.json` for ``--method all``, and the ``reports``, ``fault_sweep``
and ``simulator_check`` sections of ``verify --method all`` with its
`fault_sweep.csv`.  The models are mostly ``gapped`` and
``spiked``, whose spectrum is drawn rather than solved, so their bytes
depend on no LAPACK routine; the ``dense`` case's eigenvalues come from
LAPACK's symmetric eigensolver (``eigvalsh``).  A refactor that keeps
these hashes writes the same artifacts.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from specden.cli import main

_TARGET = ["--sigma", "0.1", "--delta", "0.2", "--beta", "0.1"]


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _run(tmp_path, *argv) -> None:
    assert main([*argv, "--out", str(tmp_path)]) == 0


ESTIMATES = {
    "fejer-gapped": (
        ["--method", "fejer", *_TARGET, "--gen", "gapped:16", "--seed", "3"],
        "d382559daa6e215fcee9fa6980404df99035fd0e9d195a2f36b0bb0321134846",
        "113262157934bc8dddb5bf096e6797fe0211b5fece5c7742063540b9e70c06c0",
    ),
    "fejer-spiked-samples": (
        ["--method", "fejer", *_TARGET, "--gen", "spiked:24", "--seed", "4", "--samples", "999"],
        "99e8cfab4e5de08f1a780b793615e4cb971e2b993d0dd06ee2b787c45af07496",
        "920d6fea5ebdcd9290d378eb3239bab89a7f60395dc1e6ac4078f27ace422554",
    ),
    "qfejer-spiked": (
        ["--method", "qfejer", *_TARGET, "--gen", "spiked:16", "--seed", "5"],
        "ae387a99776c202d04034197fb5ddc6ae362d300750a67712f78a8b2c3c02195",
        "a222ac3ee451f8983bf8ce4fc6730e95a7b7a01fda488a847c13af788a3f0c20",
    ),
    "qfejer-gapped-samples": (
        ["--method", "qfejer", *_TARGET, "--gen", "gapped:12", "--seed", "6", "--samples", "777"],
        "34370ca9ea35826804799b3d521dfc3e09df37b292fe345cd100b5cb041f6ea4",
        "6bda20ca741a7defc587dab9c81126aa065c47d6cbb59ff13cfd56871a8b1da9",
    ),
    "git-spiked": (
        ["--method", "git", *_TARGET, "--gen", "spiked:16", "--seed", "7"],
        "78fdf3eeacb6c86e9e132498a49060f38dc289e78a8aeeee8e657f561743106e",
        "8e98127879aa242102938e48bec8db81b20e2a56118ce2a4332021f18322cbba",
    ),
    "git-gapped-samples": (
        ["--method", "git", *_TARGET, "--gen", "gapped:16", "--seed", "8", "--samples", "50000"],
        "0bd5b3fbccbce4db463ac14090512fb39f8a23122f4929a69e2fccf4933cb0fe",
        "f76859de17fa81617a7e53f9b69048f52639fd81d82e1fe0cbfea476e86e3589",
    ),
    "git-gapped-nu": (
        ["--method", "git", *_TARGET, "--gen", "gapped:8", "--seed", "9", "--nu", "-0.35"],
        "d154e10b6d411ad8eec65132a1930eae1e516a13bb69512fc9ece720813f07fd",
        "619b075f62e6db27764bccaf8e5021b4678f55c232b21a584e96e7e54cc6cebe",
    ),
    "fejer-dense": (
        ["--method", "fejer", *_TARGET, "--gen", "dense:16", "--seed", "12"],
        "73f38007bbce7cea5ff6fc7dc2ef27c8ff2cfca24a7bc1449366eaded8d37385",
        "95ca1f766a2c217662c96d229c1c9efd5013fcaf28aa7d95df5d371d06eca2a7",
    ),
    # a fine target: the 1,335-point default grid, where the shot sizing
    # transforms few of the frequency rows
    "git-spiked-fine": (
        ["--method", "git", "--sigma", "0.1", "--delta", "0.03", "--beta", "0.1",
         "--gen", "spiked:32", "--seed", "10"],
        "a0a47b11bf36ce977a02a35d35cf1564028ffe5070b1e3923654d4a9e895c4dc",
        "775cf3f80794370f3bb865225d206d436c8b924934e51a41fe416f2ab6b934b6",
    ),
}


@pytest.mark.parametrize("case", sorted(ESTIMATES))
def test_estimate_bytes(tmp_path, case):
    argv, csv_sha, record_sha = ESTIMATES[case]
    _run(tmp_path, "estimate", *argv)
    record = json.loads((tmp_path / "estimate_record.json").read_text())
    del record["elapsed_s"]
    got = (
        _sha((tmp_path / "estimate.csv").read_bytes()),
        _sha(json.dumps(record, indent=2, sort_keys=True)),
    )
    assert got == (csv_sha, record_sha)


TRANSFORMS = {
    "fejer": "90616bf8640afb0603ef0b18995e67bda86053b36021f8a80aafae0ba0adc108",
    # the mirror-merged exact reference on the recovered frequencies, as its estimate
    "qfejer": "a7d11513f8c6cd6bbd8873fd59d75d4b8cb064039d6b83560a1a0930775940a7",
    "git": "2f6907b089804e521da93da2e7016f524491a48a81ef44327edddf88155f8067",
    "jackson": "04dcf811082c990793580393413e21a7edce792c2cb3b10d842c7f4ec54b3cd7",
}


@pytest.mark.parametrize("method", sorted(TRANSFORMS))
def test_transform_bytes(tmp_path, method):
    _run(tmp_path, "transform", "--method", method, "--sigma", "0.2", "--delta", "0.25",
         "--gen", "gapped:8", "--seed", "11")
    assert _sha((tmp_path / "transform.csv").read_bytes()) == TRANSFORMS[method]


def test_plan_bytes(tmp_path):
    _run(tmp_path, "plan", "--method", "all", *_TARGET)
    assert _sha((tmp_path / "plan.json").read_bytes()) == (
        "f1731076502ca22edc221b4ff00c2bb814dd1392562fed770f258d3969c161fd"
    )


# the sha256 of each part of one `verify --method all` run: the contract
# reports, the fault rows, the simulator cross-check and fault_sweep.csv
VERIFY = {
    "reports": "79f088a1b0b65f2163eda55863497b50dae2e87b23788bee0d8fc690f607dc5b",
    "fault_sweep": "915e4779892b3fae771429f596add8b41252e4cc11bfbc40259d45eae6b5e278",
    "simulator_check": "e89a5643f195fb9a46544eaa81777765deb667aa2783cf902e42a3c5460782a4",
    "fault_sweep.csv": "f1137b201a9cad0887a2ae49d7285c0fe70fd101dd323b1432da6a5a612175f8",
}


def test_verify_reports_bytes(tmp_path):
    # run in a fresh process at one and two BLAS threads: the fault-free
    # register and the mixture it is checked against keep their bits
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["verify", "--method", "all", "--sigma", "0.25", "--delta", "0.2",
            "--gen", "spiked:8:count=2", "--trials", "12", "--seed", "13", "--workers", "1"]
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-m", "specden", *argv, "--out", str(out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        report = json.loads((out / "verify_report.json").read_text())
        got = {key: _sha(json.dumps(report[key], indent=2, sort_keys=True))
               for key in ("reports", "fault_sweep", "simulator_check")}
        got["fault_sweep.csv"] = _sha((out / "fault_sweep.csv").read_bytes())
        assert got == VERIFY, threads
