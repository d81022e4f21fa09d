"""Golden bytes of the command line's artifacts.

Each case runs one command in process and pins the sha256 of what it
writes: `estimate.csv` and `estimate_record.json` (without `elapsed_s`)
for every estimation method, `transform.csv` for every method,
`plan.json` for ``--method all`` and the ``reports`` section of
``verify --method all``.  The models are ``gapped`` and ``spiked``, whose
spectrum is drawn rather than solved, so no byte depends on LAPACK.
A refactor that keeps these hashes writes the same artifacts.
"""

import hashlib
import json

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
        "0d4c26928c2a1c3abed1522d2b4e1d9626132f6fef80f2415365c0a9b5736671",
        "113262157934bc8dddb5bf096e6797fe0211b5fece5c7742063540b9e70c06c0",
    ),
    "fejer-spiked-samples": (
        ["--method", "fejer", *_TARGET, "--gen", "spiked:24", "--seed", "4", "--samples", "999"],
        "14b16914d963d81f278c68b82070c5844065d37b9b470074f130cb6028957f44",
        "920d6fea5ebdcd9290d378eb3239bab89a7f60395dc1e6ac4078f27ace422554",
    ),
    "qfejer-spiked": (
        ["--method", "qfejer", *_TARGET, "--gen", "spiked:16", "--seed", "5"],
        "f59dfa5546cbc02b928fef36aee898a04f862e82d5edee3072be154527b985e4",
        "a222ac3ee451f8983bf8ce4fc6730e95a7b7a01fda488a847c13af788a3f0c20",
    ),
    "qfejer-gapped-samples": (
        ["--method", "qfejer", *_TARGET, "--gen", "gapped:12", "--seed", "6", "--samples", "777"],
        "193a0c69ae8612c026cd0bd545d97e6118743855e7a98a4ed9d88274ce8ef46d",
        "6bda20ca741a7defc587dab9c81126aa065c47d6cbb59ff13cfd56871a8b1da9",
    ),
    "git-spiked": (
        ["--method", "git", *_TARGET, "--gen", "spiked:16", "--seed", "7"],
        "97307fb0053357e223015b0a7d98852d33d94254ebe2a3dcb7d33ab924cec33c",
        "8e98127879aa242102938e48bec8db81b20e2a56118ce2a4332021f18322cbba",
    ),
    "git-gapped-samples": (
        ["--method", "git", *_TARGET, "--gen", "gapped:16", "--seed", "8", "--samples", "50000"],
        "baa93439a427501b2a87c6ffd34e95d9d53510ae8628ccbd42d876ef5542f301",
        "f76859de17fa81617a7e53f9b69048f52639fd81d82e1fe0cbfea476e86e3589",
    ),
    "git-gapped-nu": (
        ["--method", "git", *_TARGET, "--gen", "gapped:8", "--seed", "9", "--nu", "-0.35"],
        "2e0cf07c65539d84f5880045781e1f52d5520c2ff1cbab0ca4544eeaa2e288cc",
        "619b075f62e6db27764bccaf8e5021b4678f55c232b21a584e96e7e54cc6cebe",
    ),
    # a fine target: the 1,335-point default grid, where the shot sizing
    # transforms few of the frequency rows
    "git-spiked-fine": (
        ["--method", "git", "--sigma", "0.1", "--delta", "0.03", "--beta", "0.1",
         "--gen", "spiked:32", "--seed", "10"],
        "927e12a9f993c999d3d4e9212ecf04cb0d9fe062f55298bffcdc8edea8cb3491",
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
    "fejer": "3f0f91cdae92ca6b872fc4e09003546529b5df67ed60915d8ed210ebe61117f2",
    "qfejer": "1abb96ea7889755266b2059c4127df7ffb282aa1d0b9005a7b63fe08480242dc",
    "git": "cca5fa8ab27f42e0d2e36645284cc761ab3da2e22e45d4babc78abd8efc2b527",
    "jackson": "d8500b4c0ae310ec2da68aaf482664a4beb5caf839f5d8da6f98b7f38ed92664",
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


def test_verify_reports_bytes(tmp_path):
    _run(tmp_path, "verify", "--method", "all", "--sigma", "0.25", "--delta", "0.2",
         "--gen", "spiked:8:count=2", "--trials", "12", "--seed", "13", "--workers", "1")
    reports = json.loads((tmp_path / "verify_report.json").read_text())["reports"]
    assert _sha(json.dumps(reports, indent=2, sort_keys=True)) == (
        "fd21609c361d219d16b789a0a7f8bda79893ee27e3884aed69919c5a717e2663"
    )
