"""The benchmark's artifact checks, run on one small op per command and method.

``perfbench/checks.py`` judges the artifacts of every op of a benchmark
run.  These tests load it and the op type of ``perfbench/workloads.py``
by path, run small ops through ``specden.cli.main`` as the benchmark's
op server does, and hand the artifacts to ``checks.check``.  A change
that the benchmark would refuse then fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from specden import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
Op = _load("workloads").Op

# beta = 0.01 for the histograms, as in the fejer_histogram workload, so the
# goodness-of-fit check can tell a wrong histogram from shot noise
OPS = {
    "plan-all": Op("plan", "all", 0.01, 0.25),
    "estimate-fejer": Op("estimate", "fejer", 0.1, 0.2, 0.01, "spiked", 16, seed=5),
    "estimate-qfejer": Op("estimate", "qfejer", 0.1, 0.2, 0.01, "gapped", 16, seed=5),
    "estimate-git": Op("estimate", "git", 0.1, 0.25, 0.1, "dense", 16, seed=5),
    "verify-all": Op("verify", "all", 0.25, 0.25, 0.1, "dense", 8, count=2, trials=50, seed=5),
}


@pytest.mark.parametrize("name", list(OPS))
def test_benchmark_checks_accept_the_artifacts_of_a_small_op(tmp_path, name):
    # an op that exits nonzero or whose artifacts fail a check is a failed op
    # of the benchmark; its re-run must write the same bytes
    op = OPS[name]
    digests = []
    for out in (tmp_path / "first", tmp_path / "again"):
        assert cli.main(op.argv(str(out))) == 0
        digests.append(checks.check(op, out).digest)
    assert digests[0] == digests[1]
