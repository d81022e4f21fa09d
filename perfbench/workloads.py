"""Operation lists of the four benchmark workloads.

A pass runs every op of a workload's list once; every pass of a run
runs the same ops.  The seed draws only their order and each op's
``--seed`` (``plan`` takes none), so every seed asks for the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

WORKLOADS = ("git_moments", "fejer_histogram", "verify_contract", "planner")


@dataclass(frozen=True)
class Op:
    """One CLI invocation; `seed` is None for commands that take none."""

    command: str
    method: str
    sigma: float
    delta: float
    beta: float | None = None
    kind: str | None = None
    dim: int | None = None
    count: int = 1
    trials: int | None = None
    seed: int | None = None
    ground_weight: float | None = None

    @property
    def key(self) -> str:
        """Command and method; the determinism re-run covers one op per key."""
        return f"{self.command}/{self.method}"

    def argv(self, out: str) -> list[str]:
        argv = [self.command, "--method", self.method,
                "--sigma", repr(self.sigma), "--delta", repr(self.delta)]
        if self.beta is not None:
            argv += ["--beta", repr(self.beta)]
        if self.kind is not None:
            argv += ["--gen", self.gen()]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        if self.trials is not None:
            argv += ["--trials", str(self.trials)]
        return argv + ["--workers", "1", "--out", out]

    def gen(self) -> str:
        params = []
        if self.count > 1:
            params.append(f"count={self.count}")
        if self.ground_weight is not None:
            params.append(f"ground_weight={self.ground_weight!r}")
        return ":".join([self.kind, str(self.dim)] + ([",".join(params)] if params else []))

    def describe(self) -> str:
        model = f" {self.gen()}" if self.kind else ""
        beta = "" if self.beta is None else f",{self.beta:g}"
        return f"{self.key} ({self.sigma:g},{self.delta:g}{beta}){model}"


def _git(sigma, delta, beta, kind, dim, ground_weight=None):
    return Op("estimate", "git", sigma, delta, beta, kind, dim, ground_weight=ground_weight)


def _fejer(method, sigma, delta, kind, dim):
    return Op("estimate", method, sigma, delta, _FEJER_BETA, kind, dim)


def _verify(sigma, delta, beta, kind, dim, count, trials):
    return Op("verify", "all", sigma, delta, beta, kind, dim, count, trials)


_KINDS = ("dense", "spiked", "gapped")
_GOLDEN = (5**0.5 - 1) / 2
_SIGMAS = (0.01, 0.014, 0.02, 0.029, 0.042, 0.06, 0.085, 0.12, 0.18, 0.25)
# Histogram ops ask for beta = 0.01 (18,444 samples) so the goodness-of-fit
# check in checks.py can tell a wrong histogram from shot noise.
_FEJER_BETA = 0.01

# Each list has a lower block of like-cost ops, which holds op_s.p50,
# and a heavy tier, 1.7 to 40 times as costly, which holds op_s.tail: a
# run of two passes has 16 or more heavy ops, ten of them above the tail.
_SPECS: dict[str, list[Op]] = {
    # Lower block: the asymptotic regime, and (0.1, 0.1), where the
    # published order misses beta even without shot noise; the gapped
    # model with 99% of its weight on one eigenvalue shows the miss in
    # err_over_beta.  Heavy: delta <= 0.05, F = 801 .. 2001 grid points.
    "git_moments": [
        _git(0.1, 0.5, 1e-6, "dense", 32),
        _git(0.05, 0.4, 1e-6, "gapped", 128),
        _git(0.1, 0.3, 1e-6, "spiked", 128),
        *(_git(0.1, 0.1, beta, kind, dim)
          for beta in (0.05, 0.1) for kind in _KINDS for dim in (32, 128)),
        _git(0.1, 0.1, 0.05, "gapped", 128, ground_weight=0.99),
        *(_git(0.1, 0.05, 0.1, kind, dim) for kind in _KINDS for dim in (32, 64, 128)),
        _git(0.1, 0.04, 0.1, "dense", 64),
        _git(0.1, 0.03, 0.1, "spiked", 128),
        _git(0.1, 0.02, 0.1, "gapped", 64),
    ],
    # n = 2^13 .. 2^16.  Lower block: fejer at dim 128 and n = 2^13 ..
    # 2^14, up to 2^21 kernel cells.  Heavy: fejer at 2^22 cells (dim 256
    # and 512), qfejer at dim 256, and (qfejer, 0.01, 0.01, dim 256) at
    # 2^24 cells, about 0.8 GB, the workload's peak.
    "fejer_histogram": [
        *(_fejer("fejer", s, d, kind, 128)
          for s, d in ((0.02, 0.01), (0.01, 0.02), (0.015, 0.015), (0.015, 0.01),
                       (0.012, 0.015))
          for kind in _KINDS),
        _fejer("fejer", 0.01, 0.015, "dense", 128),
        *(_fejer("fejer", s, d, kind, 256)
          for s, d in ((0.01, 0.01), (0.02, 0.005), (0.005, 0.02)) for kind in _KINDS[:2]),
        _fejer("fejer", 0.01, 0.01, "gapped", 256),
        _fejer("qfejer", 0.02, 0.02, "spiked", 256),
        _fejer("qfejer", 0.02, 0.02, "dense", 256),
        _fejer("fejer", 0.02, 0.01, "gapped", 512),
        _fejer("qfejer", 0.01, 0.01, "dense", 256),
    ],
    # Lower block: delta >= 0.2.  Heavy: delta = 0.1, and 200 trials.
    # delta = 0.05 is left out: one op takes about 10 s.
    "verify_contract": [
        _verify(0.25, 0.25, 0.1, "dense", 8, 2, 50),
        _verify(0.05, 0.25, 0.1, "gapped", 16, 3, 50),
        _verify(0.1, 0.25, 0.05, "spiked", 32, 2, 50),
        _verify(0.25, 0.2, 0.1, "gapped", 8, 4, 50),
        _verify(0.1, 0.2, 0.1, "spiked", 8, 2, 50),
        *(_verify(0.2, 0.25, 0.1, _KINDS[i % 3], 16, 2, 50) for i in range(9)),
        *(_verify(0.2, 0.1, 0.1, _KINDS[i % 3], 16, 2, 50) for i in range(7)),
        _verify(0.25, 0.15, 0.1, "gapped", 8, 2, 200),
    ],
    # Log-spaced sigma in [0.01, 0.25].  Lower block: delta >= 0.063.
    # Heavy: delta <= 0.04, where the Jackson plan dominates; (0.05, 0.01)
    # is the largest allocation in the package (the cos(n theta) matrix of
    # the degree-4800 Jackson tent).
    "planner": [
        *(Op("plan", "all", sigma, delta)
          for delta in (0.25, 0.16) for sigma in (0.01, 0.09, 0.25)),
        *(Op("plan", "all", sigma, 0.063) for sigma in _SIGMAS),
        *(Op("plan", "all", sigma, 0.04) for sigma in _SIGMAS),
        Op("plan", "all", 0.1, 0.025),
        Op("plan", "all", 0.05, 0.01),
    ],
}


def pass_ops(workload: str, seed: int) -> list[Op]:
    """The ops of one pass, in the order the pass runs them.

    Op j of the list runs at position ``frac(j * golden + u)`` with `u`
    drawn from the seed.  Neighbours in the list, which are ops of like
    cost, land evenly spread over the pass, so each tier samples the
    whole run rather than a stretch of it.
    """
    rng = random.Random(f"{workload}:{seed}")
    ops = [op if op.command == "plan" else replace(op, seed=rng.randrange(1, 2**31))
           for op in _SPECS[workload]]
    shift = rng.random()
    return [op for _, op in sorted(((j * _GOLDEN + shift) % 1.0, op)
                                   for j, op in enumerate(ops))]


def warmup_op(workload: str, seed: int) -> Op:
    """An untimed op that loads the interpreter, numpy and scipy from disk."""
    first = _SPECS[workload][0]
    return first if first.command == "plan" else replace(first, seed=seed)

