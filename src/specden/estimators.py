"""Estimation pipelines built on the measurement simulators.

Two pipelines produce broadened-transform estimates with explicit
sample budgets:

* the histogram route: sample the phase-estimation outcome distribution
  (plain or folded) and return empirical frequencies on the kernel
  grid.  A Hoeffding budget guarantees the per-bin error `beta` with
  confidence ``1 - eta``; a hardware-fault variant doubles the exponent
  and prescribes the tolerable per-step fault size.
* the moment route: estimate Chebyshev spectral moments with a
  Hadamard test per order, then combine with shifted Gaussian
  coefficients.  The per-order shot count comes from the actual
  coefficient magnitudes, with a coefficient-agnostic fallback bound.

:func:`complexity_table` tabulates planned resources across accuracy
targets for the implemented methods, next to an analytic row for the
textbook phase-estimation-with-amplification approach, which is costed
from its stated scaling but not implemented.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .chebgauss import (
    cheb_moments,
    coefficient_table,
    git_transform_from_moments,
    truncation_order,
)
from .errors import ValidationError
from .kernels import (
    AccuracyTarget,
    FejerKernel,
    QubitizedFejerKernel,
    fejer_plan,
    gaussian_resolution,
)
from .numerics import child_rng
from .operators import (
    AffineMap,
    HermitianOperator,
    ProbeState,
    SpectralModel,
    TransformGrid,
    diagonalize,
)
from .sampling import (
    FaultModel,
    hadamard_test_sample,
    qpe_distribution,
    qubitized_qpe_distribution,
    statevector_qpe,
)

__all__ = [
    "METHODS",
    "Budget",
    "EstimationResult",
    "plan_fejer_samples",
    "plan_git_samples",
    "run_algorithm1",
    "run_algorithm2",
    "complexity_table",
]

METHODS = ("fejer", "qubitized_fejer", "git")


@dataclass(frozen=True)
class Budget:
    """Planned resources for one estimation run.

    `kernel_order` is the grid size for the histogram methods and the
    expansion order for the moment method; `n_samples` is the total
    measurement count.  The moment method satisfies ``n_samples =
    kernel_order * per_order_shots`` and carries the kernel width in
    `lam`.  `delta_t` is the per-step fault size a faulty-hardware
    budget tolerates.
    """

    method: str
    kernel_order: int
    n_samples: int
    lam: float | None = None
    per_order_shots: int | None = None
    delta_t: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.kernel_order < 1 or self.n_samples < 1:
            raise ValidationError("kernel_order and n_samples must be positive")
        if self.method == "git":
            if self.per_order_shots is None or self.lam is None:
                raise ValidationError("git budgets need per_order_shots and lam")
            if self.n_samples != self.kernel_order * self.per_order_shots:
                raise ValidationError(
                    "git budget inconsistent: n_samples must equal "
                    "kernel_order * per_order_shots"
                )
        if self.delta_t is not None and not (self.delta_t >= 0.0):
            raise ValidationError(f"delta_t must be nonnegative, got {self.delta_t!r}")


@dataclass(frozen=True)
class EstimationResult:
    """Transform estimate together with the budget and seed that produced it."""

    transform: TransformGrid
    budget: Budget
    seed: int
    elapsed: float
    moments: np.ndarray | None = None


def plan_fejer_samples(
    beta: float, eta: float, faulty: bool = False, n: int | None = None
) -> int | tuple[int, float]:
    """Hoeffding sample budget for per-bin accuracy `beta`, confidence ``1 - eta``.

    The ideal-hardware budget is ``ceil(ln(2/eta) / (2 beta^2))``.  With
    faulty controlled evolutions half of `beta` is reserved for the
    coherent error, which quadruples the statistical budget to
    ``ceil(2 ln(2/eta) / beta^2)`` and bounds the per-step fault size by
    ``delta_t = beta / (2 log2 n)``; that variant returns the pair
    ``(n_samples, delta_t)`` and requires the grid size `n`.
    """
    if not (0.0 < beta < 1.0):
        raise ValidationError(f"beta must lie in (0, 1), got {beta!r}")
    if not (0.0 < eta < 1.0):
        raise ValidationError(f"eta must lie in (0, 1), got {eta!r}")
    if not faulty:
        return math.ceil(math.log(2.0 / eta) / (2.0 * beta**2))
    if n is None or n < 2:
        raise ValidationError("the faulty-hardware budget needs the grid size n >= 2")
    n_samples = math.ceil(2.0 * math.log(2.0 / eta) / beta**2)
    delta_t = beta / (2.0 * math.log2(n))
    return n_samples, delta_t


def plan_git_samples(
    order: int,
    coeffs: np.ndarray,
    beta: float,
    eta: float,
    half_mode: bool = True,
) -> tuple[int, int, int]:
    """Per-order and total shot counts for the moment pipeline.

    Each of the `order` estimated moments gets
    ``ceil(2 ln(2/eta) (order * c_max / beta)^2)`` shots, where `c_max`
    is the largest coefficient magnitude over all requested frequencies
    and orders.  Also returns the coefficient-agnostic budget
    ``ceil(2 order^3 (1 + 2.2/beta)^2 ln(2/eta))``, an upper bound on
    the total whenever the coefficients obey the half-interval bound
    (asserted when `half_mode`).

    Returns
    -------
    (per_order, total, loose) : tuple of int
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order!r}")
    if not (0.0 < beta < 1.0):
        raise ValidationError(f"beta must lie in (0, 1), got {beta!r}")
    if not (0.0 < eta < 1.0):
        raise ValidationError(f"eta must lie in (0, 1), got {eta!r}")
    c_max = float(np.max(np.abs(np.asarray(coeffs, dtype=float))))
    if not math.isfinite(c_max) or c_max <= 0.0:
        raise ValidationError(f"coefficient table has no usable magnitude ({c_max!r})")
    per_order = math.ceil(2.0 * math.log(2.0 / eta) * (order * c_max / beta) ** 2)
    total = order * per_order
    loose = math.ceil(2.0 * order**3 * (1.0 + 2.2 / beta) ** 2 * math.log(2.0 / eta))
    if half_mode and c_max <= beta + 2.2 and total > loose:
        raise ValidationError(
            f"coefficient-aware total {total} exceeds the agnostic bound {loose}"
        )
    return per_order, total, loose


def _merge_mirror_bins(
    grid: np.ndarray, values: np.ndarray, amap: AffineMap
) -> tuple[np.ndarray, np.ndarray]:
    """Fold ``+-sigma`` outcome pairs onto recovered frequencies.

    Outcomes at `sigma` and `-sigma` recover the same frequency
    ``cos(pi sigma)``; their masses are summed and the result is mapped
    back through the inverse of `amap` and sorted ascending.
    """
    keys = np.round(np.abs(grid) * grid.size / 2.0).astype(int)
    uniq, inverse = np.unique(keys, return_inverse=True)
    merged = np.zeros(uniq.size)
    np.add.at(merged, inverse, values)
    omega_unit = np.cos(np.pi * (2.0 * uniq / grid.size))
    omega = np.asarray(amap.invert(omega_unit), dtype=float)
    order = np.argsort(omega)
    return omega[order], merged[order]


def run_algorithm1(
    budget: Budget,
    seed: int,
    model: SpectralModel | None = None,
    op: HermitianOperator | None = None,
    psi: ProbeState | None = None,
    fault: FaultModel | None = None,
    spectrum_map: AffineMap | None = None,
) -> EstimationResult:
    """Histogram estimate of the broadened transform.

    Draws ``budget.n_samples`` outcomes from the phase-estimation
    distribution and returns empirical bin frequencies.  The
    distribution comes from an explicit spectral `model` or from an
    ``(op, psi)`` pair; a `fault` forces the statevector route and
    therefore needs the pair.  For ``method="qubitized_fejer"`` the
    spectrum must be mapped into [0, 1] by `spectrum_map` (applied here;
    recovered frequencies are mapped back through its inverse, with
    mirror outcome bins merged).
    """
    if budget.method not in ("fejer", "qubitized_fejer"):
        raise ValidationError(f"histogram route does not implement {budget.method!r}")
    have_pair = op is not None and psi is not None
    if model is None and not have_pair:
        raise ValidationError("provide either a spectral model or an (op, psi) pair")
    start = time.perf_counter()
    n = budget.kernel_order
    n_anc = n.bit_length() - 1
    if n < 2 or 2**n_anc != n:
        raise ValidationError(f"histogram grid size must be a power of two >= 2, got {n}")
    if budget.method == "fejer":
        if fault is not None and fault.delta_t > 0.0:
            if not have_pair:
                raise ValidationError("the faulty statevector route needs op and psi")
            dist = statevector_qpe(op, psi, n_anc, fault=fault)
        else:
            if model is None:
                model = diagonalize(op, psi)
            dist = qpe_distribution(model, n)
        counts = child_rng(seed, 0).multinomial(budget.n_samples, dist.probs / dist.probs.sum())
        transform = TransformGrid(
            frequencies=dist.grid,
            values=counts / budget.n_samples,
            kind="discrete",
            exact=False,
            kernel=FejerKernel(n),
        )
    else:
        if fault is not None and fault.delta_t > 0.0:
            raise ValidationError("the fault model applies only to the plain method")
        if model is None:
            model = diagonalize(op, psi)
        if spectrum_map is None:
            raise ValidationError("qubitized_fejer needs a spectrum_map into [0, 1]")
        dist = qubitized_qpe_distribution(model.mapped(spectrum_map), n)
        counts = child_rng(seed, 0).multinomial(budget.n_samples, dist.probs / dist.probs.sum())
        freqs, values = _merge_mirror_bins(dist.grid, counts / budget.n_samples, spectrum_map)
        transform = TransformGrid(
            frequencies=freqs,
            values=values,
            kind="discrete",
            exact=False,
            kernel=QubitizedFejerKernel(n),
        )
    elapsed = time.perf_counter() - start
    return EstimationResult(transform=transform, budget=budget, seed=seed, elapsed=elapsed)


def run_algorithm2(
    op: HermitianOperator,
    psi: ProbeState,
    target: AccuracyTarget,
    nu,
    seed: int,
    exact_moments: bool = False,
    per_order_shots: int | None = None,
) -> EstimationResult:
    """Moment-route estimate of the Gaussian-broadened transform.

    Plans the kernel width and expansion order from `target`, sizes the
    per-order shot count from the actual coefficient magnitudes on the
    requested frequency grid `nu` (or takes an explicit
    `per_order_shots` override), estimates each moment with an
    independent Hadamard-test stream (order k uses the child stream
    ``(seed, k)``; the zeroth moment is 1 for free), and combines.  With
    `exact_moments` the recurrence moments are used directly, which
    reproduces the analytic transform on the grid.

    The operator spectrum must lie in [-1, 1]; normalize first.
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    lam = gaussian_resolution(target)
    order = truncation_order(target).L
    table = coefficient_table(lam, nu, order)
    if per_order_shots is None:
        per_order, total, _ = plan_git_samples(order, table, target.beta, target.eta)
    else:
        if per_order_shots < 1:
            raise ValidationError(f"per_order_shots must be >= 1, got {per_order_shots!r}")
        per_order, total = per_order_shots, order * per_order_shots
    start = time.perf_counter()
    t = cheb_moments(op, psi, order)
    if exact_moments:
        v = t
    else:
        v = np.empty(order + 1)
        v[0] = 1.0
        for k in range(1, order + 1):
            v[k] = hadamard_test_sample(float(t[k]), per_order, seed, k)
    transform = git_transform_from_moments(v, lam, nu, exact=exact_moments)
    elapsed = time.perf_counter() - start
    budget = Budget(
        method="git",
        kernel_order=order,
        n_samples=total,
        lam=lam,
        per_order_shots=per_order,
    )
    return EstimationResult(
        transform=transform, budget=budget, seed=seed, elapsed=elapsed, moments=v
    )


def complexity_table(deltas, epsilons, eta: float = 0.05) -> list[dict]:
    """Planned resource counts across accuracy targets.

    For each ``(delta, eps)`` pair the row set compares, at
    ``sigma = beta = eps``:

    * textbook phase estimation with amplitude amplification, costed
      from its stated scaling with unit constants (grid size
      ``ln(1/eps)^2 / delta``, samples
      ``ln(1/eps)^6 ln(1/eta) / (delta^3 eps^2)``) and labeled
      "analytic; not implemented";
    * the histogram method: planned grid size and Hoeffding samples;
    * the moment method: planned expansion order and the
      coefficient-agnostic total, so the row does not depend on a
      frequency grid.

    Returns a list of dict rows with keys ``method, delta, eps,
    kernel_order, n_samples, note``.
    """
    rows: list[dict] = []
    for delta in deltas:
        for eps in epsilons:
            target = AccuracyTarget(sigma=eps, delta=delta, beta=eps, eta=eta)
            log_eps = math.log(1.0 / eps)
            rows.append(
                {
                    "method": "tsa",
                    "delta": delta,
                    "eps": eps,
                    "kernel_order": math.ceil(log_eps**2 / delta),
                    "n_samples": math.ceil(
                        log_eps**6 * math.log(1.0 / eta) / (delta**3 * eps**2)
                    ),
                    "note": "analytic; not implemented",
                }
            )
            rows.append(
                {
                    "method": "fejer",
                    "delta": delta,
                    "eps": eps,
                    "kernel_order": fejer_plan(target).n,
                    "n_samples": plan_fejer_samples(eps, eta),
                    "note": "planned",
                }
            )
            git_order = truncation_order(target).L
            loose = math.ceil(
                2.0 * git_order**3 * (1.0 + 2.2 / eps) ** 2 * math.log(2.0 / eta)
            )
            rows.append(
                {
                    "method": "git",
                    "delta": delta,
                    "eps": eps,
                    "kernel_order": git_order,
                    "n_samples": loose,
                    "note": "planned; coefficient-agnostic samples",
                }
            )
    return rows
