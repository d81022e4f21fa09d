"""Estimation pipelines built on the measurement simulators.

Two pipelines produce broadened-transform estimates with explicit
sample budgets from a :class:`~specden.operators.SpectralModel`:

* the histogram route: sample the phase-estimation outcome distribution
  (plain or folded) and return empirical frequencies on the kernel
  grid.  A Hoeffding budget guarantees the per-bin error `beta` with
  confidence ``1 - eta``; a hardware-fault variant doubles the exponent
  and prescribes the tolerable per-step fault size.
* the moment route: estimate Chebyshev spectral moments with a
  Hadamard test per order, then combine them with the coefficients of
  the exact Gaussian's Chebyshev projection by the kernel polynomial
  method.  The per-order shot count comes from the largest of those
  coefficients on the requested grid, with a coefficient-agnostic
  fallback bound.

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
import numpy.polynomial.chebyshev as npcheb

from .chebgauss import git_transform_from_moments, projection_cmax, truncation_order
from .errors import ValidationError
from .kernels import (
    AccuracyTarget,
    FejerKernel,
    QubitizedFejerKernel,
    fejer_plan,
    gaussian_resolution,
)
from .numerics import child_rng
from .operators import AffineMap, SpectralModel, TransformGrid
from .sampling import (
    OutcomeDistribution,
    hadamard_test_sample,
    qpe_distribution,
    qubitized_qpe_distribution,
)

__all__ = [
    "METHODS",
    "CONTRACT_GRID",
    "Budget",
    "EstimationResult",
    "plan_fejer_samples",
    "plan_git_samples",
    "model_moments",
    "sample_moments",
    "sample_histogram",
    "run_algorithm1",
    "run_algorithm2",
    "complexity_table",
]

METHODS = ("fejer", "qubitized_fejer", "git")
# Frequencies at which the moment route's contract is checked and its
# per-order shots are sized when no grid is given.
CONTRACT_GRID = np.linspace(-0.8, 0.8, 5)
CONTRACT_GRID.flags.writeable = False


@dataclass(frozen=True)
class Budget:
    """Planned resources for one estimation run.

    `kernel_order` is the grid size for the histogram methods and the
    expansion order for the moment method; `n_samples` is the total
    measurement count.  The moment method satisfies ``n_samples =
    kernel_order * per_order_shots`` and carries the kernel width in
    `lam`.
    """

    method: str
    kernel_order: int
    n_samples: int
    lam: float | None = None
    per_order_shots: int | None = None

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


@dataclass(frozen=True)
class EstimationResult:
    """Transform estimate together with the budget that produced it."""

    transform: TransformGrid
    budget: Budget
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
) -> tuple[int, int, int]:
    """Per-order and total shot counts for the moment pipeline.

    Each of the `order` estimated moments gets
    ``ceil(2 ln(2/eta) (order * c_max / beta)^2)`` shots, where `c_max`
    is the largest coefficient magnitude over all requested frequencies
    and orders: the largest entry of `coeffs`, a coefficient table or
    its largest magnitude alone.  Also returns the coefficient-agnostic budget
    ``ceil(2 order^3 (1 + 2.2/beta)^2 ln(2/eta))``, an upper bound on
    the total whenever the coefficients obey the half-interval bound
    (asserted).

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
    if c_max <= beta + 2.2 and total > loose:
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


def sample_histogram(dist: OutcomeDistribution, n_samples: int, seed: int) -> np.ndarray:
    """Empirical bin frequencies of `n_samples` outcomes drawn from `dist`.

    One multinomial draw from the stream ``child_rng(seed, 0)``, so the
    histogram depends on the distribution, the count and `seed` alone.
    """
    counts = child_rng(seed, 0).multinomial(n_samples, dist.probs / dist.probs.sum())
    return counts / n_samples


def run_algorithm1(
    budget: Budget,
    seed: int,
    model: SpectralModel,
    spectrum_map: AffineMap | None = None,
) -> EstimationResult:
    """Histogram estimate of the broadened transform.

    Draws ``budget.n_samples`` outcomes from the phase-estimation
    distribution of `model` and returns empirical bin frequencies.  For
    ``method="qubitized_fejer"`` the spectrum must be mapped into [0, 1]
    by `spectrum_map` (applied here; recovered frequencies are mapped
    back through its inverse, with mirror outcome bins merged).
    """
    if budget.method not in ("fejer", "qubitized_fejer"):
        raise ValidationError(f"histogram route does not implement {budget.method!r}")
    start = time.perf_counter()
    n = budget.kernel_order
    if n < 2 or n & (n - 1):
        raise ValidationError(f"histogram grid size must be a power of two >= 2, got {n}")
    if budget.method == "fejer":
        dist = qpe_distribution(model, n)
        kernel = FejerKernel(n)
    elif spectrum_map is None:
        raise ValidationError("qubitized_fejer needs a spectrum_map into [0, 1]")
    else:
        dist = qubitized_qpe_distribution(model.mapped(spectrum_map), n)
        kernel = QubitizedFejerKernel(n)
    freqs, values = dist.grid, sample_histogram(dist, budget.n_samples, seed)
    if budget.method == "qubitized_fejer":
        freqs, values = _merge_mirror_bins(freqs, values, spectrum_map)
    transform = TransformGrid(frequencies=freqs, values=values, kind=kernel.kind, kernel=kernel)
    elapsed = time.perf_counter() - start
    return EstimationResult(transform=transform, budget=budget, elapsed=elapsed)


def model_moments(model: SpectralModel, order: int) -> np.ndarray:
    """Exact spectral moments ``t_k = sum_j w_j T_k(O_j)``, k = 0..order.

    The model spectrum must lie in [-1, 1]; a moment beyond ``1 + 1e-10``
    in magnitude raises :class:`ValidationError`.
    """
    t = npcheb.chebvander(model.eigenvalues, order).T @ model.weights
    if np.any(np.abs(t) > 1.0 + 1e-10):
        raise ValidationError("moment magnitude exceeded 1; model spectrum is not normalized")
    return t


def sample_moments(moments, per_order: int, seeds) -> np.ndarray:
    """Hadamard-test estimates of ``moments[1:]``, one row per seed.

    Row i holds 1 (the zeroth moment is free) followed by one vector
    draw of ``per_order`` shots per order from the single stream
    ``child_rng(seeds[i])``, so a row depends on its own seed alone.
    """
    t = np.asarray(moments, dtype=float)
    draws = np.ones((len(seeds), t.size))
    for row, seed in zip(draws, seeds):
        row[1:] = hadamard_test_sample(t[1:], per_order, seed)
    return draws


def run_algorithm2(
    model: SpectralModel,
    target: AccuracyTarget,
    nu,
    seed: int,
    per_order_shots: int | None = None,
) -> EstimationResult:
    """Moment-route estimate of the Gaussian-broadened transform.

    Plans the kernel width and expansion order from `target`, sizes the
    per-order shot count from the largest coefficient of the exact
    kernel's projection on the requested frequency grid `nu` (or takes
    an explicit `per_order_shots` override), estimates the moments
    ``t_k = sum_j w_j T_k(O_j)`` of `model` by one Hadamard-test draw
    per order from the stream of `seed` (the zeroth moment is 1 for
    free), and reconstructs by the kernel polynomial method.

    The model spectrum must lie in [-1, 1]; normalize first.
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    lam = gaussian_resolution(target)
    order = truncation_order(target).L
    if per_order_shots is None:
        c_max = projection_cmax(lam, nu, order)
        per_order, total, _ = plan_git_samples(order, c_max, target.beta, target.eta)
    else:
        if per_order_shots < 1:
            raise ValidationError(f"per_order_shots must be >= 1, got {per_order_shots!r}")
        per_order, total = per_order_shots, order * per_order_shots
    start = time.perf_counter()
    v = sample_moments(model_moments(model, order), per_order, [seed])[0]
    transform = git_transform_from_moments(v, lam, nu)
    elapsed = time.perf_counter() - start
    budget = Budget(
        method="git",
        kernel_order=order,
        n_samples=total,
        lam=lam,
        per_order_shots=per_order,
    )
    return EstimationResult(transform=transform, budget=budget, elapsed=elapsed, moments=v)


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
