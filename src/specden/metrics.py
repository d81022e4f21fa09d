"""Error metrics, the observable-error bound, and empirical contract checks.

The accuracy contract has four components: the kernel keeps all but
`sigma` of its mass within ``+-delta`` of any center, and the estimated
transform stays within `beta` of the exact one in sup norm with
confidence ``1 - eta``.  When those hold, any bounded observable
integrated against the estimate deviates from its exact value by at
most ``f_delta_max + 2 f_max sigma + beta f_int``.

This module measures each component on explicit grids with reported
spacing, checks the observable bound over seeded Monte Carlo trials,
and fits log-log scaling exponents for the resource-count sweeps.
Confidence checks compare against the target with a two-sided binomial
95 percent slack, since a finite trial count cannot resolve the
probability exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .chebgauss import projection_cmax, projection_values, truncation_order
from .errors import ValidationError
from .estimators import (
    CONTRACT_GRID,
    Budget,
    model_moments,
    plan_fejer_samples,
    plan_git_samples,
    sample_histogram,
    sample_moments,
)
from .kernels import (
    AccuracyTarget,
    GaussianKernel,
    KernelSpec,
    fejer_grid,
    fejer_plan,
    gaussian_resolution,
    sigma_accuracy,
)
from .numerics import derive_seed
from .operators import (
    ObservableFn,
    SpectralModel,
    TransformGrid,
    _warn_if_coarse,
    exact_transform,
    observable_exact,
)
from .sampling import qpe_distribution

__all__ = [
    "AccuracyReport",
    "ObservableBound",
    "total_variation",
    "observable_bound",
    "binomial_threshold",
    "BoundedObservable",
    "bounded_observables",
    "ContractSetup",
    "contract_setup",
    "contract_check",
    "observable_bound_empirical_check",
    "merge_reports",
    "scaling_fit",
]

_GRID_TOL = 1e-12


def total_variation(a: TransformGrid, b: TransformGrid) -> float:
    """Sup-norm distance between two transforms on their shared grid.

    For discrete transforms this is the largest absolute per-bin
    frequency deviation.  The grids must agree pointwise to 1e-12 and
    hold the same kind of values.
    """
    if a.frequencies.size != b.frequencies.size:
        raise ValidationError(
            f"grid sizes differ: {a.frequencies.size} vs {b.frequencies.size}"
        )
    if float(np.max(np.abs(a.frequencies - b.frequencies))) > _GRID_TOL:
        raise ValidationError("transforms live on different grids")
    if a.kind != b.kind:
        raise ValidationError(f"cannot compare {a.kind!r} values with {b.kind!r} values")
    return float(np.max(np.abs(a.values - b.values)))


@dataclass(frozen=True)
class ObservableBound:
    """Observable-error bound and its three components.

    ``total = f_delta_max + 2 f_max sigma + beta f_int`` where
    `f_delta_max` is the largest variation of f over any window of
    half-width `delta`, `f_max` the sup of |f|, and `f_int` the integral
    of |f| over [-1, 1], all measured on a grid of the reported spacing.
    """

    f_max: float
    f_int: float
    f_delta_max: float
    sigma_term: float
    beta_term: float
    grid_spacing: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "total", self.f_delta_max + self.sigma_term + self.beta_term
        )


def observable_bound(
    f: ObservableFn | Callable,
    target: AccuracyTarget,
    spacing: float | None = None,
) -> ObservableBound:
    """Error bound for an observable under an accuracy target.

    The window sup uses 41 offsets spanning exactly ``[-delta, delta]``
    around each grid point, so piecewise-smooth observables get their
    closed-form variation (a linear f gives exactly `delta`).
    """
    fn = f if isinstance(f, ObservableFn) else ObservableFn(fn=f)
    h = target.delta / 20.0 if spacing is None else float(spacing)
    if h <= 0.0:
        raise ValidationError("spacing must be positive")
    omega = np.linspace(-1.0, 1.0, max(3, math.ceil(2.0 / h)) + 1)
    center = fn(omega)
    if not np.all(np.isfinite(center)):
        raise ValidationError("observable must be finite on [-1, 1]")
    f_max = float(np.max(np.abs(center)))
    f_int = float(np.trapezoid(np.abs(center), omega))
    offsets = np.linspace(-target.delta, target.delta, 41)
    f_delta_max = 0.0
    for off in offsets:
        shifted = fn(omega + off)
        f_delta_max = max(f_delta_max, float(np.max(np.abs(shifted - center))))
    return ObservableBound(
        f_max=f_max,
        f_int=f_int,
        f_delta_max=f_delta_max,
        sigma_term=2.0 * f_max * target.sigma,
        beta_term=target.beta * f_int,
        grid_spacing=float(omega[1] - omega[0]),
    )


def binomial_threshold(eta: float, trials: int, z: float = 1.96) -> float:
    """Acceptance threshold for an empirical confidence estimate.

    A success probability of ``1 - eta`` observed over `trials`
    independent runs fluctuates with standard deviation
    ``sqrt(eta (1 - eta) / trials)``; the threshold subtracts `z` of
    those (two-sided 95 percent for the default z).
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if not (0.0 < eta < 1.0):
        raise ValidationError(f"eta must lie in (0, 1), got {eta!r}")
    return (1.0 - eta) - z * math.sqrt(eta * (1.0 - eta) / trials)


@dataclass(frozen=True)
class AccuracyReport:
    """Measured accuracy-contract components with pass flags.

    `delta_v` is the worst sup-norm deviation seen over all trials on
    the contract grid; `empirical_confidence` the fraction of trials
    with deviation at most `beta`.  For the moment method
    `margin_delta_v` repeats the worst deviation on a grid extended
    beyond [-1, 1] by eight kernel widths, since the Gaussian profile
    has mass there.  Observable entries map the observable name to its
    analytic bound and the fraction of trials within it.
    """

    measured_sigma: float
    delta_v: float
    empirical_confidence: float
    grid_spacing: float
    n_trials: int
    threshold: float
    pass_sigma: bool
    pass_beta: bool
    margin_delta_v: float | None = None
    observable_bounds: dict | None = None
    observable_confidence: dict | None = None
    pass_bound: bool | None = None

    def passed(self) -> bool:
        flags = [self.pass_sigma, self.pass_beta]
        if self.pass_bound is not None:
            flags.append(self.pass_bound)
        return all(flags)


@dataclass(frozen=True)
class BoundedObservable:
    """A named observable with its error bound under the contract's target."""

    name: str
    fn: ObservableFn
    bound: ObservableBound


def bounded_observables(
    f: ObservableFn | Callable | Sequence | None,
    target: AccuracyTarget,
    spacing: float | None = None,
) -> tuple[BoundedObservable, ...]:
    """Name each observable in `f` and compute its bound once.

    `f` is a single callable, a sequence of them, or None.  An
    observable left with the default name ``"f"`` is called ``f<i>``
    after its position.  A bound depends on the target and the spacing
    alone, so one tuple serves every method and model.
    """
    if f is None:
        fns: list[ObservableFn] = []
    elif callable(f) or isinstance(f, ObservableFn):
        fns = [f if isinstance(f, ObservableFn) else ObservableFn(fn=f)]
    else:
        fns = [g if isinstance(g, ObservableFn) else ObservableFn(fn=g) for g in f]
    return tuple(
        BoundedObservable(
            g.name if g.name != "f" else f"f{i}", g, observable_bound(g, target, spacing)
        )
        for i, g in enumerate(fns)
    )


@dataclass(frozen=True)
class ContractSetup:
    """The per-target work of a contract check, shared by every model.

    `obs_values` holds each observable on the grid it is summed over:
    the histogram bins (`grid`) for ``"fejer"``, which draws `n_samples`
    outcomes per trial, or the `dense` margin grid for ``"git"``, which
    draws `per_order` shots per order up to `order`.  It pickles, so a
    process pool can ship one to every worker.
    """

    method: str
    target: AccuracyTarget
    spacing: float
    measured_sigma: float
    kernel: KernelSpec
    grid: np.ndarray
    observables: tuple[BoundedObservable, ...]
    obs_values: tuple[np.ndarray, ...]
    n_samples: int = 0
    order: int = 0
    per_order: int = 0
    dense: np.ndarray | None = None


def contract_setup(
    method: str,
    observables: Sequence[BoundedObservable],
    target: AccuracyTarget,
    spacing: float | None = None,
    n_samples: int | None = None,
) -> ContractSetup:
    """Plan the contract check of `method` at `target` once for all models.

    The kernel tail is measured with spacing `spacing` (default ``delta /
    20``), the spacing `observables` were bounded at.  `n_samples`
    overrides the planned measurement total (for the moment method it is
    split evenly over the orders).
    """
    if method not in ("fejer", "git"):
        raise ValidationError(f"contract check does not implement {method!r}")
    h = target.delta / 20.0 if spacing is None else float(spacing)
    if method == "fejer":
        kernel = fejer_plan(target)
        if n_samples is None:
            n_samples = plan_fejer_samples(target.beta, target.eta)
        budget = Budget(method="fejer", kernel_order=kernel.n, n_samples=n_samples)
        grid = obs_grid = fejer_grid(kernel.n)
        plan = dict(n_samples=budget.n_samples)
    else:
        lam = gaussian_resolution(target)
        kernel = GaussianKernel(lam)
        order = truncation_order(target).L
        if n_samples is None:
            c_max = projection_cmax(lam, CONTRACT_GRID, order)
            per_order, _, _ = plan_git_samples(order, c_max, target.beta, target.eta)
        else:
            per_order = max(1, n_samples // order)
        margin = 8.0 * lam
        grid = CONTRACT_GRID
        obs_grid = np.arange(-1.0 - margin, 1.0 + margin + h / 2.0, h)
        plan = dict(order=order, per_order=per_order, dense=obs_grid)
    observables = tuple(observables)
    return ContractSetup(
        method=method,
        target=target,
        spacing=h,
        measured_sigma=sigma_accuracy(kernel, target.delta, h).value,
        kernel=kernel,
        grid=grid,
        observables=observables,
        obs_values=tuple(ob.fn(obs_grid) for ob in observables),
        **plan,
    )


# Histogram trials are drawn and checked in blocks of at most this many bins.
_BLOCK_CELLS = 2**16


def _trial_errors(
    setup: ContractSetup, model: SpectralModel, trials: int, seed: int, index: int
) -> tuple[np.ndarray, np.ndarray | None, list[np.ndarray]]:
    """Per-trial deviations, margin deviations and observable estimates of one model.

    Trial j draws with the seed ``(seed, index, j)``.  The margin
    deviations are None for the histogram method.
    """
    kernel = setup.kernel
    ref = exact_transform(model, kernel, setup.grid).values
    if setup.method == "fejer":
        dist = qpe_distribution(model, kernel.n)
        dev = np.empty(trials)
        estimates = [np.empty(trials) for _ in setup.obs_values]
        rows = max(1, _BLOCK_CELLS // dist.size)
        for start in range(0, trials, rows):
            block = slice(start, min(trials, start + rows))
            hist = np.array([
                sample_histogram(dist, setup.n_samples, derive_seed(seed, index, j))
                for j in range(block.start, block.stop)
            ])
            dev[block] = np.max(np.abs(hist - ref), axis=1)
            for est, fx in zip(estimates, setup.obs_values):
                est[block] = hist @ fx
        return dev, None, estimates
    seeds = [derive_seed(seed, index, j) for j in range(trials)]
    draws = sample_moments(model_moments(model, setup.order), setup.per_order, seeds)
    values = projection_values(draws, kernel.lam, setup.grid)
    dense_values = projection_values(draws, kernel.lam, setup.dense)
    ref_dense = exact_transform(model, kernel, setup.dense).values
    estimates = []
    for fx in setup.obs_values:
        _warn_if_coarse(setup.dense, kernel)
        estimates.append(np.trapezoid(dense_values * fx, setup.dense, axis=1))
    return (
        np.max(np.abs(values - ref), axis=1),
        np.max(np.abs(dense_values - ref_dense), axis=1),
        estimates,
    )


def contract_check(
    setup: ContractSetup,
    model: SpectralModel | Sequence[SpectralModel],
    trials: int,
    seed: int,
) -> AccuracyReport:
    """Run `trials` seeded trials per model under `setup` and pool them.

    Trial j of model i uses the derived seed ``(seed, i, j)``.  Each
    model's reference transforms and exact observables are computed
    once, and its trials are checked as arrays: histograms in blocks of
    at most 2^16 bins, moment vectors all at once.
    """
    models = [model] if isinstance(model, SpectralModel) else list(model)
    if not models:
        raise ValidationError("need at least one spectral model")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    target = setup.target
    worst = 0.0
    worst_margin = 0.0
    hits = 0
    obs_hits = [0] * len(setup.observables)
    for i, mod in enumerate(models):
        dev, margin, estimates = _trial_errors(setup, mod, trials, seed, i)
        worst = max(worst, float(dev.max()))
        if margin is not None:
            worst_margin = max(worst_margin, float(margin.max()))
        hits += int(np.count_nonzero(dev <= target.beta))
        for k, (ob, est) in enumerate(zip(setup.observables, estimates)):
            q_exact = observable_exact(mod, ob.fn)
            obs_hits[k] += int(np.count_nonzero(np.abs(q_exact - est) <= ob.bound.total))
    total_runs = trials * len(models)
    confidence = hits / total_runs
    threshold = binomial_threshold(target.eta, total_runs)
    names = [ob.name for ob in setup.observables]
    obs_conf = {name: c / total_runs for name, c in zip(names, obs_hits)}
    return AccuracyReport(
        measured_sigma=setup.measured_sigma,
        delta_v=worst,
        empirical_confidence=confidence,
        grid_spacing=setup.spacing,
        n_trials=total_runs,
        threshold=threshold,
        pass_sigma=setup.measured_sigma <= target.sigma + 1e-12,
        pass_beta=confidence >= threshold,
        margin_delta_v=worst_margin if setup.method == "git" else None,
        observable_bounds=(
            {ob.name: ob.bound.total for ob in setup.observables} if names else None
        ),
        observable_confidence=obs_conf if names else None,
        pass_bound=all(c >= threshold for c in obs_conf.values()) if names else None,
    )


def observable_bound_empirical_check(
    model: SpectralModel | Sequence[SpectralModel],
    method: str,
    f: ObservableFn | Callable | Sequence | None,
    target: AccuracyTarget,
    trials: int,
    seed: int,
    spacing: float | None = None,
    n_samples: int | None = None,
) -> AccuracyReport:
    """Monte Carlo check of the accuracy contract and observable bound.

    Runs `trials` seeded estimation runs per model (trial j of model i
    uses the derived seed ``(seed, i, j)``), measures the sup-norm
    deviation from the exact transform, and, for each observable in
    `f` (a single callable, a sequence, or None), the deviation of the
    estimated observable from the exact one against the analytic bound.
    The kernel tail is measured once per call on a center grid of the
    same spacing (default ``delta / 20``).  This is one
    :func:`contract_setup` and one :func:`contract_check`.

    For ``method="git"`` the contract grid is
    :data:`~specden.estimators.CONTRACT_GRID`; observables integrate a dense
    re-evaluation of each trial's moment vector over a grid extended by
    eight kernel widths, where the deviation is also re-measured and
    reported as `margin_delta_v`.  Each model's exact moments are
    computed once; trial j draws its moment vector exactly as
    :func:`~specden.estimators.run_algorithm2` does with its seed, and
    all trials are reconstructed together on each grid.  For
    ``method="fejer"`` each model's outcome distribution is built once
    and trial j draws its histogram from it exactly as
    :func:`~specden.estimators.run_algorithm1` does with its seed; the
    histograms are stacked in blocks, and each observable is the
    product of a block with its values on the bins.

    `n_samples` overrides the planned measurement total (for the moment
    method it is split evenly over the orders), which deliberately
    under-budgeted runs use to demonstrate the confidence check failing.
    """
    observables = bounded_observables(f, target, spacing)
    setup = contract_setup(method, observables, target, spacing, n_samples)
    return contract_check(setup, model, trials, seed)


def merge_reports(reports: Sequence[AccuracyReport], eta: float) -> AccuracyReport:
    """Pool per-model accuracy reports into one.

    Worst-case quantities take the maximum, confidences the
    trial-weighted mean, and the binomial threshold and pass flags are
    recomputed at the pooled trial count.  The reports must share their
    grid spacing (same contract setup).
    """
    if not reports:
        raise ValidationError("need at least one report to merge")
    if any(abs(r.grid_spacing - reports[0].grid_spacing) > _GRID_TOL for r in reports):
        raise ValidationError("reports measured on different grid spacings")
    total = sum(r.n_trials for r in reports)
    confidence = sum(r.empirical_confidence * r.n_trials for r in reports) / total
    threshold = binomial_threshold(eta, total)
    margins = [r.margin_delta_v for r in reports if r.margin_delta_v is not None]
    names = reports[0].observable_confidence
    if names is not None:
        obs_conf = {
            name: sum(r.observable_confidence[name] * r.n_trials for r in reports) / total
            for name in names
        }
        obs_bounds = dict(reports[0].observable_bounds)
        pass_bound = all(c >= threshold for c in obs_conf.values())
    else:
        obs_conf = None
        obs_bounds = None
        pass_bound = None
    measured_sigma = max(r.measured_sigma for r in reports)
    return AccuracyReport(
        measured_sigma=measured_sigma,
        delta_v=max(r.delta_v for r in reports),
        empirical_confidence=confidence,
        grid_spacing=reports[0].grid_spacing,
        n_trials=total,
        threshold=threshold,
        pass_sigma=all(r.pass_sigma for r in reports),
        pass_beta=confidence >= threshold,
        margin_delta_v=max(margins) if margins else None,
        observable_bounds=obs_bounds,
        observable_confidence=obs_conf,
        pass_bound=pass_bound,
    )


def scaling_fit(x, y) -> tuple[float, float, float]:
    """Least-squares power-law fit ``y ~ exp(b) x^a`` in log-log space.

    Returns ``(exponent, intercept, r_squared)``.  Needs at least four
    strictly positive points.
    """
    xs = np.asarray(x, dtype=float).reshape(-1)
    ys = np.asarray(y, dtype=float).reshape(-1)
    if xs.size != ys.size:
        raise ValidationError("x and y must have equal length")
    if xs.size < 4:
        raise ValidationError(f"need at least 4 points, got {xs.size}")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValidationError("scaling fits need strictly positive points")
    lx = np.log(xs)
    ly = np.log(ys)
    a = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), residual, _, _ = np.linalg.lstsq(a, ly, rcond=None)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(residual[0]) if residual.size else float(np.sum((ly - a @ [slope, intercept]) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)
