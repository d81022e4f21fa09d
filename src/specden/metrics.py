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

from .chebgauss import git_transform_from_moments, truncation_order
from .errors import ValidationError
from .estimators import CONTRACT_GRID, Budget, plan_fejer_samples, run_algorithm1, run_algorithm2
from .kernels import (
    AccuracyTarget,
    GaussianKernel,
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
    exact_transform,
    observable_exact,
    observable_from_transform,
)

__all__ = [
    "AccuracyReport",
    "ObservableBound",
    "total_variation",
    "observable_bound",
    "binomial_threshold",
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
    same spacing (default ``delta / 20``).

    For ``method="git"`` the contract grid is
    :data:`~specden.estimators.CONTRACT_GRID`; observables integrate a dense
    re-evaluation of each trial's moment vector over a grid extended by
    eight kernel widths, where the deviation is also re-measured and
    reported as `margin_delta_v`.

    `n_samples` overrides the planned measurement total (for the moment
    method it is split evenly over the orders), which deliberately
    under-budgeted runs use to demonstrate the confidence check failing.
    """
    models = [model] if isinstance(model, SpectralModel) else list(model)
    if not models:
        raise ValidationError("need at least one spectral model")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if method not in ("fejer", "git"):
        raise ValidationError(f"contract check does not implement {method!r}")
    if f is None:
        fns: list[ObservableFn] = []
    elif callable(f) or isinstance(f, ObservableFn):
        fns = [f if isinstance(f, ObservableFn) else ObservableFn(fn=f)]
    else:
        fns = [g if isinstance(g, ObservableFn) else ObservableFn(fn=g) for g in f]
    names = [g.name if g.name != "f" else f"f{i}" for i, g in enumerate(fns)]
    bounds = {
        name: observable_bound(g, target, spacing) for name, g in zip(names, fns)
    }
    h = target.delta / 20.0 if spacing is None else float(spacing)

    if method == "fejer":
        kernel = fejer_plan(target)
        tail = sigma_accuracy(kernel, target.delta, h)
        if n_samples is None:
            n_samples = plan_fejer_samples(target.beta, target.eta)
        budget = Budget(method="fejer", kernel_order=kernel.n, n_samples=n_samples)
        per_order = None
    else:
        lam = gaussian_resolution(target)
        kernel = GaussianKernel(lam)
        tail = sigma_accuracy(kernel, target.delta, h)
        order = truncation_order(target).L
        per_order = None if n_samples is None else max(1, n_samples // order)
        margin = 8.0 * lam
        dense = np.arange(-1.0 - margin, 1.0 + margin + h / 2.0, h)

    worst = 0.0
    worst_margin = 0.0
    hits = 0
    total_runs = 0
    obs_hits = {name: 0 for name in names}
    for i, mod in enumerate(models):
        q_exact = {name: observable_exact(mod, g) for name, g in zip(names, fns)}
        if method == "fejer":
            ref = exact_transform(mod, kernel, fejer_grid(kernel.n))
        else:
            ref = exact_transform(mod, kernel, CONTRACT_GRID)
            ref_dense = exact_transform(mod, kernel, dense)
        for j in range(trials):
            trial_seed = derive_seed(seed, i, j)
            if method == "fejer":
                res = run_algorithm1(budget, trial_seed, model=mod)
                estimate = res.transform
                obs_grid = estimate
            else:
                res = run_algorithm2(mod, target, CONTRACT_GRID, trial_seed, per_order_shots=per_order)
                estimate = res.transform
                dense_est = git_transform_from_moments(res.moments, lam, dense)
                worst_margin = max(worst_margin, total_variation(ref_dense, dense_est))
                obs_grid = dense_est
            dv = total_variation(ref, estimate)
            worst = max(worst, dv)
            hits += dv <= target.beta
            total_runs += 1
            for name, g in zip(names, fns):
                q_est = observable_from_transform(obs_grid, g)
                obs_hits[name] += abs(q_exact[name] - q_est) <= bounds[name].total
    confidence = hits / total_runs
    threshold = binomial_threshold(target.eta, total_runs)
    obs_conf = {name: obs_hits[name] / total_runs for name in names}
    return AccuracyReport(
        measured_sigma=tail.value,
        delta_v=worst,
        empirical_confidence=confidence,
        grid_spacing=h,
        n_trials=total_runs,
        threshold=threshold,
        pass_sigma=tail.value <= target.sigma + 1e-12,
        pass_beta=confidence >= threshold,
        margin_delta_v=worst_margin if method == "git" else None,
        observable_bounds={n: b.total for n, b in bounds.items()} if fns else None,
        observable_confidence=obs_conf if fns else None,
        pass_bound=(
            all(c >= threshold for c in obs_conf.values()) if fns else None
        ),
    )


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
