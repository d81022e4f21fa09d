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

from .errors import ValidationError
from .estimators import CONTRACT_GRID, ESTIMATION_METHODS
from .kernels import AccuracyTarget, evaluation_grid, grid_spacing, sigma_accuracy
from .numerics import derive_seeds
from .operators import (
    ObservableFn,
    SpectralModel,
    TransformGrid,
    observable_exact,
    observable_from_transform,
)

__all__ = [
    "AccuracyReport",
    "ObservableBound",
    "total_variation",
    "observable_bound",
    "binomial_threshold",
    "BoundedObservable",
    "bounded_observables",
    "contract_report",
    "observable_bound_empirical_check",
    "scaling_fit",
]

_GRID_TOL = 1e-12
# Trials, and an observable's shifted grids, are evaluated in blocks of at most
# this many cells of the widest grid they meet.
_BLOCK_CELLS = 2**18


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
    closed-form variation (a linear f gives exactly `delta`).  The
    shifted grids are evaluated as one flat array per block of at most
    2^18 cells.  A shifted value that is NaN (an observable undefined
    past +-1, say) is left out of the sup; the rest of its shift counts.
    """
    fn = f if isinstance(f, ObservableFn) else ObservableFn(fn=f)
    omega = evaluation_grid(grid_spacing(target.delta, spacing))
    center = fn(omega)
    if not np.all(np.isfinite(center)):
        raise ValidationError("observable must be finite on [-1, 1]")
    f_max = float(np.max(np.abs(center)))
    f_int = float(np.trapezoid(np.abs(center), omega))
    offsets = np.linspace(-target.delta, target.delta, 41)[:, None]
    rows = max(1, _BLOCK_CELLS // omega.size)
    f_delta_max = 0.0
    for start in range(0, offsets.size, rows):
        shifted = omega + offsets[start : start + rows]
        moved = fn(shifted.ravel()).reshape(shifted.shape)
        f_delta_max = float(np.fmax.reduce(np.abs(moved - center), axis=None, initial=f_delta_max))
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


def contract_report(
    method: str,
    observables: Sequence[BoundedObservable],
    target: AccuracyTarget,
    trials: Sequence[tuple[SpectralModel, Sequence[int]]],
    spacing: float | None = None,
    n_samples: int | None = None,
) -> AccuracyReport:
    """Check the accuracy contract of `method` at `target` over seeded trials.

    `trials` pairs each model with its trial seeds, one trial per seed.
    The spacing (default ``delta / 20``, the one `observables` were
    bounded at) is checked before anything is built.  The method's
    budget and kernel, the kernel tail measured at that spacing, and for
    a density kernel the dense grid extended eight kernel widths past
    [-1, 1] are planned once.  `n_samples` overrides the planned
    measurement total (for the moment method it is split evenly over the
    orders).

    Each model's source, reference transforms (read off that source where
    the method can) and exact observables are computed once, and its
    trials are drawn by the method's entry and checked as arrays, in
    blocks of at most 2^18 cells of the dense grid, or of the contract
    grid without one.  A density's observables are integrated over the
    dense grid, where the deviation is measured again
    (`margin_delta_v`); a discrete transform's are summed over the
    contract grid.  Confidences are pooled hits over pooled trials, the
    binomial threshold and pass flags are set at the pooled trial count,
    and the worst deviations are taken over every trial.
    """
    entry = ESTIMATION_METHODS.get(method)
    if entry is None or entry.verify_stream is None:
        raise ValidationError(f"contract check does not implement {method!r}")
    h = grid_spacing(target.delta, spacing)
    if not trials or not all(len(seeds) for _, seeds in trials):
        raise ValidationError("need at least one model, each with at least one trial seed")
    budget = entry.budget(target, CONTRACT_GRID, n_samples)
    kernel = entry.kernel(budget)
    dense = None
    if kernel.kind == "density":
        margin = 8.0 * kernel.width
        dense = np.arange(-1.0 - margin, 1.0 + margin + h / 2.0, h)
    measured_sigma = sigma_accuracy(kernel, target.delta, h).value
    grid = entry.grid(budget, CONTRACT_GRID)
    rows = max(1, _BLOCK_CELLS // (grid.size if dense is None else dense.size))
    worst = worst_margin = 0.0
    hits = n_trials = 0
    obs_hits = [0] * len(observables)
    for model, seeds in trials:
        source = entry.source(model, budget)
        ref = entry.exact(model, budget, grid, source).values
        ref_dense = None if dense is None else entry.exact(model, budget, dense, source).values
        q_exact = [observable_exact(model, ob.fn) for ob in observables]
        n_trials += len(seeds)
        for start in range(0, len(seeds), rows):
            draws = entry.draw(model, budget, seeds[start : start + rows], source)
            values = entry.project(draws, budget, grid)
            dev = np.max(np.abs(values - ref), axis=1)
            worst = max(worst, float(dev.max()))
            hits += int(np.count_nonzero(dev <= target.beta))
            if dense is not None:
                values = entry.project(draws, budget, dense)
                worst_margin = max(worst_margin, float(np.max(np.abs(values - ref_dense))))
            summed = TransformGrid(grid if dense is None else dense, values, kernel.kind, kernel)
            for k, ob in enumerate(observables):
                est = observable_from_transform(summed, ob.fn)
                obs_hits[k] += int(np.count_nonzero(np.abs(q_exact[k] - est) <= ob.bound.total))
        # free this model's arrays before the next model's are built
        del source, ref, ref_dense, draws, values, summed
    threshold = binomial_threshold(target.eta, n_trials)
    confidence = hits / n_trials
    obs_conf = {ob.name: k_hits / n_trials for ob, k_hits in zip(observables, obs_hits)} or None
    return AccuracyReport(
        measured_sigma=measured_sigma,
        delta_v=worst,
        empirical_confidence=confidence,
        grid_spacing=h,
        n_trials=n_trials,
        threshold=threshold,
        pass_sigma=measured_sigma <= target.sigma + 1e-12,
        pass_beta=confidence >= threshold,
        margin_delta_v=None if dense is None else worst_margin,
        observable_bounds={ob.name: ob.bound.total for ob in observables} or None,
        observable_confidence=obs_conf,
        pass_bound=None if obs_conf is None else all(c >= threshold for c in obs_conf.values()),
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

    One :func:`contract_report` of `method` at `target` over `trials`
    seeded runs per model (trial j of model i uses the derived seed
    ``(seed, i, j)``) and the observables of `f` (a single callable, a
    sequence, or None) bounded at `spacing` (default ``delta / 20``).
    Trial j draws exactly what the method's ``estimate`` draws with its
    seed (:data:`~specden.estimators.ESTIMATION_METHODS`).  The contract
    grid of ``git`` is :data:`~specden.estimators.CONTRACT_GRID`, that of
    ``fejer`` the histogram's bins.  `n_samples` overrides the planned
    measurement total, which deliberately under-budgeted runs use to
    demonstrate the confidence check failing.
    """
    models = [model] if isinstance(model, SpectralModel) else list(model)
    observables = bounded_observables(f, target, spacing)
    pairs = [(m, derive_seeds(seed, i, count=trials)) for i, m in enumerate(models)]
    return contract_report(method, observables, target, pairs, spacing, n_samples)


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
