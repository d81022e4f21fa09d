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

:data:`ESTIMATION_METHODS` holds one :class:`EstimationMethod` per
method of the command line (``fejer``, ``qfejer``, ``git`` and
``jackson``, which only plans and transforms); each answers for its own
plan, budget, draws and exact reference.

:func:`complexity_table` tabulates planned resources across accuracy
targets for the implemented methods, next to an analytic row for the
textbook phase-estimation-with-amplification approach, which is costed
from its stated scaling but not implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .chebgauss import (
    coefficient_table,
    projection_cmax,
    projection_values,
    truncation_order,
)
from .errors import OutOfRegimeError, ResourceLimitError, ValidationError
from .kernels import (
    AccuracyTarget,
    FejerKernel,
    GaussianKernel,
    KernelSpec,
    QubitizedFejerKernel,
    delta_theta,
    fejer_grid,
    fejer_plan,
    gaussian_resolution,
    jackson_plan,
    qubitized_fejer_plan,
)
from .numerics import child_rngs
from .operators import AffineMap, SpectralModel, TransformGrid, exact_transform
from .sampling import FejerPeaks, _hadamard_probs, qpe_peaks, qubitized_qpe_peaks

__all__ = [
    "METHODS",
    "CONTRACT_GRID",
    "ESTIMATION_METHODS",
    "Budget",
    "EstimationMethod",
    "plan_fejer_samples",
    "plan_git_samples",
    "model_moments",
    "sample_moments",
    "run_algorithm1",
    "run_algorithm2",
    "complexity_table",
]

# Frequencies at which the moment route's contract is checked and its
# per-order shots are sized when no grid is given.
CONTRACT_GRID = np.linspace(-0.8, 0.8, 5)
CONTRACT_GRID.flags.writeable = False


@dataclass(frozen=True)
class Budget:
    """Planned resources for one estimation run.

    `method` is the route's family (one of :data:`METHODS`).
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
        _FAMILIES[self.method].check(self)


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
    if faulty and (n is None or n < 2):
        raise ValidationError("the faulty-hardware budget needs the grid size n >= 2")
    try:
        n_samples = math.ceil((2.0 if faulty else 0.5) * math.log(2.0 / eta) / beta**2)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ResourceLimitError(f"the sample budget at beta={beta!r} overflows the float range") from exc
    if not faulty:
        return n_samples
    return n_samples, beta / (2.0 * math.log2(n))


def _agnostic_git_total(order: int, beta: float, eta: float) -> int:
    """Coefficient-agnostic moment-route total ``ceil(2 order^3 (1 + 2.2/beta)^2 ln(2/eta))``."""
    return math.ceil(2.0 * order**3 * (1.0 + 2.2 / beta) ** 2 * math.log(2.0 / eta))


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
    try:
        per_order = math.ceil(2.0 * math.log(2.0 / eta) * (order * c_max / beta) ** 2)
        loose = _agnostic_git_total(order, beta, eta)
    except OverflowError as exc:
        raise ResourceLimitError(f"the shot budget at beta={beta!r} overflows the float range") from exc
    total = order * per_order
    if c_max <= beta + 2.2 and total > loose:
        raise ValidationError(
            f"coefficient-aware total {total} exceeds the agnostic bound {loose}"
        )
    return per_order, total, loose


_MOMENT_CELLS = 2**20  # model_moments holds about this many cells of T_k(O_j) at a time


def model_moments(model: SpectralModel, order: int) -> np.ndarray:
    """Exact spectral moments ``t_k = sum_j w_j T_k(O_j)``, k = 0..order.

    ``chebvander``'s recurrence runs in blocks of a multiple of 64 orders and
    never one order alone, which keeps its one-shot product's bits with one
    BLAS thread.  The model spectrum must lie in [-1, 1]; a moment beyond
    ``1 + 1e-10`` in magnitude raises :class:`ValidationError`.
    """
    x2 = 2.0 * model.eigenvalues
    rows = max(64, _MOMENT_CELLS // (64 * x2.size) * 64)
    # rows 0 and 1 carry T_{k-2} and T_{k-1} into each block; T_0 and T_1 open the first
    v = np.empty((min(rows + 1, order + 1) + 2, x2.size))
    v[2], v[3:4] = 1.0, model.eigenvalues
    t, start = np.empty(order + 1), 0
    while start <= order:
        n = order + 1 - start if order - start <= rows else rows
        for j in range(4 if start == 0 else 2, n + 2):
            v[j] = v[j - 1] * x2 - v[j - 2]
        t[start : start + n] = v[2 : n + 2] @ model.weights
        v[:2], start = v[n : n + 2], start + n
    if np.any(np.abs(t) > 1.0 + 1e-10):
        raise ValidationError("moment magnitude exceeded 1; model spectrum is not normalized")
    return t


def sample_moments(moments, per_order: int, seeds) -> np.ndarray:
    """Hadamard-test estimates of ``moments[1:]``, one row per seed.

    Row i holds 1 (the zeroth moment is free) followed by one vector
    draw of ``per_order`` shots per order from the single stream
    ``child_rng(seeds[i])``, so a row depends on its own seed alone.
    Each row equals :func:`~specden.sampling.hadamard_test_sample`'s
    draw with its seed, bit for bit; the shots and moments are checked
    once, and the generators come from
    :func:`~specden.numerics.child_rngs`.
    """
    t = np.asarray(moments, dtype=float)
    draws = np.ones((len(seeds), t.size))
    p = _hadamard_probs(t[1:], per_order)
    for row, rng in zip(draws, child_rngs(seeds)):
        row[1:] = rng.binomial(per_order, p)
    draws[:, 1:] = 2.0 * draws[:, 1:] / per_order - 1.0
    return draws


class EstimationMethod:
    """One method of the command line, answering for itself.

    Every method gives its `plan_row` for ``plan`` and its exact
    broadened `transform` for ``transform``.  A method with a `family`
    (its name in a :class:`Budget`) also estimates:

    * `budget(target, grid, samples)` plans its resources, and
      `check(budget)` rejects a budget the method cannot run;
    * `source(model, budget)` is what its trials sample (Fejer peaks or
      exact moments), `route(model, budget)` a line naming how they
      are drawn (None: no line),
      `draw(model, budget, seeds)` one trial per seed from it, and
      `project(draws, budget, grid)` the trials' transform values on a
      grid, ``trials x grid``;
    * `kernel(budget)` is its kernel, `exact(model, budget, grid,
      source=None)` its exact reference on a grid (read off `source` if
      the method can), `grid(budget, nu)` the frequencies of its
      estimate, and `estimate` one seed's draw as a transform on them.

    `verify_stream` is the seed stream of the method's accuracy contract
    in ``verify`` (None: no contract), `reads_nu` whether it reads the
    requested frequency grid, and `checks_faults` whether ``verify`` runs
    the faulty-evolution sweep with it.
    """

    name: ClassVar[str]
    family: ClassVar[str | None] = None
    verify_stream: ClassVar[int | None] = None
    reads_nu: ClassVar[bool] = True
    checks_faults: ClassVar[bool] = False

    def check(self, budget: Budget) -> None:
        pass

    def exact(self, model: SpectralModel, budget: Budget, grid, source=None) -> TransformGrid:
        return exact_transform(model, self.kernel(budget), grid)

    def route(self, model: SpectralModel, budget: Budget) -> str | None:
        return None

    def estimate(self, model: SpectralModel, budget: Budget, seed: int, nu=None) -> TransformGrid:
        draws = self.draw(model, budget, [seed])
        grid = self.grid(budget, nu)
        kernel = self.kernel(budget)
        return TransformGrid(grid, self.project(draws, budget, grid)[0], kernel.kind, kernel)


class _Histogram(EstimationMethod):
    """Phase estimation: histograms of `n_samples` outcomes on the Fejer grid."""

    name: ClassVar[str] = "fejer"
    family: ClassVar[str] = "fejer"
    verify_stream: ClassVar[int] = 1
    reads_nu: ClassVar[bool] = False
    checks_faults: ClassVar[bool] = True

    def kernel_order(self, target: AccuracyTarget) -> int:
        return fejer_plan(target).n

    def plan_row(self, target: AccuracyTarget) -> dict:
        n = self.kernel_order(target)
        n_faulty, dt = plan_fejer_samples(target.beta, target.eta, faulty=True, n=n)
        return {
            "method": self.name,
            "grid_size": n,
            "n_samples": plan_fejer_samples(target.beta, target.eta),
            "n_samples_faulty": n_faulty,
            "delta_t": dt,
        }

    def budget(self, target: AccuracyTarget, grid=None, samples: int | None = None) -> Budget:
        if samples is None:
            samples = plan_fejer_samples(target.beta, target.eta)
        return Budget(self.family, self.kernel_order(target), samples)

    def kernel(self, budget: Budget) -> KernelSpec:
        return FejerKernel(budget.kernel_order)

    def grid(self, budget: Budget, nu=None) -> np.ndarray:
        return fejer_grid(budget.kernel_order)

    def source(self, model: SpectralModel, budget: Budget) -> FejerPeaks:
        """The model's peaks; their `samples` draw per peak when 32 N < n K, else from the n bins."""
        return qpe_peaks(model, budget.kernel_order)

    def route(self, model: SpectralModel, budget: Budget) -> str:
        peaks = self.source(model, budget)
        how = "per eigenvalue" if peaks.draws_per_peak(budget.n_samples) else "from the n-bin distribution"
        return f"drew {budget.n_samples} shots {how} (n={peaks.n}, K={peaks.phases.size} peaks)"

    def draw(self, model, budget: Budget, seeds, source=None) -> np.ndarray:
        """One row of bin frequencies per seed, each from the stream ``child_rng(seed, 0)``."""
        source = self.source(model, budget) if source is None else source
        if budget.n_samples > np.iinfo(np.int64).max:
            raise ResourceLimitError(f"{budget.n_samples} samples exceed the sampler's 64-bit count range")
        return np.array(list(source.samples(budget.n_samples, child_rngs(seeds, 0)))) / budget.n_samples

    def exact(self, model: SpectralModel, budget: Budget, grid, source=None) -> TransformGrid:
        """The outcome distribution of `source` (None: `model`'s), projected: a trial's mean."""
        source = self.source(model, budget) if source is None else source
        kernel = self.kernel(budget)
        return TransformGrid(self.grid(budget), self.project(source.distribution.probs, budget, grid),
                             kernel.kind, kernel)

    def project(self, draws: np.ndarray, budget: Budget, grid) -> np.ndarray:
        return draws

    def transform(self, model: SpectralModel, target: AccuracyTarget, nu=None) -> TransformGrid:
        budget = self.budget(target)
        return self.exact(model, budget, self.grid(budget))


class _FoldedHistogram(_Histogram):
    """Phase estimation on the walk operator, with ``+-sigma`` outcome pairs merged.

    The spectrum is mapped into [0, 1] by `spectrum_map`.  Outcomes at
    `sigma` and `-sigma` recover the same frequency ``cos(pi sigma)``;
    `project` sums their masses, and `grid` maps the recovered
    frequencies back through the inverse of `spectrum_map`, ascending.
    """

    name: ClassVar[str] = "qfejer"
    family: ClassVar[str] = "qubitized_fejer"
    verify_stream: ClassVar[None] = None
    checks_faults: ClassVar[bool] = False
    spectrum_map: ClassVar[AffineMap] = AffineMap(0.5, 0.5)

    def kernel_order(self, target: AccuracyTarget) -> int:
        return qubitized_fejer_plan(target).n

    def plan_row(self, target: AccuracyTarget) -> dict:
        return {
            "method": self.name,
            "grid_size": self.kernel_order(target),
            "delta_theta": delta_theta(target.delta),
            "n_samples": plan_fejer_samples(target.beta, target.eta),
        }

    def kernel(self, budget: Budget) -> KernelSpec:
        return QubitizedFejerKernel(budget.kernel_order)

    def grid(self, budget: Budget, nu=None) -> np.ndarray:
        n = budget.kernel_order
        unit = np.cos(np.pi * (2.0 * np.arange(n // 2, -1, -1) / n))
        return np.asarray(self.spectrum_map.invert(unit), dtype=float)

    def source(self, model: SpectralModel, budget: Budget) -> FejerPeaks:
        return qubitized_qpe_peaks(model.mapped(self.spectrum_map), budget.kernel_order)

    def project(self, draws: np.ndarray, budget: Budget, grid) -> np.ndarray:
        # sigma_q = 2q/n - 1 pairs outcome n/2 + k with n/2 - k; bin k recovers cos(2 pi k / n)
        h = draws.shape[-1] // 2
        merged = np.zeros(draws.shape[:-1] + (h + 1,))
        merged[..., :h] += draws[..., h:]
        merged[..., 1:] += draws[..., h - 1::-1]
        return merged[..., ::-1]


class _Moments(EstimationMethod):
    """The GIT moment route: Hadamard-test moments projected onto the Gaussian."""

    name: ClassVar[str] = "git"
    family: ClassVar[str] = "git"
    verify_stream: ClassVar[int] = 2

    def kernel_order(self, target: AccuracyTarget) -> int:
        return truncation_order(target).L

    def plan_row(self, target: AccuracyTarget) -> dict:
        budget = truncation_order(target)
        table = coefficient_table(budget.lam, CONTRACT_GRID, budget.L)
        per_order, total, loose = plan_git_samples(budget.L, table, target.beta, target.eta)
        return {
            "method": self.name,
            "order": budget.L,
            "lam": budget.lam,
            "regime": budget.regime,
            "truncation_bound": budget.bound,
            "bound_ok": budget.bound_ok,
            "per_order_shots": per_order,
            "n_samples": total,
            "n_samples_loose": loose,
        }

    def budget(
        self,
        target: AccuracyTarget,
        grid=CONTRACT_GRID,
        samples: int | None = None,
    ) -> Budget:
        """Width, order and shots at `target`.

        The per-order shots are sized on the projection's largest
        coefficient over `grid`, unless `samples` sets the total (split
        evenly over the orders, at least one shot each).
        """
        lam = gaussian_resolution(target)
        order = self.kernel_order(target)
        if samples is not None:
            per_order = max(1, samples // order)
        else:
            grid = np.atleast_1d(np.asarray(grid, dtype=float))
            c_max = projection_cmax(lam, grid, order)
            if not c_max > 0.0:
                where = (f"nu = {grid[0]:g}" if grid.size == 1 else
                         f"all {grid.size} points of the grid over [{grid.min():g}, {grid.max():g}]")
                raise ValidationError(
                    f"no requested frequency sees the kernel: its projection (width "
                    f"{lam:.4g}) vanishes at {where}"
                )
            per_order = plan_git_samples(order, c_max, target.beta, target.eta)[0]
        return Budget(self.family, order, order * per_order, lam=lam, per_order_shots=per_order)

    def check(self, budget: Budget) -> None:
        shots = budget.per_order_shots
        if budget.lam is None or shots is None or budget.n_samples != budget.kernel_order * shots:
            raise ValidationError(
                "git budgets need lam and per_order_shots, with n_samples equal to "
                "kernel_order * per_order_shots"
            )

    def kernel(self, budget: Budget) -> KernelSpec:
        return GaussianKernel(budget.lam)

    def grid(self, budget: Budget, nu) -> np.ndarray:
        return np.atleast_1d(np.asarray(nu, dtype=float))

    def source(self, model: SpectralModel, budget: Budget) -> np.ndarray:
        return model_moments(model, budget.kernel_order)

    def draw(self, model, budget: Budget, seeds, source=None) -> np.ndarray:
        moments = self.source(model, budget) if source is None else source
        return sample_moments(moments, budget.per_order_shots, seeds)

    def project(self, draws: np.ndarray, budget: Budget, grid) -> np.ndarray:
        return projection_values(draws, budget.lam, grid)

    def transform(self, model: SpectralModel, target: AccuracyTarget, nu) -> TransformGrid:
        return exact_transform(model, GaussianKernel(gaussian_resolution(target)), nu)


class _Jackson(EstimationMethod):
    """The amplified Jackson window: planned and transformed, not estimated."""

    name: ClassVar[str] = "jackson"

    def plan_row(self, target: AccuracyTarget) -> dict:
        plan = jackson_plan(target)
        row = {
            "method": self.name,
            "degree": plan.degree,
            "amplifier_degree": plan.k,
            "tau": plan.tau,
            "d_min": plan.d_min,
            "kn_ok": plan.kn_ok,
        }
        if plan.norm_lower is not None:
            row["norm_lower"] = plan.norm_lower
        if plan.norm_upper is not None:
            row["norm_upper"] = plan.norm_upper
        if plan.kernel is None:
            row["degenerate"] = True
        return row

    def transform(self, model: SpectralModel, target: AccuracyTarget, nu) -> TransformGrid:
        plan = jackson_plan(target)
        if plan.kernel is None:
            raise OutOfRegimeError("the window construction degenerates at this target (tau >= 1)")
        return exact_transform(model, plan.kernel, nu)


ESTIMATION_METHODS: dict[str, EstimationMethod] = {
    m.name: m for m in (_Histogram(), _FoldedHistogram(), _Moments(), _Jackson())
}
_FAMILIES = {m.family: m for m in ESTIMATION_METHODS.values() if m.family is not None}
METHODS = tuple(_FAMILIES)


def run_algorithm1(budget: Budget, seed: int, model: SpectralModel) -> TransformGrid:
    """Histogram estimate of the broadened transform.

    Draws ``budget.n_samples`` outcomes from the phase-estimation
    distribution of `model` and returns empirical bin frequencies.  For
    ``method="qubitized_fejer"`` the spectrum is mapped into [0, 1] by
    ``AffineMap(0.5, 0.5)``, and recovered frequencies are mapped back
    through its inverse, with mirror outcome bins merged.
    """
    method = _FAMILIES[budget.method]
    if not isinstance(method, _Histogram):
        raise ValidationError(f"histogram route does not implement {budget.method!r}")
    return method.estimate(model, budget, seed)


def run_algorithm2(
    model: SpectralModel,
    target: AccuracyTarget,
    nu,
    seed: int,
    per_order_shots: int | None = None,
) -> TransformGrid:
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
    if per_order_shots is not None and per_order_shots < 1:
        raise ValidationError(f"per_order_shots must be >= 1, got {per_order_shots!r}")
    git = _FAMILIES["git"]
    samples = None if per_order_shots is None else per_order_shots * git.kernel_order(target)
    return git.estimate(model, git.budget(target, nu, samples), seed, nu)


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
            tsa = (math.ceil(log_eps**2 / delta),
                   math.ceil(log_eps**6 * math.log(1.0 / eta) / (delta**3 * eps**2)))
            fejer = (_FAMILIES["fejer"].kernel_order(target), plan_fejer_samples(eps, eta))
            git_order = _FAMILIES["git"].kernel_order(target)
            for method, (order, n_samples), note in (
                ("tsa", tsa, "analytic; not implemented"),
                ("fejer", fejer, "planned"),
                ("git", (git_order, _agnostic_git_total(git_order, eps, eta)),
                 "planned; coefficient-agnostic samples"),
            ):
                rows.append({"method": method, "delta": delta, "eps": eps,
                             "kernel_order": order, "n_samples": n_samples, "note": note})
    return rows
