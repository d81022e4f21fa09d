"""Unit tests for metrics, the observable bound, and the contract checker."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from specden import cli, estimators, metrics, sampling
from specden.chebgauss import projection_cmax, projection_values, truncation_order
from specden.errors import CoarseGridWarning, OutOfRegimeError, ResourceLimitError, ValidationError
from specden.estimators import (
    CONTRACT_GRID,
    ESTIMATION_METHODS,
    Budget,
    model_moments,
    plan_fejer_samples,
    plan_git_samples,
    run_algorithm1,
    sample_moments,
)
from specden.kernels import (
    AccuracyTarget,
    FejerKernel,
    GaussianKernel,
    fejer_grid,
    evaluation_grid,
    fejer_plan,
    gaussian_resolution,
    grid_spacing,
    sigma_accuracy,
)
from specden.metrics import (
    AccuracyReport,
    binomial_threshold,
    bounded_observables,
    contract_report,
    observable_bound,
    observable_bound_empirical_check,
    scaling_fit,
    total_variation,
)
from specden.numerics import child_rng, derive_seed, derive_seeds
from specden.operators import (
    ObservableFn,
    SpectralModel,
    TransformGrid,
    diagonalize,
    exact_transform,
    observable_exact,
    observable_from_transform,
    random_model,
    random_spectrum,
)
from specden.sampling import FaultModel, qpe_distribution, qpe_peaks, statevector_qpe


def _grid(values, freqs=None, kind="density"):
    f = np.linspace(-1, 1, len(values)) if freqs is None else freqs
    return TransformGrid(f, np.asarray(values, dtype=float), kind=kind)


def test_total_variation_is_sup_norm():
    a = _grid([0.0, 1.0, 0.5, 0.2])
    b = _grid([0.1, 0.7, 0.5, 0.1])
    assert abs(total_variation(a, b) - 0.3) < 1e-15


def test_total_variation_grid_and_kind_guards():
    a = _grid([0.0, 1.0])
    with pytest.raises(ValidationError):
        total_variation(a, _grid([0.0, 1.0, 0.0]))
    shifted = TransformGrid(np.array([-1.0, 0.9]), np.array([0.0, 1.0]), kind="density")
    with pytest.raises(ValidationError):
        total_variation(a, shifted)
    discrete = TransformGrid(a.frequencies, a.values, kind="discrete")
    with pytest.raises(ValidationError):
        total_variation(a, discrete)


def test_total_variation_metric_properties():
    rng = child_rng(111)
    freqs = np.linspace(-1, 1, 33)
    for _ in range(25):
        x = _grid(rng.normal(size=33), freqs)
        y = _grid(rng.normal(size=33), freqs)
        z = _grid(rng.normal(size=33), freqs)
        dxy = total_variation(x, y)
        assert dxy >= 0
        assert total_variation(x, x) == 0.0
        assert abs(dxy - total_variation(y, x)) < 1e-15
        assert dxy <= total_variation(x, z) + total_variation(z, y) + 1e-15


def test_decomposition_triangle_for_faulty_estimates():
    # exact vs faulty-estimated deviation splits into exact-vs-faulty-exact
    # plus faulty-exact-vs-estimate legs
    op, psi = random_model(6, seed=301)
    model = diagonalize(op, psi)
    n = 32
    exact = _fejer_reference(model, FejerKernel(n))
    faulty_exact_probs = statevector_qpe(op, psi, 5, fault=FaultModel(delta_t=1e-2, seed=5)).probs
    faulty_exact = TransformGrid(fejer_grid(n), faulty_exact_probs, kind="discrete")
    counts = child_rng(9, 0).multinomial(2000, faulty_exact_probs / faulty_exact_probs.sum())
    noisy = TransformGrid(fejer_grid(n), counts / 2000, kind="discrete")
    left = total_variation(exact, noisy)
    right = total_variation(exact, faulty_exact) + total_variation(faulty_exact, noisy)
    assert left <= right + 1e-15


def test_observable_bound_constant_and_linear():
    target = AccuracyTarget(sigma=0.25, delta=0.1, beta=0.1)
    const = observable_bound(ObservableFn(fn=lambda w: np.ones_like(w), name="one"), target)
    assert abs(const.f_max - 1.0) < 1e-14
    assert abs(const.f_int - 2.0) < 1e-12
    assert const.f_delta_max == 0.0
    assert abs(const.total - 0.7) < 1e-12
    linear = observable_bound(ObservableFn(fn=lambda w: w, name="omega"), target)
    assert abs(linear.f_delta_max - target.delta) < 1e-14
    assert abs(linear.f_int - 1.0) < 1e-10
    assert abs(linear.total - 0.7) < 1e-10


def test_observable_bound_monotone_in_target():
    f = ObservableFn(fn=np.cos)
    base = observable_bound(f, AccuracyTarget(sigma=0.1, delta=0.1, beta=0.1)).total
    assert observable_bound(f, AccuracyTarget(sigma=0.2, delta=0.1, beta=0.1)).total > base
    assert observable_bound(f, AccuracyTarget(sigma=0.1, delta=0.2, beta=0.1)).total > base
    assert observable_bound(f, AccuracyTarget(sigma=0.1, delta=0.1, beta=0.2)).total > base


def test_observable_bound_window_sup_nondecreasing_in_delta():
    f = ObservableFn(fn=lambda w: np.sin(3 * w))
    deltas = [0.02, 0.05, 0.1, 0.2]
    sups = [
        observable_bound(f, AccuracyTarget(sigma=0.1, delta=d, beta=0.1), spacing=0.005).f_delta_max
        for d in deltas
    ]
    assert all(a <= b + 1e-12 for a, b in zip(sups, sups[1:]))


def test_observable_bound_grid_refinement_stable():
    f = ObservableFn(fn=lambda w: np.exp(w) * np.sin(5 * w))
    target = AccuracyTarget(sigma=0.1, delta=0.1, beta=0.1)
    coarse = observable_bound(f, target, spacing=0.005).total
    fine = observable_bound(f, target, spacing=0.0025).total
    assert abs(coarse - fine) / fine < 0.05


def _window_sup_per_offset(fn, target, spacing=None):
    # the window sup one offset at a time: each offset's shifted grid is its own
    # call, and its NaN cells are left out of that offset's maximum
    omega = evaluation_grid(grid_spacing(target.delta, spacing))
    center = fn(omega)
    sup = 0.0
    for off in np.linspace(-target.delta, target.delta, 41):
        sup = max(sup, float(np.nanmax(np.abs(fn(omega + off) - center))))
    return sup


@pytest.mark.parametrize("block_rows", [None, 1, 3, 40])
def test_observable_bound_blocks_equal_the_per_offset_loop(monkeypatch, block_rows):
    # NaN outside [-1, 1] (a square root), a scalar-valued lambda (drawn per
    # element) and a kink all keep the per-offset result bit for bit
    target = AccuracyTarget(sigma=0.1, delta=0.07, beta=0.1)
    spacing = 0.01
    size = evaluation_grid(spacing).size
    if block_rows is not None:
        monkeypatch.setattr(metrics, "_BLOCK_CELLS", block_rows * size + size // 2)
    fns = [
        ObservableFn(lambda w: np.sin(7 * w) * np.exp(w)),
        ObservableFn(lambda w: np.abs(w - 0.3)),
        ObservableFn(lambda w: np.sqrt(np.maximum(1.0 - w * w, 0.0))),
        ObservableFn(lambda w: np.sqrt(1.0 - w * w)),
        ObservableFn(lambda w: 2.0),
    ]
    with np.errstate(invalid="ignore"):
        for fn in fns:
            bound = observable_bound(fn, target, spacing)
            assert bound.f_delta_max == _window_sup_per_offset(fn, target, spacing)


def test_observable_bound_leaves_out_nan_cells_not_whole_shifts():
    # sqrt(1 - w^2) is NaN past +-1, where every nonzero shift reaches: its
    # finite cells still count, so the bound is the clipped observable's
    target = AccuracyTarget(sigma=0.1, delta=0.1, beta=0.1)
    with np.errstate(invalid="ignore"):
        raw = observable_bound(ObservableFn(lambda w: np.sqrt(1.0 - w * w)), target)
    clipped = observable_bound(ObservableFn(lambda w: np.sqrt(np.maximum(1.0 - w * w, 0.0))), target)
    assert raw == clipped
    assert round(raw.f_delta_max, 4) == 0.4359
    assert round(raw.total, 4) == 0.7929


def test_observable_bound_evaluates_each_block_once():
    # one call for the grid and one per block of shifted grids, each within
    # _BLOCK_CELLS: at delta = 0.001 the 41 shifts of 40,001 points come in
    # blocks of six, never as one 41 x 40,001 array
    sizes = []

    def recorded(w):
        sizes.append(np.size(w))
        return np.cos(w)

    for delta, calls in ((0.25, 2), (0.001, 1 + math.ceil(41 / 6))):
        sizes.clear()
        observable_bound(ObservableFn(recorded), AccuracyTarget(sigma=0.1, delta=delta, beta=0.1))
        assert len(sizes) == calls
        assert max(sizes) <= metrics._BLOCK_CELLS
    assert sizes[0] == 40_001 and sizes[1] == 6 * 40_001


def test_binomial_threshold_golden():
    assert abs(binomial_threshold(0.05, 200) - 0.919794371385452) < 1e-12
    assert binomial_threshold(0.05, 200, z=0.0) == 0.95
    with pytest.raises(ValidationError):
        binomial_threshold(0.05, 0)


def test_scaling_fit_recovers_power_law():
    x = np.logspace(0, 3, 12)
    y = 7.0 * x**2
    exponent, intercept, r2 = scaling_fit(x, y)
    assert abs(exponent - 2.0) < 1e-12
    assert abs(intercept - math.log(7.0)) < 1e-10
    assert abs(r2 - 1.0) < 1e-12


def test_scaling_fit_validation():
    with pytest.raises(ValidationError):
        scaling_fit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        scaling_fit([1.0, 2.0, 3.0, -4.0], [1.0, 2.0, 3.0, 4.0])


def test_accuracy_report_passed_flag():
    base = dict(
        measured_sigma=0.01,
        delta_v=0.05,
        empirical_confidence=0.99,
        grid_spacing=0.005,
        n_trials=100,
        threshold=0.9,
        pass_sigma=True,
        pass_beta=True,
    )
    assert AccuracyReport(**base).passed()
    assert not AccuracyReport(**{**base, "pass_sigma": False}).passed()
    assert not AccuracyReport(**{**base, "pass_bound": False}).passed()
    assert AccuracyReport(**{**base, "pass_bound": True}).passed()


def test_observable_check_fejer_small_run():
    op, psi = random_model(8, seed=501)
    model = diagonalize(op, psi)
    target = AccuracyTarget(sigma=0.25, delta=0.1, beta=0.1, eta=0.05)
    f = [ObservableFn(fn=lambda w: np.ones_like(w), name="one"), ObservableFn(fn=lambda w: w, name="omega")]
    report = observable_bound_empirical_check(model, "fejer", f, target, trials=25, seed=601)
    assert report.n_trials == 25
    assert report.pass_sigma
    assert report.delta_v <= 0.1
    assert set(report.observable_bounds) == {"one", "omega"}
    assert report.passed()
    again = observable_bound_empirical_check(model, "fejer", f, target, trials=25, seed=601)
    assert again.delta_v == report.delta_v



# one trial of a one-peak model
_ONE_TRIAL = [(SpectralModel(np.array([0.0]), np.array([1.0])), [1])]
# every caller that builds a grid from a spacing, by name; contract_report checks
# its spacing in its setup, before it plans the budget or draws a trial
_SPACING_CALLS = {
    "observable_bound": lambda target, spacing: observable_bound(lambda w: w, target, spacing),
    "contract_setup": lambda target, spacing: contract_report("git", (), target, _ONE_TRIAL, spacing),
    "sigma_accuracy": lambda target, spacing: sigma_accuracy(GaussianKernel(0.1), target.delta, spacing),
    "cli": lambda target, spacing: cli._nu_grid(cli.RunConfig("verify", grid_spacing=spacing), target),
}


@pytest.mark.parametrize("spacing", [math.inf, math.nan, 0.0, -0.01])
@pytest.mark.parametrize("call", ["observable_bound", "contract_setup", "sigma_accuracy", "cli"])
def test_every_grid_spacing_is_checked(call, spacing):
    # one rule: a spacing that is not finite and positive is a ValidationError, so
    # no grid is built from it (inf read as a spacing of 2/3, nan and inf as raw
    # ValueErrors of numpy or math)
    with pytest.raises(ValidationError, match="grid spacing must be finite and positive"):
        _SPACING_CALLS[call](AccuracyTarget(sigma=0.1, delta=0.2), spacing)


@pytest.mark.parametrize("call", ["observable_bound", "contract_setup", "sigma_accuracy", "cli"])
def test_every_grid_spacing_is_capped_before_allocating(call):
    # a spacing of 1e-10 asks for 2e10 points over [-1, 1]: library callers are
    # refused as the command line is, before any grid is built
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="points of the evaluation grid"):
            _SPACING_CALLS[call](AccuracyTarget(sigma=0.1, delta=0.2), 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_observable_bound_and_contract_share_one_spacing():
    # both read the grid of kernels.evaluation_grid: at a spacing of 1 it has
    # three points, where the observable bound used to floor it at four
    target = AccuracyTarget(sigma=0.1, delta=0.2)
    assert observable_bound(lambda w: w, target, 1.0).grid_spacing == 1.0
    assert contract_report("git", (), target, _ONE_TRIAL, 1.0).grid_spacing == 1.0


def _fejer_reference(model, kernel):
    # the fejer contract's reference: the outcome distribution on the Fejer grid
    probs = qpe_distribution(model, kernel.n).probs
    return TransformGrid(fejer_grid(kernel.n), probs, kernel.kind, kernel)


def test_observable_check_fejer_builds_one_distribution_per_model(monkeypatch):
    models = [diagonalize(*random_model(6, seed=s)) for s in (507, 509)]
    target = AccuracyTarget(sigma=0.25, delta=0.1, beta=0.1, eta=0.05)
    builds = []
    # the fejer method of the registry builds the distribution its trials draw
    # from, and reads its reference off that same distribution
    mixture = sampling._fejer_mixture
    monkeypatch.setattr(sampling, "_fejer_mixture", lambda *a: builds.append(a[2]) or mixture(*a))
    report = observable_bound_empirical_check(models, "fejer", None, target, trials=7, seed=611)
    assert len(builds) == len(models)
    # trial j of model i is the histogram run_algorithm1 draws with seed (611, i, j)
    kernel = fejer_plan(target)
    budget = Budget("fejer", kernel.n, plan_fejer_samples(target.beta, target.eta))
    runs = [
        total_variation(
            _fejer_reference(m, kernel),
            run_algorithm1(budget, derive_seed(611, i, j), model=m),
        )
        for i, m in enumerate(models)
        for j in range(7)
    ]
    assert report.delta_v == max(runs)
    assert report.empirical_confidence == sum(r <= target.beta for r in runs) / len(runs)


def test_observable_check_fejer_draws_per_eigenvalue_when_shots_are_few(monkeypatch):
    models = [diagonalize(*random_model(6, seed=s)) for s in (507, 509)]
    target = AccuracyTarget(sigma=0.25, delta=0.1, beta=0.1, eta=0.05)
    kernel = fejer_plan(target)
    # 32 * 6 shots < n K = 64 * 6: the trials are drawn per eigenvalue
    n_samples = 6
    assert 32 * n_samples < kernel.n * 6
    builds = []
    mixture = sampling._fejer_mixture
    monkeypatch.setattr(sampling, "_fejer_mixture", lambda *a: builds.append(a[2]) or mixture(*a))
    report = observable_bound_empirical_check(
        models, "fejer", None, target, trials=7, seed=611, n_samples=n_samples
    )
    # the trials build no distribution; each model's reference builds one
    assert builds == [kernel.n] * len(models)
    # trial j of model i is still the histogram run_algorithm1 draws with seed (611, i, j)
    budget = Budget("fejer", kernel.n, n_samples)
    runs = [
        total_variation(
            _fejer_reference(m, kernel),
            run_algorithm1(budget, derive_seed(611, i, j), model=m),
        )
        for i, m in enumerate(models)
        for j in range(7)
    ]
    assert report.delta_v == max(runs)
    assert report.empirical_confidence == sum(r <= target.beta for r in runs) / len(runs)


def test_observable_check_git_margin_grid():
    op, psi = random_model(8, seed=503)
    model = diagonalize(op, psi)
    target = AccuracyTarget(sigma=0.1, delta=0.2, beta=0.1, eta=0.05)
    report = observable_bound_empirical_check(
        model, "git", ObservableFn(fn=lambda w: np.ones_like(w), name="one"), target, trials=8, seed=603
    )
    assert report.margin_delta_v is not None
    # the margin grid extends past [-1, 1]; deviation there stays comparable
    assert report.margin_delta_v <= 3.0 * max(report.delta_v, 0.02)
    assert report.pass_sigma and report.pass_beta


def test_observable_check_underbudgeted_run_fails_beta():
    op, psi = random_model(8, seed=505)
    model = diagonalize(op, psi)
    target = AccuracyTarget(sigma=0.25, delta=0.1, beta=0.02, eta=0.05)
    report = observable_bound_empirical_check(model, "fejer", None, target, trials=20, seed=605, n_samples=5)
    assert not report.pass_beta
    assert report.observable_bounds is None


def test_observable_check_validation():
    model = diagonalize(*random_model(4, seed=1))
    target = AccuracyTarget(sigma=0.25, delta=0.1)
    with pytest.raises(ValidationError):
        observable_bound_empirical_check([], "fejer", None, target, trials=5, seed=1)
    with pytest.raises(ValidationError):
        observable_bound_empirical_check(model, "jackson", None, target, trials=5, seed=1)
    with pytest.raises(ValidationError):
        observable_bound_empirical_check(model, "fejer", None, target, trials=0, seed=1)


def _reference_check(models, method, f, target, trials, seed, spacing=None, n_samples=None):
    # The contract check one trial at a time, each trial a transform grid
    # compared by total_variation and integrated by observable_from_transform.
    if f is None:
        fns = []
    elif callable(f) or isinstance(f, ObservableFn):
        fns = [f if isinstance(f, ObservableFn) else ObservableFn(fn=f)]
    else:
        fns = [g if isinstance(g, ObservableFn) else ObservableFn(fn=g) for g in f]
    names = [g.name if g.name != "f" else f"f{i}" for i, g in enumerate(fns)]
    bounds = {name: observable_bound(g, target, spacing) for name, g in zip(names, fns)}
    h = target.delta / 20.0 if spacing is None else float(spacing)
    if method == "fejer":
        kernel = fejer_plan(target)
        tail = sigma_accuracy(kernel, target.delta, h)
        if n_samples is None:
            n_samples = plan_fejer_samples(target.beta, target.eta)
    else:
        lam = gaussian_resolution(target)
        kernel = GaussianKernel(lam)
        tail = sigma_accuracy(kernel, target.delta, h)
        order = truncation_order(target).L
        if n_samples is None:
            c_max = projection_cmax(lam, CONTRACT_GRID, order)
            per_order, _, _ = plan_git_samples(order, c_max, target.beta, target.eta)
        else:
            per_order = max(1, n_samples // order)
        margin = 8.0 * lam
        dense = np.arange(-1.0 - margin, 1.0 + margin + h / 2.0, h)
    worst = worst_margin = 0.0
    hits = total_runs = 0
    obs_hits = {name: 0 for name in names}
    for i, mod in enumerate(models):
        q_exact = {name: observable_exact(mod, g) for name, g in zip(names, fns)}
        if method == "fejer":
            ref = _fejer_reference(mod, kernel)
            # few shots against the n x K mixture are drawn per eigenvalue
            few = 32 * n_samples < kernel.n * mod.size
            peaks = qpe_peaks(mod, kernel.n)
            sample = peaks.sample if few else peaks.distribution.sample
        else:
            ref = exact_transform(mod, kernel, CONTRACT_GRID)
            ref_dense = exact_transform(mod, kernel, dense)
            seeds = [derive_seed(seed, i, j) for j in range(trials)]
            draws = sample_moments(model_moments(mod, order), per_order, seeds)
            contract_values = projection_values(draws, lam, CONTRACT_GRID)
            dense_values = projection_values(draws, lam, dense)
        for j in range(trials):
            if method == "fejer":
                values = sample(n_samples, child_rng(derive_seed(seed, i, j), 0)) / n_samples
                estimate = obs_grid = TransformGrid(fejer_grid(kernel.n), values, kernel.kind, kernel)
            else:
                estimate = TransformGrid(CONTRACT_GRID, contract_values[j], "density", kernel)
                obs_grid = TransformGrid(dense, dense_values[j], "density", kernel)
                worst_margin = max(worst_margin, total_variation(ref_dense, obs_grid))
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
        pass_bound=all(c >= threshold for c in obs_conf.values()) if fns else None,
    )


_ORACLE_TARGETS = {
    "fejer": AccuracyTarget(sigma=0.25, delta=0.1, beta=0.1, eta=0.05),
    "git": AccuracyTarget(sigma=0.1, delta=0.2, beta=0.1, eta=0.05),
}
_ORACLE_OBSERVABLES = [
    ObservableFn(fn=lambda w: np.ones_like(w), name="one"),
    lambda w: w,
    ObservableFn(fn=lambda w: np.abs(w) ** 1.5),
]


@pytest.mark.parametrize("method", ["fejer", "git"])
@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("trials", [7, 13])
@pytest.mark.parametrize("observables", [None, _ORACLE_OBSERVABLES])
def test_observable_check_equals_the_per_trial_loop(method, count, trials, observables):
    kinds = ("dense", "spiked", "gapped")
    models = [diagonalize(*random_model(6 + 2 * i, seed=800 + i, kind=kinds[i])) for i in range(count)]
    target = _ORACLE_TARGETS[method]
    model = models[0] if count == 1 else models
    got = observable_bound_empirical_check(model, method, observables, target, trials, seed=811)
    assert got == _reference_check(models, method, observables, target, trials, seed=811)
    assert got.n_trials == count * trials


# git runs at order 52: 30 and 2 shots per order
@pytest.mark.parametrize(
    "method, n_samples", [("fejer", 40), ("fejer", 2), ("git", 52 * 30), ("git", 52 * 2)]
)
def test_observable_check_equals_the_per_trial_loop_under_budget(method, n_samples):
    # an under-budgeted run misses beta in some trials, and at the smaller
    # budgets also the bound of the identity observable, so the hit counts
    # themselves are compared
    models = [diagonalize(*random_model(8, seed=s)) for s in (821, 823)]
    target = _ORACLE_TARGETS[method]
    args = (models, method, _ORACLE_OBSERVABLES, target, 13, 827, 0.01, n_samples)
    got = observable_bound_empirical_check(*args)
    assert got == _reference_check(*args)
    assert got.empirical_confidence < 1.0


@pytest.mark.parametrize("rows", [1, 3])
def test_observable_check_fejer_blocks_equal_the_per_trial_loop(monkeypatch, rows):
    # blocks of one and of three histograms (13 trials: a short last block)
    # give the report of the per-trial loop
    models = [diagonalize(*random_model(6, seed=s)) for s in (851, 853)]
    target = _ORACLE_TARGETS["fejer"]
    monkeypatch.setattr(metrics, "_BLOCK_CELLS", rows * fejer_plan(target).n)
    args = (models, "fejer", _ORACLE_OBSERVABLES, target, 13, 857, None, 20)
    assert observable_bound_empirical_check(*args) == _reference_check(*args)


def test_contract_check_memory_stays_flat_in_the_trial_count():
    # git at (0.1, 0.02, 0.1): blocks of 2^16 cells of the 5-point contract grid
    # were 13,107 trials, each projected onto the 2,150 dense points; they held
    # 454 MiB at 6,000 trials
    target = AccuracyTarget(sigma=0.1, delta=0.02, beta=0.1)
    observables = bounded_observables([ObservableFn(np.ones_like, "one")], target)
    budget = estimators.ESTIMATION_METHODS["git"].budget(target)
    margin = 8.0 * budget.lam
    dense = np.arange(-1.0 - margin, 1.0 + margin + 0.001 / 2.0, 0.001)
    assert (budget.kernel_order, CONTRACT_GRID.size, dense.size) == (619, 5, 2150)
    model = SpectralModel.from_amplitudes(*random_spectrum(8, 1))
    trials = [(model, [derive_seed(1, 0, j) for j in range(6000)])]
    tracemalloc.start()
    try:
        report = contract_report("git", observables, target, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_trials == 6000
    assert peak < 32 * 2**20


def test_contract_report_memory_stays_flat_in_the_model_count():
    # a model's source, references and last block of trials are freed before
    # the next model's are built: held over, they took the traced peak of
    # three git models 0.35 MB above that of one
    target = AccuracyTarget(sigma=0.1, delta=0.02, beta=0.1)
    models = [SpectralModel.from_amplitudes(*random_spectrum(16, s)) for s in (1, 2, 3)]
    peaks = []
    for count in (1, 3):
        tracemalloc.start()
        try:
            contract_report("git", (), target, [(m, list(range(20))) for m in models[:count]])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2**16


def test_per_peak_contract_builds_each_models_tables_once(monkeypatch):
    # n = 256 bins and K = 64 eigenvalues against 185 shots: every trial draws
    # per peak from one set of peaks, whose tables are built on its first trial
    target = AccuracyTarget(sigma=0.1, delta=0.05, beta=0.1)
    fejer = estimators.ESTIMATION_METHODS["fejer"]
    budget = fejer.budget(target)
    assert (budget.kernel_order, budget.n_samples) == (256, 185)
    models = [SpectralModel.from_amplitudes(*random_spectrum(64, seed, "spiked")) for seed in (1, 2)]
    assert all(isinstance(fejer.source(m, budget), sampling.FejerPeaks) for m in models)
    built = []
    tables = sampling._peak_tables
    monkeypatch.setattr(sampling, "_peak_tables", lambda *a: built.append(a) or tables(*a))
    trials = [(m, [derive_seed(seed, 0, j) for j in range(6)]) for m, seed in zip(models, (1, 2))]
    assert contract_report("fejer", (), target, trials).n_trials == 12
    assert [a[0].size for a in built] == [64, 64]


def test_contract_setup_serves_every_model_alike():
    # one set of bounded observables checked model by model, with verify's
    # seeds, gives each model the report of its own per-trial loop
    models = [diagonalize(*random_model(6, seed=s)) for s in (831, 833)]
    target = _ORACLE_TARGETS["git"]
    observables = bounded_observables(_ORACLE_OBSERVABLES, target)
    assert [ob.name for ob in observables] == ["one", "f1", "f2"]
    seeds = [derive_seed(837, 100 + i) for i in range(len(models))]
    got = [
        contract_report("git", observables, target, [(m, derive_seeds(s, 0, count=5))])
        for m, s in zip(models, seeds)
    ]
    ref = [_reference_check([m], "git", _ORACLE_OBSERVABLES, target, 5, s) for m, s in zip(models, seeds)]
    assert got == ref
    # no model, a model without seeds, and a method without a contract
    for method, trials in [("git", []), ("git", [(models[0], [1]), (models[1], [])]),
                           ("qfejer", [(models[0], [1])])]:
        with pytest.raises(ValidationError):
            contract_report(method, observables, target, trials)


def test_observable_check_coarse_grid_warns_as_the_per_trial_loop():
    # spacing 0.2 is above the kernel width 0.093: both routes warn with the
    # same category and text
    model = SpectralModel(np.array([-0.3, 0.4]), np.array([0.5, 0.5]))
    target = _ORACLE_TARGETS["git"]
    f = ObservableFn(fn=lambda w: w, name="identity")
    with pytest.warns(CoarseGridWarning) as got_warnings:
        got = observable_bound_empirical_check(model, "git", f, target, 4, 841, spacing=0.2)
    with pytest.warns(CoarseGridWarning) as ref_warnings:
        ref = _reference_check([model], "git", f, target, 4, 841, spacing=0.2)
    assert got == ref
    assert {str(w.message) for w in got_warnings} == {str(w.message) for w in ref_warnings}
    assert all(w.category is CoarseGridWarning for w in got_warnings)


def test_contract_report_pools_counts():
    # confidences are pooled hits over pooled trials: two models of 5 and 11
    # trials that hit 5 and 8 times pool to 13/16, where the mean of their
    # fractions is 0.8636; the worst deviations are each the worse model's
    target = _ORACLE_TARGETS["git"]
    observables = bounded_observables(_ORACLE_OBSERVABLES, target)
    models = [diagonalize(*random_model(8, seed=s)) for s in (821, 823)]
    trials = [(models[0], derive_seeds(1, 0, count=5)), (models[1], derive_seeds(2, 0, count=11))]
    # at 2 shots per order f2's bound is hit 5 and 8 times (and the worst
    # deviation is the second model's, the worst margin the first's); at 800 beta is
    for n_samples, name in [(52 * 2, "f2"), (52 * 800, None)]:
        alone = [contract_report("git", observables, target, [pair], n_samples=n_samples) for pair in trials]
        merged = contract_report("git", observables, target, trials, n_samples=n_samples)
        pooled = merged.empirical_confidence if name is None else merged.observable_confidence[name]
        assert pooled == 13 / 16
        assert merged.n_trials == 16
        assert merged.empirical_confidence == sum(round(r.empirical_confidence * r.n_trials) for r in alone) / 16
        for ob, confidence in merged.observable_confidence.items():
            assert confidence == sum(round(r.observable_confidence[ob] * r.n_trials) for r in alone) / 16
        assert merged.delta_v == max(r.delta_v for r in alone)
        assert merged.margin_delta_v == max(r.margin_delta_v for r in alone)
        assert merged.threshold == binomial_threshold(target.eta, 16)
        assert all(r.measured_sigma == merged.measured_sigma and r.grid_spacing == merged.grid_spacing
                   for r in alone)
        assert not merged.pass_beta  # 13/16 falls short of the 16-trial threshold, 0.843
        assert merged.pass_bound == all(c >= merged.threshold for c in merged.observable_confidence.values())


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    sigma=_log_uniform(0.02, 0.5),
    delta=_log_uniform(0.02, 0.5),
    beta=st.floats(0.05, 0.3),
    eta=st.floats(0.01, 0.2),
    kind=st.sampled_from(["spiked", "gapped"]),
    dim=st.sampled_from([8, 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_contract_holds_over_accepted_targets(sigma, delta, beta, eta, kind, dim, seed):
    # the contract verify advertises, at targets the planners accept, on two
    # generated models of 10 trials each with the command line's observables;
    # pass_beta is left out: at a true confidence of exactly 1 - eta the
    # binomial verdict fails about 2.5% of the time
    target = AccuracyTarget(sigma, delta, beta, eta)
    methods = ("fejer", "git")
    try:
        for method in methods:
            ESTIMATION_METHODS[method].budget(target)
    except (OutOfRegimeError, ResourceLimitError):
        reject()
    observables = bounded_observables(
        [ObservableFn(np.ones_like, "one"), ObservableFn(lambda w: w, "identity")], target)
    models = [SpectralModel.from_amplitudes(*random_spectrum(dim, derive_seed(seed, i), kind)) for i in range(2)]
    trials = [(model, derive_seeds(seed, 100 + i, count=10)) for i, model in enumerate(models)]
    for method in methods:
        report = contract_report(method, observables, target, trials)
        assert report.pass_sigma and report.pass_bound, (method, report)
