"""Unit tests for metrics, the observable bound, and the contract checker."""

import math

import numpy as np
import pytest

from specden.errors import ValidationError
from specden.kernels import AccuracyTarget, FejerKernel, fejer_grid
from specden.metrics import (
    AccuracyReport,
    binomial_threshold,
    merge_reports,
    observable_bound,
    observable_bound_empirical_check,
    scaling_fit,
    total_variation,
)
from specden.numerics import child_rng
from specden.operators import (
    ObservableFn,
    TransformGrid,
    diagonalize,
    exact_transform,
    random_model,
)
from specden.sampling import FaultModel, statevector_qpe


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
    kernel = FejerKernel(n)
    exact = exact_transform(model, kernel, fejer_grid(n))
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


def test_merge_reports_pools_counts():
    base = dict(
        measured_sigma=0.01,
        grid_spacing=0.005,
        threshold=0.9,
        pass_sigma=True,
        pass_beta=True,
    )
    a = AccuracyReport(delta_v=0.05, empirical_confidence=1.0, n_trials=60, **base)
    b = AccuracyReport(delta_v=0.08, empirical_confidence=0.9, n_trials=40, **base)
    merged = merge_reports([a, b], eta=0.05)
    assert merged.n_trials == 100
    assert abs(merged.delta_v - 0.08) < 1e-15
    assert abs(merged.empirical_confidence - 0.96) < 1e-12
    assert abs(merged.threshold - binomial_threshold(0.05, 100)) < 1e-15
    with pytest.raises(ValidationError):
        merge_reports([], eta=0.05)
