"""Unit tests for the kernel families, their planners, and tail measurement."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from specden.errors import OutOfRegimeError, ResourceLimitError, ValidationError
from specden.kernels import (
    AccuracyTarget,
    FejerKernel,
    GaussianKernel,
    JacksonKernel,
    QubitizedFejerKernel,
    amplifier_coeffs,
    amplifier_contract_check,
    delta_theta,
    fejer_eval,
    fejer_grid,
    fejer_plan,
    fejer_tail_bound,
    gaussian_eval,
    gaussian_resolution,
    gaussian_tail_mass,
    jackson_approx,
    jackson_coeffs,
    jackson_damping,
    jackson_eval,
    jackson_plan,
    jackson_tent,
    jackson_tent_error,
    jackson_thresholds,
    kernel_from_json,
    kernel_to_json,
    kernel_value,
    kernel_width,
    qubitized_fejer_eval,
    qubitized_fejer_plan,
    recovered_frequency,
    sigma_accuracy,
)
from specden.numerics import child_rng


def test_accuracy_target_validation():
    with pytest.raises(ValidationError):
        AccuracyTarget(sigma=0.0, delta=0.1)
    with pytest.raises(ValidationError):
        AccuracyTarget(sigma=0.1, delta=1.0)
    with pytest.raises(ValidationError):
        AccuracyTarget(sigma=0.1, delta=0.1, beta=-0.2)
    t = AccuracyTarget(sigma=0.25, delta=0.1)
    assert t.beta == 0.1 and t.eta == 0.05


def test_fejer_grid_layout():
    g = fejer_grid(8)
    np.testing.assert_allclose(g, np.arange(8) / 4.0 - 1.0, atol=1e-15)
    with pytest.raises(ValidationError):
        fejer_grid(24)


def test_fejer_eval_is_a_distribution():
    # masses over the grid sum to one for any center, on or off the grid
    rng = child_rng(401)
    n = 64
    grid = fejer_grid(n)
    for omega in [-1.0, 0.0, 0.3125, float(rng.uniform(-1, 1))]:
        masses = fejer_eval(grid, omega, n)
        assert np.all(masses >= 0.0)
        assert abs(masses.sum() - 1.0) < 1e-12
    # exact peak value at zero distance
    assert abs(fejer_eval(0.25, 0.25, n) - 1.0) < 1e-14


def test_fejer_eval_periodic():
    n = 32
    x = np.linspace(-1, 1, 17)
    np.testing.assert_allclose(
        fejer_eval(x, 0.1, n), fejer_eval(x + 2.0, 0.1, n), atol=1e-13
    )


def test_fejer_plan_goldens():
    assert fejer_plan(AccuracyTarget(sigma=0.25, delta=0.1)).n == 64
    assert fejer_plan(AccuracyTarget(sigma=0.1, delta=0.01)).n == 2048
    assert fejer_plan(AccuracyTarget(sigma=0.05, delta=0.01)).n == 4096


def test_fejer_plan_cap():
    with pytest.raises(ResourceLimitError):
        fejer_plan(AccuracyTarget(sigma=0.25, delta=1e-8))


def test_fejer_tail_bound_formula():
    assert abs(fejer_tail_bound(64, 0.1) - 1.0 / (6.4 - 2.0)) < 1e-15
    with pytest.raises(ValidationError):
        fejer_tail_bound(16, 0.1)


def test_fejer_tail_bound_dominates_measurement():
    for n, delta in [(64, 0.1), (256, 0.05), (1024, 0.02)]:
        worst = sigma_accuracy(FejerKernel(n), delta).value
        assert worst <= fejer_tail_bound(n, delta) + 1e-12


def test_delta_theta_value_and_small_delta():
    want = math.sqrt(1.1) - 1.0
    assert abs(delta_theta(0.1) - want) < 1e-15
    # stable for tiny arguments: delta/2 to first order, no cancellation
    assert abs(delta_theta(1e-12) / 5e-13 - 1.0) < 1e-12
    with pytest.raises(ValidationError):
        delta_theta(0.0)


def test_qubitized_fejer_eval_folding():
    n = 64
    grid = fejer_grid(n)
    omega = 0.42
    t = math.acos(omega) / math.pi
    want = 0.5 * (fejer_eval(grid, t, n) + fejer_eval(grid, -t, n))
    np.testing.assert_allclose(qubitized_fejer_eval(grid, omega, n), want, atol=1e-14)
    assert abs(qubitized_fejer_eval(grid, omega, n).sum() - 1.0) < 1e-12
    with pytest.raises(ValidationError):
        qubitized_fejer_eval(grid, 1.5, n)


def test_qubitized_fejer_plan_golden():
    assert qubitized_fejer_plan(AccuracyTarget(sigma=0.25, delta=0.1)).n == 256


def test_recovered_frequency_inverts_arc():
    sigma = np.array([-1.0, -0.5, 0.0, 0.25, 1.0])
    np.testing.assert_allclose(recovered_frequency(sigma), np.cos(np.pi * sigma), atol=1e-15)


def test_qubitized_planned_tail_margins():
    # frozen worst-case leakage of the planned folded kernels
    cases = [
        (0.25, 0.1, 0.099251),
        (0.1, 0.1, 0.050336),
        (0.05, 0.1, 0.025276),
        (0.1, 0.2, 0.050197),
    ]
    for sigma, delta, worst in cases:
        kernel = qubitized_fejer_plan(AccuracyTarget(sigma=sigma, delta=delta))
        acc = sigma_accuracy(kernel, delta)
        assert acc.value <= sigma
        assert abs(acc.value - worst) < 5e-5


def test_gaussian_resolution_goldens():
    lam1 = gaussian_resolution(AccuracyTarget(sigma=0.1, delta=0.2))
    lam2 = gaussian_resolution(AccuracyTarget(sigma=0.25, delta=0.1))
    assert abs(lam1 - 0.2 / math.sqrt(2.0 * math.log(10.0))) < 1e-15
    assert abs(lam2 - 0.1 / math.sqrt(2.0 * math.log(4.0))) < 1e-15
    assert abs(lam1 - 0.093198) < 5e-7
    assert abs(lam2 - 0.0600561) < 5e-8


def test_gaussian_tail_mass_matches_planned_width():
    for sigma, delta in [(0.05, 0.05), (0.1, 0.1), (0.25, 0.2)]:
        lam = gaussian_resolution(AccuracyTarget(sigma=sigma, delta=delta))
        tail = gaussian_tail_mass(delta, lam)
        assert tail <= sigma + 1e-12
        # the planned width saturates the budget exactly
        assert abs(tail - math.erfc(math.sqrt(math.log(1.0 / sigma)))) < 1e-14


def test_gaussian_sigma_accuracy_is_closed_form_tail():
    for lam, delta in [(0.06, 0.1), (0.093198, 0.2), (0.02, 0.01)]:
        acc = sigma_accuracy(GaussianKernel(lam), delta)
        assert np.all(acc.outside == gaussian_tail_mass(delta, lam))
        density = lambda s: math.exp(-s * s / (2 * lam * lam)) / (math.sqrt(2 * math.pi) * lam)
        oracle = 2.0 * quad(density, delta, np.inf, epsabs=1e-14, epsrel=1e-13)[0]
        assert abs(acc.value - oracle) <= 1e-10


def test_gaussian_eval_normalized():
    lam = 0.17
    x = np.linspace(-8 * lam, 8 * lam, 20001)
    mass = np.trapezoid(gaussian_eval(x, 0.0, lam), x)
    assert abs(mass - 1.0) < 1e-9


def test_sigma_accuracy_planned_kernels_meet_target():
    target = AccuracyTarget(sigma=0.25, delta=0.1)
    fe = sigma_accuracy(fejer_plan(target), target.delta)
    ga = sigma_accuracy(GaussianKernel(gaussian_resolution(target)), target.delta)
    assert fe.value <= target.sigma
    assert ga.value <= target.sigma
    assert fe.family == "fejer" and ga.family == "gaussian"
    assert abs(fe.spacing - target.delta / 20.0) < 1e-15


def test_sigma_accuracy_validation():
    with pytest.raises(ValidationError):
        sigma_accuracy(FejerKernel(64), 0.0)
    with pytest.raises(ValidationError):
        sigma_accuracy(FejerKernel(64), 0.1, spacing=-0.01)


def test_kernel_json_round_trip():
    kernels = [
        FejerKernel(128),
        QubitizedFejerKernel(256),
        GaussianKernel(0.08),
        jackson_plan(AccuracyTarget(sigma=0.25, delta=0.1)).kernel,
    ]
    for k in kernels:
        again = kernel_from_json(kernel_to_json(k))
        assert type(again) is type(k)
        assert kernel_to_json(again) == kernel_to_json(k)
    with pytest.raises(ValidationError):
        kernel_from_json({"family": "triangle", "params": {}})


def test_kernel_value_dispatch_and_width():
    assert abs(kernel_value(FejerKernel(64), 0.25, 0.25) - 1.0) < 1e-14
    lam = 0.1
    assert abs(kernel_value(GaussianKernel(lam), 0.0, 0.0) - 1.0 / math.sqrt(2 * math.pi) / lam) < 1e-12
    assert kernel_width(FejerKernel(64)) == pytest.approx(2.0 / 64)
    assert kernel_width(GaussianKernel(0.2)) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# Jackson window


def test_jackson_tent_shape():
    x = np.array([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0])
    got = jackson_tent(x, 0.5)
    np.testing.assert_allclose(got, [-1, -1, 0, 1, 0, -1, -1], atol=1e-15)
    with pytest.raises(ValidationError):
        jackson_tent(x, 0.0)


def test_jackson_damping_profile():
    g = jackson_damping(16)
    assert g.shape == (17,)
    assert abs(g[0] - 1.0) < 1e-14
    assert np.all(np.diff(g) < 0)
    assert g[-1] > 0


def test_jackson_approx_converges_to_tent():
    delta = 0.2
    errs = [jackson_tent_error(d, delta, gridsize=4001) for d in (120, 240, 480)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.25


def test_jackson_coeffs_cached_and_bounded():
    c1 = jackson_coeffs(64, 0.3)
    c2 = jackson_coeffs(64, 0.3)
    assert c1 is c2
    # the cached array is shared, so callers cannot modify it
    assert not c1.flags.writeable
    with pytest.raises(ValueError):
        c1[0] = 0.0
    x = np.linspace(-1, 1, 801)
    assert np.max(np.abs(jackson_approx(x, 64, 0.3))) <= 1.0 + 0.05


def test_amplifier_contract_small_and_planner_degrees():
    for k in (1, 2, 3, 25):
        coeffs, tau = amplifier_coeffs(k)
        assert len(coeffs) <= k + 1
        report = amplifier_contract_check(coeffs, k, tau)
        assert report["ok"], f"amplifier contract failed at k={k}: {report}"
        assert report["max_abs"] <= 1.0
        assert report["min_high"] >= 1.0 - tau
        assert report["max_low"] <= tau
        assert amplifier_coeffs(k)[0] is coeffs and not coeffs.flags.writeable


def test_amplifier_contract_check_flags_bad_polynomial():
    # the identity map leaks far more than tau on the low shelf
    coeffs = np.array([0.0, 1.0])
    report = amplifier_contract_check(coeffs, 1, 0.1)
    assert not report["ok"]


def test_jackson_thresholds_closed_form():
    tau, d_min = jackson_thresholds(0.1, 0.1)
    want_tau = (0.1 / 0.9) * (0.1 / 1.9)
    assert abs(tau - want_tau) < 1e-15
    assert abs(d_min - 2880.0 * math.log(1.0 / want_tau)) < 1e-9
    with pytest.raises(ValidationError):
        jackson_thresholds(1.0, 0.1)


def test_jackson_plan_regular_target():
    plan = jackson_plan(AccuracyTarget(sigma=0.25, delta=0.1))
    assert plan.degree == math.ceil(24.0 / 0.05)
    assert plan.k == math.ceil(6.0 * math.log(1.0 / plan.tau))
    assert plan.kernel is not None
    assert plan.kernel.normalization > 0
    assert plan.norm_lower is not None and plan.norm_upper is not None
    assert plan.norm_lower <= plan.kernel.normalization <= plan.norm_upper


def test_jackson_plan_degenerate_target():
    # so loose that tau >= 1: no window needed, planner says so rather than raising
    plan = jackson_plan(AccuracyTarget(sigma=0.6, delta=0.9))
    assert plan.tau >= 1.0
    assert plan.k == 0 and plan.kernel is None
    assert plan.d_min <= 0.0
    assert plan.kn_ok


def test_jackson_planned_kernel_meets_sigma_target():
    target = AccuracyTarget(sigma=0.25, delta=0.1)
    plan = jackson_plan(target)
    acc = sigma_accuracy(plan.kernel, target.delta)
    assert acc.value <= target.sigma
    # frozen measurement so regressions are visible
    assert abs(acc.value - 0.107771) < 5e-5


def test_jackson_eval_normalized_in_u():
    plan = jackson_plan(AccuracyTarget(sigma=0.25, delta=0.1))
    kernel = plan.kernel
    u = np.linspace(-1.0, 1.0, 16001)
    vals = jackson_eval(2.0 * u, 0.0, kernel) / 2.0  # du = d(sigma)/2
    mass = np.trapezoid(vals, 2.0 * u)
    assert abs(mass - 1.0) < 1e-6
