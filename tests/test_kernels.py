"""Unit tests for the kernel families, their planners, and tail measurement."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebinterpolate, chebvander
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from specden import kernels
from specden.cli import main
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
    gaussian_eval,
    gaussian_resolution,
    gaussian_tail_mass,
    jackson_approx,
    jackson_coeffs,
    jackson_damping,
    jackson_eval,
    jackson_normalization,
    jackson_plan,
    jackson_tent,
    jackson_tent_error,
    jackson_thresholds,
    qubitized_fejer_eval,
    qubitized_fejer_plan,
    recovered_frequency,
    sigma_accuracy,
)
from specden.numerics import cheb_nodes, child_rng
from specden.operators import SpectralModel, exact_transform


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


def test_fejer_tail_bound_dominates_measurement():
    # the bound 1/(n delta - 2) on the mass beyond delta, which fejer_plan inverts
    for n, delta in [(64, 0.1), (256, 0.05), (1024, 0.02)]:
        worst = sigma_accuracy(FejerKernel(n), delta).value
        assert worst <= 1.0 / (n * delta - 2.0) + 1e-12


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


def test_qubitized_sigma_accuracy_scans_every_delta():
    # the scan arange(0, 1 + h/2, h) may end up to h/2 past 1, outside the folded domain
    past_one = 0
    for delta in np.linspace(0.01, 0.5, 50):
        delta = float(delta)
        kernel = qubitized_fejer_plan(AccuracyTarget(sigma=0.1, delta=delta))
        acc = sigma_accuracy(kernel, delta)
        past_one += acc.omega0[-1] > 1.0
        assert 0.0 < acc.value <= 0.1
    assert past_one > 0


@pytest.mark.parametrize(
    "kernel, delta",
    [(FejerKernel(4096), 0.02), (QubitizedFejerKernel(4096), 0.02)],
    ids=["fejer", "qubitized_fejer"],
)
def test_fejer_tail_scan_memory_is_bounded(kernel, delta):
    omega0 = np.arange(kernel.scan_start, 1.0 + delta / 40.0, delta / 20.0)
    # one centre at a time is the reference: each centre's sum runs over its own row
    want = np.array([kernel.outside(delta, omega0[i : i + 1])[0] for i in range(0, omega0.size, 97)])
    tracemalloc.start()
    try:
        got = kernel.outside(delta, omega0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got[::97], want)
    # the whole scan as one n x centres array peaked at 313 MB (fejer) here
    assert peak < 64 * 2**20


def _full_grid_outside(kernel, delta, omega0):
    # the reference: every grid bin of every centre, summed where it escapes
    grid = fejer_grid(kernel.n)
    if isinstance(kernel, FejerKernel):
        d = (grid[None, :] - omega0[:, None]) / 2.0
        k = fejer_eval(grid[None, :], omega0[:, None], kernel.n)
        return np.sum(np.where(np.abs(2.0 * (d - np.round(d))) > delta, k, 0.0), axis=1)
    centres = np.clip(omega0, 0.0, 1.0)[:, None]
    k = qubitized_fejer_eval(grid[None, :], centres, kernel.n)
    escaped = np.abs(recovered_frequency(grid)[None, :] - centres) > delta / 2.0
    return np.sum(np.where(escaped, k, 0.0), axis=1)


@settings(max_examples=300, deadline=None)
@given(
    folded=st.booleans(),
    log2n=st.integers(1, 12),
    delta=st.floats(0.0, 2.0, exclude_min=True),
    units=st.lists(st.floats(0.0, 1.0), max_size=6),
    bins=st.lists(st.integers(0, 2**12), max_size=3),
)
# a window that covers the whole grid: offsets near the peak must not wrap
@example(folded=False, log2n=12, delta=2.0, units=[0.35], bins=[])
def test_fejer_window_tail_matches_the_full_grid_sum(folded, log2n, delta, units, bins):
    kernel = (QubitizedFejerKernel if folded else FejerKernel)(2**log2n)
    lo = kernel.scan_start
    # both ends of the scan, a step past its end, grid points and points between
    omega0 = np.array([
        lo, 1.0, 1.0 + delta / 40.0, *(2.0 * (b % kernel.n) / kernel.n - 1.0 for b in bins),
        *(lo + (1.0 - lo) * u for u in units),
    ])
    omega0 = omega0[omega0 >= lo]
    got = kernel.outside(delta, omega0)
    assert np.all(got >= 0.0)
    np.testing.assert_allclose(got, _full_grid_outside(kernel, delta, omega0), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("kernel", [FejerKernel(4096), QubitizedFejerKernel(4096)], ids=["fejer", "qubitized_fejer"])
@pytest.mark.parametrize("delta", [0.02, 0.3])
def test_fejer_tail_evaluates_only_the_window_cells(monkeypatch, kernel, delta):
    # a window holds floor(n delta) + 3 bins (plain) or two arcs of
    # floor(n arccos(1 - delta) / (2 pi)) + 3 bins (folded), never the whole grid
    evaluated = []
    fejer = kernels.fejer_eval

    def counting(sigma, omega, n):
        evaluated.append(np.broadcast(np.asarray(sigma), np.asarray(omega)).size)
        return fejer(sigma, omega, n)

    monkeypatch.setattr(kernels, "fejer_eval", counting)
    acc = sigma_accuracy(kernel, delta)
    if isinstance(kernel, FejerKernel):
        window = math.floor(kernel.n * delta) + 3
    else:
        window = 2 * (math.floor(kernel.n * math.acos(1.0 - delta) / (2.0 * math.pi)) + 3)
    assert 0 < sum(evaluated) <= acc.omega0.size * window < acc.omega0.size * kernel.n


def test_sigma_accuracy_rejects_an_infinite_spacing():
    with pytest.raises(ValidationError, match="finite and positive"):
        sigma_accuracy(FejerKernel(64), 0.1, spacing=math.inf)


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


@pytest.mark.parametrize("lam", [0.5, 0.093, 0.0093, 6e-5])
def test_gaussian_eval_skips_underflow_with_the_same_bytes(lam):
    def plain(sigma, omega):
        d = np.asarray(sigma, dtype=float) - np.asarray(omega, dtype=float)
        return np.exp(-d * d / (2.0 * lam * lam)) / (math.sqrt(2.0 * math.pi) * lam)

    # exponents from -700 to -760 cross the subnormal results (below
    # -708.4) and the exact zeros (below -745.1), on both sides of the centre
    d = lam * np.sqrt(2.0 * np.linspace(700.0, 760.0, 60001))
    shells = np.concatenate([-d, [0.0], d])
    assert np.array_equal(gaussian_eval(shells, 0.0, lam), plain(shells, 0.0))
    assert not np.signbit(gaussian_eval(shells, 0.0, lam)).any()
    # a kernel matrix on Chebyshev nodes, mostly zero at the small widths
    nu, x = np.linspace(-1.2, 1.2, 301), cheb_nodes(512)
    got = gaussian_eval(nu[:, None], x[None, :], lam)
    assert np.array_equal(got, plain(nu[:, None], x[None, :]))
    scalar = gaussian_eval(0.3, 0.1, lam)
    assert np.ndim(scalar) == 0 and scalar == plain(0.3, 0.1)
    assert gaussian_eval(1.0, -1.0, lam) == plain(1.0, -1.0)


def test_sigma_accuracy_planned_kernels_meet_target():
    target = AccuracyTarget(sigma=0.25, delta=0.1)
    fe = sigma_accuracy(fejer_plan(target), target.delta)
    ga = sigma_accuracy(GaussianKernel(gaussian_resolution(target)), target.delta)
    assert fe.value <= target.sigma
    assert ga.value <= target.sigma
    assert abs(fe.spacing - target.delta / 20.0) < 1e-15


def test_sigma_accuracy_validation():
    with pytest.raises(ValidationError):
        sigma_accuracy(FejerKernel(64), 0.0)
    with pytest.raises(ValidationError):
        sigma_accuracy(FejerKernel(64), 0.1, spacing=-0.01)


def test_kernel_value_dispatch_and_width():
    # only the density kernels are evaluated point by point and have a width
    lam = 0.1
    assert abs(GaussianKernel(lam).value(0.0, 0.0) - 1.0 / math.sqrt(2 * math.pi) / lam) < 1e-12
    assert GaussianKernel(0.2).width == pytest.approx(0.2)
    jackson = jackson_plan(AccuracyTarget(sigma=0.25, delta=0.1)).kernel
    assert jackson.value(0.3, 0.1) == jackson_eval(0.3, 0.1, jackson)
    assert jackson.width == jackson.delta == 0.05
    for discrete in (FejerKernel(64), QubitizedFejerKernel(64)):
        assert not hasattr(discrete, "value") and not hasattr(discrete, "width")


@pytest.mark.parametrize(
    "kind, make",
    [
        ("discrete", lambda: FejerKernel(128)),
        ("discrete", lambda: QubitizedFejerKernel(256)),
        ("density", lambda: GaussianKernel(0.08)),
        ("density", lambda: jackson_plan(AccuracyTarget(sigma=0.25, delta=0.1)).kernel),
    ],
    ids=["fejer", "qubitized_fejer", "gaussian", "jackson"],
)
def test_kernel_protocol_consistent(kind, make):
    # every kernel reports its kind and scan start and measures its own tail;
    # a density kernel is also evaluated point by point into a transform of its kind
    k = make()
    acc = sigma_accuracy(k, 0.2)
    assert k.kind == kind and acc.omega0[0] == k.scan_start
    assert np.all((acc.outside >= 0.0) & (acc.outside <= 1.0))
    if kind == "density":
        model = SpectralModel(np.array([0.2, 0.6]), np.array([0.5, 0.5]))
        assert exact_transform(model, k, fejer_grid(64)).kind == kind
        assert k.width > 0.0


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


def test_amplifier_contract_check_flags_bad_polynomial():
    # the identity map leaks far more than tau on the low shelf
    coeffs = np.array([0.0, 1.0])
    report = amplifier_contract_check(coeffs, 1, 0.1)
    assert not report["ok"]


def test_amplifier_is_numpys_interpolant_of_the_widest_ramp(tmp_path):
    # up to degree 207 the interpolant of the ramp at width factor 1.0
    # passes the contract, so it is chebinterpolate's up to rounding
    for k in range(1, 208):
        coeffs, tau = amplifier_coeffs(k)
        width = 0.4 / math.sqrt(2.0 * math.log(4.0 / tau))
        want = chebinterpolate(lambda y: tau / 4.0 + (1.0 - tau / 2.0) * kernels._normal_cdf((y + 0.2) / width), k)
        assert np.max(np.abs(coeffs - want)) <= 1e-13 * np.max(np.abs(want)), k
    assert main(["plan", "--method", "jackson", "--sigma", "1e-10", "--delta", "0.01", "--out", str(tmp_path)]) == 0
    (row,) = json.loads((tmp_path / "plan.json").read_text())["plans"]
    assert row["amplifier_degree"] == 170
    # from degree 208 on, tau lies below the rounding of the degree-k evaluation
    with pytest.raises(OutOfRegimeError, match="degree 208: its threshold tau = 8.8e-16"):
        amplifier_coeffs(208)


def test_normal_cdf_matches_scipy_erf():
    # math.erf and scipy's erf differ by at most an ulp or two
    from scipy.special import erf

    y = np.linspace(-40.0, 40.0, 200001)
    want = 0.5 * (1.0 + erf(y / math.sqrt(2.0)))
    assert np.max(np.abs(kernels._normal_cdf(y) - want)) <= 4.5e-16


def test_jackson_thresholds_closed_form():
    tau, d_min = jackson_thresholds(0.1, 0.1)
    want_tau = (0.1 / 0.9) * (0.1 / 1.9)
    assert abs(tau - want_tau) < 1e-15
    assert abs(d_min - 2880.0 * math.log(1.0 / want_tau)) < 1e-9
    with pytest.raises(ValidationError):
        jackson_thresholds(1.0, 0.1)
    # past tau = 1 the logarithm turns negative and the floor stays at 0
    assert jackson_thresholds(0.9, 0.9)[1] == 0.0


@settings(max_examples=100, deadline=None)
@given(sigma=st.floats(0.001, 0.99), delta=st.floats(0.05, 1.0, exclude_max=True))
@example(sigma=0.25, delta=0.1)
@example(sigma=0.001, delta=0.05)
def test_jackson_plan_regular_target(sigma, delta):
    # accepted targets end below delta = 1; up to 1.9 a 31 x 31 log grid found no violation either
    plan = jackson_plan(AccuracyTarget(sigma=sigma, delta=delta))
    if plan.tau >= 1.0:
        return
    assert plan.degree == math.ceil(24.0 / (delta / 2.0))
    assert plan.k == max(1, math.ceil(6.0 * math.log(1.0 / plan.tau)))
    assert plan.kernel is not None
    norm = plan.kernel.normalization
    assert norm > 0
    assert plan.norm_lower <= norm
    if plan.norm_upper is not None:
        assert norm <= plan.norm_upper


def test_jackson_plan_degenerate_target():
    # so loose that tau >= 1: no window needed, planner says so rather than raising
    plan = jackson_plan(AccuracyTarget(sigma=0.6, delta=0.9))
    assert plan.tau >= 1.0
    assert plan.k == 0 and plan.kernel is None
    assert plan.d_min == 0.0
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


@pytest.mark.parametrize("degree, delta", [(64, 0.3), (1920, 0.0125)])
def test_jackson_coeffs_dct_matches_vandermonde_projection(degree, delta):
    # an independent reference: the same quadrature by a Chebyshev-Vandermonde product
    m = max(4096, 4 * (degree + 1))
    x = cheb_nodes(m)
    gamma = np.full(degree + 1, 2.0)
    gamma[0] = 1.0
    reference = jackson_tent(x, delta) @ chebvander(x, degree) * gamma / m
    np.testing.assert_allclose(
        jackson_coeffs(degree, delta), reference * jackson_damping(degree), rtol=0, atol=1e-13
    )


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_fft_size_is_smallest_5_smooth_bound():
    for n in range(1, 1025):
        assert kernels._fft_size(n) == next(m for m in itertools.count(n) if _is_5_smooth(m))


# half of k * degree = 25 * 480 is an FFT-fast size, half of 31 * 960 is padded
# from 14,880 to 15,000, and 21 * 107 is odd
@pytest.mark.parametrize("sigma, delta", [(0.25, 0.1), (0.1, 0.1), (0.1, 0.45)])
def test_jackson_profile_coeffs_reproduce_composed_window(sigma, delta):
    plan = jackson_plan(AccuracyTarget(sigma=sigma, delta=delta))
    p = kernels._jackson_profile_coeffs(plan.k, plan.degree, plan.delta)
    assert p.size == plan.k * plan.degree + 1
    u = child_rng(17).uniform(-1.0, 1.0, 200)
    amp, _ = amplifier_coeffs(plan.k)
    want = np.polynomial.chebyshev.chebval(0.8 * jackson_approx(u, plan.degree, plan.delta), amp)
    np.testing.assert_allclose(np.polynomial.chebyshev.chebval(u, p), want, rtol=0, atol=1e-12)


def _gauss_legendre_panels(lo, hi, panels, points=10):
    x, w = np.polynomial.legendre.leggauss(points)
    edges = np.linspace(lo, hi, panels + 1)
    h = edges[1] - edges[0]
    nodes = (edges[:-1, None] + h / 2.0 * (x[None, :] + 1.0)).ravel()
    return nodes, np.tile(w * h / 2.0, panels)


@pytest.mark.parametrize("sigma, delta", [(0.25, 0.1), (0.1, 0.05)])
def test_jackson_normalization_matches_panel_quadrature(sigma, delta):
    plan = jackson_plan(AccuracyTarget(sigma=sigma, delta=delta))
    # 10-point Gauss-Legendre on panels a quarter of the window's resolution wide
    u, w = _gauss_legendre_panels(-1.0, 1.0, 8 * plan.degree)
    mass = w @ jackson_eval(2.0 * u, 0.0, plan.kernel)
    assert abs(mass - 1.0) <= 1e-10


def test_jackson_outside_matches_fine_trapezoid():
    target = AccuracyTarget(sigma=0.25, delta=0.1)
    plan = jackson_plan(target)
    # the window edge delta/2 falls on a grid point
    u = np.linspace(0.0, 1.0, 32 * plan.degree + 1)
    vals = jackson_eval(2.0 * u, 0.0, plan.kernel)
    beyond = u >= target.delta / 2.0
    want = np.trapezoid(vals[beyond], u[beyond]) / np.trapezoid(vals, u)
    got = plan.kernel.outside(target.delta, np.zeros(3))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


def test_jackson_plan_memory_stays_linear_in_window_degree():
    tracemalloc.start()
    try:
        plan = jackson_plan(AccuracyTarget(sigma=0.05, delta=0.01))
        _, plan_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert plan.kernel.normalization > 0
        _, norm_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.k * plan.degree == 240_000
    # the plan builds no profile, which alone peaks at 7.37 MiB
    assert plan_peak < 2**20
    # the Vandermonde projection and the Simpson loop peaked at 705 MB here
    assert norm_peak < 64 * 2**20


def test_jackson_window_guards_resource_cap():
    with pytest.raises(ResourceLimitError, match="profile coefficients"):
        jackson_normalization(87, 4_800_000, 5e-6)
    with pytest.raises(ResourceLimitError, match="projection nodes"):
        jackson_coeffs(2**25, 1e-6)
