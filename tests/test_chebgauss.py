"""Unit tests for the Gaussian Chebyshev expansion and its order planner."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval, chebvander

from specden import chebgauss
from specden.chebgauss import (
    ALPHA1,
    ALPHA2,
    KAPPA1,
    _direct_coefficient_table,
    cheb_moments,
    coeff_quadrature_oracle,
    coefficient_table,
    critical_betas,
    gauss_cheb_coeffs,
    geometric_tail_bound,
    git_transform_from_moments,
    kappa,
    lambert_w,
    min_error_intermediate,
    projection_cmax,
    projection_values,
    shifted_coeffs,
    truncation_error_bound,
    truncation_order,
)
from specden.errors import OutOfRegimeError, ResourceLimitError, ValidationError
from specden.kernels import AccuracyTarget, gaussian_eval
from specden.numerics import cheb_nodes, cheb_series_coeffs, child_rng, dct3
from specden.estimators import CONTRACT_GRID, ESTIMATION_METHODS, model_moments, plan_git_samples
from specden.operators import HermitianOperator, ProbeState, diagonalize, normalize_operator, random_model


def test_kappa_golden_and_positive():
    assert abs(kappa(1.0) - 0.23358) < 1e-5
    xs = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 20.0])
    assert np.all(kappa(xs) > 0)


def test_lambert_w_golden_and_identity():
    assert abs(lambert_w(1.0) - 0.5671432904097838) < 1e-6
    for x in [0.1, 0.5, 1.0, math.e, 10.0, 1e4]:
        w = lambert_w(x)
        assert abs(w * math.exp(w) - x) < 1e-12 * max(1.0, x)
    assert lambert_w(0.0) == 0.0
    # the asymptotic order passes x > 0 only: no x below 0 is accepted, nan neither
    for x in (-1.0, -0.1, -1e-300, float("nan")):
        with pytest.raises(ValidationError, match="lambert_w needs x >= 0"):
            lambert_w(x)


def test_planner_constants_published_values():
    assert ALPHA1 == 2.93
    assert ALPHA2 == 4.14
    assert abs(KAPPA1 - kappa(1.0)) < 1e-15


def test_gauss_cheb_coeffs_against_quadrature():
    # Bessel-form coefficients equal the direct quadrature projection
    for lam in (0.05, 0.1, 0.35, 1.0):
        a = gauss_cheb_coeffs(lam, 60)
        for n in (0, 1, 7, 30, 60):
            assert abs(a[n] - coeff_quadrature_oracle(lam, n)) < 1e-10


def test_gauss_cheb_coeffs_reconstruct_profile():
    # coefficients expand the bare exponential (no 1/(sqrt(2 pi) lam) factor)
    lam = 0.15
    a = gauss_cheb_coeffs(lam, 120)
    x = np.linspace(-1, 1, 1001)
    err = np.max(np.abs(chebval(x, a) - np.exp(-x * x / (2 * lam * lam))))
    assert err < 1e-12


def test_gauss_cheb_coeffs_second_coefficient_golden():
    a = gauss_cheb_coeffs(1.0, 4)
    # frozen exact value; the published rounded figure is -0.19626
    assert abs(a[2] - (-0.19622525739473654)) < 1e-12
    assert abs(a[2] - (-0.19626)) < 1e-4
    assert abs(a[2] - coeff_quadrature_oracle(1.0, 2)) < 1e-12
    assert a[1] == 0.0 and a[3] == 0.0


def test_gauss_cheb_coeffs_equal_published_bessel_form():
    # the projection reproduces a_2m = gamma_m (-1)^m e^{-z} I_m(z), z = 1/(4 lam^2)
    from scipy.special import ive

    for lam in np.geomspace(6e-5, 2.5, 40):
        for order in (4, 60, 500, 5000, 30000):
            m = np.arange(order // 2 + 1)
            bessel = np.zeros(order + 1)
            bessel[0::2] = np.where(m == 0, 1.0, 2.0) * (-1.0) ** m * ive(m, 1.0 / (4.0 * lam * lam))
            assert np.max(np.abs(gauss_cheb_coeffs(lam, order) - bessel)) <= 1e-15


def test_gauss_cheb_coeffs_refuses_node_count_over_cap():
    # lam = 1e-9 would need 4e10 projection nodes
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            gauss_cheb_coeffs(1e-9, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_shifted_coeffs_match_exact_kernel():
    lam, sigma = 0.22, 0.31
    order = 48
    c = shifted_coeffs(lam, sigma, order)
    x = np.linspace(-1, 1, 2001)
    err = np.max(np.abs(chebval(x, c) - gaussian_eval(x, sigma, lam)))
    assert err <= 2.0 * geometric_tail_bound(order, lam)


def test_coefficient_table_routes_agree_inside():
    lam, order = 0.2, 40
    nu = np.linspace(-1.0, 1.0, 9)
    series = coefficient_table(lam, nu, order)
    direct = _direct_coefficient_table(lam, nu, order)
    # the series table and the exact kernel's projection differ only within
    # the truncation budget
    x = np.linspace(-1, 1, 1501)
    gap = np.max(np.abs((series - direct) @ chebvander(x, order).T))
    assert gap <= 2.0 * geometric_tail_bound(order, lam)


def _ld_series_table(lam, freqs, order):
    """The series table with the full series summed by Clenshaw in ``np.longdouble``."""
    a = gauss_cheb_coeffs(lam / 2.0, order).astype(np.longdouble)
    y = ((cheb_nodes(order)[None, :] - freqs[:, None]) / 2.0).astype(np.longdouble)
    b1, b2 = np.zeros_like(y), np.zeros_like(y)
    for an in a[:0:-1]:
        b1, b2 = an + 2 * y * b1 - b2, b1
    values = (a[0] + y * b1 - b2).astype(float) / (math.sqrt(2.0 * math.pi) * lam)
    return cheb_series_coeffs(values, order)


@pytest.mark.parametrize("sigma,delta,beta,order,per_order", [
    (0.25, 0.25, 0.1, 30, 622222),
    (0.05, 0.05, 0.01, 310, 7785623166),
    (0.1, 0.01, 0.1, 1291, 1374444460),
    (0.05, 0.01, 0.1, 1495, 1845779883),
    # per_order_shots' argument sits 0.23 above an integer near 3.6e13
    (0.022360679774997894, 0.01, 0.001, 2093, 36150831613221),
])
def test_series_table_cmax_is_the_extended_precision_sum(sigma, delta, beta, order, per_order):
    target = AccuracyTarget(sigma=sigma, delta=delta, beta=beta)
    budget = truncation_order(target)
    assert budget.L == order
    c_max = np.max(np.abs(coefficient_table(budget.lam, CONTRACT_GRID, order)))
    reference = np.max(np.abs(_ld_series_table(budget.lam, CONTRACT_GRID, order)))
    assert abs(c_max - reference) <= 4 * np.spacing(reference)
    assert ESTIMATION_METHODS["git"].plan_row(target)["per_order_shots"] == per_order


def _published_git_integers():
    """Every git ``per_order_shots`` the tests and the benchmark pin, at eta = 0.05.

    The 28 git rows of ``perfbench/expected_plans.json`` (read only, at
    the default beta 0.1), the L = 7,031 plan that ``test_cli`` and
    ``test_bench_pairs`` pin, and ``test_estimators``' L = 32 golden.
    """
    plans = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "expected_plans.json").read_text())
    rows = [pytest.param(row["lam"], row["order"], 0.1, row["per_order_shots"], id=key)
            for key, methods in plans.items() for row in methods if row["method"] == "git"]
    fine = truncation_order(AccuracyTarget(sigma=0.1, delta=0.002)).lam
    coarse = truncation_order(AccuracyTarget(sigma=0.3, delta=0.2, beta=0.25)).lam
    return [*rows, pytest.param(fine, 7031, 0.1, 40855870975, id="0.1,0.002"),
            pytest.param(coarse, 32, 0.25, 121843, id="0.3,0.2,0.25")]


@pytest.mark.parametrize("lam,order,beta,per_order", _published_git_integers())
def test_published_shot_integers_are_the_extended_precision_ceiling(lam, order, beta, per_order):
    eta = 0.05
    reference = np.max(np.abs(_ld_series_table(lam, CONTRACT_GRID, order)))
    argument = 2 * np.log(np.longdouble(2) / eta) * (order * np.longdouble(reference) / beta) ** 2
    assert per_order == math.ceil(argument)
    # the double route errs by at most 4 ulps of c_max, so by 8 relative ulps
    # in the square: the argument must sit farther than that from an integer
    stated = 2 * 4 * np.spacing(reference) / reference
    assert abs(argument - np.rint(argument)) / argument > stated
    c_max = np.max(np.abs(coefficient_table(lam, CONTRACT_GRID, order)))
    assert abs(c_max - reference) <= 4 * np.spacing(reference)


def test_published_order_follows_the_cost_law_in_the_intermediate_regime():
    # C = L delta / sqrt(ln(1/sigma) (ln(1/delta) + ln(1/beta))), the paper's
    # operation count with the tail sigma in the first factor
    laws = {}
    for sigma in (0.001, 0.01, 0.1, 0.25):
        for delta in np.geomspace(0.0005, 0.25, 10):
            for beta in np.geomspace(1e-6, 0.1, 5):
                budget = truncation_order(AccuracyTarget(sigma=sigma, delta=float(delta), beta=float(beta)))
                law = math.sqrt(math.log(1 / sigma) * (math.log(1 / delta) + math.log(1 / beta)))
                laws[sigma, float(delta), float(beta)] = (budget.regime, budget.L * delta / law)
    assert len(laws) == 200
    inside = [c for regime, c in laws.values() if regime == "intermediate"]
    assert len(inside) == 196 and 2.95 <= min(inside) and max(inside) <= 3.85
    # a known finding, not a pass: at the four asymptotic-regime targets, all
    # at delta = 0.25, the published order reads C = 9.6-16.9, far above the
    # law; a certified order should bring them back within the band
    outside = {key: c for key, (regime, c) in laws.items() if not 2.95 <= c <= 3.85}
    assert {key for key, (regime, _) in laws.items() if regime == "asymptotic"} == set(outside)
    assert sorted((s, round(b, 9)) for s, d, b in outside) == [
        (0.001, 1e-06), (0.001, 1.7783e-05), (0.01, 1e-06), (0.1, 1e-06)]
    assert {d for _, d, _ in outside} == {0.25}
    assert 9.5 < min(outside.values()) and max(outside.values()) < 17.0


def test_series_table_keeps_the_full_depth_shots():
    # every seventh target of a 5 sigma x 7 delta x 4 beta grid, log-spaced in [0.01, 0.25]
    axis = np.geomspace(0.01, 0.25, 7)
    grid = [(s, d, b) for s in np.geomspace(0.01, 0.25, 5) for d in axis
            for b in (0.001, 0.01, 0.05, 0.1)][::7]
    assert len(grid) == 20
    for sigma, delta, beta in grid:
        target = AccuracyTarget(sigma=float(sigma), delta=float(delta), beta=beta)
        budget = truncation_order(target)
        # the full-depth route: a degree-L Clenshaw over every a_k, odd ones included
        a = gauss_cheb_coeffs(budget.lam / 2.0, budget.L)
        x = cheb_nodes(budget.L)
        values = chebval((x[None, :] - CONTRACT_GRID[:, None]) / 2.0, a)
        full = cheb_series_coeffs(values / (math.sqrt(2.0 * math.pi) * budget.lam), budget.L)
        expected = plan_git_samples(budget.L, full, beta, target.eta)[0]
        assert ESTIMATION_METHODS["git"].plan_row(target)["per_order_shots"] == expected


def test_coefficient_table_memory_stays_linear_in_order():
    # an order x order Chebyshev-Vandermonde matrix would take 122 MiB here
    tracemalloc.start()
    try:
        table = coefficient_table(0.01, CONTRACT_GRID, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (CONTRACT_GRID.size, 4001)
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("nu", [1.75, -1.0 - 1e-9, np.nan])
def test_coefficient_table_refuses_centers_beyond_interval(nu):
    # the series' argument (w - sigma)/2 leaves [-1, 1] past |sigma| = 1
    with pytest.raises(ValidationError, match=r"centers in \[-1, 1\]"):
        coefficient_table(0.093198, np.array([0.0, nu]), 52)
    with pytest.raises(ValidationError, match=r"centers in \[-1, 1\]"):
        shifted_coeffs(0.093198, nu, 52)
    # the edge itself, within rounding, is a center of the table
    assert coefficient_table(0.093198, [-1.0 - 1e-13, 1.0], 52).shape == (2, 53)


@pytest.mark.parametrize("build,order,what", [
    # 5 x 2^25 cells would take 1.25 GiB for the table alone
    (coefficient_table, 2**25, "cells of the series coefficient table"),
    # 4 (L + 1) > 2^26 projection nodes, 512 MiB for each array over them
    (projection_cmax, 2**24, "projection nodes of the exact Gaussian"),
    (_direct_coefficient_table, 2**24, "projection nodes of the exact Gaussian"),
    # 5 x (L + 1) cells within the cap, but 1.7e11 Clenshaw steps over their L/2 + 1 terms
    (coefficient_table, 2**18, "Clenshaw steps of the series table"),
])
def test_git_tables_refuse_sizes_over_cap_before_allocating(build, order, what):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=what):
            build(0.01, CONTRACT_GRID, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _projection_grid(lam):
    # centers inside [-1, 1] and up to eight kernel widths beyond it
    beyond = 1.0 + np.linspace(1e-3, 8.0 * lam, 12)
    return np.concatenate((np.linspace(-1.0, 1.0, 161), beyond, -beyond))


@pytest.mark.parametrize(
    "sigma,delta,beta",
    [(0.3, 0.2, 0.25), (0.1, 0.2, 0.05), (0.1, 0.1, 0.05), (0.05, 0.05, 0.01), (0.1, 0.02, 0.1)],
)
def test_projection_values_match_direct_table(sigma, delta, beta):
    budget = truncation_order(AccuracyTarget(sigma=sigma, delta=delta, beta=beta))
    lam, order = budget.lam, budget.L
    assert 30 <= order <= 619
    nu = _projection_grid(lam)
    op, psi = random_model(24, seed=order, kind="gapped")
    t = model_moments(diagonalize(normalize_operator(op)[0], psi), order)
    direct = _direct_coefficient_table(lam, nu, order)
    np.testing.assert_allclose(projection_values(t, lam, nu), direct @ t, rtol=0, atol=1e-12)
    # any moment vector: against the same projection summed with exact cosines,
    # since the Vandermonde recurrence inside the direct table itself drifts
    # by up to 3e-12 at L = 619 for vectors of unit entries
    m = max(4 * (order + 1), 256)
    theta = np.pi * (2 * np.arange(m) + 1) / (2 * m)
    cosines = np.cos(np.outer(theta, np.arange(order + 1)))
    gamma = np.where(np.arange(order + 1) == 0, 1.0, 2.0)
    exact = gaussian_eval(nu[:, None], np.cos(theta)[None, :], lam) @ cosines * gamma / m
    v = child_rng(order).uniform(-1.0, 1.0, (3, order + 1))
    batch = projection_values(v, lam, nu)
    assert batch.shape == (3, nu.size)
    np.testing.assert_allclose(batch, v @ exact.T, rtol=0, atol=1e-12)
    # shot sizing reads the same table's largest magnitude
    c_max = projection_cmax(lam, nu, order)
    assert abs(c_max / np.max(np.abs(direct)) - 1.0) <= 1e-12


def _full_scan_cmax(lam, freqs, order):
    # the reference: one DCT-II of every frequency row, 2^16-cell chunks
    x = cheb_nodes(max(4 * (order + 1), 256))
    rows = max(1, 2**16 // x.size)
    best = 0.0
    for start in range(0, freqs.size, rows):
        block = gaussian_eval(freqs[start:start + rows, None], x[None, :], lam)
        best = max(best, float(np.abs(cheb_series_coeffs(block, order)).max()))
    return best


def _default_grid(delta):
    # the command line's grid at its default spacing delta / 20
    return np.linspace(-1.0, 1.0, max(2, math.ceil(2.0 / (delta / 20.0))) + 1)


def _accepted_budget(sigma, delta, beta):
    try:
        budget = truncation_order(AccuracyTarget(sigma=sigma, delta=delta, beta=beta))
    except OutOfRegimeError:
        return None
    return budget if budget.L <= 1500 else None


def _grid(kind, size, seed, lam, delta):
    rng = child_rng(seed)
    if kind == "default":
        return _default_grid(delta)
    if kind == "random":
        return rng.uniform(-1.3, 1.3, size)
    if kind == "beyond":
        return rng.choice([-1.0, 1.0], size) * (1.0 + rng.uniform(0.0, 10.0 * lam, size))
    if kind == "edge":
        # one frequency `size` kernel widths above the spectrum's edge at 1
        return np.array([1.0 + size * lam])
    return rng.choice(rng.uniform(-1.2, 1.2, 1 + size // 10), size)


_KINDS = st.sampled_from(["default", "random", "beyond", "edge", "ties"])


@settings(max_examples=60, deadline=None)
@given(
    sigma=st.floats(0.01, 0.5),
    delta=st.floats(0.01, 0.5),
    log_beta=st.floats(-6.0, -0.5),
    kind=_KINDS,
    size=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(sigma=0.1, delta=0.02, log_beta=-1.0, kind="default", size=1, seed=0)
@example(sigma=0.1, delta=0.2, log_beta=-1.0, kind="ties", size=1, seed=0)
# nu = 1 + k lam with k between the band's reach (9.3 lam at m = 936) and
# 39 lam: the banded row sum is exactly 0, yet the full scan's c_max is
# 3.2e-32 (k = 12) and 9.3e-315 (k = 38), so the git budget must not
# raise "no requested frequency sees the kernel" there
@example(sigma=0.1, delta=0.05, log_beta=-1.0, kind="edge", size=12, seed=0)
@example(sigma=0.1, delta=0.05, log_beta=-1.0, kind="edge", size=38, seed=0)
def test_projection_cmax_equals_full_scan_bit_for_bit(sigma, delta, log_beta, kind, size, seed):
    budget = _accepted_budget(sigma, delta, 10.0**log_beta)
    assume(budget is not None)
    lam, order = budget.lam, budget.L
    nu = _grid(kind, size, seed, lam, delta)
    assert projection_cmax(lam, nu, order) == _full_scan_cmax(lam, nu, order)


def _full_product(rho, lam, freqs):
    # the reference: rho times the whole kernel matrix on rho's nodes, in
    # 2^16-cell row chunks
    x = cheb_nodes(rho.shape[-1])
    rows = max(1, 2**16 // x.size)
    out = np.empty(rho.shape[:-1] + freqs.shape)
    for start in range(0, freqs.size, rows):
        block = gaussian_eval(freqs[start:start + rows, None], x[None, :], lam)
        out[..., start:start + rows] = rho @ block.T
    return out


@settings(max_examples=40, deadline=None)
@given(
    sigma=st.floats(0.01, 0.5),
    delta=st.floats(0.01, 0.5),
    log_beta=st.floats(-6.0, -0.5),
    kind=_KINDS,
    size=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    batch=st.booleans(),
)
@example(sigma=0.1, delta=0.02, log_beta=-1.0, kind="default", size=1, seed=0, batch=True)
@example(sigma=0.1, delta=0.05, log_beta=-1.0, kind="edge", size=9, seed=0, batch=False)
def test_projection_values_within_the_stated_cut_of_the_full_product(
    sigma, delta, log_beta, kind, size, seed, batch
):
    budget = _accepted_budget(sigma, delta, 10.0**log_beta)
    assume(budget is not None)
    lam, order = budget.lam, budget.L
    nu = _grid(kind, size, seed, lam, delta)
    v = child_rng(seed, 1).uniform(-1.0, 1.0, (3, order + 1) if batch else order + 1)
    m = max(4 * (order + 1), 256)
    gamma = np.where(np.arange(order + 1) == 0, 1.0, 2.0)
    rho = dct3(v * gamma, m) / m
    u = 2.0**-53
    # the cut: u G(0) max|rho| per moment vector; the rounding allowance
    # covers the two products' summation orders (64 u sum_j G |rho_j|,
    # against at most 18 u seen over 2,400 random draws)
    cut = u * gaussian_eval(0.0, 0.0, lam) * np.abs(rho).max(axis=-1, keepdims=True)
    allowance = cut + 64.0 * u * _full_product(np.abs(rho), lam, nu)
    delta_nu = np.abs(projection_values(v, lam, nu) - _full_product(rho, lam, nu))
    assert np.all(delta_nu <= allowance)


def _count_projection_work(monkeypatch):
    # rows that reach the DCT, and the cells of every kernel block
    work = {"rows": 0, "cells": []}
    dct, kernel = chebgauss.cheb_series_coeffs, chebgauss.gaussian_eval

    def counting_dct(values, deg):
        work["rows"] += values.shape[0]
        return dct(values, deg)

    def counting_kernel(sigma, omega, lam):
        work["cells"].append(np.broadcast(sigma, omega).size)
        return kernel(sigma, omega, lam)

    monkeypatch.setattr(chebgauss, "cheb_series_coeffs", counting_dct)
    monkeypatch.setattr(chebgauss, "gaussian_eval", counting_kernel)
    return work


def test_projection_cmax_transforms_few_rows_in_bounded_blocks(monkeypatch):
    target = AccuracyTarget(sigma=0.1, delta=0.02, beta=0.1)
    budget = truncation_order(target)
    lam, order = budget.lam, budget.L
    m = max(4 * (order + 1), 256)
    nu = _default_grid(target.delta)
    assert nu.size == 2001
    work = _count_projection_work(monkeypatch)
    assert projection_cmax(lam, nu, order) > 0.0
    # a full scan transforms all 2,001 rows
    assert 1 <= work["rows"] <= 64
    assert work["cells"] and max(work["cells"]) <= max(2**16, m)
    # no grid point sees the kernel: no row is transformed, and the
    # estimator's error is unchanged
    work["rows"], work["cells"] = 0, []
    assert projection_cmax(lam, [5.0], order) == 0.0
    assert work["rows"] == 0
    assert max(work["cells"]) <= max(2**16, m)
    with pytest.raises(ValidationError, match=r"^no requested frequency sees the kernel.*nu = 5$"):
        ESTIMATION_METHODS["git"].budget(target, grid=[5.0])
    assert work["rows"] == 0


def test_projection_sweeps_evaluate_a_band_of_the_kernel_matrix(monkeypatch):
    target = AccuracyTarget(sigma=0.1, delta=0.02, beta=0.1)
    budget = truncation_order(target)
    lam, order = budget.lam, budget.L
    m = max(4 * (order + 1), 256)
    nu = _default_grid(target.delta)
    work = _count_projection_work(monkeypatch)
    projection_values(child_rng(1).uniform(-1.0, 1.0, order + 1), lam, nu)
    # the full product evaluates F m = 2001 * 2480 cells; the band ~0.13 of them
    assert sum(work["cells"]) <= 0.15 * nu.size * m
    assert max(work["cells"]) <= max(2**16, m)
    work["cells"] = []
    chebgauss._banded(lam, nu, cheb_nodes(m)[::-1], np.ones(m))
    assert sum(work["cells"]) <= 0.15 * nu.size * m
    assert max(work["cells"]) <= max(2**16, m)


def test_critical_betas_golden():
    lo, hi = critical_betas(AccuracyTarget(sigma=0.1, delta=0.2, beta=0.05))
    assert abs(lo - 1.388794386496407e-10) < 1e-22
    assert abs(hi - 5.364915065723368) < 1e-12


def test_min_error_intermediate_frozen():
    tight, envelope = min_error_intermediate(0.2)
    assert abs(tight - 1.0818007455677486e-06) < 1e-18
    assert abs(envelope - 3.7266531720786777e-06) < 1e-18
    assert tight <= envelope
    with pytest.raises(ValidationError):
        min_error_intermediate(6.0)


def test_geometric_tail_bound_decreasing():
    lam = 0.25
    vals = [geometric_tail_bound(order, lam) for order in (10, 20, 40, 80)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_truncation_error_bound_regimes():
    lam = 0.3
    with pytest.raises(OutOfRegimeError):
        truncation_error_bound(4, lam, "asymptotic")
    with pytest.raises(ValidationError):
        truncation_error_bound(30, lam, "sharp")
    asy = [truncation_error_bound(order, lam, "asymptotic") for order in (30, 40, 60)]
    assert all(a > b for a, b in zip(asy, asy[1:]))
    inter = [truncation_error_bound(order, lam, "intermediate") for order in (12, 24, 48)]
    assert all(a > b for a, b in zip(inter, inter[1:]))
    # deep tails underflow to zero instead of raising
    assert truncation_error_bound(5000, 0.5, "intermediate") == 0.0


def test_truncation_order_intermediate_golden():
    budget = truncation_order(AccuracyTarget(sigma=0.1, delta=0.2, beta=0.05))
    assert budget.L == 55
    assert budget.regime == "intermediate"
    assert abs(budget.lam - 0.09319812035693122) < 1e-15
    # the published closed form does not reach beta/2 here and the planner says so
    assert abs(budget.bound - 0.25849566313814065) < 1e-12
    assert not budget.bound_ok


def test_truncation_order_asymptotic_golden():
    budget = truncation_order(AccuracyTarget(sigma=0.1, delta=0.2, beta=1e-10))
    assert budget.regime == "asymptotic"
    assert budget.L == 358
    assert abs(budget.bound - 3.832306783492957e-11) < 1e-22
    assert budget.bound_ok


def test_truncation_order_forces_the_asymptotic_regime_below_the_intermediate_floor():
    # beta above beta_low = 3.47e-11, but beta/2 = 2.3e-11 below the intermediate
    # regime's guaranteeable floor (2.86e-11): the planner switches to asymptotic
    target = AccuracyTarget(sigma=0.4, delta=0.2, beta=4.6e-11)
    lo, _ = critical_betas(target)
    budget = truncation_order(target)
    floor, _ = min_error_intermediate(budget.lam)
    assert lo < target.beta < 2.0 * floor
    assert budget.regime == "asymptotic"
    assert budget.L == 167
    assert budget.bound_ok


def test_truncation_order_rejects_ceiling():
    with pytest.raises(OutOfRegimeError):
        truncation_order(AccuracyTarget(sigma=0.9, delta=0.9, beta=0.5))


def test_truncation_order_boundary_policy():
    # beta exactly at the regime boundary: both closed forms are evaluated
    lo, _ = critical_betas(AccuracyTarget(sigma=0.1, delta=0.2, beta=0.5))
    budget = truncation_order(AccuracyTarget(sigma=0.1, delta=0.2, beta=lo))
    assert budget.regime in ("asymptotic", "intermediate")
    assert budget.L >= 1


def test_cheb_moments_single_eigenvector():
    # probe concentrated on one eigenvalue: t_k = T_k(e)
    e = 0.37
    op = HermitianOperator(np.diag([e, -0.5]))
    psi = ProbeState([1.0, 0.0])
    t = cheb_moments(op, psi, 12)
    want = np.cos(np.arange(13) * math.acos(e))
    np.testing.assert_allclose(t, want, atol=1e-13)


def test_cheb_moments_requires_bounded_spectrum():
    op = HermitianOperator(np.diag([1.5, 0.0]))
    with pytest.raises(ValidationError):
        cheb_moments(op, ProbeState([1.0, 0.0]), 4)


def test_git_transform_from_moments_matches_exact_mixture():
    rng = child_rng(77)
    evals = np.sort(rng.uniform(-0.8, 0.8, 6))
    w = rng.uniform(0.2, 1.0, 6)
    w /= w.sum()
    op = HermitianOperator(np.diag(evals))
    psi = ProbeState(np.sqrt(w))
    lam = 0.12
    order = 160
    t = cheb_moments(op, psi, order)
    nu = np.linspace(-0.9, 0.9, 25)
    grid = git_transform_from_moments(t, lam, nu)
    want = (gaussian_eval(nu[:, None], evals[None, :], lam) * w).sum(axis=1)
    assert np.max(np.abs(grid.values - want)) < 1e-8
    assert grid.kind == "density"


def test_git_transform_moment_length_validation():
    with pytest.raises(ValidationError):
        git_transform_from_moments(np.array([]), 0.1, np.array([0.0]))


def test_projection_cmax_prunes_rows_past_the_reach(monkeypatch):
    # nu = 1 + lam linspace(12, 38, 300): every row lies between the reach
    # (9.3 lam) and 39 lam past the spectrum, so its banded sum is 0 and its
    # bound is its allowance alone.  An allowance from each row's nearest
    # node prunes all but 4 rows; one allowance m G(r) for every row
    # pruned none of the 300.
    budget = truncation_order(AccuracyTarget(sigma=0.1, delta=0.05, beta=0.1))
    lam, order = budget.lam, budget.L
    nu = 1.0 + lam * np.linspace(12.0, 38.0, 300)
    want = _full_scan_cmax(lam, nu, order)
    work = _count_projection_work(monkeypatch)
    assert projection_cmax(lam, nu, order) == want
    assert work["rows"] == 4
