"""Unit tests for the Gaussian Chebyshev expansion and its order planner."""

import math

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval, chebvander

from specden.chebgauss import (
    ALPHA1,
    ALPHA2,
    KAPPA1,
    _direct_coefficient_table,
    _series_coefficient_table,
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
    shifted_coeffs,
    truncation_error_bound,
    truncation_order,
)
from specden.errors import OutOfRegimeError, ValidationError
from specden.kernels import AccuracyTarget, gaussian_eval
from specden.numerics import child_rng
from specden.operators import HermitianOperator, ProbeState


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
    with pytest.raises(ValidationError):
        lambert_w(-1.0)


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
    series = _series_coefficient_table(lam, nu, order)
    direct = _direct_coefficient_table(lam, nu, order)
    # centers in [-1, 1] take the series construction
    np.testing.assert_array_equal(coefficient_table(lam, nu, order), series)
    # the two constructions differ only within the truncation budget
    x = np.linspace(-1, 1, 1501)
    gap = np.max(np.abs((series - direct) @ chebvander(x, order).T))
    assert gap <= 2.0 * geometric_tail_bound(order, lam)


def test_coefficient_table_direct_stable_beyond_interval():
    # centers outside [-1, 1] keep decaying coefficients and a faithful profile
    lam, order = 0.093198, 52
    table = coefficient_table(lam, np.array([1.75]), order)
    assert np.max(np.abs(table[:, -8:])) < 1e-10
    x = np.linspace(-1, 1, 2001)
    profile = chebval(x, table[0])
    exact = gaussian_eval(x, 1.75, lam)
    assert np.max(np.abs(profile - exact)) < 1e-6


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
