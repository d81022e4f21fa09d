"""Every documented error that an input can reach is raised, with its type and message.

One row per ``raise`` of ``src/specden`` that an input can reach and no
other test is sure to run, called through the function that owns it.
The command-line exits are rows of
``test_cli::test_edge_inputs_exit_with_their_documented_code``.
"""

import re

import numpy as np
import pytest

from specden import chebgauss, estimators, kernels, metrics, numerics, operators, sampling
from specden.errors import OutOfRegimeError, ValidationError
from specden.kernels import AccuracyTarget, GaussianKernel, JacksonKernel
from specden.operators import HermitianOperator, ProbeState, SpectralModel, TransformGrid

_MODEL = SpectralModel(np.array([-0.5, 0.5]), np.array([0.5, 0.5]))
_OP = HermitianOperator(np.diag([-0.5, 0.5]))
_PSI = ProbeState([1.0, 0.0])
_TARGET = AccuracyTarget(sigma=0.1, delta=0.2, beta=0.1)


def _model_file(tmp_path, text):
    path = tmp_path / "model.txt"
    path.write_text(text)
    return operators.read_model_file(path)


_ERRORS = [
    # the spectral model of eigenvalues and probe weights
    (lambda _: SpectralModel(np.array([0.0, 0.5]), np.array([1.0])), "equal-length, nonempty"),
    (lambda _: SpectralModel(np.array([0.5, 0.0]), np.array([0.5, 0.5])), "sorted ascending"),
    (lambda _: SpectralModel(np.array([0.0, 0.5]), np.array([1.5, -0.5])), "nonnegative"),
    (lambda _: SpectralModel(np.array([0.0, 0.5]), np.array([0.5, 0.6])), "not 1 within 1e-12"),
    (lambda _: operators.diagonalize(_OP, ProbeState([1.0, 0.0, 0.0])), "dimension mismatch"),
    (lambda _: operators.observable_from_transform(
        TransformGrid(np.array([0.0]), np.array([1.0]), "density"), np.ones_like), "at least two grid points"),
    (lambda p: _model_file(p, "2\n0 0\n0 0\n1 0\n"), "expected a 'dim N' header"),
    (lambda p: _model_file(p, "dim two\n0 0\n0 0\n1 0\n"), "malformed header"),
    # the gapped ensemble: a gap that cannot fit, a weight outside (0, 1), and a
    # ground energy drawn too high for the gap (seed 4 draws -0.620)
    (lambda _: operators.random_spectrum(8, 1, "gapped", gap=0.9), "infeasible gap 0.9:"),
    (lambda _: operators.random_spectrum(8, 1, "gapped", ground_weight=1.5), "ground_weight"),
    (lambda _: operators.random_spectrum(4, 4, "gapped", gap=0.78), "for ground energy -0.620"),
    # kernels
    (lambda _: GaussianKernel(lam=0.0), "lam must be positive"),
    (lambda _: JacksonKernel(k=0, degree=8, delta=0.2), "amplifier degree k"),
    (lambda _: JacksonKernel(k=1, degree=0, delta=0.2), "window degree"),
    (lambda _: JacksonKernel(k=1, degree=8, delta=0.0), "delta must lie in"),
    (lambda _: kernels.gaussian_eval(0.0, 0.0, 0.0), "lam must be positive"),
    (lambda _: kernels.gaussian_tail_mass(0.0, 0.1), "delta and lam must be positive"),
    (lambda _: kernels.jackson_damping(0), "degree must be >= 1"),
    (lambda _: kernels.amplifier_coeffs(0), "amplifier degree must be >= 1"),
    (lambda _: kernels.jackson_thresholds(0.1, 2.0), "delta must lie in"),
    (lambda _: numerics.cheb_nodes(0), "at least one node"),
    # the git series and its planner
    (lambda _: chebgauss.kappa(0.0), "positive arguments"),
    (lambda _: chebgauss.gauss_cheb_coeffs(0.0, 8), "lam must be positive"),
    (lambda _: chebgauss.gauss_cheb_coeffs(0.1, -1), "order must be >= 0"),
    (lambda _: chebgauss.coeff_quadrature_oracle(0.0, 2), "lam must be positive"),
    (lambda _: chebgauss.coeff_quadrature_oracle(0.1, -1), "n must be >= 0"),
    (lambda _: chebgauss.coefficient_table(0.0, [0.0], 8), "lam must be positive"),
    (lambda _: chebgauss.coefficient_table(0.1, [0.0], 0), "order must be >= 1"),
    (lambda _: chebgauss.geometric_tail_bound(-1, 0.1), "order must be >= 0"),
    (lambda _: chebgauss.geometric_tail_bound(8, 0.0), "lam must be positive"),
    (lambda _: chebgauss.truncation_error_bound(-1, 0.1, "asymptotic"), "order must be >= 0"),
    (lambda _: chebgauss.truncation_error_bound(8, 0.0, "asymptotic"), "lam must be positive"),
    (lambda _: chebgauss.cheb_moments(_OP, _PSI, -1), "order must be >= 0"),
    (lambda _: chebgauss.cheb_moments(_OP, ProbeState([1.0, 0.0, 0.0]), 4), "dimension mismatch"),
    (lambda _: chebgauss.projection_cmax(0.0, [0.0], 8), "lam must be positive"),
    (lambda _: chebgauss.projection_cmax(0.1, [0.0], 0), "order must be >= 1"),
    (lambda _: chebgauss.projection_values(np.ones((2, 3, 4)), 0.1, [0.0]), "nonempty vector or matrix"),
    (lambda _: chebgauss.projection_values(np.ones(4), 0.0, [0.0]), "lam must be positive"),
    # estimators
    (lambda _: estimators.Budget("fejer", 0, 1), "kernel_order and n_samples must be positive"),
    (lambda _: estimators.plan_git_samples(0, np.ones(3), 0.1, 0.05), "order must be >= 1"),
    (lambda _: estimators.plan_git_samples(8, np.ones(3), 1.0, 0.05), "beta must lie in"),
    (lambda _: estimators.plan_git_samples(8, np.ones(3), 0.1, 0.0), "eta must lie in"),
    (lambda _: estimators.plan_git_samples(8, np.zeros(3), 0.1, 0.05), "no usable magnitude"),
    (lambda _: estimators.plan_git_samples(8, np.array([np.nan]), 0.1, 0.05), "no usable magnitude"),
    (lambda _: estimators.run_algorithm1(
        estimators.Budget("git", 8, 8, lam=0.1, per_order_shots=1), 1, _MODEL), "histogram route"),
    (lambda _: estimators.run_algorithm2(_MODEL, _TARGET, [0.0], 1, per_order_shots=0),
     "per_order_shots must be >= 1"),
    # metrics
    (lambda _: metrics.observable_bound(lambda w: np.where(w > 0.0, 1.0, np.nan), _TARGET), "finite on"),
    (lambda _: metrics.binomial_threshold(1.0, 5), "eta must lie in"),
    (lambda _: metrics.scaling_fit([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0]), "equal length"),
    # sampling
    (lambda _: sampling.OutcomeDistribution(np.full((2, 2), 0.25)), "1-d array"),
    (lambda _: sampling.build_qubiterate(HermitianOperator(np.diag([-0.5, 1.5]))), "operator norm exceeds 1"),
    (lambda _: sampling.qubiterate_moments(_OP, _PSI, -1), "kmax must be >= 0"),
]

_REGIME_ERRORS = [
    (lambda _: chebgauss.truncation_error_bound(0, 0.01, "intermediate"), "intermediate bound needs"),
    # sigma = 0.999 sets lam = 0.9 / sqrt(2 ln(1 / 0.999)) = 20.1
    (lambda _: chebgauss.truncation_order(AccuracyTarget(sigma=0.999, delta=0.9, beta=0.01)),
     "too coarse for the order planner"),
    # the intermediate formula's inner argument 4.14 ln(1 / 0.93) / (0.2 x 0.92) = 1.633
    (lambda _: chebgauss.truncation_order(AccuracyTarget(sigma=0.93, delta=0.2, beta=0.92)),
     "inner argument > sqrt(e), got 1.6328"),
]


@pytest.mark.parametrize("error, call, match", [(ValidationError, *row) for row in _ERRORS]
                         + [(OutOfRegimeError, *row) for row in _REGIME_ERRORS])
def test_a_documented_error_raises_with_its_message(tmp_path, error, call, match):
    with pytest.raises(error, match=re.escape(match)):
        call(tmp_path)
