"""Unit tests for operators, spectral models, and the model file format."""

import math

import numpy as np
import pytest

from specden.errors import CoarseGridWarning, ValidationError
from specden.kernels import FejerKernel, GaussianKernel, fejer_eval, fejer_grid, gaussian_eval
from specden.numerics import child_rng
from specden.operators import (
    AffineMap,
    HermitianOperator,
    ObservableFn,
    ProbeState,
    SpectralModel,
    TransformGrid,
    diagonalize,
    exact_transform,
    normalize_operator,
    observable_exact,
    observable_from_transform,
    random_model,
    read_model_file,
    write_model_file,
)


def test_affine_map_round_trip():
    amap = AffineMap(0.5, -0.25)
    x = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(amap.invert(amap.apply(x)), x, atol=1e-14)


def test_affine_map_rejects_zero_scale():
    with pytest.raises(ValidationError):
        AffineMap(0.0, 1.0)


def test_hermitian_operator_validation():
    with pytest.raises(ValidationError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        HermitianOperator(np.ones((2, 3)))
    op = HermitianOperator(np.diag([0.25, -0.75]))
    assert op.dim == 2
    assert abs(op.norm() - 0.75) < 1e-14


def test_probe_state_requires_unit_norm():
    psi = ProbeState([0.6, 0.8])
    assert abs(np.linalg.norm(psi.vector) - 1.0) < 1e-14
    with pytest.raises(ValidationError):
        ProbeState([3.0, 4.0])
    with pytest.raises(ValidationError):
        ProbeState([])


def test_normalize_operator_full_contracts_large_spectrum():
    op = HermitianOperator(np.diag([-4.0, 2.0, 3.0]))
    normed, amap = normalize_operator(op, "full")
    assert normed.norm() <= 1.0 + 1e-12
    np.testing.assert_allclose(
        np.linalg.eigvalsh(normed.matrix),
        amap.apply(np.array([-4.0, 2.0, 3.0])),
        atol=1e-12,
    )
    # operators already inside [-1, 1] are untouched
    small = HermitianOperator(np.diag([0.1, -0.2]))
    same, amap2 = normalize_operator(small, "full")
    np.testing.assert_array_equal(same.matrix, small.matrix)
    assert amap2.scale == 1.0 and amap2.shift == 0.0


def test_normalize_operator_half_hits_endpoints():
    op = HermitianOperator(np.diag([-3.0, 1.0, 5.0]))
    normed, _ = normalize_operator(op, "half")
    ev = np.linalg.eigvalsh(normed.matrix)
    assert abs(ev[0] + 0.5) < 1e-12 and abs(ev[-1] - 0.5) < 1e-12
    with pytest.raises(ValidationError):
        normalize_operator(op, "quarter")


def test_diagonalize_weights_and_order():
    op = HermitianOperator(np.diag([0.5, -0.5, 0.0]))
    psi = ProbeState(np.array([1.0, 2.0, 2.0]) / 3.0)
    model = diagonalize(op, psi)
    np.testing.assert_allclose(model.eigenvalues, [-0.5, 0.0, 0.5], atol=1e-14)
    np.testing.assert_allclose(model.weights, [4 / 9, 4 / 9, 1 / 9], atol=1e-14)
    assert abs(model.weights.sum() - 1.0) < 1e-12


def test_diagonalize_merges_degenerate_levels():
    op = HermitianOperator(np.diag([0.3, 0.3 + 1e-13, -0.1]))
    psi = ProbeState(np.ones(3) / math.sqrt(3.0))
    model = diagonalize(op, psi)
    assert model.size == 2
    np.testing.assert_allclose(model.weights, [1 / 3, 2 / 3], atol=1e-12)


def test_diagonalize_rejects_unnormalized_spectrum():
    op = HermitianOperator(np.diag([1.5, 0.0]))
    with pytest.raises(ValidationError):
        diagonalize(op, ProbeState(np.array([1.0, 1.0]) / math.sqrt(2.0)))


def test_spectral_model_mapped():
    model = SpectralModel(np.array([-0.5, 0.5]), np.array([0.25, 0.75]))
    out = model.mapped(AffineMap(0.5, 0.5))
    np.testing.assert_allclose(out.eigenvalues, [0.25, 0.75], atol=1e-14)
    np.testing.assert_array_equal(out.weights, model.weights)


def test_exact_transform_matches_hand_sum():
    model = SpectralModel(np.array([-0.3, 0.4]), np.array([0.6, 0.4]))
    kernel = FejerKernel(64)
    grid = fejer_grid(64)
    got = exact_transform(model, kernel, grid)
    want = 0.6 * fejer_eval(grid, -0.3, 64) + 0.4 * fejer_eval(grid, 0.4, 64)
    np.testing.assert_allclose(got.values, want, atol=1e-14)
    assert got.kind == "discrete"
    gk = GaussianKernel(0.1)
    nu = np.linspace(-1, 1, 41)
    got_g = exact_transform(model, gk, nu)
    want_g = 0.6 * gaussian_eval(nu, -0.3, 0.1) + 0.4 * gaussian_eval(nu, 0.4, 0.1)
    np.testing.assert_allclose(got_g.values, want_g, atol=1e-14)
    assert got_g.kind == "density"


def test_observable_exact_and_discrete_transform_agree():
    model = SpectralModel(np.array([-0.2, 0.1, 0.5]), np.array([0.5, 0.3, 0.2]))
    f = ObservableFn(fn=lambda w: w, name="omega")
    q = observable_exact(model, f)
    assert abs(q - (-0.2 * 0.5 + 0.1 * 0.3 + 0.5 * 0.2)) < 1e-14
    # a discrete transform integrates by direct dot product
    grid = TransformGrid(model.eigenvalues, model.weights, kind="discrete")
    assert abs(observable_from_transform(grid, f) - q) < 1e-14


def test_observable_from_density_uses_trapezoid():
    lam = 0.08
    nu = np.arange(-1 - 8 * lam, 1 + 8 * lam + 1e-9, 0.005)
    model = SpectralModel(np.array([0.0]), np.array([1.0]))
    grid = exact_transform(model, GaussianKernel(lam), nu)
    got = observable_from_transform(grid, ObservableFn(fn=lambda w: np.ones_like(w)))
    assert abs(got - 1.0) < 1e-6


def test_observable_from_density_warns_on_coarse_grid():
    lam = 0.01
    nu = np.linspace(-1, 1, 21)
    grid = exact_transform(SpectralModel(np.array([0.0]), np.array([1.0])), GaussianKernel(lam), nu)
    with pytest.warns(CoarseGridWarning):
        observable_from_transform(grid, ObservableFn(fn=lambda w: np.ones_like(w)))


def test_random_model_kinds():
    op, psi = random_model(12, seed=5, kind="dense")
    assert op.dim == 12 and psi.dim == 12
    assert op.norm() <= 1.0 + 1e-12
    model = diagonalize(op, psi)
    assert abs(model.weights.sum() - 1.0) < 1e-10

    op_g, psi_g = random_model(10, seed=7, kind="gapped", gap=0.3, ground_weight=0.4)
    ev = np.linalg.eigvalsh(op_g.matrix)
    assert ev[1] - ev[0] > 0.6
    m = diagonalize(op_g, psi_g)
    assert abs(m.weights[0] - 0.4) < 1e-10

    op_s, psi_s = random_model(10, seed=9, kind="spiked")
    ms = diagonalize(op_s, psi_s)
    assert np.max(np.abs(ms.eigenvalues)) >= 0.7 - 1e-9


def test_random_model_deterministic():
    a, pa = random_model(8, seed=21, kind="dense")
    b, pb = random_model(8, seed=21, kind="dense")
    np.testing.assert_array_equal(a.matrix, b.matrix)
    np.testing.assert_array_equal(pa.vector, pb.vector)
    c, _ = random_model(8, seed=22, kind="dense")
    assert np.max(np.abs(a.matrix - c.matrix)) > 1e-8


def test_random_model_validation():
    with pytest.raises(ValidationError):
        random_model(0, seed=0)
    with pytest.raises(ValidationError):
        random_model(1, seed=0, kind="gapped")
    with pytest.raises(ValidationError):
        random_model(4, seed=0, kind="banded")


def test_model_file_round_trip(tmp_path):
    rng = child_rng(31)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    op = HermitianOperator((h + h.conj().T) / 8.0)
    v = rng.standard_normal(5)
    psi = ProbeState(v / np.linalg.norm(v))
    path = tmp_path / "model.txt"
    write_model_file(path, op, psi)
    op2, psi2 = read_model_file(path)
    np.testing.assert_allclose(op2.matrix, op.matrix, atol=1e-15)
    np.testing.assert_allclose(psi2.vector, psi.vector, atol=1e-15)


def test_transform_grid_validation():
    with pytest.raises(ValidationError):
        TransformGrid(np.array([0.0, 1.0]), np.array([1.0]), kind="discrete")
    with pytest.raises(ValidationError):
        TransformGrid(np.array([0.0]), np.array([1.0]), kind="histogram")


def test_observable_fn_name_and_eval():
    f = ObservableFn(fn=lambda w: w**2, name="square")
    assert f.name == "square"
    np.testing.assert_allclose(f(np.array([2.0, -3.0])), [4.0, 9.0])
