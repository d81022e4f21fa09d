"""Unit tests for operators, spectral models, and the model file format."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from specden.errors import CoarseGridWarning, ResourceLimitError, ValidationError
from specden.kernels import AccuracyTarget, GaussianKernel, gaussian_eval, jackson_eval, jackson_plan
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
    normalize_spectrum,
    observable_exact,
    observable_from_transform,
    random_model,
    random_spectrum,
    read_model_file,
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
    assert abs(np.max(np.abs(op.evals)) - 0.75) < 1e-14


def test_probe_state_requires_unit_norm():
    psi = ProbeState([0.6, 0.8])
    assert abs(np.linalg.norm(psi.vector) - 1.0) < 1e-14
    with pytest.raises(ValidationError):
        ProbeState([3.0, 4.0])
    with pytest.raises(ValidationError):
        ProbeState([])


def test_normalize_spectrum_stays_inside_past_the_subnormal_scale():
    # past 2^1022 the scale 1 / max|lambda| is subnormal and rounds
    # +-1.5e308 to +-1.0000000000000002: those are clipped, the rest keep their bits
    evals = np.array([-1.5e308, -1e300, 3e307, 1.5e308])
    scaled, amap = normalize_spectrum(evals)
    assert scaled.tolist() == [-1.0, amap.apply(-1e300), amap.apply(3e307), 1.0]
    assert abs(amap.apply(1.5e308)) > 1.0
    spectrum = np.linspace(-3.0, 2.0, 7)
    scaled, amap = normalize_spectrum(spectrum)
    np.testing.assert_array_equal(scaled, (1.0 / 3.0) * spectrum)


def test_normalize_operator_full_contracts_large_spectrum():
    op = HermitianOperator(np.diag([-4.0, 2.0, 3.0]))
    normed, amap = normalize_operator(op, "full")
    assert np.max(np.abs(normed.evals)) <= 1.0 + 1e-12
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
    with pytest.raises(ValidationError):
        normalize_operator(op, "half")


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
    kernel = jackson_plan(AccuracyTarget(sigma=0.25, delta=0.1)).kernel
    grid = np.linspace(-1, 1, 41)
    got = exact_transform(model, kernel, grid)
    want = 0.6 * jackson_eval(grid, -0.3, kernel) + 0.4 * jackson_eval(grid, 0.4, kernel)
    np.testing.assert_allclose(got.values, want, rtol=1e-14, atol=1e-14)
    assert got.kind == "density"
    gk = GaussianKernel(0.1)
    nu = np.linspace(-1, 1, 41)
    got_g = exact_transform(model, gk, nu)
    want_g = 0.6 * gaussian_eval(nu, -0.3, 0.1) + 0.4 * gaussian_eval(nu, 0.4, 0.1)
    np.testing.assert_allclose(got_g.values, want_g, atol=1e-14)
    assert got_g.kind == "density"


def test_exact_transform_holds_no_frequencies_by_eigenvalues_array():
    # 4,096 x 2,048 cells: one product of the whole kernel matrix held 64 MiB
    evals = np.sort(np.random.default_rng(3).uniform(-1.0, 1.0, 2048))
    model = SpectralModel(evals, np.full(2048, 1.0 / 2048))
    nu = np.linspace(-1.0, 1.0, 4096)
    tracemalloc.start()
    try:
        got = exact_transform(model, GaussianKernel(0.05), nu).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = gaussian_eval(nu[:, None], evals[None, :], 0.05) @ model.weights
    assert peak < 16 * 2**20
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


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


@pytest.mark.parametrize("kind", ["discrete", "density"])
def test_observable_from_stacked_rows_is_one_value_per_row(kind):
    nu = np.linspace(-1.0, 1.0, 9)
    rows = np.random.default_rng(3).uniform(size=(4, nu.size))
    f = ObservableFn(fn=lambda w: w**2, name="square")
    got = observable_from_transform(TransformGrid(nu, rows, kind=kind), f)
    assert got.shape == (4,)
    for row, q in zip(rows, got):
        assert abs(observable_from_transform(TransformGrid(nu, row, kind=kind), f) - q) < 1e-15
    with pytest.raises(ValidationError):
        TransformGrid(nu, rows[:, 1:], kind=kind)


def test_observable_from_density_warns_on_coarse_grid():
    lam = 0.01
    nu = np.linspace(-1, 1, 21)
    grid = exact_transform(SpectralModel(np.array([0.0]), np.array([1.0])), GaussianKernel(lam), nu)
    with pytest.warns(CoarseGridWarning):
        observable_from_transform(grid, ObservableFn(fn=lambda w: np.ones_like(w)))


def test_random_model_kinds():
    op, psi = random_model(12, seed=5, kind="dense")
    assert op.dim == 12 and psi.dim == 12
    assert np.max(np.abs(op.evals)) <= 1.0 + 1e-12
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
    # a dim x dim draw over GRID_CAP = 2^26 cells is refused before drawing
    for generate in (random_model, random_spectrum):
        with pytest.raises(ResourceLimitError):
            generate(8193, seed=0, kind="gapped")


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["dense", "spiked", "gapped"]),
    dim=st.integers(1, 64),
    seed=st.integers(0, 2**31),
)
def test_random_model_carries_its_eigendecomposition(kind, dim, seed):
    if kind == "gapped":
        dim = max(dim, 2)
    op, _ = random_model(dim, seed=seed, kind=kind)
    vals, vecs = op.evals, op.evecs
    assert vals.shape == (dim,) and vecs.shape == (dim, dim)
    assert not vals.flags.writeable and not vecs.flags.writeable
    assert np.all(np.diff(vals) >= 0.0)
    assert np.max(np.abs(op.matrix @ vecs - vecs * vals)) <= 1e-13
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))) <= 1e-13


@pytest.mark.parametrize("kind, dims", [
    ("dense", (1, 5, 64)), ("spiked", (1, 5, 64)), ("gapped", (2, 5, 64)),
])
def test_diagonalize_matches_an_independent_eigensolve(kind, dims):
    for dim in dims:
        for seed in range(5):
            op, psi = random_model(dim, seed=seed, kind=kind)
            model = diagonalize(op, psi)
            ev, vecs = np.linalg.eigh(op.matrix)
            w = np.abs(vecs.conj().T @ psi.vector) ** 2
            assert model.size == dim
            np.testing.assert_allclose(model.eigenvalues, ev, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(model.weights, w / w.sum(), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind, solves", [("dense", ["eigvalsh"]), ("spiked", []), ("gapped", [])])
def test_random_model_solves_at_most_once(eigensolves, kind, solves):
    op, psi = random_model(16, seed=3, kind=kind)
    normed, amap = normalize_operator(op, "full")
    diagonalize(normed, psi)
    assert normed is op and amap.scale == 1.0
    assert [name for name, _ in eigensolves] == solves


def test_normalize_operator_maps_the_carried_spectrum(eigensolves):
    op = HermitianOperator(np.diag([-4.0, 2.0, 3.0]))
    normed, amap = normalize_operator(op, "full")
    np.testing.assert_array_equal(normed.evals, amap.apply(op.evals))
    assert normed.evecs is op.evecs
    assert np.max(np.abs(normed.matrix @ normed.evecs - normed.evecs * normed.evals)) <= 1e-14
    assert [name for name, _ in eigensolves] == ["eigh"]


def _random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _eager_random_model(dim, seed, kind, old=False):
    # The reference generators: the pair and the probe amplitudes that weigh
    # the model of `--gen kind:dim`.  The current one draws the spectrum from
    # child_rng(seed, 0), dense from the symmetric Hermite tridiagonal, and
    # the Haar basis from child_rng(seed, 1).  The old one (`old=True`)
    # solved a dense GUE matrix for its eigenvectors and V^dagger psi, and
    # drew the spiked/gapped basis from the spectrum's stream.
    rng = child_rng(seed, 0)
    basis = None
    if kind == "dense" and old:
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (g + g.conj().T) / 2.0
        vals, vecs = np.linalg.eigh(h)
        nrm = float(np.max(np.abs(vals))) if dim > 1 else max(1.0, abs(float(vals[0])))
        nrm = max(nrm, 1e-300)
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi = ProbeState(v / np.linalg.norm(v))
        return HermitianOperator(h / nrm, (vals / nrm, vecs)), psi, vecs.conj().T @ psi.vector
    if kind == "dense":
        diag = rng.normal(size=dim)
        sub = np.sqrt(rng.chisquare(2 * np.arange(dim - 1, 0, -1)) / 2)
        ev = np.linalg.eigvalsh(np.diag(diag) + np.diag(sub, -1) + np.diag(sub, 1))
        ev = ev / (float(np.max(np.abs(ev))) if dim > 1 else max(1.0, abs(float(ev[0]))))
        coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        coeffs /= np.linalg.norm(coeffs)
    elif kind == "spiked":
        n_spike = max(1, dim // 8)
        bulk = rng.uniform(-0.3, 0.3, size=dim - n_spike)
        spikes = rng.uniform(0.7, 0.95, size=n_spike) * rng.choice([-1.0, 1.0], size=n_spike)
        ev = np.sort(np.concatenate([bulk, spikes]))
        if old:
            basis = _random_unitary(rng, dim) if dim > 1 else np.ones((1, 1), dtype=complex)
        coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        coeffs[np.argsort(np.abs(ev))[-n_spike:]] *= 3.0
        coeffs /= np.linalg.norm(coeffs)
    else:
        e0 = rng.uniform(-0.95, -0.6)
        e1 = e0 + 2.0 * 0.1 + rng.uniform(0.02, 0.1)
        rest = np.sort(rng.uniform(e1, 0.98, size=dim - 2)) if dim > 2 else np.empty(0)
        ev = np.concatenate([[e0, e1], rest])
        if old:
            basis = _random_unitary(rng, dim)
        coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        coeffs[0] = 0.0
        coeffs = coeffs / np.linalg.norm(coeffs) * math.sqrt(1.0 - 0.2)
        coeffs[0] = math.sqrt(0.2) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    if basis is None:
        basis = _random_unitary(child_rng(seed, 1), dim)
    op = HermitianOperator((basis * ev) @ basis.conj().T, (ev, basis))
    return op, ProbeState(basis @ coeffs), coeffs


@pytest.mark.parametrize("kind, dim", [
    (kind, dim) for kind in ("dense", "spiked", "gapped") for dim in (1, 2, 5, 64)
    if kind != "gapped" or dim > 1
])
def test_deferred_model_builds_the_eager_bits(tmp_path, kind, dim, write_model_file):
    # random_model builds the reference generator's pair bit for bit
    for seed in range(3):
        want_op, want_psi, _ = _eager_random_model(dim, seed, kind)
        op, psi = random_model(dim, seed=seed, kind=kind)
        model = diagonalize(op, psi)
        assert np.array_equal(op.evals, want_op.evals)
        assert np.array_equal(op.evecs, want_op.evecs)
        assert np.array_equal(psi.vector, want_psi.vector)
        assert np.array_equal(op.matrix, want_op.matrix)
        assert not (op.matrix.flags.writeable or op.evecs.flags.writeable or psi.vector.flags.writeable)
        want_model = diagonalize(want_op, want_psi)
        assert np.array_equal(model.eigenvalues, want_model.eigenvalues)
        assert np.array_equal(model.weights, want_model.weights)
        w = np.abs(op.evecs.conj().T @ psi.vector) ** 2
        np.testing.assert_allclose(model.weights, w / w.sum(), rtol=0.0, atol=1e-15)
        write_model_file(tmp_path / "model.txt", op, psi)
        write_model_file(tmp_path / "eager.txt", want_op, want_psi)
        assert (tmp_path / "model.txt").read_bytes() == (tmp_path / "eager.txt").read_bytes()


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["dense", "spiked", "gapped"]),
    dim=st.integers(1, 64),
    seed=st.integers(0, 2**31),
)
def test_random_spectrum_equals_the_pair(kind, dim, seed):
    if kind == "gapped":
        dim = max(dim, 2)
    evals, amplitudes = random_spectrum(dim, seed, kind)
    op, psi = random_model(dim, seed, kind)
    _, _, drawn = _eager_random_model(dim, seed, kind)
    assert np.array_equal(evals, op.evals)
    assert np.array_equal(amplitudes, drawn)
    assert np.max(np.abs(amplitudes - op.evecs.conj().T @ psi.vector)) <= 1e-15
    # the model of `--gen kind:dim`: the drawn weights, merged by the reference loop
    w = np.abs(drawn) ** 2
    want_ev, want_w = _merge_loop(evals, w / float(np.sum(w)))
    model = SpectralModel.from_amplitudes(evals, amplitudes)
    assert np.array_equal(model.eigenvalues, want_ev)
    assert np.array_equal(model.weights, want_w)


def _draw_statistics(draws):
    # per draw: the bottom, top and second-largest eigenvalue, the largest
    # weight, and the weight on the top eigenvalue
    stats = []
    for evals, amplitudes in draws:
        w = np.abs(amplitudes) ** 2 / float(np.sum(np.abs(amplitudes) ** 2))
        stats.append((evals[0], evals[-1], evals[-2], w.max(), w[-1]))
    return np.array(stats).T


@pytest.mark.parametrize("kind", ["dense", "spiked", "gapped"])
def test_random_spectrum_has_the_law_of_the_old_generator(kind):
    # 400 draws of the current generator against 400 of the old one, on
    # disjoint seeds: a two-sample Kolmogorov-Smirnov test on each statistic
    dim, count = 32, 400
    old = [(op.evals, amplitudes) for op, _, amplitudes in
           (_eager_random_model(dim, seed, kind, old=True) for seed in range(count))]
    new = [random_spectrum(dim, seed, kind) for seed in range(count, 2 * count)]
    for a, b in zip(_draw_statistics(old), _draw_statistics(new)):
        assert ks_2samp(a, b).pvalue > 1e-3


def test_from_amplitudes_rejects_mismatched_shapes():
    with pytest.raises(ValidationError):
        SpectralModel.from_amplitudes(np.array([-0.5, 0.5]), np.array([1.0]))


def test_hermitian_operator_rejects_bad_eigenpairs():
    m = np.diag([0.5, -0.5])
    with pytest.raises(ValidationError):
        HermitianOperator(m, (np.array([0.5, -0.5]), np.eye(2)))
    with pytest.raises(ValidationError):
        HermitianOperator(m, (np.array([-0.5, 0.5]), np.eye(3)))


def _merge_loop(ev, w):
    # The merge as a loop over groups of eigenvalues closer than 1e-10.
    out_ev, out_w = [], []
    i = 0
    while i < ev.size:
        j = i + 1
        while j < ev.size and ev[j] - ev[j - 1] < 1e-10:
            j += 1
        ww = float(np.sum(w[i:j]))
        if j == i + 1:
            out_ev.append(float(ev[i]))
        else:
            out_ev.append(float(np.sum(ev[i:j] * w[i:j]) / ww) if ww > 0.0 else float(np.mean(ev[i:j])))
        out_w.append(ww)
        i = j
    return np.asarray(out_ev), np.asarray(out_w)


@settings(max_examples=60, deadline=None)
@given(
    groups=st.lists(st.tuples(st.integers(1, 12), st.booleans()), min_size=1, max_size=16),
    seed=st.integers(0, 2**32 - 1),
    rotate=st.booleans(),
)
@example(groups=[(1, True)], seed=0, rotate=False)
@example(groups=[(12, True), (3, False), (1, True)], seed=1, rotate=False)
def test_diagonalize_merge_equals_group_loop(groups, seed, rotate):
    # Clusters of up to 12 eigenvalues spaced below the merge tolerance; a
    # group flagged False gets no probe weight when the basis is not rotated.
    rng = np.random.default_rng(seed)
    centers = np.sort(rng.uniform(-0.9, 0.9, len(groups)))
    sizes = [size for size, _ in groups]
    ev = np.concatenate([c + np.cumsum(rng.uniform(0.0, 5e-11, size)) for c, size in zip(centers, sizes)])
    dim = ev.size
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps[~np.repeat([weighted for _, weighted in groups], sizes)] = 0.0
    if not np.any(amps):
        amps[0] = 1.0
    if rotate and dim > 1:
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    else:
        basis = np.eye(dim, dtype=complex)
    op = HermitianOperator((basis * ev) @ basis.conj().T, (ev, basis))
    psi = ProbeState(amps / np.linalg.norm(amps))
    w = np.abs(basis.conj().T @ psi.vector) ** 2
    want_ev, want_w = _merge_loop(ev, w / float(np.sum(w)))
    model = diagonalize(op, psi)
    assert np.array_equal(model.eigenvalues, want_ev)
    assert np.array_equal(model.weights, want_w)


def test_model_file_round_trip(tmp_path, write_model_file):
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
