"""Unit tests for the measurement-primitive simulators."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from specden.errors import ResourceLimitError, ValidationError
from specden.kernels import fejer_eval, fejer_grid, qubitized_fejer_eval
from specden.numerics import child_rng
from specden.operators import (
    AffineMap,
    HermitianOperator,
    ProbeState,
    SpectralModel,
    diagonalize,
    random_model,
)
from specden.sampling import (
    FaultModel,
    FejerPeaks,
    OutcomeDistribution,
    build_qubiterate,
    eigenbasis_qpe,
    hadamard_test_sample,
    qpe_distribution,
    qpe_peaks,
    qubitized_qpe_distribution,
    qubitized_qpe_peaks,
    qubiterate_moments,
    statevector_qpe,
)
from specden import sampling
from specden.chebgauss import cheb_moments


def _random_pair(dim, seed, kind="dense"):
    op, psi = random_model(dim, seed=seed, kind=kind)
    return op, psi


def _spectrum(op, psi):
    # the eigenvalues and probe amplitudes the eigenbasis register reads
    return op.evals, op.evecs.conj().T @ psi.vector


def test_outcome_distribution_validation():
    dist = OutcomeDistribution(np.full(4, 0.25))
    assert np.array_equal(dist.grid, fejer_grid(4))
    with pytest.raises(ValidationError):
        OutcomeDistribution(np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(ValidationError):
        OutcomeDistribution(np.full(4, 0.3))
    # the outcome grid has a power-of-two size, so the probabilities must too
    with pytest.raises(ValidationError):
        OutcomeDistribution(np.full(3, 1.0 / 3.0))


def test_qpe_distribution_matches_kernel_mixture():
    op, psi = _random_pair(5, seed=13)
    model = diagonalize(op, psi)
    n = 128
    dist = qpe_distribution(model, n)
    grid = fejer_grid(n)
    want = (fejer_eval(grid[:, None], model.eigenvalues[None, :], n) * model.weights).sum(axis=1)
    np.testing.assert_allclose(dist.probs, want, atol=1e-13)
    assert abs(dist.probs.sum() - 1.0) < 1e-12


def _blocked_mixture(kernel_eval, model, n):
    # the n x K kernel matrix, built 4096 grid rows at a time
    grid = fejer_grid(n)
    rows = [
        kernel_eval(grid[i : i + 4096, None], model.eigenvalues[None, :], n) @ model.weights
        for i in range(0, n, 4096)
    ]
    return np.concatenate(rows)


def _edge_model(n, size, seed):
    # random phases plus phases on grid points, at +-1 and 1e-13 inside 1
    rng = child_rng(seed)
    grid = fejer_grid(n)
    ev = np.concatenate((
        rng.uniform(-1.0, 1.0, size),
        grid[rng.integers(0, n, 3)],
        [-1.0, 1.0, 1.0 - 1e-13],
    ))
    w = rng.random(ev.size)
    return SpectralModel(np.sort(ev), w / w.sum())


@pytest.mark.parametrize("n", [2, 4, 64, 4096, 65536])
def test_fft_distributions_match_kernel_matrix(n):
    for size in (1, 13, min(506, 2**24 // n)):
        model = _edge_model(n, size, seed=n + size)
        dist = qpe_distribution(model, n)
        np.testing.assert_allclose(dist.probs, _blocked_mixture(fejer_eval, model, n), rtol=0, atol=1e-14)
        assert abs(dist.probs.sum() - 1.0) < 1e-12
        folded = model.mapped(AffineMap(0.5, 0.5))
        dist = qubitized_qpe_distribution(folded, n)
        want = _blocked_mixture(qubitized_fejer_eval, folded, n)
        np.testing.assert_allclose(dist.probs, want, rtol=0, atol=1e-14)
        assert abs(dist.probs.sum() - 1.0) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    dim=st.integers(2, 8),
    n_ancilla=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["dense", "gapped"]),
)
def test_qpe_distribution_is_the_statevector_distribution(dim, n_ancilla, seed, kind):
    op, psi = random_model(dim, seed=seed, kind=kind)
    dist = qpe_distribution(diagonalize(op, psi), 2**n_ancilla)
    assert abs(dist.probs.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(dist.probs, statevector_qpe(op, psi, n_ancilla).probs, rtol=0, atol=1e-12)


def test_qpe_distribution_memory_is_sublinear_in_cells():
    rng = child_rng(5)
    w = rng.random(256)
    model = SpectralModel(np.sort(rng.uniform(-1.0, 1.0, 256)), w / w.sum())
    tracemalloc.start()
    try:
        dist = qpe_distribution(model, 65536)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.probs.size == 65536
    # the 65,536 x 256 kernel matrix and its temporaries peaked at 640 MB here
    assert peak < 32 * 2**20


def _one_shot_mixture(phases, weights, n):
    # the reference: chi as one (n/b x K) by (K x b) product, then the
    # window and the inverse FFT on whole n-sized arrays
    b = 2 ** (int(n).bit_length() // 2)
    hi = np.round(phases * 2.0**26) / 2.0**26
    lo = phases - hi

    def unit(m):
        turns = np.fmod(np.multiply.outer(m, hi), 2.0)
        turns += np.multiply.outer(m, lo)
        return np.exp(-1j * np.pi * turns)

    chi = (unit(b * np.arange(n // b)) @ (unit(np.arange(b)).T * weights[:, None])).reshape(n)
    window = 1.0 - np.arange(n) / n
    window[1::2] = -window[1::2]
    window[0] = 0.5
    return 2.0 * np.arange(n) / n - 1.0, 2.0 * np.fft.ifft(chi * window).real


@settings(max_examples=40, deadline=None)
@given(
    log_n=st.integers(1, 18),
    k=st.integers(1, 1000),
    seed=st.integers(0, 2**32 - 1),
    ends=st.booleans(),
    duplicates=st.booleans(),
)
@example(log_n=1, k=1, seed=0, ends=False, duplicates=False)
@example(log_n=1, k=7, seed=1, ends=True, duplicates=True)
@example(log_n=18, k=1000, seed=2, ends=True, duplicates=True)
@example(log_n=16, k=512, seed=3, ends=False, duplicates=False)
def test_fejer_mixture_is_the_one_shot_product_bit_for_bit(log_n, k, seed, ends, duplicates):
    # the blocked, in-place mixture against the whole-array one
    rng = child_rng(seed)
    phases = rng.uniform(-1.0, 1.0, k)
    if duplicates:
        phases[k // 2:] = phases[:k - k // 2]
    if ends:
        phases[0], phases[-1] = 1.0, -1.0
    weights = rng.random(k)
    weights /= weights.sum()
    n = 2**log_n
    dist = sampling._fejer_mixture(phases, weights, n)
    grid, probs = _one_shot_mixture(phases, weights, n)
    assert np.array_equal(dist.grid, grid)
    assert np.array_equal(dist.probs, np.clip(probs, 0.0, None))


@pytest.mark.parametrize("n, k, bound_mb", [(2**16, 512, 5), (2**20, 64, 40)])
def test_fejer_mixture_holds_chi_and_one_block(n, k, bound_mb):
    # beside chi (16 B per bin) and the (K x b) factor, one block of the
    # (n/b x K) factor; the one-shot mixture peaked at 7.5 MB and 64 MB
    rng = child_rng(9)
    phases = rng.uniform(-1.0, 1.0, k)
    weights = rng.random(k)
    weights /= weights.sum()
    tracemalloc.start()
    try:
        dist = sampling._fejer_mixture(phases, weights, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.probs.size == n
    assert peak <= bound_mb * 2**20


def test_statevector_qpe_matches_analytic():
    op, psi = _random_pair(4, seed=3)
    model = diagonalize(op, psi)
    n_anc = 5
    dist = statevector_qpe(op, psi, n_anc)
    ref = qpe_distribution(model, 2**n_anc)
    np.testing.assert_allclose(dist.probs, ref.probs, atol=8e-15)
    np.testing.assert_allclose(dist.grid, ref.grid, atol=0)


def test_statevector_qpe_real_valued_inputs():
    # real symmetric operator and real probe exercise the dtype promotion
    op = HermitianOperator(np.array([[0.2, 0.1], [0.1, -0.3]]))
    psi = ProbeState(np.array([1.0, 1.0]) / math.sqrt(2))
    dist = statevector_qpe(op, psi, 4)
    assert abs(dist.probs.sum() - 1.0) < 1e-12


def test_statevector_qpe_fault_determinism_and_bound():
    op, psi = _random_pair(4, seed=19)
    n_anc = 5
    clean = statevector_qpe(op, psi, n_anc)
    fault = FaultModel(delta_t=1e-2, seed=31)
    noisy1 = statevector_qpe(op, psi, n_anc, fault=fault)
    noisy2 = statevector_qpe(op, psi, n_anc, fault=fault)
    np.testing.assert_array_equal(noisy1.probs, noisy2.probs)
    other = statevector_qpe(op, psi, n_anc, fault=FaultModel(delta_t=1e-2, seed=32))
    assert np.max(np.abs(noisy1.probs - other.probs)) > 0
    dev = np.max(np.abs(noisy1.probs - clean.probs))
    assert dev <= n_anc * fault.delta_t
    assert dev > 0


def test_statevector_qpe_zero_fault_is_clean():
    op, psi = _random_pair(3, seed=8)
    clean = statevector_qpe(op, psi, 4)
    noisy = statevector_qpe(op, psi, 4, fault=FaultModel(delta_t=0.0, seed=5))
    np.testing.assert_array_equal(clean.probs, noisy.probs)


def test_statevector_qpe_memory_cap():
    op, psi = _random_pair(4, seed=2)
    with pytest.raises(ResourceLimitError):
        statevector_qpe(op, psi, 21)


def test_statevector_qpe_checks_dimensions():
    op, psi = _random_pair(4, seed=2)
    with pytest.raises(ValidationError, match="dimension mismatch"):
        statevector_qpe(op, ProbeState(np.full(3, 1.0 / math.sqrt(3.0))), 4)
    with pytest.raises(ValidationError, match="amplitudes"):
        eigenbasis_qpe(op.evals, np.ones(3), 4, FaultModel(delta_t=1e-3, seed=1))


def test_fault_model_validation():
    with pytest.raises(ValidationError):
        FaultModel(delta_t=-0.1, seed=0)


def test_qubitized_qpe_distribution_folded_mixture():
    op, psi = _random_pair(6, seed=23)
    model = diagonalize(op, psi).mapped(AffineMap(0.5, 0.5))
    n = 128
    dist = qubitized_qpe_distribution(model, n)
    grid = fejer_grid(n)
    want = (
        qubitized_fejer_eval(grid[:, None], model.eigenvalues[None, :], n) * model.weights
    ).sum(axis=1)
    np.testing.assert_allclose(dist.probs, want, atol=1e-13)
    assert abs(dist.probs.sum() - 1.0) < 1e-12


def test_qubitized_qpe_requires_shifted_spectrum():
    op, psi = _random_pair(4, seed=29)
    model = diagonalize(op, psi)  # spectrum straddles 0
    if np.any(model.eigenvalues < -1e-12):
        with pytest.raises(ValidationError):
            qubitized_qpe_distribution(model, 64)


def test_build_qubiterate_unitary_blocks():
    op, psi = _random_pair(5, seed=41)
    walk, flag = build_qubiterate(op)
    dim = op.dim
    assert walk.shape == (2 * dim, 2 * dim)
    np.testing.assert_allclose(walk @ walk.conj().T, np.eye(2 * dim), atol=1e-12)
    np.testing.assert_allclose(walk[:dim, :dim], op.matrix, atol=1e-13)
    np.testing.assert_array_equal(flag, [1.0, 0.0])


def test_qubiterate_moments_equal_recurrence():
    op, psi = _random_pair(7, seed=47)
    kmax = 48
    walk_moments = qubiterate_moments(op, psi, kmax)
    rec_moments = cheb_moments(op, psi, kmax)
    np.testing.assert_allclose(walk_moments, rec_moments, atol=5e-15)
    assert walk_moments.shape == (kmax + 1,)
    assert abs(walk_moments[0] - 1.0) < 1e-14


def test_statevector_qpe_keeps_unit_mass_on_large_registers():
    # 2^16 outcomes on a dim-2 register (2 MiB of amplitudes): powering the
    # rounded phase by 2^15 once lost 7.5e-13 of the probability mass
    op = HermitianOperator(np.diag([-0.3, 0.4]))
    psi = ProbeState(np.array([0.6, 0.8]))
    for fault in (None, FaultModel(delta_t=1e-3, seed=4)):
        dist = statevector_qpe(op, psi, 16, fault=fault)
        assert abs(float(dist.probs.sum()) - 1.0) <= 1e-13


def _reference_statevector_qpe(op, psi, n_ancilla, fault):
    # The register loop one fault at a time, redrawing every generator on
    # each call, in the eigenbasis the operator carries.
    n = 2**n_ancilla
    evals, evecs = op.evals, op.evecs
    state = np.tile((evecs.conj().T @ psi.vector).astype(complex) / math.sqrt(n), (n, 1))
    for k in range(n_ancilla):
        controlled = (np.arange(n) >> k) & 1 == 1
        phase_k = np.exp(1j * np.pi * np.fmod((evals + 1.0) * 2.0**k, 2.0))
        if fault.delta_t > 0.0:
            hvals, hvecs = sampling._unit_norm_eigh(sampling._gue(op.dim, child_rng(fault.seed, k)))
            kick = (hvecs * np.exp(-1j * fault.delta_t * hvals)) @ hvecs.conj().T
            state[controlled] = (state[controlled] @ kick.T) * phase_k
        else:
            state[controlled] *= phase_k
    amps = np.fft.fft(state, axis=0) / math.sqrt(n)
    return np.einsum("qj,qj->q", amps, amps.conj()).real


def test_statevector_qpe_sweep_equals_one_run_per_fault():
    # every (step, seed) of a small sweep grid, one register per call, keeps
    # the reference loop's bits
    op, psi = _random_pair(6, seed=53)
    n_anc = 6
    for dt in (1e-2, 0.0, 1.0 / 140.0):
        for seed in (3, 11, 2**40 + 7):
            fault = FaultModel(delta_t=dt, seed=seed)
            dist = statevector_qpe(op, psi, n_anc, fault)
            assert np.array_equal(dist.probs, _reference_statevector_qpe(op, psi, n_anc, fault))
            assert np.array_equal(dist.probs, eigenbasis_qpe(*_spectrum(op, psi), n_anc, fault).probs)
            assert np.array_equal(dist.grid, fejer_grid(2**n_anc))
    assert np.array_equal(
        statevector_qpe(op, psi, n_anc).probs,
        _reference_statevector_qpe(op, psi, n_anc, FaultModel(delta_t=0.0, seed=0)),
    )


def test_statevector_qpe_sweep_validation():
    op, psi = _random_pair(4, seed=2)
    with pytest.raises(ValidationError):
        eigenbasis_qpe(*_spectrum(op, psi), 0, FaultModel(delta_t=1e-3, seed=1))
    with pytest.raises(ResourceLimitError):
        eigenbasis_qpe(*_spectrum(op, psi), 21, FaultModel(delta_t=1e-3, seed=1))


def test_statevector_qpe_sweep_holds_one_register_per_step():
    # dim 16 at 2^14 outcomes: the statevector is 4 MiB, and with its Fourier
    # transform a faulty register peaks near 12 MiB; a second register would
    # pass 16 MiB
    op, psi = _random_pair(16, seed=61)
    tracemalloc.start()
    try:
        dist = eigenbasis_qpe(*_spectrum(op, psi), 14, FaultModel(delta_t=1e-2, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < float(dist.probs.max()) <= 1.0
    assert peak < 16 * 2**20


def test_hadamard_test_sample_statistics():
    t = 0.3
    shots = 20000
    est = hadamard_test_sample(t, shots, 99)
    assert abs(est - t) < 0.02
    again = hadamard_test_sample(t, shots, 99)
    assert est == again
    other = hadamard_test_sample(t, shots, 100)
    assert est != other


def test_hadamard_test_sample_edges_and_validation():
    assert hadamard_test_sample(1.0, 100, 7) == 1.0
    assert hadamard_test_sample(-1.0, 100, 7) == -1.0
    with pytest.raises(ValidationError):
        hadamard_test_sample(0.5, 0, 7)
    with pytest.raises(ValidationError):
        hadamard_test_sample(1.5, 10, 7)


def test_hadamard_test_sample_unbiased_mean():
    t = -0.42
    vals = [hadamard_test_sample(t, 64, 5 + k) for k in range(400)]
    assert abs(np.mean(vals) - t) < 0.02


# --- per-peak shots against the exact mixture --------------------------------

_SHOTS = 10**6


def _fit_p_value(counts, probs):
    # Pearson chi-square over the bins expecting at least 5 shots, the rest
    # pooled into one cell; a pool that expects almost nothing must get nothing
    expected = counts.sum() * probs / probs.sum()
    big = expected >= 5.0
    obs, exp = counts[big].astype(float), expected[big]
    rest_e, rest_o = expected[~big].sum(), counts[~big].sum()
    if rest_e >= 5.0:
        obs, exp = np.append(obs, rest_o), np.append(exp, rest_e)
    else:
        assert rest_o <= 5 + 10 * rest_e
        exp = exp * obs.sum() / exp.sum()
    return chisquare(obs, exp).pvalue if obs.size > 1 else 1.0


def _check_per_peak(peaks, dist, seed):
    counts = peaks.sample(_SHOTS, child_rng(seed))
    assert counts.dtype == np.int64 and counts.shape == (peaks.n,)
    assert counts.sum() == _SHOTS and counts.min() >= 0
    # no bin the mixture leaves empty may get a shot
    assert counts[dist.probs < 1e-15].sum() == 0
    assert _fit_p_value(counts, dist.probs) > 1e-3


def _peaks_model(size, seed, extra=()):
    rng = child_rng(seed)
    ev = np.concatenate((rng.uniform(-1.0, 1.0, size), extra))
    w = rng.random(ev.size)
    return SpectralModel(np.sort(ev), w / w.sum())


@pytest.mark.parametrize("n", [2, 4, 8, 32, 64, 1024, 2**16])
def test_per_peak_shots_fit_the_mixture_across_grid_sizes(n):
    # n <= 32 is one table of the whole period; from n = 64 on a shot can land past the table
    model = _peaks_model(9, seed=n)
    _check_per_peak(qpe_peaks(model, n), qpe_distribution(model, n), seed=n + 1)


def test_per_peak_shots_fold_eigenvalues_at_plus_and_minus_one():
    # +1 and -1 are the same phase: both peaks sit on bin 0
    model = _peaks_model(6, seed=31, extra=(-1.0, 1.0, 1.0 - 1e-13))
    _check_per_peak(qpe_peaks(model, 64), qpe_distribution(model, 64), seed=32)
    alone = qpe_peaks(SpectralModel(np.array([-1.0, 1.0]), np.array([0.25, 0.75])), 64)
    assert np.flatnonzero(alone.sample(1000, child_rng(33))).tolist() == [0]


def test_per_peak_shots_of_two_eigenvalues_within_one_bin():
    # the bins of n = 256 are 2/256 = 0.0078 wide
    model = SpectralModel(np.array([-0.5, 0.30001, 0.30041, 0.7]), np.array([0.1, 0.4, 0.4, 0.1]))
    _check_per_peak(qpe_peaks(model, 256), qpe_distribution(model, 256), seed=34)


def test_per_peak_shots_of_a_phase_on_a_bin_centre():
    # the d = 0 limit: all of the peak's mass is on its own bin
    n = 128
    centre = 2.0 * 37 / n - 1.0
    peaks = qpe_peaks(SpectralModel(np.array([centre]), np.array([1.0])), n)
    counts = peaks.sample(5000, child_rng(35))
    assert counts[37] == 5000
    model = _peaks_model(5, seed=36, extra=(centre, 2.0 * 90 / n - 1.0))
    _check_per_peak(qpe_peaks(model, n), qpe_distribution(model, n), seed=37)


@pytest.mark.parametrize("n", [8, 256, 4096])
def test_per_peak_shots_of_the_mirrored_walk_phases(n):
    # omega = 0 and 1 give the phases +-1/2 and a doubled peak at 0
    model = _peaks_model(7, seed=38 + n, extra=(-1.0, 1.0)).mapped(AffineMap(0.5, 0.5))
    peaks = qubitized_qpe_peaks(model, n)
    assert peaks.phases.size == 2 * model.size
    _check_per_peak(peaks, qubitized_qpe_distribution(model, n), seed=39)


def test_per_peak_shots_hold_no_array_of_the_shot_count():
    model = _peaks_model(64, seed=40)
    peaks = qpe_peaks(model, 1024)
    tracemalloc.start()
    try:
        counts = peaks.sample(2**20, child_rng(41))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.sum() == 2**20
    # one int64 per shot would be 8 MiB; the blocks of 2^14 shots stay far below
    assert peak < 2 * 2**20


def test_fejer_peaks_validation():
    with pytest.raises(ValidationError):
        FejerPeaks(np.zeros(2), np.full(2, 0.5), 12)
    with pytest.raises(ValidationError):
        FejerPeaks(np.zeros(2), np.ones(3) / 3.0, 16)
    with pytest.raises(ValidationError):
        qpe_peaks(SpectralModel(np.array([1.5]), np.array([1.0])), 16)
    with pytest.raises(ValidationError):
        qubitized_qpe_peaks(SpectralModel(np.array([-0.5]), np.array([1.0])), 16)


def test_per_peak_tail_fits_the_mixture_by_distance():
    # 10^6 draws past the table of a peak halfway between bins (1.2% of its
    # mass), against the mixture's mass there.  Bins pooled on each side by
    # doubling distance from the peak see a tail whose shape is off by 2%.
    n, low = 4096, 1000
    phase = np.array([2.0 * (low + 0.5) / n - 1.0])
    start, frac, _ = sampling._peak_tables(phase, n)
    draws = sampling._tail_bins(np.repeat(start, _SHOTS), np.repeat(frac, _SHOTS), n, child_rng(42))
    counts = np.bincount(draws, minlength=n)
    offset = (np.arange(n) - low + n // 2 - 1) % n - n // 2 + 1  # bin minus floor(c), in (-n/2, n/2]
    assert counts[(offset > -16) & (offset < 17)].sum() == 0  # the table's 32 bins
    probs = qpe_distribution(SpectralModel(phase, np.array([1.0])), n).probs
    edges = [17, 33, 65, 129, 257, 513, 1025, n // 2 + 1]
    bands = [(offset >= lo) & (offset < hi) for lo, hi in zip(edges, edges[1:])]
    bands += [(1 - offset >= lo) & (1 - offset < hi) for lo, hi in zip(edges, edges[1:])]
    obs = np.array([counts[b].sum() for b in bands])
    exp = np.array([probs[b].sum() for b in bands])
    assert obs.sum() == _SHOTS
    assert chisquare(obs, exp / exp.sum() * _SHOTS).pvalue > 1e-3
