"""Unit tests for the sampling planners and the two estimation routines."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specden import estimators
from specden.chebgauss import cheb_moments, coefficient_table, truncation_order
from specden.errors import ResourceLimitError, ValidationError
from specden.estimators import (
    ESTIMATION_METHODS,
    Budget,
    complexity_table,
    model_moments,
    plan_fejer_samples,
    plan_git_samples,
    run_algorithm1,
    run_algorithm2,
    sample_moments,
)
from specden.kernels import (
    AccuracyTarget,
    fejer_grid,
    gaussian_eval,
)
from specden.numerics import child_rng
from specden.operators import (
    AffineMap,
    SpectralModel,
    diagonalize,
    normalize_operator,
    random_model,
    random_spectrum,
)
from specden.sampling import (
    FejerPeaks,
    hadamard_test_sample,
    qubitized_qpe_distribution,
)


def test_plan_fejer_samples_goldens():
    assert plan_fejer_samples(0.1, 0.05) == 185
    n_s, delta_t = plan_fejer_samples(0.1, 0.05, faulty=True, n=64)
    assert n_s == 738
    assert abs(delta_t - 0.1 / 12.0) < 1e-15
    # at eta = 2/e^2 the ideal budget reduces to ceil(1/beta^2)
    assert plan_fejer_samples(0.1, 2.0 / math.e**2) == 100


def test_plan_fejer_samples_validation():
    with pytest.raises(ValidationError):
        plan_fejer_samples(0.0, 0.05)
    with pytest.raises(ValidationError):
        plan_fejer_samples(0.1, 1.5)
    with pytest.raises(ValidationError):
        plan_fejer_samples(0.1, 0.05, faulty=True)  # faulty route needs n


def test_budgets_past_the_float_range_are_resource_limits():
    # budgets the float range holds keep their values; past it the planners'
    # arithmetic overflows, and that is a resource cap, not a traceback
    assert plan_fejer_samples(1e-150, 0.05) == math.ceil(math.log(40.0) / (2.0 * 1e-150**2))
    assert plan_git_samples(10, 1.0, 1e-150, 0.05)[0] == math.ceil(2.0 * math.log(40.0) * 1e151**2)
    for beta in (1e-160, 1e-300):
        with pytest.raises(ResourceLimitError):
            plan_fejer_samples(beta, 0.05)
        with pytest.raises(ResourceLimitError):
            plan_fejer_samples(beta, 0.05, faulty=True, n=64)
        with pytest.raises(ResourceLimitError):
            plan_git_samples(10, 1.0, beta, 0.05)


def test_histogram_count_past_int64_is_a_resource_limit():
    fejer = ESTIMATION_METHODS["fejer"]
    model = SpectralModel(np.array([0.1]), np.array([1.0]))
    assert fejer.draw(model, Budget("fejer", 8, 2**63 - 1), [1]).sum() == pytest.approx(1.0)
    with pytest.raises(ResourceLimitError, match="64-bit"):
        fejer.draw(model, Budget("fejer", 8, 2**63), [1])


@pytest.mark.parametrize(
    "name, shots, per_peak",
    # n = 64 bins; fejer has K = 4 peaks, so n K = 256, and qfejer K = 8 mirrored ones
    [("fejer", 7, True), ("fejer", 8, False), ("fejer", 9, False),
     ("qfejer", 15, True), ("qfejer", 16, False)],
)
def test_histograms_draw_per_peak_exactly_when_32_shots_are_below_n_k(name, shots, per_peak):
    method = ESTIMATION_METHODS[name]
    model = SpectralModel(np.array([-0.7, -0.1, 0.3, 0.9]), np.full(4, 0.25))
    budget = Budget(method.family, 64, shots)
    source = method.source(model, budget)
    assert isinstance(source, FejerPeaks) and source.draws_per_peak(shots) == per_peak
    assert ("per eigenvalue" in method.route(model, budget)) == per_peak
    # one trial's draw is that route's histogram from the stream child_rng(seed, 0);
    # the per-peak route builds no distribution
    (row,) = method.draw(model, budget, [5], source)
    assert ("distribution" in vars(source)) != per_peak
    sample = source.sample if per_peak else source.distribution.sample
    np.testing.assert_array_equal(row, sample(shots, child_rng(5, 0)) / shots)


@pytest.mark.parametrize(
    "name, shots, per_peak",
    # n K = 256 (fejer) and 512 (qfejer), against 32 x 2 trials x shots
    [("fejer", 3, True), ("fejer", 7, False), ("qfejer", 7, True), ("qfejer", 15, False)],
)
def test_a_draw_of_several_trials_counts_the_shots_of_all(name, shots, per_peak):
    # the mixture is built once for every trial of a draw, so two trials draw
    # per peak when 32 x 2 x shots < n K, whatever one trial's route
    method = ESTIMATION_METHODS[name]
    model = SpectralModel(np.array([-0.7, -0.1, 0.3, 0.9]), np.full(4, 0.25))
    budget = Budget(method.family, 64, shots)
    source = method.source(model, budget)
    assert source.draws_per_peak(shots) and source.draws_per_peak(2 * shots) == per_peak
    rows = method.draw(model, budget, [5, 6], source)
    assert ("distribution" in vars(source)) != per_peak
    sample = source.sample if per_peak else source.distribution.sample
    np.testing.assert_array_equal(rows, [sample(shots, child_rng(seed, 0)) / shots for seed in (5, 6)])


def test_batched_draws_keep_the_per_seed_checks():
    # a call checks its shots and probabilities once on its way to child_rngs,
    # and raises what the per-seed samplers raise, for one seed or many
    t = np.array([1.0, 0.5, -1.5])
    for seeds in ([1], [1, 2], range(5)):
        with pytest.raises(ValidationError, match="magnitude"):
            sample_moments(t, 10, seeds)
        with pytest.raises(ValidationError, match="shots must be >= 1"):
            sample_moments(t[:2], 0, seeds)
        with pytest.raises(ResourceLimitError, match="64-bit"):
            sample_moments(t[:2], 2**63, seeds)
    model = SpectralModel(np.array([-0.5, 0.25]), np.array([0.5, 0.5]))
    for name in ("fejer", "qfejer"):
        method = ESTIMATION_METHODS[name]
        budget = Budget(method.family, 8, 2**63)
        for seeds in ([1], [1, 2]):
            with pytest.raises(ResourceLimitError, match="64-bit"):
                method.draw(model, budget, seeds)


@pytest.mark.parametrize("seeds", [[3, 2**32 + 3, 4], [0, 2**32 - 1], range(2**32 - 3, 2**32 + 2)])
def test_batched_draws_equal_per_seed_rows_across_the_32_bit_edge(seeds):
    # a seed of 2^32 or more sends the whole call through child_rng seed by seed
    model = SpectralModel(np.array([-0.5, 0.1, 0.25]), np.array([0.25, 0.25, 0.5]))
    t = model_moments(model, 12)
    rows = sample_moments(t, 1000, seeds)
    for row, seed in zip(rows, seeds, strict=True):
        assert row[1:].tobytes() == hadamard_test_sample(t[1:], 1000, seed).tobytes()
    for name in ("fejer", "qfejer"):
        method = ESTIMATION_METHODS[name]
        budget = Budget(method.family, 16, 300)
        source = method.source(model, budget)
        want = [method.draw(model, budget, [seed], source)[0] for seed in seeds]
        assert method.draw(model, budget, seeds).tobytes() == np.array(want).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    log_n=st.integers(1, 12),
    size=st.integers(1, 40),
    shots=st.integers(1, 50_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_peak_histograms_are_shot_counts_and_repeat(log_n, size, shots, seed):
    rng = child_rng(seed)
    w = rng.random(size) + 1e-3
    model = SpectralModel(np.sort(rng.uniform(-1.0, 1.0, size)), w / w.sum())
    peaks = FejerPeaks(model.eigenvalues, model.weights, 2**log_n)
    counts = peaks.sample(shots, child_rng(seed, 0))
    assert counts.dtype == np.int64 and counts.shape == (2**log_n,)
    assert counts.min() >= 0 and counts.sum() == shots
    assert peaks.sample(shots, child_rng(seed, 0)).tobytes() == counts.tobytes()
    # samples takes the per-peak route exactly when 32 shots < n K
    (hist,) = peaks.samples(shots, [child_rng(seed, 0)])
    sample = peaks.sample if peaks.draws_per_peak(shots) else peaks.distribution.sample
    assert hist.tobytes() == sample(shots, child_rng(seed, 0)).tobytes()


def test_plan_git_samples_golden_and_invariants():
    target = AccuracyTarget(sigma=0.3, delta=0.2, beta=0.25)
    budget = truncation_order(target)
    assert budget.L == 32
    table = coefficient_table(budget.lam, np.linspace(-0.8, 0.8, 5), budget.L)
    per_order, total, loose = plan_git_samples(budget.L, table, target.beta, target.eta)
    assert (per_order, total, loose) == (121843, 3898976, 23218093)
    assert total == per_order * budget.L
    # coefficient awareness can only help when c_max <= beta + 2.2
    c_max = float(np.max(np.abs(table)))
    assert c_max <= target.beta + 2.2
    assert total <= loose


def test_plan_git_samples_scales_with_beta():
    table = coefficient_table(0.2, np.array([0.0]), 20)
    _, total_tight, _ = plan_git_samples(20, table, 0.05, 0.05)
    _, total_loose, _ = plan_git_samples(20, table, 0.2, 0.05)
    assert total_tight > total_loose


def test_budget_git_invariant():
    Budget(method="git", kernel_order=10, n_samples=50, lam=0.1, per_order_shots=5)
    with pytest.raises(ValidationError):
        Budget(method="git", kernel_order=10, n_samples=49, lam=0.1, per_order_shots=5)
    with pytest.raises(ValidationError):
        Budget(method="magic", kernel_order=10, n_samples=50)


def test_run_algorithm1_fejer_histogram():
    op, psi = random_model(16, seed=51)
    model = diagonalize(op, psi)
    budget = Budget(method="fejer", kernel_order=64, n_samples=185)
    tr = run_algorithm1(budget, seed=1001, model=model)
    assert tr.kind == "discrete"
    assert tr.frequencies.shape == (64,)
    assert abs(tr.values.sum() - 1.0) < 1e-12
    exact = ESTIMATION_METHODS["fejer"].exact(model, budget, fejer_grid(64))
    assert np.max(np.abs(tr.values - exact.values)) <= 0.1  # beta for this budget
    again = run_algorithm1(budget, seed=1001, model=model)
    np.testing.assert_array_equal(tr.values, again.values)


def test_run_algorithm1_qubitized_merges_mirror_bins():
    op, psi = random_model(8, seed=71)
    model = diagonalize(op, psi)
    shift = AffineMap(0.5, 0.5)
    n = 128
    budget = Budget(method="qubitized_fejer", kernel_order=n, n_samples=5000)
    tr = run_algorithm1(budget, seed=2002, model=model)
    assert tr.frequencies.shape == (n // 2 + 1,)
    assert abs(tr.values.sum() - 1.0) < 1e-12
    # frequencies come back through the inverse spectrum map, ascending; the
    # folded grid spans invert([-1, 1]) but the mass sits on the true spectrum
    assert np.all(np.diff(tr.frequencies) > 0)
    assert abs(tr.frequencies[0] - shift.invert(-1.0)) < 1e-12
    assert abs(tr.frequencies[-1] - shift.invert(1.0)) < 1e-12
    inside = tr.frequencies >= -1.0 - 1e-9
    # at least the exact merged distribution's inside mass, less 4 binomial
    # standard errors of the 5000 samples
    folded = ESTIMATION_METHODS["qfejer"]
    assert folded.spectrum_map == shift
    p = float(folded.project(folded.source(model, budget).distribution.probs, budget, None)[inside].sum())
    assert tr.values[inside].sum() > p - 4.0 * math.sqrt(p * (1.0 - p) / budget.n_samples)
    # the map is applied once, so the histogram mean is the spectral mean
    assert abs(tr.values @ tr.frequencies - model.weights @ model.eigenvalues) < 0.05


def test_folded_exact_is_the_merged_distribution():
    # qfejer's reference is the mean of its trials' projections: the
    # mirror-merged outcome distribution of the mapped model, which sums to 1,
    # where the arc-variable kernel at the recovered frequencies summed to 0.731
    model = diagonalize(*random_model(16, seed=7))
    folded = ESTIMATION_METHODS["qfejer"]
    budget = folded.budget(AccuracyTarget(sigma=0.25, delta=0.1, beta=0.1, eta=0.05))
    grid = folded.grid(budget)
    exact = folded.exact(model, budget, grid)
    merged = folded.project(qubitized_qpe_distribution(model.mapped(folded.spectrum_map),
                                                       budget.kernel_order).probs, budget, grid)
    assert abs(exact.values.sum() - 1.0) < 1e-12
    assert exact.values.tobytes() == merged.tobytes()
    assert exact.frequencies.tobytes() == grid.tobytes()
    mean = folded.project(folded.draw(model, budget, range(200)), budget, grid).mean(axis=0)
    assert np.max(np.abs(mean - exact.values)) < 0.01


def test_fejer_exact_keeps_its_mass_next_to_minus_one():
    # fejer's reference is the FFT mixture: over 40 single peaks in (-1, -0.999]
    # at n = 65,536 it sums to 1 within 1e-15, where the kernel evaluated bin by
    # bin, wrapping (sigma - omega) / 2 near -1, was off by up to 8.2e-13
    fejer = ESTIMATION_METHODS["fejer"]
    budget = Budget("fejer", 65536, 185)
    for omega in -1.0 + 0.001 * (np.arange(40) + 1.0) / 40.0:
        model = SpectralModel(np.array([omega]), np.array([1.0]))
        exact = fejer.exact(model, budget, fejer.grid(budget))
        assert abs(exact.values.sum() - 1.0) < 1e-15, omega


def test_run_algorithm1_validation():
    model = diagonalize(*random_model(4, seed=3))
    bad = Budget(method="fejer", kernel_order=48, n_samples=10)
    with pytest.raises(ValidationError):
        run_algorithm1(bad, seed=1, model=model)


@pytest.mark.parametrize("method", ["fejer", "qubitized_fejer"])
def test_run_algorithm1_rejects_spectrum_out_of_range(method):
    # 1.5 lies beyond [-1, 1] and maps to 1.25, beyond [0, 1]; the periodic
    # Fejer kernel would put all of its mass on the wrapped bin at -0.5.
    model = SpectralModel(np.array([1.5]), np.array([1.0]))
    with pytest.raises(ValidationError, match="must lie in"):
        run_algorithm1(Budget(method, 64, 1000), 1, model)


def test_run_algorithm2_exact_moments_match_transform():
    op, psi = random_model(12, seed=81)
    model = diagonalize(op, psi)
    target = AccuracyTarget(sigma=0.1, delta=0.2, beta=0.1)
    order = truncation_order(target).L
    # the model's moments sum_k w_k T_n(O_k) are the operator recurrence's
    exact = cheb_moments(op, psi, order)
    model_moments = np.polynomial.chebyshev.chebvander(model.eigenvalues, order).T @ model.weights
    np.testing.assert_allclose(model_moments, exact, rtol=0, atol=1e-12)
    # at 1e15 shots per order the sampled moments are exact to ~3e-8
    nu = np.linspace(-0.8, 0.8, 5)
    git = ESTIMATION_METHODS["git"]
    budget = git.budget(target, nu, 10**15 * order)
    assert budget.per_order_shots == 10**15
    moments = git.draw(model, budget, [3003])[0]
    np.testing.assert_allclose(moments, exact, rtol=0, atol=1e-6)
    tr = run_algorithm2(model, target, nu, seed=3003, per_order_shots=10**15)
    lam = tr.kernel.lam
    want = (gaussian_eval(nu[:, None], model.eigenvalues[None, :], lam) * model.weights).sum(axis=1)
    # near-exact moments leave only the truncation error, well under beta
    assert np.max(np.abs(tr.values - want)) <= target.beta
    assert budget.method == "git"
    assert moments[0] == 1.0


def test_run_algorithm2_rejects_unnormalized_model():
    model = SpectralModel(np.array([-0.5, 1.5]), np.array([0.5, 0.5]))
    target = AccuracyTarget(sigma=0.2, delta=0.25, beta=0.2)
    with pytest.raises(ValidationError):
        run_algorithm2(model, target, np.array([0.0]), seed=1, per_order_shots=10)


def test_run_algorithm2_sampled_budget_and_determinism():
    model = diagonalize(*random_model(6, seed=91))
    target = AccuracyTarget(sigma=0.2, delta=0.25, beta=0.2)
    nu = np.array([-0.4, 0.0, 0.4])
    budget = ESTIMATION_METHODS["git"].budget(target, nu, 200 * truncation_order(target).L)
    assert budget.per_order_shots == 200
    assert budget.n_samples == 200 * budget.kernel_order
    tr = run_algorithm2(model, target, nu, seed=4004, per_order_shots=200)
    again = run_algorithm2(model, target, nu, seed=4004, per_order_shots=200)
    np.testing.assert_array_equal(tr.values, again.values)
    other = run_algorithm2(model, target, nu, seed=4005, per_order_shots=200)
    assert np.max(np.abs(tr.values - other.values)) > 0


def test_run_algorithm2_sampled_close_with_planned_budget():
    op, psi = random_model(6, seed=95)
    model = diagonalize(op, psi)
    target = AccuracyTarget(sigma=0.2, delta=0.25, beta=0.2)
    nu = np.array([-0.4, 0.0, 0.4])
    tr = run_algorithm2(model, target, nu, seed=5005)
    lam = tr.kernel.lam
    want = (gaussian_eval(nu[:, None], model.eigenvalues[None, :], lam) * model.weights).sum(axis=1)
    assert np.max(np.abs(tr.values - want)) <= target.beta


def test_run_algorithm2_memory_is_bounded():
    # L = 619 over 2001 frequencies: the series table alone would hold 9.5 MiB
    # and its Clenshaw evaluation several times that
    model = diagonalize(*random_model(64, seed=97))
    target = AccuracyTarget(sigma=0.1, delta=0.02, beta=0.1)
    nu = np.linspace(-1.0, 1.0, 2001)
    tracemalloc.start()
    try:
        run_algorithm2(model, target, nu, seed=6006)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert truncation_order(target).L == 619
    assert peak < 32 * 2**20


def _normalized_model(dim, seed, kind):
    op, psi = random_model(dim, seed=seed, kind=kind)
    return diagonalize(normalize_operator(op)[0], psi)


@settings(max_examples=25, deadline=None)
@given(
    dim=st.integers(2, 40),
    seed=st.integers(0, 2**31),
    kind=st.sampled_from(["dense", "gapped"]),
    order=st.integers(1, 700),
)
def test_model_moments_are_bounded(dim, seed, kind, order):
    t = model_moments(_normalized_model(dim, seed, kind), order)
    assert t[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(t)) <= 1.0 + 1e-10


@pytest.mark.parametrize("order", [0, 1, 63, 64, 65, 127, 128, 129, 300])
def test_model_moments_blocks_carry_the_recurrence(monkeypatch, order):
    # blocks of 64 orders over 5 eigenvalues: each boundary carries T_{k-2}, T_{k-1}
    monkeypatch.setattr(estimators, "_MOMENT_CELLS", 64 * 5)
    model = _normalized_model(5, 3, "dense")
    want = np.polynomial.chebyshev.chebvander(model.eigenvalues, order).T @ model.weights
    np.testing.assert_allclose(model_moments(model, order), want, rtol=0, atol=1e-15)


def test_model_moments_memory_stays_linear_in_the_order():
    # the one-shot K x (L + 1) chebvander held 117 MiB here
    model = SpectralModel.from_amplitudes(*random_spectrum(512, 1, "spiked"))
    tracemalloc.start()
    try:
        t = model_moments(model, 29_971)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    want = np.polynomial.chebyshev.chebvander(model.eigenvalues, 29_971).T @ model.weights
    np.testing.assert_allclose(t, want, rtol=0, atol=1e-15)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    per_order=st.integers(1, 10**12),
    trials=st.integers(1, 6),
)
def test_batched_draw_rows_equal_single_runs(seed, per_order, trials):
    model = _normalized_model(8, seed % 1000, "dense")
    target = AccuracyTarget(sigma=0.2, delta=0.25, beta=0.2)
    order = truncation_order(target).L
    seeds = [seed + j for j in range(trials)]
    block = sample_moments(model_moments(model, order), per_order, seeds)
    assert block.shape == (trials, order + 1)
    git = ESTIMATION_METHODS["git"]
    budget = git.budget(target, [0.0], per_order * order)
    for j, trial_seed in enumerate(seeds):
        single = git.draw(model, budget, [trial_seed])[0]
        assert block[j].tobytes() == single.tobytes()


def test_run_algorithms_are_the_registry_estimate():
    # the wrappers give the bytes of the registry's estimate, and per_order_shots=k
    # sets k shots per order through the total k * L
    model = diagonalize(*random_model(8, seed=73))
    for name in ("fejer", "qfejer"):
        entry = ESTIMATION_METHODS[name]
        budget = Budget(entry.family, 128, 4000)
        want = entry.estimate(model, budget, 17)
        got = run_algorithm1(budget, 17, model)
        assert got.frequencies.tobytes() == want.frequencies.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
    target = AccuracyTarget(sigma=0.2, delta=0.25, beta=0.2)
    nu = np.array([-0.4, 0.0, 0.4])
    git = ESTIMATION_METHODS["git"]
    for k in (None, 1, 37):
        samples = None if k is None else k * truncation_order(target).L
        budget = git.budget(target, nu, samples)
        if k is not None:
            assert budget.per_order_shots == k
        want = git.estimate(model, budget, 19, nu)
        got = run_algorithm2(model, target, nu, 19, per_order_shots=k)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.kernel == want.kernel


def test_complexity_table_rows():
    rows = complexity_table([0.1, 0.01], [0.1, 0.05])
    methods = {r["method"] for r in rows}
    assert methods == {"tsa", "fejer", "git"}
    assert len(rows) == 12
    by_key = {(r["method"], r["delta"], r["eps"]): r for r in rows}
    # moment route needs a far lower polynomial degree than the grid route here
    assert by_key[("git", 0.01, 0.05)]["kernel_order"] == 1552
    assert by_key[("fejer", 0.01, 0.05)]["kernel_order"] == 4096
    assert by_key[("fejer", 0.01, 0.05)]["n_samples"] == 738
    assert by_key[("tsa", 0.1, 0.1)]["note"] == "analytic; not implemented"
