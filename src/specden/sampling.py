"""Classical simulators of the quantum measurement layer.

Three measurement primitives feed the estimation pipelines:

* phase estimation on a uniform ancilla register, whose outcome
  distribution over the grid ``sigma_q = 2q/N - 1`` is the Fejer kernel
  broadened spectrum.  An analytic route computes the distribution
  directly from a spectral model: the Fejer kernel is a trigonometric
  polynomial of degree N - 1, so the mixture over the model's peaks is
  one FFT of its characteristic function under a triangle window, in
  O(N K) multiply-adds and O(N + sqrt(N) K) memory for K peaks.  A
  statevector route simulates the register explicitly (with optional
  norm-bounded faults in each controlled evolution) and serves as the
  validation oracle.  A fault sweep reads the operator and probe only
  as eigenvalues and the probe's amplitudes on the eigenvectors, and
  runs in that eigenbasis on blocks of realizations: each bit's fault
  generators are drawn once for all step sizes and diagonalized by one
  stacked solve per block.
* the folded variant driven by a walk operator, with outcomes on the
  arc variable and frequencies recovered through ``cos(pi sigma)``; its
  distribution is the same mixture over the mirrored phases.
* a one-ancilla Hadamard test modeled as a Bernoulli estimator for the
  real spectral moments ``t_k``.

All sampling is reproducible: every routine takes an explicit seed and
derives child streams through :func:`specden.numerics.child_rng`.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np
# numpy imports this submodule on first use; importing it here means a
# process forked after the package's import already has it
import numpy.fft

from .errors import ResourceLimitError, ValidationError
from .kernels import _check_cells, _check_grid_size, fejer_grid
from .numerics import child_rng
from .operators import HermitianOperator, ProbeState, SpectralModel

__all__ = [
    "MEMORY_CAP",
    "SWEEP_BLOCK",
    "OutcomeDistribution",
    "FaultModel",
    "qpe_distribution",
    "statevector_qpe",
    "statevector_qpe_sweep",
    "qubitized_qpe_distribution",
    "build_qubiterate",
    "qubiterate_moments",
    "hadamard_test_sample",
]

MEMORY_CAP = 2**22
# A fault sweep runs its realizations in blocks of at most this many
# amplitudes (or one realization, when that holds more).
SWEEP_BLOCK = 2**14
# The Fejer mixture builds its characteristic function in blocks of about
# this many cells.
_MIXTURE_BLOCK = 2**15


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability distribution over the outcome grid ``sigma_q = 2q/n - 1``, n = ``probs.size``."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1:
            raise ValidationError("probs must be a 1-d array")
        _check_grid_size(probs.size)
        if np.any(probs < -1e-15):
            raise ValidationError(f"negative probability {probs.min()!r}")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", np.clip(probs, 0.0, None))

    @property
    def grid(self) -> np.ndarray:
        return fejer_grid(self.probs.size)


@dataclass(frozen=True)
class FaultModel:
    """Norm-bounded unitary perturbation of each controlled evolution.

    Every controlled power of the evolution operator is replaced by
    ``U_tilde = U exp(-i delta_t H)`` with `H` random Hermitian of unit
    spectral norm, so ``||U_tilde - U|| = 2 |sin(delta_t / 2)| <=
    delta_t`` exactly.
    """

    delta_t: float
    seed: int

    def __post_init__(self):
        if not (self.delta_t >= 0.0):
            raise ValidationError(f"delta_t must be nonnegative, got {self.delta_t!r}")


def _unit_rows(m: np.ndarray, hi: np.ndarray, lo: np.ndarray, out: np.ndarray) -> None:
    """``out[i, k] = exp(-i pi (m_i phase_k mod 2))`` for phases ``hi + lo``, in row blocks.

    Each phase is split as hi + lo with hi on the grid of 2^-26, so m * hi
    is an exact float for every m < n <= 2^26 and is reduced mod 2 exactly
    before the small m * lo is added.  Rounding m * phase directly leaves a
    phase error near m * eps, enough to push empty bins below zero.  The
    turns of each block of about :data:`_MIXTURE_BLOCK` cells are formed in
    one float buffer and exponentiated in `out`.
    """
    step = max(1, _MIXTURE_BLOCK // hi.size)
    turns = np.empty((min(step, m.size), hi.size))
    for start in range(0, m.size, step):
        z = out[start:start + step]
        t = turns[:len(z)]
        np.multiply.outer(m[start:start + step], hi, out=t)
        np.fmod(t, 2.0, out=t)
        t += np.multiply.outer(m[start:start + step], lo, out=z.real)
        np.multiply(-1j * np.pi, t, out=z)
        np.exp(z, out=z)


def _fejer_mixture(phases: np.ndarray, weights: np.ndarray, n: int) -> OutcomeDistribution:
    """``P(q) = sum_k w_k K_F(sigma_q, phase_k, n)`` on the grid ``sigma_q = 2q/n - 1``.

    ``K_F(d) = (1/n) sum_{|m|<n} (1 - |m|/n) exp(i pi m d)``, so ``P(q) =
    (1/n) [chi(0) + 2 Re sum_{m=1}^{n-1} (1 - m/n) (-1)^m chi(m) exp(2 pi
    i m q / n)]`` with ``chi(m) = sum_k w_k exp(-i pi m phase_k)``: one
    inverse FFT.  Writing ``m = j + b c`` with b a power of two near
    sqrt(n) makes chi an (n/b x K) by (K x b) matrix product.  The
    (K x b) factor is built once; the (n/b x K) factor is built and
    multiplied into chi in blocks of about :data:`_MIXTURE_BLOCK` cells,
    each a power-of-two number of rows and at least 8, so that every
    block takes the gemm path of the whole product and gives its bits.
    The window and the inverse FFT then act on chi in place.  Memory:
    chi (16 B per bin) with the (K x b) factor and one block of at most
    ``max(2^15, 8 K)`` cells, then chi with the probabilities (24 B per
    bin).
    """
    _check_grid_size(n)  # before chi is allocated
    k = phases.size
    b = 2 ** (int(n).bit_length() // 2)
    rows = n // b
    hi = np.round(phases * 2.0**26) / 2.0**26
    lo = phases - hi
    inner = np.empty((b, k), dtype=complex)
    _unit_rows(np.arange(b), hi, lo, inner)
    inner *= weights
    chi = np.empty(n, dtype=complex)
    # the largest power of two of rows within _MIXTURE_BLOCK cells, at least 8
    step = min(rows, max(8, 1 << (max(1, _MIXTURE_BLOCK // k).bit_length() - 1)))
    block = np.empty((step, k), dtype=complex)
    for start in range(0, rows, step):
        _unit_rows(b * np.arange(start, start + step), hi, lo, block)
        np.matmul(block, inner.T, out=chi.reshape(rows, b)[start:start + step])
    del block, inner
    # the triangle window times (-1)^m, halved at m = 0 where chi(0) is counted once
    for start in range(0, n, _MIXTURE_BLOCK):
        window = 1.0 - np.arange(start, min(n, start + _MIXTURE_BLOCK)) / n
        window[1::2] *= -1.0
        if start == 0:
            window[0] = 0.5
        chi[start:start + _MIXTURE_BLOCK] *= window
    np.fft.ifft(chi, out=chi)
    probs = 2.0 * chi.real
    del chi
    return OutcomeDistribution(probs)


def qpe_distribution(model: SpectralModel, n: int) -> OutcomeDistribution:
    """Analytic phase-estimation outcome distribution for a spectral model.

    ``P(q) = sum_k alpha_k K_F(sigma_q, O_k, n)`` over the grid
    ``sigma_q = 2q/n - 1``; equals the statevector simulation exactly.
    The mixture is one inverse FFT of the characteristic function
    ``sum_k alpha_k exp(-i pi m O_k)`` under the triangle window ``1 -
    |m|/n``, O(n K) multiply-adds and O(sqrt(n) K) exponentials for K
    eigenvalues.  It holds at most 24 B per outcome bin, plus the (K x
    b) factor of the product (b near sqrt(n)) and one block of the other
    of at most ``max(2^15, 8 K)`` cells.
    The model spectrum must lie in [-1, 1]: the kernel is periodic with
    period 2, so an eigenvalue beyond would land on a wrapped bin.
    """
    if np.any(np.abs(model.eigenvalues) > 1.0 + 1e-12):
        raise ValidationError("model spectrum must lie in [-1, 1]; normalize first")
    return _fejer_mixture(model.eigenvalues, model.weights, n)


def _gue(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A GUE matrix drawn from `rng`."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def _unit_norm_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``(values, vectors)`` of Hermitian `h` (or a stack of them) scaled to unit norm."""
    vals, vecs = np.linalg.eigh(h)
    return vals / np.max(np.abs(vals), axis=-1, keepdims=True), vecs


def statevector_qpe(
    op: HermitianOperator,
    psi: ProbeState,
    n_ancilla: int,
    fault: FaultModel | None = None,
) -> OutcomeDistribution:
    """Simulate ancilla-register phase estimation on a statevector.

    The register holds ``N = 2^n_ancilla`` basis states; each ancilla
    bit k applies the controlled evolution ``V^(2^k)`` with ``V =
    exp(i pi (op + 1))``, after which the inverse Fourier transform on
    the register produces outcome ``q`` with the Fejer-broadened
    probability at ``sigma_q = 2q/N - 1``.  A :class:`FaultModel`
    perturbs each controlled evolution by an independent unit-norm
    Hermitian generator scaled by ``delta_t``.  This is the one-seed,
    one-step case of :func:`statevector_qpe_sweep`.

    Memory use scales as ``dim * N``; exceeding :data:`MEMORY_CAP`
    raises :class:`ResourceLimitError`.
    """
    if psi.dim != op.dim:
        raise ValidationError(f"dimension mismatch: op {op.dim}, psi {psi.dim}")
    dt, seed = (0.0, 0) if fault is None else (fault.delta_t, fault.seed)
    (dists,) = statevector_qpe_sweep(op.evals, op.evecs.conj().T @ psi.vector, n_ancilla, (dt,), (seed,))
    return dists[0]


def statevector_qpe_sweep(
    evals: np.ndarray,
    amplitudes: np.ndarray,
    n_ancilla: int,
    delta_ts: Sequence[float],
    seeds: Iterable[int],
) -> Iterator[list[OutcomeDistribution]]:
    """Faulty phase estimation for several fault sizes and realizations.

    Yields, for each seed in turn, one distribution per entry of
    `delta_ts`, each equal to ``statevector_qpe(op, psi, n_ancilla,
    FaultModel(delta_t, seed))`` for an operator of eigenvalues `evals`
    and a probe of `amplitudes` on its eigenvectors.  The register runs
    in the eigenbasis, on blocks of realizations that hold at most
    ``max(T dim N, SWEEP_BLOCK)`` amplitudes for T step sizes: for each
    ancilla bit, every realization's fault generator is drawn from its
    own stream, the block's generators are diagonalized by one stacked
    solve, and the kicks ``exp(-i delta_t H)`` are applied to one
    statevector per realization and step size by batched products.  A
    step of 0 runs the fault-free register.

    The arguments are checked when the call is made.  Each statevector
    holds ``dim * N`` amplitudes; exceeding :data:`MEMORY_CAP` raises
    :class:`ResourceLimitError`.
    """
    if n_ancilla < 1:
        raise ValidationError(f"n_ancilla must be >= 1, got {n_ancilla!r}")
    dim = len(evals)
    n = 2**n_ancilla
    _check_cells(dim * n, "statevector amplitudes", MEMORY_CAP)
    if np.shape(amplitudes) != (dim,):
        raise ValidationError(f"{np.shape(amplitudes)} amplitudes for {dim} eigenvalues")
    delta_ts = list(delta_ts)
    if not all(dt >= 0.0 for dt in delta_ts):
        raise ValidationError(f"delta_t must be nonnegative, got {delta_ts!r}")
    row = np.asarray(amplitudes, dtype=complex) / math.sqrt(n)
    return _sweep_blocks(evals, row, n_ancilla, delta_ts, iter(seeds))


def _sweep_blocks(
    evals: np.ndarray,
    row: np.ndarray,
    n_ancilla: int,
    delta_ts: list[float],
    seeds: Iterator[int],
) -> Iterator[list[OutcomeDistribution]]:
    """The realizations of :func:`statevector_qpe_sweep`, one block at a time."""
    n = 2**n_ancilla
    per_seed = max(1, len(delta_ts)) * n * row.size
    size = max(1, max(per_seed, SWEEP_BLOCK) // per_seed)
    while block := list(itertools.islice(seeds, size)):
        yield from _register_block(evals, row, n_ancilla, delta_ts, block)


def _register_block(
    evals: np.ndarray, row: np.ndarray, n_ancilla: int, delta_ts: list[float], seeds: list[int]
) -> list[list[OutcomeDistribution]]:
    """Realizations `seeds` of the register, in the eigenbasis of the operator.

    ``states[t, b]`` is the register of step size t in realization b.
    """
    n = 2**n_ancilla
    dim = row.size
    states = np.tile(row, (len(delta_ts), len(seeds), n, 1))
    faulty = any(dt > 0.0 for dt in delta_ts)
    row_bits = np.arange(n)
    for k in range(n_ancilla):
        controlled = (row_bits >> k) & 1 == 1
        # The angle is scaled by 2^k and reduced mod 2 exactly, so the phase
        # stays on the unit circle; powering the rounded exp(i pi (e + 1))
        # instead scales its modulus error by 2^k and leaks probability mass.
        phase_k = np.exp(1j * np.pi * np.fmod((evals + 1.0) * 2.0**k, 2.0))
        if faulty:
            gues = np.stack([_gue(dim, child_rng(seed, k)) for seed in seeds])
            hvals, hvecs = _unit_norm_eigh(gues)
            hvecs_h = hvecs.mT.conj()
        for dt, state in zip(delta_ts, states):
            if dt > 0.0:
                kick = (hvecs * np.exp(-1j * dt * hvals)[:, None, :]) @ hvecs_h
                state[:, controlled] = (state[:, controlled] @ kick.mT) * phase_k
            else:
                state[:, controlled] *= phase_k
    runs = []
    for b in range(len(seeds)):
        dists = []
        for state in states[:, b]:
            amps = np.fft.fft(state, axis=0) / math.sqrt(n)
            probs = np.einsum("qj,qj->q", amps, amps.conj()).real
            dists.append(OutcomeDistribution(probs))
        runs.append(dists)
    return runs


def qubitized_qpe_distribution(model: SpectralModel, n: int) -> OutcomeDistribution:
    """Outcome distribution of phase estimation on the walk operator.

    The model spectrum must lie in [0, 1] (the caller shifts it there
    and keeps the affine map).  Each eigenvalue contributes two mirror
    peaks at ``+-arccos(omega)/pi`` on the arc grid.
    """
    ev = model.eigenvalues
    if np.any(ev < -1e-12) or np.any(ev > 1.0 + 1e-12):
        raise ValidationError("model spectrum must lie in [0, 1] for the folded kernel")
    # The folded kernel is [K_F(sigma, t) + K_F(sigma, -t)] / 2, t = arccos(omega)/pi.
    t = np.arccos(np.clip(ev, 0.0, 1.0)) / np.pi
    half = model.weights / 2.0
    return _fejer_mixture(np.concatenate((t, -t)), np.concatenate((half, half)), n)


def build_qubiterate(op: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Walk operator of a one-ancilla block encoding of `op`.

    Returns ``(walk, flag)`` where `walk` is the ``2 dim x 2 dim``
    unitary whose powers generate Chebyshev polynomials of the operator
    in the flagged block, and `flag` is the ancilla state selecting that
    block: ``<flag, psi| walk^k |flag, psi> = <psi| T_k(op) |psi>``.
    The spectrum of `op` must lie in [-1, 1].
    """
    evals, evecs = op.evals, op.evecs
    if np.any(np.abs(evals) > 1.0 + 1e-12):
        raise ValidationError("operator norm exceeds 1; normalize before block encoding")
    comp = (evecs * np.sqrt(np.clip(1.0 - evals**2, 0.0, None))) @ evecs.conj().T
    mat = op.matrix
    walk = np.block([[mat, comp], [-comp, mat]])
    drift = np.max(np.abs(walk @ walk.conj().T - np.eye(2 * op.dim)))
    if drift > 1e-12:
        raise ValidationError(f"walk operator failed the unitarity check ({drift:.3e})")
    return walk, np.array([1.0, 0.0])


def qubiterate_moments(op: HermitianOperator, psi: ProbeState, kmax: int) -> np.ndarray:
    """Moments ``<flag, psi| walk^k |flag, psi>`` for k = 0..kmax.

    Computed by repeated application of the walk operator to the flagged
    probe; equals :func:`specden.chebgauss.cheb_moments` up to rounding.
    """
    if kmax < 0:
        raise ValidationError(f"kmax must be >= 0, got {kmax!r}")
    walk, flag = build_qubiterate(op)
    start = np.kron(flag, psi.vector)
    vec = start.astype(complex)
    moments = np.empty(kmax + 1)
    moments[0] = 1.0
    for k in range(1, kmax + 1):
        vec = walk @ vec
        moments[k] = np.vdot(start, vec).real
    return moments


def hadamard_test_sample(t_k, shots: int, seed: int, *path: int):
    """Shot-noise estimate of real expectation values in [-1, 1].

    Models the one-ancilla Hadamard test: `shots` Bernoulli draws with
    success probability ``(1 + t_k)/2``, returned as ``2 *
    successes/shots - 1``.  `t_k` may be one value or an array of them,
    drawn as one binomial vector.  Unbiased and deterministic given
    `seed` and the optional child-stream `path`.  A shot count beyond
    the sampler's 64-bit range raises :class:`ResourceLimitError`.
    """
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots!r}")
    if shots > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"{shots} shots exceed the sampler's 64-bit count range")
    t = np.asarray(t_k, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-10):
        worst = float(np.max(np.abs(t)))
        raise ValidationError(f"expectation value must lie in [-1, 1], got magnitude {worst!r}")
    p = np.clip((1.0 + t) / 2.0, 0.0, 1.0)
    successes = child_rng(seed, *path).binomial(shots, p)
    estimate = 2.0 * successes / shots - 1.0
    return float(estimate) if t.ndim == 0 else estimate
