"""Classical simulators of the quantum measurement layer.

Three measurement primitives feed the estimation pipelines:

* phase estimation on a uniform ancilla register, whose outcome
  distribution over the grid ``sigma_q = 2q/N - 1`` is the Fejer kernel
  broadened spectrum.  An analytic route computes the distribution
  directly from a spectral model; a statevector route simulates the
  register explicitly (with optional norm-bounded faults in each
  controlled evolution) and serves as the validation oracle.
* the folded variant driven by a walk operator, with outcomes on the
  arc variable and frequencies recovered through ``cos(pi sigma)``.
* a one-ancilla Hadamard test modeled as a Bernoulli estimator for the
  real spectral moments ``t_k``.

All sampling is reproducible: every routine takes an explicit seed and
derives child streams through :func:`specden.numerics.child_rng`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .kernels import fejer_eval, fejer_grid, qubitized_fejer_eval
from .numerics import child_rng
from .operators import HermitianOperator, ProbeState, SpectralModel

__all__ = [
    "MEMORY_CAP",
    "OutcomeDistribution",
    "FaultModel",
    "qpe_distribution",
    "statevector_qpe",
    "qubitized_qpe_distribution",
    "build_qubiterate",
    "qubiterate_moments",
    "hadamard_test_sample",
]

MEMORY_CAP = 2**22


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability distribution over a measurement grid."""

    grid: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if grid.ndim != 1 or probs.shape != grid.shape:
            raise ValidationError("grid and probs must be matching 1-d arrays")
        if np.any(probs < -1e-15):
            raise ValidationError(f"negative probability {probs.min()!r}")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "probs", np.clip(probs, 0.0, None))

    @property
    def size(self) -> int:
        return self.grid.size


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


def qpe_distribution(model: SpectralModel, n: int) -> OutcomeDistribution:
    """Analytic phase-estimation outcome distribution for a spectral model.

    ``P(q) = sum_k alpha_k K_F(sigma_q, O_k, n)`` over the grid
    ``sigma_q = 2q/n - 1``; equals the statevector simulation exactly.
    """
    grid = fejer_grid(n)
    kernel = fejer_eval(grid[:, None], model.eigenvalues[None, :], n)
    return OutcomeDistribution(grid=grid, probs=kernel @ model.weights)


def _unit_norm_gue(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2.0
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


def statevector_qpe(
    op: HermitianOperator,
    psi: ProbeState,
    n_ancilla: int,
    fault: FaultModel | None = None,
    cap: int = MEMORY_CAP,
) -> OutcomeDistribution:
    """Simulate ancilla-register phase estimation on a statevector.

    The register holds ``N = 2^n_ancilla`` basis states; each ancilla
    bit k applies the controlled evolution ``V^(2^k)`` with ``V =
    exp(i pi (op + 1))``, after which the inverse Fourier transform on
    the register produces outcome ``q`` with the Fejer-broadened
    probability at ``sigma_q = 2q/N - 1``.  A :class:`FaultModel`
    perturbs each controlled evolution by an independent unit-norm
    Hermitian generator scaled by ``delta_t``.

    Memory use scales as ``dim * N``; exceeding `cap` raises
    :class:`ResourceLimitError`.
    """
    if n_ancilla < 1:
        raise ValidationError(f"n_ancilla must be >= 1, got {n_ancilla!r}")
    dim = op.dim
    n = 2**n_ancilla
    if dim * n > cap:
        raise ResourceLimitError(
            f"statevector of size {dim * n} exceeds the cap {cap}; reduce n_ancilla"
        )
    if psi.vector.size != dim:
        raise ValidationError(f"dimension mismatch: op {dim}, psi {psi.vector.size}")
    evals, evecs = np.linalg.eigh(op.matrix)
    psi_eig = evecs.conj().T @ psi.vector
    phases = np.exp(1j * np.pi * (evals + 1.0))
    state = np.tile(psi_eig.astype(complex) / math.sqrt(n), (n, 1))
    row_bits = np.arange(n)
    for k in range(n_ancilla):
        controlled = (row_bits >> k) & 1 == 1
        phase_k = phases ** (2**k)
        if fault is not None and fault.delta_t > 0.0:
            h = _unit_norm_gue(dim, child_rng(fault.seed, k))
            hvals, hvecs = np.linalg.eigh(h)
            kick = (hvecs * np.exp(-1j * fault.delta_t * hvals)) @ hvecs.conj().T
            state[controlled] = (state[controlled] @ kick.T) * phase_k
        else:
            state[controlled] *= phase_k
    amps = np.fft.fft(state, axis=0) / math.sqrt(n)
    probs = np.einsum("qj,qj->q", amps, amps.conj()).real
    return OutcomeDistribution(grid=fejer_grid(n), probs=probs)


def qubitized_qpe_distribution(model: SpectralModel, n: int) -> OutcomeDistribution:
    """Outcome distribution of phase estimation on the walk operator.

    The model spectrum must lie in [0, 1] (the caller shifts it there
    and keeps the affine map).  Each eigenvalue contributes two mirror
    peaks at ``+-arccos(omega)/pi`` on the arc grid.
    """
    ev = model.eigenvalues
    if np.any(ev < -1e-12) or np.any(ev > 1.0 + 1e-12):
        raise ValidationError("model spectrum must lie in [0, 1] for the folded kernel")
    grid = fejer_grid(n)
    kernel = qubitized_fejer_eval(grid[:, None], np.clip(ev, 0.0, 1.0)[None, :], n)
    return OutcomeDistribution(grid=grid, probs=kernel @ model.weights)


def build_qubiterate(op: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Walk operator of a one-ancilla block encoding of `op`.

    Returns ``(walk, flag)`` where `walk` is the ``2 dim x 2 dim``
    unitary whose powers generate Chebyshev polynomials of the operator
    in the flagged block, and `flag` is the ancilla state selecting that
    block: ``<flag, psi| walk^k |flag, psi> = <psi| T_k(op) |psi>``.
    The spectrum of `op` must lie in [-1, 1].
    """
    evals, evecs = np.linalg.eigh(op.matrix)
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


def hadamard_test_sample(t_k: float, shots: int, seed: int, *path: int) -> float:
    """Shot-noise estimate of a real expectation value in [-1, 1].

    Models the one-ancilla Hadamard test: `shots` Bernoulli draws with
    success probability ``(1 + t_k)/2``, returned as ``2 *
    successes/shots - 1``.  Unbiased and deterministic given `seed` and
    the optional child-stream `path` (for example the moment index).
    A shot count beyond the sampler's 64-bit range raises
    :class:`ResourceLimitError`.
    """
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots!r}")
    if shots > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"{shots} shots exceed the sampler's 64-bit count range")
    if abs(t_k) > 1.0 + 1e-10:
        raise ValidationError(f"expectation value must lie in [-1, 1], got {t_k!r}")
    p = min(max((1.0 + t_k) / 2.0, 0.0), 1.0)
    rng = child_rng(seed, *path)
    return 2.0 * rng.binomial(shots, p) / shots - 1.0
