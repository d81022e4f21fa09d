"""Classical simulators of the quantum measurement layer.

Three measurement primitives feed the estimation pipelines:

* phase estimation on a uniform ancilla register, whose outcome
  distribution over the grid ``sigma_q = 2q/N - 1`` is the Fejer kernel
  broadened spectrum.  A :class:`FejerPeaks` holds the model's peaks
  (phases and weights) on a grid of N bins, and reaches a histogram of
  shots by one of two exact routes:

  - the distribution route: the Fejer kernel is a trigonometric
    polynomial of degree N - 1, so the mixture over the K peaks is one
    FFT of its characteristic function under a triangle window, in
    O(N K) multiply-adds and O(N + sqrt(N) K) memory, and a histogram is
    one multinomial over its N bins;
  - the per-peak route: a shot collapses onto peak k with probability
    w_k and then reads the Fejer offset from it, so a histogram is one
    multinomial over the peaks, then per shot a table inversion over the
    2W = 32 bins nearest its peak or, past them, a rejection draw, in
    O(S + K W + N) time and O(N + K W + block) memory for S shots.

  The mixture costs 1 to 2.7 ns per cell and the per-peak draw 60 to
  100 ns per shot, plus about 0.15 ms per call (18,444 shots, K = 128
  to 512, one thread).  One mixture serves every trial of a call, so
  :meth:`FejerPeaks.samples` of T trials draws per peak when 32 S T <
  N K (:meth:`FejerPeaks.draws_per_peak` of the S T shots) and from the
  distribution otherwise.  A statevector route
  simulates the register explicitly (with an optional norm-bounded
  fault in each controlled evolution) and serves as the validation
  oracle.  It reads the operator and probe only as eigenvalues and the
  probe's amplitudes on the eigenvectors, and runs one register in that
  eigenbasis.
* the folded variant driven by a walk operator, with outcomes on the
  arc variable and frequencies recovered through ``cos(pi sigma)``; its
  peaks are the mirrored phases ``+-arccos(omega)/pi`` at half weight.
* a one-ancilla Hadamard test modeled as a Bernoulli estimator for the
  real spectral moments ``t_k``.

All sampling is reproducible: every routine takes an explicit seed and
derives child streams through :func:`specden.numerics.child_rng`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

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
    "OutcomeDistribution",
    "FejerPeaks",
    "FaultModel",
    "qpe_peaks",
    "qpe_distribution",
    "statevector_qpe",
    "eigenbasis_qpe",
    "qubitized_qpe_peaks",
    "qubitized_qpe_distribution",
    "build_qubiterate",
    "qubiterate_moments",
    "hadamard_test_sample",
]

MEMORY_CAP = 2**22
# The Fejer mixture builds its characteristic function in blocks of about
# this many cells.
_MIXTURE_BLOCK = 2**15
# The per-peak route tables the 2 * _PEAK_HALF bins nearest each peak and
# draws its shots in blocks of _SHOT_BLOCK.
_PEAK_HALF = 16
_SHOT_BLOCK = 2**14
# Each rejection round of the per-peak tail proposes this many offsets per
# shot; 30% (n = 64) to 38% (n >= 4096) of proposals are accepted, whatever
# the peak's offset from its bin.
_TAIL_TRIES = 8
# An estimate draws per peak when _PER_PEAK_RATIO * shots < n * peaks; the
# module docstring gives the measured costs behind it.
_PER_PEAK_RATIO = 32


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

    def sample(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Counts per bin of `shots` outcomes: one multinomial over the bins."""
        return next(self.samples(shots, [rng]))

    def samples(self, shots: int, rngs) -> Iterator[np.ndarray]:
        """:meth:`sample` from each generator of `rngs` in turn, normalizing `probs` once."""
        probs = self.probs / self.probs.sum()
        for rng in rngs:
            yield rng.multinomial(shots, probs)


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


@dataclass(frozen=True)
class FejerPeaks:
    """Fejer peaks at `phases` in [-1, 1] with `weights`, on the grid of `n` bins.

    A peak at phase p sits at the bin coordinate ``c = (p + 1) n / 2``
    and puts the mass ``P(d) = sin^2(pi d) / (n^2 sin^2(pi d / n))`` on
    the bin at offset d from c, modulo n (so p = 1 folds onto bin 0).
    :attr:`distribution` is the mixture over all n bins, built once, and
    :meth:`sample` draws shots from it per peak; the two routes are
    exact and differ only in cost, and :meth:`samples` takes the cheaper.
    """

    phases: np.ndarray
    weights: np.ndarray
    n: int

    def __post_init__(self):
        _check_grid_size(self.n)
        phases = np.asarray(self.phases, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if phases.ndim != 1 or phases.shape != weights.shape:
            raise ValidationError("phases and weights must be 1-d arrays of one size")
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "weights", weights)

    @functools.cached_property
    def distribution(self) -> OutcomeDistribution:
        """The outcome distribution: one FFT mixture, O(n K), built on first use."""
        return _fejer_mixture(self.phases, self.weights, self.n)

    def draws_per_peak(self, shots: int) -> bool:
        """Whether :meth:`sample` costs less than the distribution: ``32 shots < n K``."""
        return _PER_PEAK_RATIO * shots < self.n * self.phases.size

    def samples(self, shots: int, rngs: list) -> Iterator[np.ndarray]:
        """Counts per bin of `shots` outcomes from each generator of the list `rngs` in turn.

        Drawn per peak (:meth:`sample`) when :meth:`draws_per_peak` holds
        for the shots of all ``len(rngs)`` trials, else from
        :attr:`distribution`, built once for them all, one multinomial
        over its bins each.
        """
        if not self.draws_per_peak(shots * len(rngs)):
            return self.distribution.samples(shots, rngs)
        return (self.sample(shots, rng) for rng in rngs)

    def sample(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Counts per bin of `shots` outcomes, drawn per peak.

        One multinomial over the peaks, then blocks of
        :data:`_SHOT_BLOCK` shots: each inverts its peak's cumulative table
        of the 2W bins nearest c (W = :data:`_PEAK_HALF`), and a shot past
        them draws its offset by rejection (:func:`_tail_bins`).  Holds
        the n counts, a table of 2W entries per peak (built once per
        instance) and one block, never an array of `shots` entries.
        """
        n, width = self.n, 2 * _PEAK_HALF
        counts = rng.multinomial(shots, self.weights / self.weights.sum())
        drawn = np.flatnonzero(counts)
        start, frac, cum = (table[drawn] for table in self._tables)
        flat = cum.ravel()
        ends = np.cumsum(counts[drawn])
        begins = ends - counts[drawn]
        hits = np.zeros(flat.size, dtype=np.int64)  # shots per table cell
        hist = np.zeros(n, dtype=np.int64)
        for first in range(0, shots, _SHOT_BLOCK):
            last = min(shots, first + _SHOT_BLOCK)
            # the block's shots, grouped by peak: peaks lo..hi have shots in [first, last)
            lo, hi = np.searchsorted(ends, [first, last - 1], side="right") + [0, 1]
            own = np.minimum(ends[lo:hi], last) - np.maximum(begins[lo:hi], first)
            peak = np.repeat(np.arange(lo, hi), own)
            u = rng.random(peak.size)
            # the first table entry above u, by binary lifting over the 2W columns
            row = peak * width
            at = row.copy()
            step = width // 2
            while step:
                at += step * (np.take(flat, at + (step - 1)) <= u)
                step //= 2
            at += np.take(flat, at) <= u
            near = at - row < width
            hits += np.bincount(at[near], minlength=flat.size)
            far = peak[~near]
            if far.size:
                np.add.at(hist, _tail_bins(start[far], frac[far], n, rng), 1)
        # each table cell's shots land on its bin, modulo n
        np.add.at(hist, (start[:, None] + np.arange(width)).ravel() % n, hits)
        return hist

    @functools.cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`_peak_tables` of every peak, built on the first :meth:`sample`."""
        return _peak_tables(self.phases, self.n)


def _peak_tables(phases: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(start, frac, cum)`` of the per-peak draw, one row per peak.

    Column i of row k is the bin ``start_k + i`` (mod n), at offset
    ``i + start_k - c_k`` from the peak; `frac` is ``c - floor(c)`` and
    `cum` the cumulative masses of the 2W columns.  On a grid of n <= 2W
    bins the first n columns are the whole period, and the columns from
    n - 1 on read +inf, so rounding sends no shot past them.
    """
    width = 2 * _PEAK_HALF
    c = (phases + 1.0) * (n / 2.0)
    low = np.floor(c)
    frac = c - low
    lo = 1 - min(width, n) // 2
    offsets = np.arange(lo, lo + width) - frac[:, None]
    den = np.square(n * np.sin(np.pi / n * offsets))
    # P(d) = sin^2(pi frac) / (n sin(pi d / n))^2; the peak's own bin at d = 0 holds all
    mass = np.ones_like(den)
    np.divide(np.square(np.sin(np.pi * frac))[:, None], den, out=mass, where=den != 0.0)
    cum = np.cumsum(mass, axis=1)
    if n <= width:
        cum[:, n - 1:] = np.inf
    return low.astype(np.int64) + lo, frac, cum


def _tail_bins(start: np.ndarray, frac: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Bins of shots past their peak's table, one per entry of `start`.

    Only a grid of n > 2W bins has a tail.  Its bins lie t = 1, 2, ...
    bins past either end of the table, ``start - t`` at offset ``d = 1 -
    W - t - frac`` and ``start + 2W - 1 + t`` at ``d = W + t - frac``, up
    to the nearest image of the peak.  So ``a + t <= |d| <= n/2`` with a
    = W - 1, where ``sin(pi |d| / n) >= 2 |d| / n`` gives ``P(d) <= s /
    (4 (a + t)^2)``, s = sin^2(pi frac).  The proposal takes either side
    with probability 1/2 and t with probability ``a / ((a + t - 1)(a +
    t))`` (t = floor(a / U) - a + 1), so the envelope is ``s / (4 a)``
    times it, and a proposal is accepted with probability ``4 (a + t -
    1)(a + t) / (n sin(pi d / n))^2``: s cancels, so a peak near a bin
    centre, whose tail is nearly empty, needs no more rounds than any
    other.  Devroye, *Non-Uniform Random Variate Generation* (1986),
    II.3.
    """
    a = _PEAK_HALF - 1
    bins = np.empty(start.size, dtype=np.int64)
    todo = np.arange(start.size)
    while todo.size:
        # _TAIL_TRIES proposals per shot at once; a shot takes its first accepted one
        f = frac[todo, None]
        shape = (todo.size, _TAIL_TRIES)
        above = rng.random(shape) < 0.5
        t = np.floor(a / (1.0 - rng.random(shape))) - a + 1.0
        v = rng.random(shape)
        # the side above the peak ends at the bin half a period from it
        t_above = np.floor(n / 2.0 + f) - _PEAK_HALF
        ok = t <= np.where(above, t_above, n - 2 * _PEAK_HALF - t_above)
        t[~ok] = 1.0
        d = np.where(above, _PEAK_HALF + t - f, 1.0 - _PEAK_HALF - t - f)
        ok &= v * np.square(n * np.sin(np.pi / n * d)) < 4.0 * (a + t - 1.0) * (a + t)
        hit = ok.any(axis=1)
        rows = np.flatnonzero(hit)
        pick = ok[rows].argmax(axis=1)
        step = t[rows, pick].astype(np.int64)
        k = todo[rows]
        bins[k] = (start[k] + np.where(above[rows, pick], 2 * _PEAK_HALF - 1 + step, -step)) % n
        todo = todo[~hit]
    return bins


def qpe_peaks(model: SpectralModel, n: int) -> FejerPeaks:
    """The phase-estimation peaks of a spectral model on a grid of n bins.

    One peak per eigenvalue, at its eigenvalue with its weight.  The
    model spectrum must lie in [-1, 1]: the kernel is periodic with
    period 2, so an eigenvalue beyond would land on a wrapped bin.
    """
    if np.any(np.abs(model.eigenvalues) > 1.0 + 1e-12):
        raise ValidationError("model spectrum must lie in [-1, 1]; normalize first")
    return FejerPeaks(model.eigenvalues, model.weights, n)


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
    The model spectrum must lie in [-1, 1], as for :func:`qpe_peaks`.
    """
    return qpe_peaks(model, n).distribution


def _gue(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A GUE matrix drawn from `rng`."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def _unit_norm_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``(values, vectors)`` of Hermitian `h` scaled to unit norm."""
    vals, vecs = np.linalg.eigh(h)
    return vals / np.max(np.abs(vals)), vecs


def statevector_qpe(
    op: HermitianOperator, psi: ProbeState, n_ancilla: int, fault: FaultModel | None = None
) -> OutcomeDistribution:
    """Simulate ancilla-register phase estimation on a statevector.

    The register holds ``N = 2^n_ancilla`` basis states; each ancilla
    bit k applies the controlled evolution ``V^(2^k)`` with ``V =
    exp(i pi (op + 1))``, after which the inverse Fourier transform on
    the register produces outcome ``q`` with the Fejer-broadened
    probability at ``sigma_q = 2q/N - 1``.  A :class:`FaultModel`
    perturbs each controlled evolution by an independent unit-norm
    Hermitian generator scaled by ``delta_t``.  The register runs in the
    operator's eigenbasis (:func:`eigenbasis_qpe`).

    Memory use scales as ``dim * N``; exceeding :data:`MEMORY_CAP`
    raises :class:`ResourceLimitError`.
    """
    if psi.dim != op.dim:
        raise ValidationError(f"dimension mismatch: op {op.dim}, psi {psi.dim}")
    return eigenbasis_qpe(op.evals, op.evecs.conj().T @ psi.vector, n_ancilla, fault)


def eigenbasis_qpe(
    evals: np.ndarray, amplitudes: np.ndarray, n_ancilla: int, fault: FaultModel | None = None
) -> OutcomeDistribution:
    """:func:`statevector_qpe` of eigenvalues `evals` and probe `amplitudes` on the eigenvectors.

    Bit k multiplies its controlled rows by ``exp(i pi 2^k (e + 1))``,
    after the kick ``exp(-i delta_t H)`` under a fault of ``delta_t >
    0``, with H a GUE generator drawn from ``child_rng(fault.seed, k)``
    and scaled to unit norm.  The ``dim * N`` amplitudes are checked
    against :data:`MEMORY_CAP` before they are allocated.
    """
    if n_ancilla < 1:
        raise ValidationError(f"n_ancilla must be >= 1, got {n_ancilla!r}")
    dim = len(evals)
    n = 2**n_ancilla
    _check_cells(dim * n, "statevector amplitudes", MEMORY_CAP)
    if np.shape(amplitudes) != (dim,):
        raise ValidationError(f"{np.shape(amplitudes)} amplitudes for {dim} eigenvalues")
    state = np.tile(np.asarray(amplitudes, dtype=complex) / math.sqrt(n), (n, 1))
    faulty = fault is not None and fault.delta_t > 0.0
    row_bits = np.arange(n)
    for k in range(n_ancilla):
        controlled = (row_bits >> k) & 1 == 1
        # The angle is scaled by 2^k and reduced mod 2 exactly, so the phase
        # stays on the unit circle; powering the rounded exp(i pi (e + 1))
        # instead scales its modulus error by 2^k and leaks probability mass.
        phase_k = np.exp(1j * np.pi * np.fmod((evals + 1.0) * 2.0**k, 2.0))
        if faulty:
            hvals, hvecs = _unit_norm_eigh(_gue(dim, child_rng(fault.seed, k)))
            kick = (hvecs * np.exp(-1j * fault.delta_t * hvals)) @ hvecs.conj().T
            state[controlled] = (state[controlled] @ kick.T) * phase_k
        else:
            state[controlled] *= phase_k
    amps = np.fft.fft(state, axis=0) / math.sqrt(n)
    return OutcomeDistribution(np.einsum("qj,qj->q", amps, amps.conj()).real)


def qubitized_qpe_peaks(model: SpectralModel, n: int) -> FejerPeaks:
    """The peaks of phase estimation on the walk operator, on a grid of n bins.

    The model spectrum must lie in [0, 1] (the caller shifts it there
    and keeps the affine map).  Each eigenvalue omega gives two mirror
    peaks at ``+-arccos(omega)/pi``, each at half its weight: the folded
    kernel is ``[K_F(sigma, t) + K_F(sigma, -t)] / 2``.
    """
    ev = model.eigenvalues
    if np.any(ev < -1e-12) or np.any(ev > 1.0 + 1e-12):
        raise ValidationError("model spectrum must lie in [0, 1] for the folded kernel")
    t = np.arccos(np.clip(ev, 0.0, 1.0)) / np.pi
    half = model.weights / 2.0
    return FejerPeaks(np.concatenate((t, -t)), np.concatenate((half, half)), n)


def qubitized_qpe_distribution(model: SpectralModel, n: int) -> OutcomeDistribution:
    """Outcome distribution of phase estimation on the walk operator.

    The mixture of :func:`qubitized_qpe_peaks` on the arc grid.
    """
    return qubitized_qpe_peaks(model, n).distribution


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


def hadamard_test_sample(t_k, shots: int, seed: int):
    """Shot-noise estimate of real expectation values in [-1, 1].

    Models the one-ancilla Hadamard test: `shots` Bernoulli draws with
    success probability ``(1 + t_k)/2``, returned as ``2 *
    successes/shots - 1``.  `t_k` may be one value or an array of them,
    drawn as one binomial vector.  Unbiased and deterministic given
    `seed`.  A shot count beyond the sampler's 64-bit range raises
    :class:`ResourceLimitError`.
    """
    p = _hadamard_probs(t_k, shots)
    estimate = 2.0 * child_rng(seed).binomial(shots, p) / shots - 1.0
    return float(estimate) if p.ndim == 0 else estimate


def _hadamard_probs(t_k, shots: int) -> np.ndarray:
    """Success probabilities ``(1 + t_k)/2`` of `shots`-shot Hadamard tests, after their checks."""
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots!r}")
    if shots > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"{shots} shots exceed the sampler's 64-bit count range")
    t = np.asarray(t_k, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-10):
        worst = float(np.max(np.abs(t)))
        raise ValidationError(f"expectation value must lie in [-1, 1], got magnitude {worst!r}")
    return np.clip((1.0 + t) / 2.0, 0.0, 1.0)
