"""Operators, probe states, and exact spectral transforms.

A spectral model is the pair (eigenvalues, weights) extracted from a
Hermitian operator and a probe state: the weight of eigenvalue O_k is
the probability |<v_k|psi>|^2 of the probe in that eigenspace.  The
response function is the weighted comb of delta peaks at the
eigenvalues, and an integral transform replaces each peak by a kernel
profile.  Since a model reads (operator, probe) only through the
eigenvalues and the probe's amplitudes <v_k|psi>, the random ensembles
are drawn as spectra (`random_spectrum`); `random_model` rotates one into
an (operator, probe) pair by a Haar basis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import CoarseGridWarning, ValidationError
from .kernels import GaussianKernel, JacksonKernel, KernelSpec, _check_cells
from .numerics import child_rng

__all__ = [
    "AffineMap",
    "HermitianOperator",
    "ProbeState",
    "SpectralModel",
    "ObservableFn",
    "TransformGrid",
    "normalize_spectrum",
    "normalize_operator",
    "diagonalize",
    "exact_transform",
    "observable_exact",
    "observable_from_transform",
    "random_spectrum",
    "random_model",
    "read_model_file",
]

_HERMITIAN_TOL = 1e-12
_UNIT_TOL = 1e-12
_WEIGHT_TOL = 1e-12
_MERGE_TOL = 1e-10


@dataclass(frozen=True)
class AffineMap:
    """Affine change of variable ``y = scale * x + shift``."""

    scale: float
    shift: float

    def __post_init__(self):
        if self.scale == 0.0 or not math.isfinite(self.scale) or not math.isfinite(self.shift):
            raise ValidationError(f"degenerate affine map ({self.scale}, {self.shift})")

    def apply(self, x):
        return self.scale * np.asarray(x) + self.shift

    def invert(self, y):
        return (np.asarray(y) - self.shift) / self.scale


class HermitianOperator:
    """Immutable Hermitian matrix with its eigendecomposition.

    Finite entries and Hermiticity (entrywise, to 1e-12) are checked when the matrix is built.
    The eigenpairs ``matrix @ evecs = evecs * evals`` (eigenvalues
    ascending) come from one ``eigh`` on first use, or from `eig` when the
    caller built the matrix from its spectrum.
    """

    def __init__(self, matrix, eig: tuple[np.ndarray, np.ndarray] | None = None):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValidationError(f"operator must be a nonempty square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("operator entries must be finite")
        m /= 2.0  # halved first, so entries near 1.8e308 stay finite
        if np.max(np.abs(m - m.conj().T)) > _HERMITIAN_TOL / 2.0:
            raise ValidationError("matrix is not Hermitian within 1e-12")
        m = m + m.conj().T
        m.setflags(write=False)
        self._matrix = m
        self._eig = None if eig is None else self._frozen_eig(*eig)

    def _frozen_eig(self, evals, evecs) -> tuple[np.ndarray, np.ndarray]:
        vals, vecs = np.asarray(evals, dtype=float), np.asarray(evecs, dtype=complex)
        if vals.shape != (self.dim,) or vecs.shape != (self.dim, self.dim):
            raise ValidationError(f"eigenpairs of shape {vals.shape}, {vecs.shape} for dim {self.dim}")
        if np.any(vals[1:] < vals[:-1]):  # no np.diff: it overflows on eigenvalues of both signs near 1e308
            raise ValidationError("eigenvalues must be sorted ascending")
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return vals, vecs

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def _eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            self._eig = self._frozen_eig(*np.linalg.eigh(self._matrix))
        return self._eig

    @property
    def evals(self) -> np.ndarray:
        """Eigenvalues, ascending."""
        return self._eigenpairs()[0]

    @property
    def evecs(self) -> np.ndarray:
        """Eigenvectors, one column per entry of :attr:`evals`."""
        return self._eigenpairs()[1]


class ProbeState:
    """Unit-norm state vector used to weight the spectrum."""

    def __init__(self, amplitudes):
        v = np.array(amplitudes, dtype=complex).reshape(-1)
        if v.size < 1:
            raise ValidationError("probe state must have dimension >= 1")
        with np.errstate(over="ignore"):  # an overflowed norm, inf, fails as a nan one does
            nrm = float(np.linalg.norm(v))
        if not abs(nrm - 1.0) <= _UNIT_TOL:
            raise ValidationError(f"probe state norm {nrm} deviates from 1 beyond 1e-12")
        v.setflags(write=False)
        self._vector = v

    @property
    def vector(self) -> np.ndarray:
        return self._vector

    @property
    def dim(self) -> int:
        return self._vector.size


@dataclass(frozen=True)
class SpectralModel:
    """Point spectrum with probe weights.

    Eigenvalues are sorted ascending; weights are nonnegative and sum to
    one within 1e-12.  Together they define the response function
    ``S(omega) = sum_k weights[k] delta(omega - eigenvalues[k])``.
    """

    eigenvalues: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float).reshape(-1)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if ev.size != w.size or ev.size < 1:
            raise ValidationError("eigenvalues and weights must be equal-length, nonempty")
        if np.any(np.diff(ev) < 0):
            raise ValidationError("eigenvalues must be sorted ascending")
        if np.any(w < -1e-15):
            raise ValidationError("weights must be nonnegative")
        if abs(float(np.sum(w)) - 1.0) > _WEIGHT_TOL:
            raise ValidationError(f"weights sum to {float(np.sum(w))}, not 1 within 1e-12")
        ev.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "weights", np.clip(w, 0.0, None))

    @classmethod
    def from_amplitudes(cls, eigenvalues, amplitudes) -> "SpectralModel":
        """Model of ascending eigenvalues and a probe's amplitudes on their eigenvectors.

        The weights are the normalized |amplitudes|^2.  Eigenvalues closer
        than 1e-10 merge into one peak at their weight-averaged position,
        with their summed weight; no weight is dropped, and an unmerged
        eigenvalue keeps its value.
        """
        ev = np.asarray(eigenvalues, dtype=float)
        w = np.abs(amplitudes) ** 2
        if ev.ndim != 1 or w.shape != ev.shape:
            raise ValidationError(f"{np.shape(amplitudes)} amplitudes for eigenvalues of shape {ev.shape}")
        w = w / float(np.sum(w))
        starts = np.flatnonzero(np.diff(ev, prepend=-np.inf) >= _MERGE_TOL)
        ends = np.append(starts[1:], ev.size)
        pos, ww = ev[starts], w[starts]
        # A merged cluster is summed by np.sum: np.add.reduceat adds in another
        # order, so its sums can differ in the last bit.  A single eigenvalue
        # keeps its position, which (x * w) / w need not.
        for g in np.flatnonzero(ends - starts > 1):
            i, j = starts[g], ends[g]
            ww[g] = np.sum(w[i:j])
            pos[g] = np.sum(ev[i:j] * w[i:j]) / ww[g] if ww[g] > 0.0 else np.mean(ev[i:j])
        return cls(pos, ww)

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def mapped(self, amap: AffineMap) -> "SpectralModel":
        """Model with eigenvalues pushed through an affine map."""
        ev = amap.apply(self.eigenvalues)
        order = np.argsort(ev)
        return SpectralModel(ev[order], self.weights[order])


@dataclass
class ObservableFn:
    """Scalar observable f(omega) integrated against the response function."""

    fn: Callable
    name: str = "f"

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=float)
        out = np.asarray(self.fn(omega), dtype=float)
        if out.shape != omega.shape:
            # a scalar-valued fn is called once per point
            out = np.array([float(self.fn(w)) for w in omega.ravel().tolist()]).reshape(omega.shape)
        return out


@dataclass(frozen=True)
class TransformGrid:
    """Transform values on a frequency grid.

    `kind` is "discrete" when values are probability masses on the grid
    (Fejer families) and "density" when they sample a continuous
    profile.  A 2-D `values` stacks one row of values per trial.
    """

    frequencies: np.ndarray
    values: np.ndarray
    kind: str
    kernel: KernelSpec | None = None

    def __post_init__(self):
        fr = np.asarray(self.frequencies, dtype=float).reshape(-1)
        va = np.asarray(self.values, dtype=float)
        va = va if va.ndim == 2 else va.reshape(-1)
        if va.shape[-1] != fr.size or fr.size < 1:
            raise ValidationError("frequencies and values must be equal-length, nonempty")
        if self.kind not in ("discrete", "density"):
            raise ValidationError(f"kind must be 'discrete' or 'density', got {self.kind!r}")
        fr.setflags(write=False)
        va.setflags(write=False)
        object.__setattr__(self, "frequencies", fr)
        object.__setattr__(self, "values", va)


def normalize_spectrum(evals) -> tuple[np.ndarray, AffineMap]:
    """Scale a spectrum by ``1 / max(1, max |lambda|)`` so that it lands in [-1, 1].

    Returns the scaled eigenvalues, `evals` itself when they already lie
    inside, and the map carrying original eigenvalues to scaled ones.
    Past max |lambda| = 2^1022 the scale is subnormal and can carry an
    eigenvalue just outside (1.5e308 to 1.0000000000000002): such values
    are clipped to +-1, and every other keeps its bits.
    """
    amap = AffineMap(1.0 / max(1.0, float(np.max(np.abs(evals)))), 0.0)
    if amap.scale == 1.0:
        return evals, amap
    scaled = amap.apply(evals)
    return np.clip(scaled, -1.0, 1.0, out=scaled), amap


def normalize_operator(op: HermitianOperator, interval: str = "full") -> tuple[HermitianOperator, AffineMap]:
    """Rescale an operator into [-1, 1] by :func:`normalize_spectrum` ("full" is the one `interval`).

    Returns `op` itself when the map is the identity, else the scaled
    matrix carrying the mapped eigendecomposition of `op`, and the map.
    """
    if interval != "full":
        raise ValidationError(f"interval must be 'full', got {interval!r}")
    evals, amap = normalize_spectrum(op.evals)
    if amap.scale == 1.0:
        return op, amap
    # the map is increasing: the mapped eigenvalues stay sorted, on the same vectors
    return HermitianOperator(amap.apply(op.matrix), (evals, op.evecs)), amap


def diagonalize(op: HermitianOperator, psi: ProbeState) -> SpectralModel:
    """Spectral model of (operator, probe) with the operator's spectrum in [-1, 1].

    It is :meth:`SpectralModel.from_amplitudes` of the eigenvalues the
    operator carries and the probe's amplitudes ``evecs^dagger psi``.
    """
    if op.dim != psi.dim:
        raise ValidationError(f"dimension mismatch: operator {op.dim}, probe {psi.dim}")
    if np.max(np.abs(op.evals)) > 1.0 + 1e-12:
        raise ValidationError("operator norm exceeds 1; normalize before diagonalizing")
    return SpectralModel.from_amplitudes(op.evals, op.evecs.conj().T @ psi.vector)


def exact_transform(model: SpectralModel, kernel: GaussianKernel | JacksonKernel, frequencies) -> TransformGrid:
    """Transform ``Phi(nu) = sum_k w_k K(nu, O_k)`` of a density kernel, in blocks of <= 2^20 cells."""
    nus = np.asarray(frequencies, dtype=float).reshape(-1)
    rows = max(1, 2**20 // model.eigenvalues.size)
    vals = np.empty(nus.size)
    for i in range(0, nus.size, rows):
        vals[i : i + rows] = kernel.value(nus[i : i + rows, None], model.eigenvalues) @ model.weights
    return TransformGrid(frequencies=nus, values=vals, kind=kernel.kind, kernel=kernel)


def observable_exact(model: SpectralModel, f: ObservableFn | Callable) -> float:
    """Exact observable ``Q = sum_k w_k f(O_k)``."""
    fn = f if isinstance(f, ObservableFn) else ObservableFn(fn=f)
    return float(np.dot(model.weights, fn(model.eigenvalues)))


def observable_from_transform(grid: TransformGrid, f: ObservableFn | Callable):
    """Observable integrated against a transform: a float, or one per row of stacked values.

    Discrete transforms use the plain weighted sum over grid masses;
    density transforms integrate by the trapezoid rule and warn when the
    grid spacing is coarse relative to the kernel width.
    """
    fn = f if isinstance(f, ObservableFn) else ObservableFn(fn=f)
    fx = fn(grid.frequencies)
    if grid.kind == "discrete":
        q = grid.values @ fx
    elif grid.frequencies.size < 2:
        raise ValidationError("density transform needs at least two grid points to integrate")
    else:
        if grid.kernel is not None:
            _warn_if_coarse(grid.frequencies, grid.kernel)
        q = np.trapezoid(grid.values * fx, grid.frequencies)
    return float(q) if grid.values.ndim == 1 else q


def _warn_if_coarse(frequencies: np.ndarray, kernel: GaussianKernel | JacksonKernel) -> None:
    """Warn when an integration grid's spacing exceeds the kernel width, at the integrator's caller."""
    spacing = float(np.max(np.diff(frequencies)))
    width = kernel.width
    if spacing > width:
        warnings.warn(
            f"grid spacing {spacing:.3g} exceeds kernel width {width:.3g}; "
            "the integral may be inaccurate",
            CoarseGridWarning,
            stacklevel=3,
        )


def random_spectrum(dim: int, seed: int, kind: str = "dense", gap: float = 0.1,
                    ground_weight: float = 0.2) -> tuple[np.ndarray, np.ndarray]:
    """A reproducible random spectrum: eigenvalues and a probe's amplitudes on the eigenvectors.

    The eigenvalues are ascending, in [-1, 1]; the stream is
    ``child_rng(seed, 0)``.  "dense" draws the eigenvalues of a GUE matrix
    scaled to unit spectral norm from the Hermite tridiagonal model (one
    ``eigvalsh``), and a Gaussian probe's amplitudes on its Haar
    eigenvectors: a normalized complex Gaussian.  "spiked" places most
    eigenvalues in a central bulk plus a few outliers near the edges,
    with the probe biased toward the outliers.  "gapped" (dim >= 2)
    separates the lowest eigenvalue from the rest by more than
    ``2 * gap`` and gives the probe at least `ground_weight` on it.  No
    kind builds a dim x dim complex array; a draw whose dim x dim cells
    exceed `GRID_CAP` raises :class:`ResourceLimitError` before drawing.
    """
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    _check_cells(dim * dim, "cells of a dim x dim draw")
    rng = child_rng(seed, 0)
    if kind == "dense":
        # Dumitriu & Edelman, J. Math. Phys. 43, 5830 (2002): diagonal N(0, 1),
        # sub-diagonal sqrt(chi^2_{2k} / 2) = sqrt(Gamma(k, 1)) for k = dim - 1, ..., 1;
        # eigvalsh reads the lower triangle
        tri = np.diag(rng.normal(size=dim))
        tri[np.arange(1, dim), np.arange(dim - 1)] = np.sqrt(rng.standard_gamma(np.arange(dim - 1, 0, -1)))
        ev = np.linalg.eigvalsh(tri)
        nrm = float(np.max(np.abs(ev))) if dim > 1 else max(1.0, abs(float(ev[0])))
        ev = ev / max(nrm, 1e-300)
        coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        coeffs /= np.linalg.norm(coeffs)
    elif kind == "spiked":
        n_spike = max(1, dim // 8)
        bulk = rng.uniform(-0.3, 0.3, size=dim - n_spike)
        spikes = rng.uniform(0.7, 0.95, size=n_spike) * rng.choice([-1.0, 1.0], size=n_spike)
        ev = np.sort(np.concatenate([bulk, spikes]))
        coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        coeffs[np.argsort(np.abs(ev))[-n_spike:]] *= 3.0
        coeffs /= np.linalg.norm(coeffs)
    elif kind == "gapped":
        if dim < 2:
            raise ValidationError("gapped ensemble needs dim >= 2")
        if not (0.0 < gap) or 2.0 * gap + 0.02 > 1.58:
            raise ValidationError(f"infeasible gap {gap}: the spectrum cannot fit in [-1, 1]")
        if not (0.0 < ground_weight < 1.0):
            raise ValidationError("ground_weight must lie in (0, 1)")
        e0 = rng.uniform(-0.95, -0.6)
        e1 = e0 + 2.0 * gap + rng.uniform(0.02, 0.1)
        if e1 >= 0.98:
            raise ValidationError(f"infeasible gap {gap} for ground energy {e0:.3f}")
        rest = np.sort(rng.uniform(e1, 0.98, size=dim - 2)) if dim > 2 else np.empty(0)
        ev = np.concatenate([[e0, e1], rest])
        coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        coeffs[0] = 0.0
        coeffs = coeffs / np.linalg.norm(coeffs) * math.sqrt(1.0 - ground_weight)
        coeffs[0] = math.sqrt(ground_weight) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    else:
        raise ValidationError(f"unknown ensemble kind {kind!r}")
    return ev, coeffs


def random_model(dim: int, seed: int, kind: str = "dense", gap: float = 0.1,
                 ground_weight: float = 0.2) -> tuple[HermitianOperator, ProbeState]:
    """The (operator, probe) pair of :func:`random_spectrum`.

    It rotates the spectrum and the amplitudes by a Haar basis, drawn by
    one QR from the stream ``child_rng(seed, 1)``, and the operator
    carries its eigendecomposition.
    """
    evals, amplitudes = random_spectrum(dim, seed, kind, gap, ground_weight)
    g = child_rng(seed, 1).normal(size=(2, dim, dim))
    # R's phases go into Q (Mezzadri, Notices AMS 54, 592 (2007))
    q, r = np.linalg.qr(g[0] + 1j * g[1])
    basis = q * (np.diag(r) / np.abs(np.diag(r)))
    return HermitianOperator((basis * evals) @ basis.conj().T, (evals, basis)), ProbeState(basis @ amplitudes)


def _content_lines(path) -> list[tuple[int, str]]:
    """(number, stripped text) of each line but blank and ``#`` ones; not UTF-8 is a ValidationError."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not a text file ({exc})") from exc
    lines = ((i, raw.strip()) for i, raw in enumerate(text.splitlines(), start=1))
    return [(i, line) for i, line in lines if line and not line.startswith("#")]


def read_model_file(path) -> tuple[HermitianOperator, ProbeState]:
    """Parse a model file: a ``dim N`` header, N matrix rows, then the probe row.

    Entries are Python complex literals separated by blanks; blank lines
    and lines starting with ``#`` are skipped.
    """
    rows = [line for _, line in _content_lines(path)]
    if not rows or not rows[0].startswith("dim"):
        raise ValidationError(f"{path}: expected a 'dim N' header line")
    try:
        dim = int(rows[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed header {rows[0]!r}") from exc
    if len(rows) != dim + 2:
        raise ValidationError(f"{path}: expected {dim + 2} content lines, found {len(rows)}")
    try:
        mat = np.array([[complex(tok) for tok in rows[1 + i].split()] for i in range(dim)])
        probe = np.array([complex(tok) for tok in rows[dim + 1].split()])
    except ValueError as exc:
        raise ValidationError(f"{path}: could not parse complex entries") from exc
    if mat.shape != (dim, dim) or probe.size != dim:
        raise ValidationError(f"{path}: row lengths do not match the declared dimension")
    return HermitianOperator(mat), ProbeState(probe)
