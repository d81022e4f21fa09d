"""Operators, probe states, and exact spectral transforms.

A spectral model is the pair (eigenvalues, weights) extracted from a
Hermitian operator and a probe state: the weight of eigenvalue O_k is
the probability |<v_k|psi>|^2 of the probe in that eigenspace.  The
response function is the weighted comb of delta peaks at the
eigenvalues, and an integral transform replaces each peak by a kernel
profile.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import CoarseGridWarning, ValidationError
from .kernels import KernelSpec
from .numerics import child_rng

__all__ = [
    "AffineMap",
    "HermitianOperator",
    "ProbeState",
    "SpectralModel",
    "ObservableFn",
    "TransformGrid",
    "normalize_operator",
    "diagonalize",
    "exact_transform",
    "observable_exact",
    "observable_from_transform",
    "random_model",
    "read_model_file",
    "write_model_file",
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
    """Immutable wrapper around a Hermitian matrix.

    Hermiticity is checked entrywise to 1e-12 at construction.
    """

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"operator must be a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValidationError("operator must have dimension >= 1")
        if np.max(np.abs(m - m.conj().T)) > _HERMITIAN_TOL:
            raise ValidationError("matrix is not Hermitian within 1e-12")
        m = (m + m.conj().T) / 2.0
        m.setflags(write=False)
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def norm(self) -> float:
        """Spectral norm (largest eigenvalue magnitude)."""
        return float(np.max(np.abs(np.linalg.eigvalsh(self._matrix))))

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


class ProbeState:
    """Unit-norm state vector used to weight the spectrum."""

    def __init__(self, amplitudes):
        v = np.array(amplitudes, dtype=complex).reshape(-1)
        if v.size < 1:
            raise ValidationError("probe state must have dimension >= 1")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > _UNIT_TOL:
            raise ValidationError(f"probe state norm {nrm} deviates from 1 beyond 1e-12")
        v.setflags(write=False)
        self._vector = v

    @property
    def vector(self) -> np.ndarray:
        return self._vector

    @property
    def dim(self) -> int:
        return self._vector.size

    def __repr__(self):
        return f"ProbeState(dim={self.dim})"


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
        out = np.asarray(self.fn(np.asarray(omega, dtype=float)), dtype=float)
        if out.shape != np.shape(omega):
            out = np.vectorize(lambda w: float(self.fn(w)))(np.asarray(omega, dtype=float))
        return out


@dataclass(frozen=True)
class TransformGrid:
    """Transform values on a frequency grid.

    `kind` is "discrete" when values are probability masses on the grid
    (Fejer families) and "density" when they sample a continuous
    profile.
    """

    frequencies: np.ndarray
    values: np.ndarray
    kind: str
    kernel: KernelSpec | None = None

    def __post_init__(self):
        fr = np.asarray(self.frequencies, dtype=float).reshape(-1)
        va = np.asarray(self.values, dtype=float).reshape(-1)
        if fr.size != va.size or fr.size < 1:
            raise ValidationError("frequencies and values must be equal-length, nonempty")
        if self.kind not in ("discrete", "density"):
            raise ValidationError(f"kind must be 'discrete' or 'density', got {self.kind!r}")
        fr.setflags(write=False)
        va.setflags(write=False)
        object.__setattr__(self, "frequencies", fr)
        object.__setattr__(self, "values", va)


def normalize_operator(op: HermitianOperator, interval: str = "full") -> tuple[HermitianOperator, AffineMap]:
    """Rescale an operator into the reference interval.

    Parameters
    ----------
    op : HermitianOperator
        Operator to normalize.
    interval : str
        "full" scales by ``1 / max(1, norm)`` so the spectrum lands in
        [-1, 1] (operators already inside are untouched).  "half" maps
        the spectral range [a, b] onto [-1/2, 1/2] exactly; a fully
        degenerate spectrum maps to 0.

    Returns
    -------
    (HermitianOperator, AffineMap)
        The normalized operator and the map carrying original
        eigenvalues to normalized ones.
    """
    if interval == "full":
        s = 1.0 / max(1.0, op.norm())
        amap = AffineMap(s, 0.0)
    elif interval == "half":
        ev = np.linalg.eigvalsh(op.matrix)
        a, b = float(ev[0]), float(ev[-1])
        if b - a < 1e-14:
            mid = (a + b) / 2.0
            # Degenerate spectrum: collapse to the midpoint shifted to 0.
            amap = AffineMap(1.0, -mid)
        else:
            s = 1.0 / (b - a)
            amap = AffineMap(s, -0.5 - a * s)
    else:
        raise ValidationError(f"interval must be 'full' or 'half', got {interval!r}")
    mapped = amap.scale * op.matrix + amap.shift * np.eye(op.dim)
    return HermitianOperator(mapped), amap


def diagonalize(op: HermitianOperator, psi: ProbeState) -> SpectralModel:
    """Extract the spectral model of (operator, probe).

    Eigenvalues closer than 1e-10 are merged into a single peak whose
    position is the weight-averaged eigenvalue and whose weight is the
    summed probability.  Weights below machine noise are kept, so
    the model always carries `dim` worth of probability.
    """
    if op.dim != psi.dim:
        raise ValidationError(f"dimension mismatch: operator {op.dim}, probe {psi.dim}")
    ev, vecs = np.linalg.eigh(op.matrix)
    if np.max(np.abs(ev)) > 1.0 + 1e-12:
        raise ValidationError("operator norm exceeds 1; normalize before diagonalizing")
    w = np.abs(vecs.conj().T @ psi.vector) ** 2
    w = w / float(np.sum(w))
    out_ev: list[float] = []
    out_w: list[float] = []
    i = 0
    while i < ev.size:
        j = i + 1
        while j < ev.size and ev[j] - ev[j - 1] < _MERGE_TOL:
            j += 1
        ww = float(np.sum(w[i:j]))
        if ww > 0.0:
            pos = float(np.sum(ev[i:j] * w[i:j]) / ww)
        else:
            pos = float(np.mean(ev[i:j]))
        out_ev.append(pos)
        out_w.append(ww)
        i = j
    return SpectralModel(np.asarray(out_ev), np.asarray(out_w))


def exact_transform(model: SpectralModel, kernel: KernelSpec, frequencies) -> TransformGrid:
    """Analytic transform ``Phi(nu) = sum_k w_k K(nu, O_k)`` on a grid."""
    nus = np.asarray(frequencies, dtype=float).reshape(-1)
    vals = kernel.value(nus[:, None], model.eigenvalues[None, :]) @ model.weights
    return TransformGrid(frequencies=nus, values=vals, kind=kernel.kind, kernel=kernel)


def observable_exact(model: SpectralModel, f: ObservableFn | Callable) -> float:
    """Exact observable ``Q = sum_k w_k f(O_k)``."""
    fn = f if isinstance(f, ObservableFn) else ObservableFn(fn=f)
    return float(np.dot(model.weights, fn(model.eigenvalues)))


def observable_from_transform(grid: TransformGrid, f: ObservableFn | Callable) -> float:
    """Observable integrated against a transform.

    Discrete transforms use the plain weighted sum over grid masses;
    density transforms integrate by the trapezoid rule and warn when the
    grid spacing is coarse relative to the kernel width.
    """
    fn = f if isinstance(f, ObservableFn) else ObservableFn(fn=f)
    fx = fn(grid.frequencies)
    if grid.kind == "discrete":
        return float(np.dot(grid.values, fx))
    if grid.frequencies.size < 2:
        raise ValidationError("density transform needs at least two grid points to integrate")
    if grid.kernel is not None:
        spacing = float(np.max(np.diff(grid.frequencies)))
        width = grid.kernel.width
        if spacing > width:
            warnings.warn(
                f"grid spacing {spacing:.3g} exceeds kernel width {width:.3g}; "
                "the integral may be inaccurate",
                CoarseGridWarning,
                stacklevel=2,
            )
    return float(np.trapezoid(grid.values * fx, grid.frequencies))


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_probe(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_model(
    dim: int,
    seed: int,
    kind: str = "dense",
    gap: float = 0.1,
    ground_weight: float = 0.2,
) -> tuple[HermitianOperator, ProbeState]:
    """Generate a reproducible random (operator, probe) pair.

    Parameters
    ----------
    dim : int
        Hilbert space dimension (>= 1; "gapped" needs >= 2).
    seed : int
        Seed for the deterministic generator stream.
    kind : str
        "dense" draws a GUE matrix scaled to unit spectral norm.
        "spiked" places most eigenvalues in a central bulk plus a few
        outliers near the edges, with the probe biased toward the
        outliers.  "gapped" separates the lowest eigenvalue from the
        rest by more than ``2 * gap`` and gives the probe at least
        `ground_weight` on it.
    gap, ground_weight : float
        Parameters of the "gapped" ensemble.

    Returns
    -------
    (HermitianOperator, ProbeState)
        The operator spectrum lies in [-1, 1].
    """
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    rng = child_rng(seed, 0)
    if kind == "dense":
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (g + g.conj().T) / 2.0
        nrm = float(np.max(np.abs(np.linalg.eigvalsh(h)))) if dim > 1 else max(1.0, abs(h[0, 0]))
        op = HermitianOperator(h / max(nrm, 1e-300))
        return op, ProbeState(_random_probe(dim, rng))
    if kind == "spiked":
        n_spike = max(1, dim // 8)
        bulk = rng.uniform(-0.3, 0.3, size=dim - n_spike)
        spikes = rng.uniform(0.7, 0.95, size=n_spike) * rng.choice([-1.0, 1.0], size=n_spike)
        ev = np.sort(np.concatenate([bulk, spikes]))
        basis = _random_unitary(dim, rng) if dim > 1 else np.ones((1, 1), dtype=complex)
        coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        spike_slots = np.argsort(np.abs(ev))[-n_spike:]
        coeffs[spike_slots] *= 3.0
        coeffs /= np.linalg.norm(coeffs)
        op = HermitianOperator((basis * ev) @ basis.conj().T)
        return op, ProbeState(basis @ coeffs)
    if kind == "gapped":
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
        basis = _random_unitary(dim, rng)
        coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        coeffs[0] = 0.0
        tail_norm = np.linalg.norm(coeffs)
        coeffs = coeffs / tail_norm * math.sqrt(1.0 - ground_weight)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        coeffs[0] = math.sqrt(ground_weight) * phase
        op = HermitianOperator((basis * ev) @ basis.conj().T)
        return op, ProbeState(basis @ coeffs)
    raise ValidationError(f"unknown ensemble kind {kind!r}")


def write_model_file(path, op: HermitianOperator, psi: ProbeState) -> None:
    """Write a model as text: a dim header, matrix rows, then the probe row."""
    if op.dim != psi.dim:
        raise ValidationError("operator and probe dimensions differ")
    lines = [f"dim {op.dim}"]
    for row in op.matrix:
        lines.append(" ".join(_fmt_complex(z) for z in row))
    lines.append(" ".join(_fmt_complex(z) for z in psi.vector))
    Path(path).write_text("\n".join(lines) + "\n")


def read_model_file(path) -> tuple[HermitianOperator, ProbeState]:
    """Parse the text format produced by :func:`write_model_file`."""
    raw = Path(path).read_text()
    rows = [ln.strip() for ln in raw.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
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


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"

