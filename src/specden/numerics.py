"""Small numerical utilities used throughout the package.

Nothing in here knows about kernels or spectra; these are generic
helpers (power-of-two rounding, Chebyshev nodes, the two cosine
transforms between node values and Chebyshev coefficients, the one
Chebyshev projection, which is a DCT-II of node values, and
deterministic seed derivation).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
# numpy imports these submodules on first use; importing them here means
# a process forked after the package's import already has them
import numpy.fft
import numpy.random

from .errors import ValidationError

__all__ = [
    "next_pow2",
    "cheb_nodes",
    "cheb_series_coeffs",
    "dct2",
    "dct3",
    "child_rng",
    "derive_seed",
    "fmt_float",
]


def next_pow2(x: float) -> int:
    """Smallest power of two >= x (and >= 2)."""
    if not np.isfinite(x):
        raise ValidationError(f"next_pow2 needs a finite argument, got {x!r}")
    n = 2
    while n < x:
        n *= 2
    return n


def cheb_nodes(m: int) -> np.ndarray:
    """Chebyshev nodes cos(pi (2j+1) / (2m)), j = 0..m-1 (roots of T_m)."""
    if m < 1:
        raise ValidationError("need at least one node")
    j = np.arange(m)
    return np.cos(np.pi * (2 * j + 1) / (2 * m))


def cheb_series_coeffs(values: np.ndarray, deg: int) -> np.ndarray:
    """Chebyshev series coefficients from values at the Chebyshev nodes.

    `values` holds ``f(x_j)`` at the m = ``values.shape[-1]`` roots of T_m
    (:func:`cheb_nodes`), one function per row.  Returns ``c[..., 0..deg]``
    such that ``f(x) ~ sum_n c[n] T_n(x)`` by Gauss-Chebyshev quadrature,
    ``c_n = (gamma_n / m) sum_j f(x_j) T_n(x_j)`` with ``gamma_0 = 1`` and
    ``gamma_n = 2`` otherwise: one :func:`dct2` per row.  The rule is exact
    for polynomials up to degree ``2 m - 1 - deg`` and leaves only aliasing
    error for smooth non-polynomial targets.  Needs ``0 <= deg <= m``.
    """
    projection = dct2(values, deg)
    gamma = np.full(deg + 1, 2.0)
    gamma[0] = 1.0
    return projection * gamma / values.shape[-1]


def dct2(values: np.ndarray, deg: int) -> np.ndarray:
    """``sum_j values[..., j] cos(pi n (2j + 1) / (2m))`` for n = 0..deg, m = ``values.shape[-1]``.

    The DCT-II of every row, the projection of node values onto T_n at
    the m roots of T_m.  Makhoul's method (IEEE TASSP 28, 27 (1980)): one
    real FFT of length m of the even-indexed samples followed by the
    odd-indexed ones reversed, whose n-th coefficient V_n gives the sum
    as ``Re(exp(-i pi n / (2m)) V_n)``; past m/2 the real FFT's bins are
    read as ``V_n = conj(V_{m-n})``.  Needs ``0 <= deg <= m``.
    """
    m = values.shape[-1]
    if not 0 <= deg <= m:
        raise ValidationError(f"dct2 needs 0 <= deg <= m, got m={m}, deg={deg}")
    reordered = np.concatenate((values[..., ::2], values[..., 1::2][..., ::-1]), axis=-1)
    spec = np.fft.rfft(reordered, axis=-1)[..., : deg + 1]
    if deg >= spec.shape[-1]:
        mirror = m - np.arange(spec.shape[-1], deg + 1)
        spec = np.concatenate((spec, spec[..., mirror].conj()), axis=-1)
    phase = np.pi * np.arange(deg + 1) / (2 * m)
    return spec.real * np.cos(phase) + spec.imag * np.sin(phase)


def dct3(coeffs: np.ndarray, m: int) -> np.ndarray:
    """``sum_n coeffs[..., n] cos(pi n (2j + 1) / (2m))`` for j = 0..m-1.

    The DCT-III of every row, the Chebyshev series with coefficients
    `coeffs` evaluated at the m roots of T_m; the transpose of
    :func:`dct2`.  One inverse real FFT of length 2m of the coefficients
    twisted by ``exp(i pi n / (2m))``.  Needs fewer than m coefficients.
    """
    a = np.asarray(coeffs, dtype=float)
    deg = a.shape[-1] - 1
    if not 0 <= deg < m:
        raise ValidationError(f"dct3 needs 1 to m coefficients, got {deg + 1} for m={m}")
    twisted = a * np.exp(1j * np.pi * np.arange(deg + 1) / (2 * m))
    # irfft halves every coefficient but the zeroth, so double that one
    twisted[..., 0] *= 2.0
    return m * np.fft.irfft(twisted, 2 * m, axis=-1)[..., :m]


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic child generator for a (seed, index...) path.

    Derives independent streams via ``SeedSequence([seed, *path])``; two
    calls with the same arguments give statistically independent yet
    reproducible generators, regardless of the order in which they are
    created.
    """
    entropy: Sequence[int] = (int(seed),) + tuple(int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic integer seed for a (seed, index...) path.

    Companion to :func:`child_rng` for entry points that take a seed
    rather than a generator: the derived integers are well mixed, so
    nested trial loops get independent reproducible streams.
    """
    entropy: Sequence[int] = (int(seed),) + tuple(int(p) for p in path)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def fmt_float(x: float) -> str:
    """17 significant digits, which round-trip any float, for deterministic text output.

    Not the shortest repr: ``fmt_float(0.1)`` is ``"0.10000000000000001"``.
    """
    return format(float(x), ".17g")
