"""Small numerical utilities used throughout the package.

Nothing in here knows about kernels or spectra; these are generic
helpers (power-of-two rounding, Simpson quadrature, Chebyshev nodes and
projection, deterministic seed derivation).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import numpy.polynomial.chebyshev as npcheb

from .errors import ValidationError

__all__ = [
    "next_pow2",
    "composite_simpson",
    "cheb_nodes",
    "cheb_series_coeffs",
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


def composite_simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule over uniformly spaced samples.

    `values` must contain an odd number of points (an even number of
    panels); `h` is the sample spacing.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 3 or n % 2 == 0:
        raise ValidationError("composite_simpson needs an odd number of samples >= 3")
    s = values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum()
    return h * s / 3.0


def cheb_nodes(m: int) -> np.ndarray:
    """Chebyshev nodes cos(pi (2j+1) / (2m)), j = 0..m-1 (roots of T_m)."""
    if m < 1:
        raise ValidationError("need at least one node")
    j = np.arange(m)
    return np.cos(np.pi * (2 * j + 1) / (2 * m))


def cheb_series_coeffs(f: Callable[[np.ndarray], np.ndarray], deg: int, nodes: int | None = None) -> np.ndarray:
    """Chebyshev series coefficients of f on [-1, 1] by Gauss-Chebyshev quadrature.

    Returns ``c[..., 0..deg]`` such that ``f(x) ~ sum_n c[n] T_n(x)``, from
    ``c_n = (gamma_n / m) sum_j f(x_j) T_n(x_j)`` over the m = `nodes`
    roots of T_m (default ``max(4 (deg + 1), 256)``), with ``gamma_0 = 1``
    and ``gamma_n = 2`` otherwise.  `f` maps the node array to values of
    shape ``(..., m)``, so a batch of functions is projected at once.  The
    rule is exact for polynomials up to degree ``2 m - 1 - deg`` and leaves
    only aliasing error for smooth non-polynomial targets.
    """
    if deg < 0:
        raise ValidationError("degree must be >= 0")
    m = nodes if nodes is not None else max(4 * (deg + 1), 256)
    if m < deg:
        raise ValidationError("need at least as many quadrature nodes as the requested degree")
    x = cheb_nodes(m)
    gamma = np.full(deg + 1, 2.0)
    gamma[0] = 1.0
    return (np.asarray(f(x), dtype=float) @ npcheb.chebvander(x, deg)) * gamma / m


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
    """Shortest repr that round-trips, for deterministic text output."""
    return format(float(x), ".17g")
