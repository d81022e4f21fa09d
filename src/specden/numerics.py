"""Small numerical utilities used throughout the package.

Nothing in here knows about kernels or spectra; these are generic
helpers (power-of-two rounding, Chebyshev nodes, the two cosine
transforms between node values and Chebyshev coefficients, the one
Chebyshev projection, which is a DCT-II of node values, and
deterministic seed derivation, per seed or for many seeds in one pass).
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

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
    "child_rngs",
    "derive_seed",
    "derive_seeds",
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

    The generator is ``default_rng(SeedSequence([seed, *path]))``: two
    calls with the same arguments give the same stream, whatever the
    order in which they are made, and different paths give independent
    streams.  A negative word raises numpy's ``ValueError``.
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


# numpy's SeedSequence (after O'Neill's seed_seq_fe): a pool of four 32-bit
# words, the hash streams of the pool and of its output, and the word mixer
_POOL = 4
_HASH_POOL = (0x43B0D7E5, 0x931E8875)
_HASH_OUT = (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (O'Neill, PCG, HMC-CS-2014-0905)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


@functools.lru_cache(maxsize=None)
def _hash_stream(stream: tuple[int, int], count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier columns of `count` successive ``hashmix`` calls on one stream."""
    h, mult = stream
    consts = [h]
    for _ in range(count):
        consts.append(h := h * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _hashmix(v, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mult  # uint32 arrays wrap modulo 2^32, as SeedSequence's C words do
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> 16


def _generate_state(words: list, rows: int, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_words)`` for `rows` entropy lists at once.

    `words` holds the entropy as columns: entry i is word i of every
    row, a uint32 array of `rows` values or one int below 2^32 that all
    rows share.  Each hash step runs on every row (and, where
    SeedSequence's loop allows, every pool word) as one uint32 array
    operation.  Returns the output words, ``n_words x rows``.
    """
    extra = max(0, len(words) - _POOL)
    xor, mult = _hash_stream(_HASH_POOL, _POOL * (_POOL + extra))
    pool = np.zeros((_POOL, rows), dtype=np.uint32)
    for i, word in enumerate(words[:_POOL]):
        pool[i] = word
    pool = _hashmix(pool, xor[:_POOL], mult[:_POOL])
    k = _POOL
    # each source word is hashed once per other word and mixed into it
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k : k + 3], mult[k : k + 3]))
        k += 3
    # entropy past the pool is hashed once per pool word and mixed into it
    for word in words[_POOL:]:
        pool = _mix(pool, _hashmix(word, xor[k : k + _POOL], mult[k : k + _POOL]))
        k += _POOL
    xor, mult = _hash_stream(_HASH_OUT, n_words)
    return _hashmix(pool[np.arange(n_words) % _POOL], xor, mult)


def _fits(*words: int) -> bool:
    """Whether every word lies in [0, 2^32), one SeedSequence word each.

    A word of 2^32 or more is several words to SeedSequence, and a
    negative one raises there, so either takes the per-seed route.
    """
    return all(0 <= w <= _MASK32 for w in words)


def derive_seeds(seed: int, *path: int, count: int) -> list[int]:
    """``[derive_seed(seed, *path, j) for j in range(count)]``, in one vectorized pass.

    Two or more seeds whose entropy words all lie in [0, 2^32) run
    SeedSequence's mixing for every j at once, bit for bit; any other
    call derives each seed with :func:`derive_seed`.
    """
    words = [int(seed), *(int(p) for p in path)]
    if count < 2 or not _fits(*words, count - 1):
        return [derive_seed(seed, *path, j) for j in range(count)]
    return _generate_state([*words, np.arange(count, dtype=np.uint32)], count, 1)[0].tolist()


def child_rngs(seeds: Sequence[int], *path: int) -> Iterator[np.random.Generator]:
    """The generators ``child_rng(s, *path)`` for s in `seeds`, in order, bit for bit.

    Two or more seeds whose entropy words all lie in [0, 2^32) share one
    generator.  Its PCG64 state is derived for every seed in one
    vectorized SeedSequence pass and set through the public ``state``
    before each yield, so a caller finishes one seed's draws before it
    takes the next generator.  Any other call yields a new
    :func:`child_rng` per seed, and a negative seed raises as it does.
    """
    seeds = [int(s) for s in seeds]
    words = [int(p) for p in path]
    if len(seeds) < 2 or not _fits(min(seeds), max(seeds), *words):
        yield from (child_rng(s, *path) for s in seeds)
        return
    out = _generate_state([np.array(seeds, dtype=np.uint32), *words], len(seeds), 8)
    # PCG64 reads generate_state(4, uint64), pairs of little-endian words, as a
    # 128-bit seed and increment, high half first, and seeds as pcg64_set_seed does
    halves = out.T.astype("<u4", order="C").view("<u8").tolist()
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator
    for seed_hi, seed_lo, inc_hi, inc_lo in halves:
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield rng


def fmt_float(x: float) -> str:
    """17 significant digits, which round-trip any float, for deterministic text output.

    Not the shortest repr: ``fmt_float(0.1)`` is ``"0.10000000000000001"``.
    """
    return format(float(x), ".17g")
