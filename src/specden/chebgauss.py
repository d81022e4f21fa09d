"""Chebyshev expansion machinery for the Gaussian broadening kernel.

The Gaussian kernel of width ``lam`` restricted to [-1, 1] has a rapidly
converging Chebyshev expansion whose coefficients are modified Bessel
functions.  This module provides:

* the expansion coefficients ``a_n``, projected from the Gaussian's
  values at Chebyshev nodes by one DCT (the published Bessel form is
  the tests' oracle), plus an independent quadrature route used to
  cross-validate them,
* the shifted coefficients ``c_j`` that express the degree-L kernel
  centered at ``sigma`` as a polynomial in the spectral variable,
* the decay-rate function ``kappa`` and a self-contained Lambert W
  implementation used by the order planners,
* analytic truncation-error bounds in two regimes together with the
  planner :func:`truncation_order` that picks the expansion order for an
  accuracy target, and
* spectral moments ``t_k = <psi| T_k(O) |psi>`` via the three-term
  recurrence, and the reconstruction of the transform from moments by
  the kernel polynomial method on the exact kernel's projection.

The shifted coefficients of :func:`coefficient_table` are the published
series construction, which the planner prices and the acceptance gate
checks.  The moment pipeline instead projects the exact Gaussian onto
the Chebyshev basis at ``m = max(4 (L + 1), 256)`` nodes, and never
forms that projection's table either: :func:`projection_cmax` sizes the
shots from a DCT-II of only the frequency rows whose coefficient bound can
reach the maximum, and :func:`projection_values` reconstructs from one
DCT-III of the moments.  Both sweep the Gaussian kernel matrix banded:
each frequency sees only the nodes within ``r = lam sqrt(2 (53 ln 2 +
ln m))``, past which ``G < G(0) 2^-53 / m``, so about ``F m lam`` cells
are evaluated instead of ``F m``.  The values move by at most ``2^-53
G(0) max_j |rho_j|``; the coefficient bounds add the allowance ``m G(r)``,
so the largest magnitude stays bit-identical to a full scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as npcheb

from .errors import NumericError, OutOfRegimeError, ValidationError
from .kernels import AccuracyTarget, GaussianKernel, _check_cells, _fft_size, gaussian_eval, gaussian_resolution
from .numerics import cheb_nodes, cheb_series_coeffs, dct3
from .operators import HermitianOperator, ProbeState, TransformGrid

__all__ = [
    "ALPHA1",
    "ALPHA2",
    "KAPPA1",
    "TruncationBudget",
    "kappa",
    "lambert_w",
    "gauss_cheb_coeffs",
    "coeff_quadrature_oracle",
    "shifted_coeffs",
    "coefficient_table",
    "critical_betas",
    "min_error_intermediate",
    "geometric_tail_bound",
    "truncation_error_bound",
    "truncation_order",
    "cheb_moments",
    "projection_cmax",
    "projection_values",
    "git_transform_from_moments",
]

ALPHA1 = 2.93
ALPHA2 = 4.14


def kappa(x):
    """Decay-rate function controlling the Gaussian's Chebyshev coefficients.

    ``kappa(x) = log(x + sqrt(1+x^2))/2 - (1/(4x)) (x - 1 + sqrt(1+x^2))^2
    / (x + sqrt(1+x^2))``.  It satisfies ``x kappa(1) <= kappa(x) <= x/4``
    on (0, 1] and ``kappa(x) >= (log(2x) - 1)/2`` for x > 1.

    Accepts scalars or arrays; requires x > 0.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValidationError("kappa requires positive arguments")
    root = np.sqrt(1.0 + arr * arr)
    first = np.log(arr + root) / 2.0
    second = (arr - 1.0 + root) ** 2 / (4.0 * arr * (arr + root))
    out = first - second
    if np.ndim(x) == 0:
        return float(out)
    return out


KAPPA1 = kappa(1.0)


def lambert_w(x: float) -> float:
    """Principal branch of the Lambert W function.

    Halley iteration from a piecewise initial guess; converges when
    ``|W e^W - x| <= 1e-12 max(1, |x|)`` within 50 steps.  Defined for
    ``x >= -1/e``.
    """
    x = float(x)
    branch = -1.0 / math.e
    if x < branch:
        raise ValidationError(f"lambert_w needs x >= -1/e, got {x!r}")
    if x == 0.0:
        return 0.0
    if x >= 10.0:
        lx = math.log(x)
        w = lx - math.log(lx)
    elif x > 0.0:
        w = math.log1p(x)
    else:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0
    tol = 1e-12 * max(1.0, abs(x))
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            return w
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        w -= f / denom
    raise NumericError(f"lambert_w failed to converge for x={x!r}")


# ---------------------------------------------------------------------------
# Expansion coefficients


def gauss_cheb_coeffs(lam: float, order: int) -> np.ndarray:
    """Chebyshev coefficients a_0..a_order of ``exp(-x^2/(2 lam^2))`` on [-1, 1].

    In closed form, even coefficients are ``a_{2m} = gamma_m (-1)^m e^{-z}
    I_m(z)`` with ``z = 1/(4 lam^2)``, ``gamma_0 = 1`` and ``gamma_{m>0} =
    2``, and odd coefficients vanish.  They are computed as the
    Gauss-Chebyshev projection (:func:`cheb_series_coeffs`) of the
    Gaussian on m nodes, ``max(4 (order + 1), 256, ceil(40 / lam))``
    rounded up to a 5-smooth FFT length, with the odd terms set to zero:
    at that node count the aliasing error falls below rounding, so the
    projection equals the closed form to machine precision.  Raises
    :class:`ResourceLimitError` before allocating when m exceeds
    ``GRID_CAP``.
    """
    if not (lam > 0.0):
        raise ValidationError(f"lam must be positive, got {lam!r}")
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order!r}")
    m = _fft_size(max(4 * (order + 1), 256, math.ceil(40.0 / lam)))
    _check_cells(m, "projection nodes of the Gaussian")
    x = cheb_nodes(m)
    a = cheb_series_coeffs(np.exp(-x * x / (2.0 * lam * lam)), order)
    a[1::2] = 0.0
    return a


def coeff_quadrature_oracle(lam: float, n: int) -> float:
    """Gauss-Chebyshev quadrature estimate of a single coefficient a_n.

    A direct cosine sum, independent of the FFT that
    :func:`gauss_cheb_coeffs` runs: ``a_n = (gamma_n / m) sum_j
    f(cos(theta_j)) cos(n theta_j)`` over ``m = max(4 (n + 1), 1024)``
    first-kind nodes.  The tests' oracle for :func:`gauss_cheb_coeffs`,
    beside the closed Bessel form.
    """
    if not (lam > 0.0):
        raise ValidationError(f"lam must be positive, got {lam!r}")
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n!r}")
    nodes = max(4 * (n + 1), 1024)
    theta = np.pi * (2.0 * np.arange(nodes) + 1.0) / (2.0 * nodes)
    x = np.cos(theta)
    f = np.exp(-x * x / (2.0 * lam * lam))
    gamma = 1.0 if n == 0 else 2.0
    return float(gamma * np.dot(f, np.cos(n * theta)) / nodes)


def shifted_coeffs(lam: float, sigma: float, order: int) -> np.ndarray:
    """Coefficients c_0..c_order of the degree-`order` kernel centered at `sigma`.

    The truncated kernel ``K(sigma, w) = (1/(sqrt(2 pi) lam)) sum_k
    a_k(lam/2) T_k((w - sigma)/2)`` is re-expanded in the spectral
    variable ``w`` by Gauss-Chebyshev projection on `order` nodes:
    ``c_j = (gamma_j / order) sum_m K(sigma, x_m) T_j(x_m)``.
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order!r}")
    return coefficient_table(lam, [sigma], order)[0]


def coefficient_table(lam: float, frequencies, order: int) -> np.ndarray:
    """Shifted-coefficient vectors for many centers at once.

    Returns an array of shape ``(len(frequencies), order + 1)`` whose
    rows are :func:`shifted_coeffs` at each frequency.

    Centers in [-1, 1] use the half-width series construction above.
    Its inner series argument ``(w - sigma)/2`` leaves [-1, 1] once
    ``|sigma| > 1``, where the truncated polynomial diverges, so centers
    beyond are projected from the exact kernel by high-count
    Gauss-Chebyshev quadrature instead, which is stable for every center
    and agrees with the series inside the truncation budget.

    This is the published construction that ``plan`` prices; the moment
    pipeline works from the exact kernel's projection and builds no
    table (:func:`projection_cmax`, :func:`projection_values`).
    """
    if not (lam > 0.0):
        raise ValidationError(f"lam must be positive, got {lam!r}")
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order!r}")
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float)).reshape(-1)
    inside = np.abs(freqs) <= 1.0 + 1e-12
    table = np.empty((freqs.size, order + 1))
    if np.any(inside):
        table[inside] = _series_coefficient_table(lam, freqs[inside], order)
    if not np.all(inside):
        table[~inside] = _direct_coefficient_table(lam, freqs[~inside], order)
    return table


def _series_coefficient_table(lam: float, freqs: np.ndarray, order: int) -> np.ndarray:
    """Projection of the half-width degree-`order` kernel on `order` nodes."""
    a = gauss_cheb_coeffs(lam / 2.0, order)
    scale = math.sqrt(2.0 * math.pi) * lam
    x = cheb_nodes(order)
    values = npcheb.chebval((x[None, :] - freqs[:, None]) / 2.0, a) / scale
    return cheb_series_coeffs(values, order)


def _projection_size(order: int) -> int:
    """Node count of the exact kernel's projection at this order."""
    return max(4 * (order + 1), 256)


def _direct_coefficient_table(lam: float, freqs: np.ndarray, order: int) -> np.ndarray:
    """Gauss-Chebyshev projection of the exact kernel at each center."""
    x = cheb_nodes(_projection_size(order))
    return cheb_series_coeffs(gaussian_eval(x[None, :], freqs[:, None], lam), order)


# ---------------------------------------------------------------------------
# Truncation bounds and order planner


def critical_betas(target: AccuracyTarget) -> tuple[float, float]:
    """Regime thresholds for the pointwise accuracy of the truncated kernel.

    ``beta_low = (1/sigma) exp(-1/delta^2)`` separates the asymptotic
    regime (below) from the intermediate regime (above); ``beta_high =
    (1/delta) sqrt(log(1/sigma)/2)`` is the validity ceiling of the
    planner formulas.
    """
    beta_low = (1.0 / target.sigma) * math.exp(-1.0 / target.delta**2)
    beta_high = (1.0 / target.delta) * math.sqrt(math.log(1.0 / target.sigma) / 2.0)
    return beta_low, beta_high


def min_error_intermediate(lam: float) -> tuple[float, float]:
    """Smallest truncation error guaranteeable in the intermediate regime.

    Returns ``(tight, envelope)``: the sharp expression evaluated at the
    regime's edge and the simple envelope ``exp(-1/(2 lam^2))``.  Valid
    for ``0 < lam <= 5``.
    """
    if not (0.0 < lam <= 5.0):
        raise ValidationError(f"lam must lie in (0, 5], got {lam!r}")
    tight = math.exp(-(KAPPA1 / 2.0) * (2.0 + lam) ** 2 / (lam * lam)) / (
        math.sqrt(2.0) * KAPPA1 * (2.0 + lam * lam)
    )
    envelope = math.exp(-1.0 / (2.0 * lam * lam))
    return tight, envelope


def _l_prime(order: int) -> int:
    return order + 2 if order % 2 == 0 else order + 3


def geometric_tail_bound(order: int, lam: float) -> float:
    """Geometric-series bound on the kernel truncation error, valid everywhere.

    ``R_L <= exp(-L' kappa(L' lam^2 / 2)) / (sqrt(2) (1 - exp(-kappa(L'
    lam^2 / 2))))`` with ``L' = L + 2`` (L even) or ``L + 3`` (L odd).
    Looser than the regime-specific bounds but with no validity window;
    used for diagnostics and the coefficient-magnitude check.
    """
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order!r}")
    if not (lam > 0.0):
        raise ValidationError(f"lam must be positive, got {lam!r}")
    lp = _l_prime(order)
    rate = kappa(lp * lam * lam / 2.0)
    return math.exp(-lp * rate) / (math.sqrt(2.0) * (1.0 - math.exp(-rate)))


def truncation_error_bound(order: int, lam: float, regime: str) -> float:
    """Analytic upper bound on the truncation error of the degree-`order` kernel.

    Asymptotic regime: ``R_L <= 3.4 (e / (L' lam^2))^(L'/2)`` with the
    parity rule for L', valid when ``L' >= 2/lam^2``.  Intermediate
    regime: ``R_L <= (1/(sqrt(2) lam_k^2 (L+1))) exp(-(L+1)^2 lam_k^2 /
    2)`` with ``lam_k = lam sqrt(kappa(1))``, valid when ``L >=
    sqrt(2/pi)/lam_k - 1``.  Evaluated in log space so deep tails
    underflow to 0.0 rather than failing.
    """
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order!r}")
    if not (lam > 0.0):
        raise ValidationError(f"lam must be positive, got {lam!r}")
    if regime == "asymptotic":
        lp = _l_prime(order)
        if lp < 2.0 / (lam * lam):
            raise OutOfRegimeError(
                f"asymptotic bound needs L' >= 2/lam^2 = {2.0 / lam**2:.3f}, got L'={lp}"
            )
        log_bound = math.log(3.4) + (lp / 2.0) * (1.0 - math.log(lp * lam * lam))
        return math.exp(log_bound) if log_bound > -745.0 else 0.0
    if regime == "intermediate":
        lam_k = lam * math.sqrt(KAPPA1)
        if order < math.sqrt(2.0 / math.pi) / lam_k - 1.0:
            raise OutOfRegimeError(
                f"intermediate bound needs L >= sqrt(2/pi)/lam_k - 1 = "
                f"{math.sqrt(2.0 / math.pi) / lam_k - 1.0:.3f}, got L={order}"
            )
        m = order + 1.0
        log_bound = -m * m * lam_k * lam_k / 2.0 - math.log(math.sqrt(2.0) * lam_k * lam_k * m)
        return math.exp(log_bound) if log_bound > -745.0 else 0.0
    raise ValidationError(f"regime must be 'asymptotic' or 'intermediate', got {regime!r}")


def _order_intermediate(sigma: float, delta: float, beta: float) -> int:
    x = (ALPHA2 / (delta * beta)) * math.log(1.0 / sigma)
    if x <= math.sqrt(math.e):
        raise OutOfRegimeError(
            f"intermediate order formula needs its inner argument > sqrt(e), got {x:.4f}"
        )
    g = math.log(x) - 0.25 * math.log(math.log(x * x))
    return max(1, math.ceil((ALPHA1 / delta) * math.sqrt(math.log(1.0 / sigma) * g)) - 1)


def _order_asymptotic(lam: float, eps_r: float) -> int:
    x = (2.0 * lam * lam / math.e) * math.log(3.4 / eps_r)
    m = (math.e / (lam * lam)) * (x / lambert_w(x))
    return max(1, math.ceil(m) - 2)


@dataclass(frozen=True)
class TruncationBudget:
    """Outcome of the expansion-order planner.

    `bound` is the analytic truncation bound of the matching regime
    evaluated at the chosen order, and `bound_ok` records whether it
    meets the requested half-accuracy ``eps_r = beta/2``.  The
    intermediate-regime closed form is implemented exactly as published
    and does not always achieve `bound <= eps_r`; the flag keeps the
    planner honest about it.
    """

    L: int
    regime: str
    lam: float
    bound: float
    bound_ok: bool


def truncation_order(target: AccuracyTarget) -> TruncationBudget:
    """Pick the expansion order for an accuracy target.

    The width comes from :func:`gaussian_resolution`; the regime from
    comparing `beta` to the critical values: below ``beta_low`` the
    asymptotic closed form applies, above it the intermediate one, with
    a forced switch to asymptotic when the requested error is below the
    intermediate regime's guaranteeable floor.  On the exact boundary
    both forms are evaluated and the smaller order meeting the bound
    wins (falling back to the smaller order outright).

    Raises :class:`OutOfRegimeError` when ``beta > beta_high``, when the
    width exceeds the planner's validity (lam > 5), or when the
    intermediate formula's inner argument leaves its domain.
    """
    lam = gaussian_resolution(target)
    beta = target.beta
    eps_r = beta / 2.0
    beta_low, beta_high = critical_betas(target)
    if beta > beta_high:
        raise OutOfRegimeError(
            f"beta={beta} exceeds the validity ceiling beta_high={beta_high:.6g}"
        )
    if lam > 5.0:
        raise OutOfRegimeError(f"width lam={lam:.6g} too coarse for the order planner")
    if lam * eps_r > 1.0 / (math.sqrt(2.0 * KAPPA1) * math.e):
        raise OutOfRegimeError(
            f"lam * eps_r = {lam * eps_r:.6g} violates the small-error condition"
        )
    tight, _ = min_error_intermediate(lam)

    def _with_bound(regime: str, order: int) -> tuple[str, int, float]:
        return regime, order, truncation_error_bound(order, lam, regime)

    if beta < beta_low:
        regime, order, bound = _with_bound("asymptotic", _order_asymptotic(lam, eps_r))
    elif beta == beta_low:
        cands = [
            _with_bound("asymptotic", _order_asymptotic(lam, eps_r)),
            _with_bound("intermediate", _order_intermediate(target.sigma, target.delta, beta)),
        ]
        passing = [c for c in cands if c[2] <= eps_r]
        pool = passing if passing else cands
        regime, order, bound = min(pool, key=lambda c: c[1])
    elif eps_r < tight:
        regime, order, bound = _with_bound("asymptotic", _order_asymptotic(lam, eps_r))
    else:
        regime, order, bound = _with_bound(
            "intermediate", _order_intermediate(target.sigma, target.delta, beta)
        )
    return TruncationBudget(
        L=order,
        regime=regime,
        lam=lam,
        bound=bound,
        bound_ok=(bound <= eps_r),
    )


# ---------------------------------------------------------------------------
# Moments and transform reconstruction


def cheb_moments(op: HermitianOperator, psi: ProbeState, order: int) -> np.ndarray:
    """Spectral moments t_0..t_order, ``t_k = <psi| T_k(op) |psi>``.

    Matrix-free three-term recurrence ``v_{k+1} = 2 op v_k - v_{k-1}``;
    requires the operator spectrum inside [-1, 1], which is checked
    through the resulting moment magnitudes.
    """
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order!r}")
    if op.dim != psi.dim:
        raise ValidationError(f"dimension mismatch: op {op.dim}, psi {psi.dim}")
    moments = np.empty(order + 1)
    moments[0] = 1.0
    if order >= 1:
        mat = op.matrix
        probe = psi.vector
        v_prev = probe.astype(complex)
        v_curr = mat @ v_prev
        moments[1] = np.vdot(probe, v_curr).real
        for k in range(2, order + 1):
            v_next = 2.0 * (mat @ v_curr) - v_prev
            moments[k] = np.vdot(probe, v_next).real
            v_prev, v_curr = v_curr, v_next
    if np.any(np.abs(moments) > 1.0 + 1e-10):
        raise ValidationError("moment magnitude exceeded 1; operator is not normalized")
    return moments


# Blocks of the kernel matrix G(nu_i, x_j) hold at most this many cells
# (512 KiB), or one row when m is larger, which keeps each block in cache
# between its evaluation and use.
_CHUNK_CELLS = 2**16

def _reach(lam: float, m: int) -> float:
    """Distance ``r = lam sqrt(2 (53 ln 2 + ln m))`` past which G < G(0) 2^-53 / m."""
    return lam * math.sqrt(2.0 * (53.0 * math.log(2.0) + math.log(m)))


def _band_edges(lam: float, freqs: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per frequency, the slice ``lo:hi`` of the ascending `nodes` within :func:`_reach` of it."""
    reach = _reach(lam, nodes.size)
    return (np.searchsorted(nodes, freqs - reach, side="left"),
            np.searchsorted(nodes, freqs + reach, side="right"))


def _kernel_bands(lam: float, freqs: np.ndarray, nodes: np.ndarray):
    """``(part, band)`` slices over chunks of frequencies and their bands of nodes.

    `nodes` ascend.  A chunk's band runs from the lowest to the highest
    node within :func:`_reach` of any of its frequencies, so an unsorted
    grid is banded correctly.  A chunk starts as large as its first
    frequency's band allows and shrinks once to fit its own band, so
    every block holds at most ``max(2^16, m)`` cells.  Callers evaluate
    each block unnamed, so that it is freed before the next is built.
    """
    cap = max(_CHUNK_CELLS, nodes.size)
    lo, hi = _band_edges(lam, freqs, nodes)
    start = 0
    while start < freqs.size:
        rows = cap // max(1, hi[start] - lo[start])
        band = slice(lo[start:start + rows].min(), hi[start:start + rows].max())
        if rows * (band.stop - band.start) > cap:
            rows = cap // (band.stop - band.start)
            band = slice(lo[start:start + rows].min(), hi[start:start + rows].max())
        yield slice(start, start + rows), band
        start += rows


def _row_sums(lam: float, freqs: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Banded ``S(nu) = sum_j G(nu, x_j)`` per frequency, under the full sum by less than ``2^-53 G(0)``."""
    sums = np.empty(freqs.size)
    for part, band in _kernel_bands(lam, freqs, nodes):
        sums[part] = gaussian_eval(freqs[part, None], nodes[None, band], lam).sum(axis=1)
    return sums


def projection_cmax(lam: float, frequencies, order: int) -> float:
    """Largest coefficient magnitude of the exact kernel's projection.

    The maximum of ``|c_n(nu)|`` over n = 0..order and the requested
    frequencies, where ``c_n(nu) = (gamma_n / m) sum_j G(nu, x_j)
    T_n(x_j)`` are the rows of the direct projection on the m nodes of
    :func:`projection_values`.

    The kernel is non-negative and ``|T_n(x_j)| <= 1``, so every
    coefficient of row nu is at most ``B(nu) = 2 S(nu) / m`` with
    ``S(nu) = sum_j G(nu, x_j)``.  S is summed over the nodes within the
    reach ``r = lam sqrt(2 (53 ln 2 + ln m))`` of nu only, and the cells
    left out are made up by a per-row allowance: on each side of the
    band, the count of nodes left out times the kernel at the nearest of
    them, which is their largest cell.  A row whose nearest node left out
    lies past ``sqrt(1492) lam``, where every cell is exactly 0, keeps
    allowance 0.  The row of the largest bound is DCT-II'd first, then only
    the rows whose bound reaches the largest magnitude found so far:
    O(F m lam) time for the bounds plus O(k m log m) for the k rows
    transformed, in O(2^16 + m) memory.  The row holding the maximum is
    always transformed in full, by the same :func:`gaussian_eval` and
    :func:`cheb_series_coeffs` as every other row, so the result is
    bit-identical to a scan of all F rows.
    """
    if not (lam > 0.0):
        raise ValidationError(f"lam must be positive, got {lam!r}")
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order!r}")
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float)).reshape(-1)
    x = cheb_nodes(_projection_size(order))
    nodes = x[::-1]
    # every node below a row's band is at least as far as the nearest one,
    # and so is every node above it
    lo, hi = _band_edges(lam, freqs, nodes)
    below = lo * gaussian_eval(freqs, nodes[np.maximum(lo - 1, 0)], lam)
    above = (x.size - hi) * gaussian_eval(freqs, nodes[np.minimum(hi, x.size - 1)], lam)
    sums = _row_sums(lam, freqs, nodes) + below + above
    # The 1e-9 slack covers rounding: the FFT inside the DCT errs by about
    # u log2(m) sqrt(m) relative to S, under 3e-11 even at m = GRID_CAP,
    # and the pairwise sums of S by about u log2(m).
    bound = 2.0 * (1.0 + 1e-9) * sums / x.size
    rows = max(1, _CHUNK_CELLS // x.size)
    # the row of the largest bound first; then, chunk by chunk, the rows
    # not yet transformed whose bound reaches the largest magnitude found.
    # A row whose bound is 0 is all zeros.
    best, threshold = 0.0, bound.max(initial=0.0)
    while (live := np.flatnonzero((bound > 0.0) & (bound >= threshold))[:rows]).size:
        block = gaussian_eval(freqs[live, None], x[None, :], lam)
        best = max(best, float(np.abs(cheb_series_coeffs(block, order)).max()))
        bound[live] = 0.0
        threshold = best
    return best


def projection_values(moments, lam: float, frequencies) -> np.ndarray:
    """Transform values ``sum_n c_n(nu) v_n`` of the exact kernel's projection.

    `moments` holds one moment vector v_0..v_L, or one per row; the
    result has shape ``(..., len(frequencies))``.  The coefficients are
    the direct projection on ``m = max(4 (L + 1), 256)`` nodes, and by
    the kernel polynomial method (Weisse et al., Rev. Mod. Phys. 78,
    275 (2006), sec. II.C) the sum equals ``sum_j G(nu, x_j) rho_j``
    with ``rho = DCT-III(gamma_n v_n) / m`` at the nodes.  So each row
    costs one O(m log m) transform, and every row is reconstructed by
    one product with the kernel matrix, banded: each frequency sums only
    the nodes within ``r = lam sqrt(2 (53 ln 2 + ln m))`` of it, about
    9.3 lam at m = 936, in blocks of at most ``max(2^16, m)`` cells.  No
    coefficient table exists.  Every node left out has ``G < G(0) 2^-53
    / m``, so the cut moves each value by at most ``2^-53 G(0)
    max_j |rho_j|``, which is at most ``2^-54 / (sqrt(2 pi) lam)`` for
    moments in [-1, 1] (``|rho_j| <= 1/2``).
    """
    v = np.asarray(moments, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] < 1:
        raise ValidationError("moments must be a nonempty vector or matrix of vectors")
    if not (lam > 0.0):
        raise ValidationError(f"lam must be positive, got {lam!r}")
    nodes = cheb_nodes(_projection_size(v.shape[-1] - 1))[::-1]  # ascending
    gamma = np.full(v.shape[-1], 2.0)
    gamma[0] = 1.0
    rho = dct3(v * gamma, nodes.size)[..., ::-1] / nodes.size
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float)).reshape(-1)
    values = np.empty(v.shape[:-1] + freqs.shape)
    for part, band in _kernel_bands(lam, freqs, nodes):
        values[..., part] = rho[..., band] @ gaussian_eval(freqs[part, None], nodes[None, band], lam).T
    return values


def git_transform_from_moments(moments, lam: float, frequencies) -> TransformGrid:
    """Reconstruct the broadened transform from spectral moments.

    ``values[i] = sum_n c_n(frequencies[i]) moments[n]`` with the exact
    kernel's projection at the moment vector's order, computed by
    :func:`projection_values`.  `moments` may be exact (recurrence) or
    sampled estimates.
    """
    t = np.asarray(moments, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValidationError("moments must be a nonempty 1-d sequence")
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    return TransformGrid(
        frequencies=freqs,
        values=projection_values(t, lam, freqs),
        kind="density",
        kernel=GaussianKernel(lam),
    )
