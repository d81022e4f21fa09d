"""Chebyshev expansion machinery for the Gaussian broadening kernel.

The Gaussian kernel of width ``lam`` restricted to [-1, 1] has a rapidly
converging Chebyshev expansion whose coefficients are modified Bessel
functions.  This module provides:

* the expansion coefficients ``a_n`` in Bessel form plus an independent
  quadrature route used to cross-validate them,
* the shifted coefficients ``c_j`` that express the degree-L kernel
  centered at ``sigma`` as a polynomial in the spectral variable,
* the decay-rate function ``kappa`` and a self-contained Lambert W
  implementation used by the order planners,
* analytic truncation-error bounds in two regimes together with the
  planner :func:`truncation_order` that picks the expansion order for an
  accuracy target, and
* spectral moments ``t_k = <psi| T_k(O) |psi>`` via the three-term
  recurrence, with the reconstruction of the transform from moments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as npcheb
from scipy.special import ive

from .errors import NumericError, OutOfRegimeError, ValidationError
from .kernels import AccuracyTarget, GaussianKernel, gaussian_eval, gaussian_resolution
from .numerics import cheb_series_coeffs
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

    Even coefficients are ``a_{2m} = gamma_m (-1)^m e^{-z} I_m(z)`` with
    ``z = 1/(4 lam^2)``, ``gamma_0 = 1`` and ``gamma_{m>0} = 2``; odd
    coefficients vanish exactly.  The exponentially scaled Bessel
    function is used throughout, so arbitrarily small widths do not
    overflow.
    """
    if not (lam > 0.0):
        raise ValidationError(f"lam must be positive, got {lam!r}")
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order!r}")
    z = 1.0 / (4.0 * lam * lam)
    m = np.arange(order // 2 + 1)
    vals = ive(m, z)
    if not np.all(np.isfinite(vals)):
        raise NumericError(f"scaled Bessel evaluation failed at z={z!r}")
    gamma = np.where(m == 0, 1.0, 2.0)
    signs = np.where(m % 2 == 0, 1.0, -1.0)
    a = np.zeros(order + 1)
    a[0::2] = gamma * signs * vals
    return a


def coeff_quadrature_oracle(lam: float, n: int, nodes: int | None = None) -> float:
    """Gauss-Chebyshev quadrature estimate of a single coefficient a_n.

    Independent of the Bessel route: ``a_n = (gamma_n / m) sum_j
    f(cos(theta_j)) cos(n theta_j)`` over the m first-kind nodes.  Used
    as the cross-validation oracle for :func:`gauss_cheb_coeffs`.
    """
    if not (lam > 0.0):
        raise ValidationError(f"lam must be positive, got {lam!r}")
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n!r}")
    if nodes is None:
        nodes = max(4 * (n + 1), 1024)
    if nodes < 4 * (n + 1):
        raise ValidationError(f"need at least {4 * (n + 1)} nodes for order {n}")
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

    The four most recent tables are cached per ``(lam, frequencies,
    order)``, so a pipeline that sizes its shots on a grid and then
    reconstructs on it, or a contract check that reconstructs every
    trial of every model on one grid, builds each table once.  The
    returned array is read-only.
    """
    if not (lam > 0.0):
        raise ValidationError(f"lam must be positive, got {lam!r}")
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order!r}")
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float)).reshape(-1)
    return _cached_coefficient_table(float(lam), freqs.tobytes(), int(order))


@functools.lru_cache(maxsize=4)
def _cached_coefficient_table(lam: float, freq_bytes: bytes, order: int) -> np.ndarray:
    freqs = np.frombuffer(freq_bytes)
    inside = np.abs(freqs) <= 1.0 + 1e-12
    table = np.empty((freqs.size, order + 1))
    if np.any(inside):
        table[inside] = _series_coefficient_table(lam, freqs[inside], order)
    if not np.all(inside):
        table[~inside] = _direct_coefficient_table(lam, freqs[~inside], order)
    table.flags.writeable = False
    return table


def _series_coefficient_table(lam: float, freqs: np.ndarray, order: int) -> np.ndarray:
    """Projection of the half-width degree-`order` kernel on `order` nodes."""
    a = gauss_cheb_coeffs(lam / 2.0, order)
    scale = math.sqrt(2.0 * math.pi) * lam
    kernel = lambda x: npcheb.chebval((x[None, :] - freqs[:, None]) / 2.0, a) / scale
    return cheb_series_coeffs(kernel, order, nodes=order)


def _direct_coefficient_table(lam: float, freqs: np.ndarray, order: int) -> np.ndarray:
    """Gauss-Chebyshev projection of the exact kernel at each center."""
    return cheb_series_coeffs(lambda x: gaussian_eval(x[None, :], freqs[:, None], lam), order)


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
    eps_r: float
    bound: float
    bound_ok: bool
    beta_low: float
    beta_high: float
    min_error_tight: float
    min_error_envelope: float


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
    tight, envelope = min_error_intermediate(lam)

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
        eps_r=eps_r,
        bound=bound,
        bound_ok=(bound <= eps_r),
        beta_low=beta_low,
        beta_high=beta_high,
        min_error_tight=tight,
        min_error_envelope=envelope,
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
    if op.dim != psi.vector.size:
        raise ValidationError(f"dimension mismatch: op {op.dim}, psi {psi.vector.size}")
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


def git_transform_from_moments(moments, lam: float, frequencies) -> TransformGrid:
    """Reconstruct the broadened transform from spectral moments.

    ``values[i] = c(frequencies[i]) . moments`` with the shifted
    coefficients at the moment vector's order.  `moments` may be exact
    (recurrence) or sampled estimates.
    """
    t = np.asarray(moments, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValidationError("moments must be a nonempty 1-d sequence")
    order = t.size - 1
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    table = coefficient_table(lam, freqs, max(order, 1))
    values = table[:, : order + 1] @ t
    return TransformGrid(
        frequencies=freqs,
        values=values,
        kind="density",
        kernel=GaussianKernel(lam),
    )
