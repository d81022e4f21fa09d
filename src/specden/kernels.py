"""Broadening kernels and their resolution planners.

Four kernel families are implemented, all acting on spectra supported in
[-1, 1]:

* Fejer: the squared Dirichlet kernel that arises as the outcome
  distribution of phase estimation on a uniform ancilla register.  It is
  a discrete distribution over the grid ``sigma_q = 2q/N - 1`` and is
  periodic in its argument with period 2.
* Qubitized Fejer: the arccos-folded variant produced when the walk
  operator encodes the spectrum through cos(theta).  Discrete over the
  same grid; frequencies are recovered through ``cos(pi sigma)``.
* Gaussian: the classic broadening profile ``exp(-(sigma-omega)^2 /
  (2 lam^2)) / (sqrt(2 pi) lam)``, reachable from Chebyshev moment data.
* Jackson: a sharp window built by composing an amplifying polynomial
  with a Jackson-damped Chebyshev approximation of a tent function.
  The composed profile is itself a polynomial of degree ``k * degree``;
  its Chebyshev coefficients are built once by FFT-based cosine
  transforms and give the normalization and the tail mass exactly.

Each family has an evaluation routine and a planner that turns an
accuracy target into kernel parameters.  Its dataclass answers for
itself: ``kind`` ("discrete" or "density") and ``scan_start`` are class
attributes, and ``outside(delta, omega0)`` (the mass escaping a window,
scanned by :func:`sigma_accuracy`; for the Fejer kernels one minus the
mass on the O(n delta) bins inside it) is a member.  Only the density
kernels are evaluated point by point: they alone have ``width`` and
``value(sigma, omega)``.  A discrete kernel's transform is the outcome
distribution of :mod:`specden.sampling`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import OutOfRegimeError, ResourceLimitError, ValidationError
from .numerics import cheb_eval, cheb_nodes, cheb_series_coeffs, dct3, next_pow2

__all__ = [
    "AccuracyTarget",
    "FejerKernel",
    "QubitizedFejerKernel",
    "GaussianKernel",
    "JacksonKernel",
    "JacksonPlan",
    "SigmaAccuracy",
    "fejer_grid",
    "fejer_eval",
    "fejer_plan",
    "delta_theta",
    "qubitized_fejer_eval",
    "qubitized_fejer_plan",
    "recovered_frequency",
    "gaussian_eval",
    "gaussian_resolution",
    "gaussian_tail_mass",
    "jackson_tent",
    "jackson_damping",
    "jackson_coeffs",
    "jackson_approx",
    "jackson_tent_error",
    "amplifier_coeffs",
    "amplifier_contract_check",
    "jackson_normalization",
    "jackson_thresholds",
    "jackson_plan",
    "jackson_eval",
    "grid_spacing",
    "evaluation_grid",
    "sigma_accuracy",
]

GRID_CAP = 2**26
_SCAN_CELLS = 2**20


def _check_cells(cells: float, what: str, cap: int = GRID_CAP) -> None:
    """The one cap check, run before allocating: refuse when `cells` of `what` exceed `cap`."""
    if cells > cap:
        raise ResourceLimitError(f"{cells} {what} exceed the cap {cap}")


@dataclass(frozen=True)
class AccuracyTarget:
    """Accuracy demanded of an estimated transform.

    Attributes
    ----------
    sigma : float
        Allowed spectral leakage: at most this fraction of each peak's
        mass may land farther than `delta` from the true frequency.
    delta : float
        Frequency resolution (half-width of the window around a peak).
    beta : float
        Pointwise accuracy of the estimated transform values.
    eta : float
        Probability with which the pointwise accuracy may fail.
    """

    sigma: float
    delta: float
    beta: float = 0.1
    eta: float = 0.05

    def __post_init__(self):
        for name in ("sigma", "delta", "beta", "eta"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValidationError(f"{name} must lie in (0, 1), got {v!r}")


def _check_grid_size(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 2 or (n & (n - 1)) != 0:
        raise ValidationError(f"grid size must be a power of two >= 2, got {n!r}")


@dataclass(frozen=True)
class _FejerGrid:
    """A discrete kernel on the grid ``sigma_q = 2q/n - 1``, q = 0..n-1."""

    kind: ClassVar[str] = "discrete"

    n: int

    def __post_init__(self):
        _check_grid_size(self.n)

    @classmethod
    def _planned(cls, raw: float):
        # the cap is a power of two: raw exceeds it exactly when its next power of two does,
        # and an overflowed raw of inf is refused before next_pow2 sees it
        _check_cells(raw, "bins of the planned grid")
        return cls(next_pow2(raw))

    def outside(self, delta: float, omega0: np.ndarray) -> np.ndarray:
        # The Fejer kernel sums to one over its grid: one minus a peak's mass on the bins
        # `_window` admits, indexed past the grid's ends so no offset near the peak wraps.
        # Cells depend on (n, delta) alone and rows are summed apart: blocks change nothing.
        cells = self._cells(delta)
        step = max(1, _SCAN_CELLS // cells)
        inside = np.zeros(omega0.size)
        for start in range(0, omega0.size, step):
            q, peak, admit = self._window(delta, omega0[start : start + step], cells)
            k = fejer_eval(2.0 * q / self.n - 1.0, peak, self.n)
            inside[start : start + step] = np.sum(np.where(admit, k, 0.0), axis=1)
        return np.maximum(1.0 - inside, 0.0)


class FejerKernel(_FejerGrid):
    """Fejer kernel on the grid ``sigma_q = 2q/n - 1``, q = 0..n-1."""

    scan_start: ClassVar[float] = -1.0

    def _cells(self, delta: float) -> int:
        # |sigma - omega| <= delta (mod 2) holds <= floor(n delta) + 1 bins; pad one each side
        return min(math.floor(self.n * delta) + 3, self.n)

    def _window(self, delta: float, centres: np.ndarray, cells: int):
        q = np.ceil((centres[:, None] + 1.0 - min(delta, 1.0)) * self.n / 2.0) - 1.0 + np.arange(cells)
        d = (2.0 * (q % self.n) / self.n - 1.0 - centres[:, None]) / 2.0
        d = d - np.round(d)
        return q, centres[:, None], ~(np.abs(2.0 * d) > delta)


class QubitizedFejerKernel(_FejerGrid):
    """arccos-folded Fejer kernel; spectra must be shifted into [0, 1]."""

    scan_start: ClassVar[float] = 0.0

    def _cells(self, delta: float) -> int:
        # |cos(pi sigma) - omega| <= delta/2 on the arcs |sigma| in [a, b], each at most
        # arccos(1 - delta)/pi long: one padded window per arc
        return 2 * min(math.floor(self.n * math.acos(max(1.0 - delta, -1.0)) / (2.0 * math.pi)) + 3, self.n)

    def _window(self, delta: float, centres: np.ndarray, cells: int):
        # A scan may step up to half its spacing past 1; the kernel is defined on [0, 1].
        om = np.clip(centres, 0.0, 1.0)[:, None]
        first = np.ceil((np.arccos(np.minimum(om + delta / 2.0, 1.0)) / np.pi + 1.0) * self.n / 2.0) - 1.0
        # index n - q is -sigma_q; a mirrored bin already in the first window counts once
        q = np.concatenate((first + np.arange(cells // 2), self.n - first - np.arange(cells // 2)), axis=1)
        once = (np.arange(cells) < cells // 2) | ((q - first) % self.n >= cells // 2)
        rec = recovered_frequency(2.0 * (q % self.n) / self.n - 1.0)
        # sigma -> -sigma keeps the admitted set and maps K_F(., -t) to K_F(., t), so
        # its folded mass is the plain mass of the peak at t = arccos(omega)/pi
        return q, np.arccos(om) / np.pi, once & ~(np.abs(rec - om) > delta / 2.0)


@dataclass(frozen=True)
class GaussianKernel:
    """Gaussian broadening of width `lam`."""

    kind: ClassVar[str] = "density"
    scan_start: ClassVar[float] = -1.0

    lam: float

    def __post_init__(self):
        if not (self.lam > 0.0):
            raise ValidationError(f"lam must be positive, got {self.lam!r}")

    @property
    def width(self) -> float:
        return self.lam

    def value(self, sigma, omega):
        return gaussian_eval(sigma, omega, self.lam)

    def outside(self, delta: float, omega0: np.ndarray) -> np.ndarray:
        # Translation invariance makes the escaping mass independent of the
        # center, so the closed-form tail is broadcast over the scan.
        return np.full(omega0.size, gaussian_tail_mass(delta, self.lam))


@dataclass(frozen=True)
class JacksonKernel:
    """Amplified Jackson window.

    ``K(sigma, omega) = normalization * A_k((4/5) J((sigma - omega)/2))``
    where ``J`` is the Jackson-damped degree-`degree` Chebyshev
    approximation of the tent that peaks at 0 and reaches -1 at
    ``+-delta``, and ``A_k`` is the amplifying polynomial of degree `k`.
    `normalization` makes the profile integrate to one in the variable
    ``u = (sigma - omega)/2``; it is computed from the profile polynomial
    once, on first use.
    """

    kind: ClassVar[str] = "density"
    scan_start: ClassVar[float] = -1.0

    k: int
    degree: int
    delta: float

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValidationError(f"amplifier degree k must be a positive int, got {self.k!r}")
        if not isinstance(self.degree, (int, np.integer)) or self.degree < 1:
            raise ValidationError(f"window degree must be a positive int, got {self.degree!r}")
        if not (0.0 < self.delta <= 1.0):
            raise ValidationError(f"delta must lie in (0, 1], got {self.delta!r}")

    @cached_property
    def normalization(self) -> float:
        return jackson_normalization(self.k, self.degree, self.delta)

    @property
    def width(self) -> float:
        return self.delta

    def value(self, sigma, omega):
        return jackson_eval(sigma, omega, self)

    def outside(self, delta: float, omega0: np.ndarray) -> np.ndarray:
        # The window is translation covariant in u = (sigma - omega)/2 and even
        # in u, so the tail fraction is a single number: the profile mass at
        # u > delta/2 relative to the mass on [0, 1], both exact integrals of
        # the profile polynomial.
        p = _jackson_profile_coeffs(self.k, self.degree, self.delta)
        tail_fraction = _mass_above(p, min(delta / 2.0, 1.0)) / _mass_above(p, 0.0)
        return np.full(omega0.size, tail_fraction)


KernelSpec = FejerKernel | QubitizedFejerKernel | GaussianKernel | JacksonKernel

# ---------------------------------------------------------------------------
# Fejer family


def fejer_grid(n: int) -> np.ndarray:
    """Outcome grid sigma_q = 2q/n - 1 for q = 0..n-1."""
    _check_grid_size(n)
    # one array, formed in place; q (2/n) is exact for a power of two n
    return np.linspace(-1.0, 1.0, n, endpoint=False)


def fejer_eval(sigma, omega, n: int):
    """Fejer kernel ``(1/n^2) sin^2(n pi d / 2) / sin^2(pi d / 2)``, d = sigma - omega.

    Periodic in ``d`` with period 2, with the removable singularity at
    d = 0 (mod 2) filled in by its limit 1.  Evaluated through the
    numerically stable form ``(sinc(n dt) / sinc(dt))^2`` where ``dt`` is
    ``d/2`` wrapped into [-1/2, 1/2].
    """
    _check_grid_size(n)
    d = (np.asarray(sigma, dtype=float) - np.asarray(omega, dtype=float)) / 2.0
    d = d - np.round(d)
    ratio = np.sinc(n * d) / np.sinc(d)
    return ratio * ratio


def fejer_plan(target: AccuracyTarget) -> FejerKernel:
    """Smallest power-of-two grid achieving (sigma, delta) spectral accuracy.

    The tail mass of the Fejer kernel beyond a circular distance `delta`
    is below ``1/(n delta - 2)``, so ``n >= (1/delta)(1/sigma + 2)``
    suffices; the returned size rounds that up to a power of two.
    """
    return FejerKernel._planned((1.0 / target.delta) * (1.0 / target.sigma + 2.0))


# ---------------------------------------------------------------------------
# Qubitized Fejer family


def delta_theta(delta: float) -> float:
    """Arc resolution sqrt(1 + delta) - 1 induced by resolution `delta` in cos(theta).

    Computed as ``delta / (sqrt(1 + delta) + 1)`` to avoid cancellation
    for small `delta`.
    """
    if delta <= 0.0:
        raise ValidationError(f"delta must be positive, got {delta!r}")
    return delta / (math.sqrt(1.0 + delta) + 1.0)


def qubitized_fejer_eval(sigma, omega, n: int):
    """Folded kernel ``[K_F(sigma, t) + K_F(sigma, -t)] / 2`` with ``t = arccos(omega)/pi``.

    `omega` must lie in [-1, 1] (a tolerance of 1e-12 is forgiven and
    clipped).  The folding makes the kernel an even function of theta, as
    produced by a walk operator whose two rotation branches are mirror
    images.
    """
    _check_grid_size(n)
    om = np.asarray(omega, dtype=float)
    if np.any(np.abs(om) > 1.0 + 1e-12):
        raise ValidationError("omega must lie in [-1, 1] for the folded kernel")
    t = np.arccos(np.clip(om, -1.0, 1.0)) / np.pi
    return 0.5 * (fejer_eval(sigma, t, n) + fejer_eval(sigma, -t, n))


def qubitized_fejer_plan(target: AccuracyTarget) -> QubitizedFejerKernel:
    """Grid size for the folded kernel at a (sigma, delta) target.

    Resolving `delta` in the spectrum requires resolving
    ``delta_theta(delta)`` on the arc, and the factor-of-two folding
    doubles the constant: ``n >= (2/delta_theta)(1/sigma + 2)``.
    """
    return QubitizedFejerKernel._planned((2.0 / delta_theta(target.delta)) * (1.0 / target.sigma + 2.0))


def recovered_frequency(sigma):
    """Map a grid outcome back to a frequency estimate, ``cos(pi sigma)``."""
    return np.cos(np.pi * np.asarray(sigma, dtype=float))


# ---------------------------------------------------------------------------
# Gaussian family


def gaussian_eval(sigma, omega, lam: float):
    """Normalized Gaussian profile of width `lam` centered at `omega`.

    ``exp`` runs only where the exponent is at least -746: below, the
    result is exactly 0.0 anyway, and ``exp`` is up to 100 times slower
    on arguments whose result underflows or is subnormal.
    """
    if not (lam > 0.0):
        raise ValidationError(f"lam must be positive, got {lam!r}")
    g = np.asarray(np.asarray(sigma, dtype=float) - np.asarray(omega, dtype=float))
    with np.errstate(over="ignore"):  # an exponent overflowed to -inf is below -746 too
        g *= g
        g /= -2.0 * lam * lam
    under = g < -746.0
    np.exp(g, out=g, where=~under)
    g[under] = 0.0
    g /= math.sqrt(2.0 * math.pi) * lam
    return g[()]


def gaussian_resolution(target: AccuracyTarget) -> float:
    """Width ``lam = delta / sqrt(2 ln(1/sigma))`` meeting the leakage target.

    With this width the mass of the Gaussian outside ``+-delta`` equals
    ``erfc(sqrt(ln(1/sigma)))`` which is below `sigma` for every sigma in
    (0, 1); the inequality is asserted as a safety net.
    """
    lam = target.delta / math.sqrt(2.0 * math.log(1.0 / target.sigma))
    inside = math.erf(target.delta / (math.sqrt(2.0) * lam))
    if inside < (1.0 - target.sigma) * (1.0 - 1e-12):
        raise OutOfRegimeError(
            f"gaussian width {lam} fails the leakage condition at sigma={target.sigma}"
        )
    return lam


def gaussian_tail_mass(delta: float, lam: float) -> float:
    """Closed-form Gaussian mass outside ``+-delta``: ``1 - erf(delta / (sqrt(2) lam))``."""
    if delta <= 0.0 or lam <= 0.0:
        raise ValidationError("delta and lam must be positive")
    return 1.0 - math.erf(delta / (math.sqrt(2.0) * lam))


# ---------------------------------------------------------------------------
# Jackson family


def jackson_tent(x, delta: float):
    """Tent target: 1 at x = 0, falling linearly to -1 at |x| = delta, -1 beyond."""
    if not (0.0 < delta <= 1.0):
        raise ValidationError(f"delta must lie in (0, 1], got {delta!r}")
    ax = np.abs(np.asarray(x, dtype=float))
    return np.where(ax <= delta, 1.0 - 2.0 * ax / delta, -1.0)


def jackson_damping(degree: int) -> np.ndarray:
    """Jackson damping factors g_0..g_degree for a degree-`degree` series."""
    if degree < 1:
        raise ValidationError("degree must be >= 1")
    big = degree + 1
    k = np.arange(degree + 1)
    return ((big - k) * np.cos(np.pi * k / big) + np.sin(np.pi * k / big) / np.tan(np.pi / big)) / big


def _fft_size(n: int) -> int:
    """Smallest ``2^a 3^b 5^c >= n``.

    numpy's FFT falls back to slow generic or Bluestein passes on other
    lengths: a large prime factor in the window degree tripled both the
    time and the memory of a profile build.
    """
    best = next_pow2(n)
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def jackson_coeffs(degree: int, delta: float) -> np.ndarray:
    """Chebyshev coefficients of the Jackson-damped tent approximation.

    Gauss-Chebyshev projection of the tent on the ``m = max(4096, 4
    (degree + 1))`` roots of T_m, computed as one DCT-II in O(m log m)
    time and O(m) memory, then damped.  Raises
    :class:`ResourceLimitError` before allocating when m exceeds
    ``GRID_CAP``.
    """
    m = max(4096, 4 * (degree + 1))
    _check_cells(m, "projection nodes of the Jackson window")
    return cheb_series_coeffs(jackson_tent(cheb_nodes(m), delta), degree) * jackson_damping(degree)


def jackson_approx(x, degree: int, delta: float):
    """Evaluate the damped polynomial approximation J_degree of the tent."""
    return cheb_eval(x, jackson_coeffs(degree, delta))


def jackson_tent_error(degree: int, delta: float, gridsize: int = 10001) -> float:
    """Max |J_degree - tent| on a uniform grid over [-1, 1].

    With ``degree >= ceil(24 / delta)`` the error stays below 1/4, which
    is what the amplification stage needs.
    """
    x = np.linspace(-1.0, 1.0, gridsize)
    return float(np.max(np.abs(jackson_approx(x, degree, delta) - jackson_tent(x, delta))))


def _normal_cdf(y):
    z = np.asarray(y, dtype=float) / math.sqrt(2.0)
    erf = np.array([math.erf(v) for v in z.ravel().tolist()]).reshape(z.shape)
    return 0.5 * (1.0 + erf)


def amplifier_coeffs(k: int) -> tuple[np.ndarray, float]:
    """Chebyshev-interpolated sigmoid amplifier of degree `k`, with its threshold tau.

    The target is a normal CDF ramp centered at y0 = -0.2, scaled to run
    from tau/4 up to 1 - tau/4 with tau = exp(-k/6), and of width
    ``(3/5 - |y0|) / sqrt(2 ln(4 / tau))``.  The off-center ramp keeps
    the plateau average low enough for the normalization to respect its
    analytic bounds.  The interpolant at the k + 1 roots of T_{k+1}
    (:func:`cheb_series_coeffs` at degree k) is checked once against
    the contract on a dense grid: it passes at every k up to 207.  Raises
    :class:`OutOfRegimeError` where it fails: from k = 208 on, tau falls
    to the rounding of a degree-k evaluation.
    """
    if k < 1:
        raise ValidationError("amplifier degree must be >= 1")
    tau = math.exp(-k / 6.0)
    y0 = -0.2
    width = (0.6 - abs(y0)) / math.sqrt(2.0 * math.log(4.0 / tau))
    ramp = tau / 4.0 + (1.0 - tau / 2.0) * _normal_cdf((cheb_nodes(k + 1) - y0) / width)
    coeffs = cheb_series_coeffs(ramp, k)
    if not amplifier_contract_check(coeffs, k, tau)["ok"]:
        raise OutOfRegimeError(
            f"no contract-satisfying amplifier at degree {k}: its threshold tau = {tau:.3g} "
            f"is below the rounding of a degree-{k} evaluation")
    return coeffs, tau


def amplifier_contract_check(coeffs: np.ndarray, k: int, tau: float, gridsize: int = 4001) -> dict:
    """Verify the amplifier contract on a dense grid.

    Contract: polynomial degree <= k, |A| <= 1 on [-1, 1], A >= 1 - tau
    on [3/5, 1], and A <= tau on [-1, -3/5].  Returns the measured
    margins together with an overall boolean.
    """
    if len(coeffs) > k + 1:
        return {"ok": False, "reason": "degree too high"}
    y = np.linspace(-1.0, 1.0, gridsize)
    a = cheb_eval(y, coeffs)
    max_abs = float(np.max(np.abs(a)))
    hi = a[y >= 0.6]
    lo = a[y <= -0.6]
    min_hi = float(np.min(hi))
    max_lo = float(np.max(lo))
    ok = max_abs <= 1.0 and min_hi >= 1.0 - tau and max_lo <= tau
    return {"ok": ok, "max_abs": max_abs, "min_high": min_hi, "max_low": max_lo, "tau": tau}


def _jackson_profile_coeffs(k: int, degree: int, delta: float) -> np.ndarray:
    """Chebyshev coefficients p_0..p_N of the profile ``A_k((4/5) J(u))``, N = k * degree.

    The profile is a polynomial of degree N, so it is held exactly, up
    to rounding.  J is even, so ``J(x) = sum_j J_2j T_j(2x^2 - 1)`` and
    the profile is a polynomial of degree N/2 in ``y = 2x^2 - 1``.
    :func:`dct3` of J's even coefficients gives J at the m roots of T_m
    in y, with m the smallest FFT-fast size > N/2; A_k is applied there
    by Clenshaw, and :func:`cheb_series_coeffs` projects the samples onto
    the even coefficients p_2j, exactly since the m-point rule
    integrates degree 2m - 1 >= N; the odd ones vanish.  O(N log N) time
    and O(N) memory; raises :class:`ResourceLimitError` before
    allocating when N + 1 exceeds ``GRID_CAP``.
    """
    n = k * degree
    _check_cells(n + 1, "profile coefficients of the Jackson window")
    amp, _ = amplifier_coeffs(k)
    m = _fft_size(n // 2 + 1)
    samples = cheb_eval(0.8 * dct3(jackson_coeffs(degree, delta)[::2], m), amp)
    p = np.zeros(n + 1)
    p[::2] = cheb_series_coeffs(samples, n // 2)
    return p


def _mass_above(p: np.ndarray, a: float) -> float:
    """Integral over [a, 1] of the Chebyshev series with coefficients `p`.

    The antiderivative has coefficients ``(q_{n-1} - p_{n+1}) / (2n)``
    for n >= 1, where q is p with ``q_0 = 2 p_0``, and ``T_n(1) = 1``,
    ``T_n(a) = cos(n arccos a)``.
    """
    n = np.arange(1, p.size + 1)
    lower = np.concatenate(([2.0 * p[0]], p[1:]))
    upper = np.concatenate((p[2:], [0.0, 0.0]))
    return float(((lower - upper) / (2.0 * n)) @ (1.0 - np.cos(n * math.acos(a))))


def jackson_normalization(k: int, degree: int, delta: float) -> float:
    """Normalization 1 / integral of ``A_k((4/5) J(u))`` for u in [-1, 1].

    The profile is a polynomial with Chebyshev coefficients p, so its
    integral is exact: :func:`_mass_above` at ``a = -1``.
    """
    total = _mass_above(_jackson_profile_coeffs(k, degree, delta), -1.0)
    if not (total > 0.0):
        raise ValidationError("window integral is not positive; amplifier contract violated")
    return 1.0 / total


@dataclass(frozen=True)
class JacksonPlan:
    """Planner output for the amplified Jackson window.

    `delta` is the window half-width in the folded variable
    ``u = (sigma - omega)/2``, `degree` the tent-approximation degree and
    `k` the amplifier degree.  When the target is loose enough that
    ``tau >= 1`` the windowing machinery is unnecessary; the plan then
    carries ``k = 0`` and ``kernel = None``.
    """

    delta: float
    degree: int
    k: int
    tau: float
    d_min: float
    kn_ok: bool
    kernel: JacksonKernel | None
    norm_lower: float | None = None
    norm_upper: float | None = None


def jackson_thresholds(sigma: float, delta: float) -> tuple[float, float]:
    """Amplifier threshold and combined-degree floor for a leakage target.

    ``tau = sigma/(1-sigma) * delta/(2-delta)`` is the largest amplifier
    threshold for which the idealized window leaks at most `sigma`, and
    ``d_min = (288/delta) ln(1/tau)`` is the implied lower bound on the
    product of amplifier and window degrees.  From the degenerate boundary
    ``tau = 1`` on the floor is 0: any window satisfies the target.
    """
    if not (0.0 < sigma < 1.0):
        raise ValidationError(f"sigma must lie in (0, 1), got {sigma!r}")
    if not (0.0 < delta < 2.0):
        raise ValidationError(f"delta must lie in (0, 2), got {delta!r}")
    tau = sigma / (1.0 - sigma) * delta / (2.0 - delta)
    return tau, max(0.0, (288.0 / delta) * math.log(1.0 / tau))


def jackson_plan(target: AccuracyTarget) -> JacksonPlan:
    """Plan window and amplifier degrees for a (sigma, delta) target.

    The window half-width is ``delta/2`` in the variable ``u = (sigma -
    omega)/2``; the tent approximation uses ``degree = ceil(24 / (delta/2))``
    and the amplifier threshold and degree floor come from
    :func:`jackson_thresholds`, with ``k = ceil(6 ln(1/tau))``.  `kn_ok`
    records whether ``k * degree`` meets the floor.  Analytic bounds on
    the normalization are included when available (the upper bound needs
    ``tau < 5/8``).  A threshold ``tau >= 1`` is a degenerate target: the
    plan reports it with ``kernel = None`` rather than raising.
    """
    sig, dlt = target.sigma, target.delta
    half = dlt / 2.0
    degree = math.ceil(24.0 / half)
    tau, d_min = jackson_thresholds(sig, dlt)
    if tau >= 1.0:
        return JacksonPlan(
            delta=half,
            degree=degree,
            k=0,
            tau=tau,
            d_min=d_min,
            kn_ok=True,
            kernel=None,
        )
    k = max(1, math.ceil(6.0 * math.log(1.0 / tau)))
    # the profile is built only where a kernel's normalization is read; its
    # cap and the amplifier's contract are checked here all the same
    _check_cells(k * degree + 1, "profile coefficients of the Jackson window")
    amplifier_coeffs(k)
    lower = 1.0 / (2.0 * half + tau * (2.0 - 2.0 * half))
    upper = 4.0 / (half * (5.0 - 8.0 * tau)) if tau < 5.0 / 8.0 else None
    kernel = JacksonKernel(k=k, degree=degree, delta=half)
    return JacksonPlan(
        delta=half,
        degree=degree,
        k=k,
        tau=tau,
        d_min=d_min,
        kn_ok=(k * degree >= d_min),
        kernel=kernel,
        norm_lower=lower,
        norm_upper=upper,
    )


def jackson_eval(sigma, omega, kernel: JacksonKernel):
    """Evaluate the amplified window at (sigma, omega), where |sigma - omega| <= 2 (to 2e-12)."""
    u = (np.asarray(sigma, dtype=float) - np.asarray(omega, dtype=float)) / 2.0
    if np.any(np.abs(u) > 1.0 + 1e-12):
        raise ValidationError(f"the Jackson window needs |sigma - omega| <= 2, got {2.0 * np.max(np.abs(u)):g}")
    amp, _ = amplifier_coeffs(kernel.k)
    return kernel.normalization * cheb_eval(0.8 * jackson_approx(u, kernel.degree, kernel.delta), amp)


# ---------------------------------------------------------------------------
# Tail-mass measurement


@dataclass
class SigmaAccuracy:
    """Measured spectral leakage of a kernel.

    `outside[i]` is the kernel mass farther than `delta` from
    `omega0[i]`, and `value` is the worst case over the scan.
    """

    delta: float
    spacing: float
    omega0: np.ndarray
    outside: np.ndarray
    value: float = field(init=False)

    def __post_init__(self):
        self.value = float(np.max(self.outside)) if self.outside.size else math.nan


def grid_spacing(delta: float, spacing: float | None = None) -> float:
    """Spacing of the evaluation grids at resolution `delta`: `spacing`, default ``delta / 20``.

    Raises :class:`ValidationError` unless it is finite and positive, and
    :class:`ResourceLimitError` when 2/h + 1 points exceed ``GRID_CAP``.
    """
    h = delta / 20.0 if spacing is None else float(spacing)
    if not (0.0 < h < math.inf):
        raise ValidationError(f"grid spacing must be finite and positive, got {h!r}")
    _check_cells(2.0 / h + 1.0, "points of the evaluation grid over [-1, 1]")
    return h


def evaluation_grid(h: float) -> np.ndarray:
    """Uniform frequencies from -1 to 1 at spacing at most `h`, at least three of them."""
    return np.linspace(-1.0, 1.0, max(2, math.ceil(2.0 / h)) + 1)


def sigma_accuracy(kernel: KernelSpec, delta: float, spacing: float | None = None) -> SigmaAccuracy:
    """Measure the worst-case kernel mass escaping a ``+-delta`` window.

    The scan runs omega0 from ``kernel.scan_start`` (-1, or 0 for the
    folded family, whose spectra are shifted into [0, 1]) to 1 with the
    given spacing, default ``delta / 20``.  Distances are circular for the
    Fejer family, match the frequency-recovery criterion ``|cos(pi sigma)
    - omega0| <= delta/2`` for the folded family, and are plain euclidean
    for the continuous families.
    """
    if delta <= 0.0:
        raise ValidationError("delta must be positive")
    h = grid_spacing(delta, spacing)
    omega0 = np.arange(kernel.scan_start, 1.0 + h / 2.0, h)
    return SigmaAccuracy(delta=delta, spacing=h, omega0=omega0, outside=kernel.outside(delta, omega0))
