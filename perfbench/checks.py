"""Correctness checks of the artifacts an op wrote.

Each check rejects missing, malformed or non-finite artifacts and
returns the SHA-256 of the artifact a re-run must reproduce.  Estimates
are compared with an exact reference built here from the op's
normalized model; plans with the stored values in ``expected_plans.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import chdtrc

from specden.kernels import AccuracyTarget, GaussianKernel, gaussian_resolution
from specden.numerics import derive_seed
from specden.operators import (
    SpectralModel,
    diagonalize,
    exact_transform,
    normalize_operator,
    random_model,
)

# CLI defaults for flags the ops leave unset.
DEFAULT_BETA = 0.1
DEFAULT_ETA = 0.05
# A GIT estimate this many times beta off its exact reference is wrong,
# not a missed accuracy contract (the published order misses by ~1.1x).
ERR_CEILING = 3.0
# A histogram fails when its chi-square p-value against the exact
# outcome distribution is below this; neighbouring bins are pooled until
# each pool expects at least POOL_COUNT samples.
P_VALUE_FLOOR = 1e-6
POOL_COUNT = 10.0
# Kernel cells per chunk of the reference distribution (16 MiB per array).
CHUNK_CELLS = 2**21
# Plan fields that are not integers, booleans or names must match the
# stored value to this relative tolerance.
PLAN_RTOL = 1e-9
EXPECTED_PLANS = Path(__file__).resolve().parent / "expected_plans.json"
# The artifact of each command that must be byte-identical across re-runs.
ARTIFACTS = {"estimate": "estimate.csv", "verify": "verify_report.json", "plan": "plan.json"}


class Invalid(Exception):
    """The op's artifacts are missing, malformed or wrong."""


@dataclass(frozen=True)
class Checked:
    digest: str
    err_over_beta: float | None = None
    verify_pass: bool | None = None


def check(op, out: Path) -> Checked:
    if op.command == "estimate":
        return _check_estimate(op, out)
    if op.command == "verify":
        return _check_verify(op, out)
    return _check_plan(op, out)


def digest(op, out: Path) -> str:
    return hashlib.sha256(_read(out / ARTIFACTS[op.command])).hexdigest()


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise Invalid(f"missing {path.name}") from exc


def _json(path: Path) -> dict:
    try:
        return json.loads(_read(path))
    except ValueError as exc:
        raise Invalid(f"{path.name} is not JSON") from exc


def _finite(name: str, value) -> None:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return
    if isinstance(value, dict):
        for key, item in value.items():
            _finite(f"{name}.{key}", item)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _finite(f"{name}[{i}]", item)
    elif not math.isfinite(value):
        raise Invalid(f"{name} is not finite")


def _read_csv(path: Path) -> tuple[bytes, dict, np.ndarray, np.ndarray]:
    raw = _read(path)
    lines = raw.decode().splitlines()
    header = {}
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition(": ")
        header[key] = value
        i += 1
    if i >= len(lines) or lines[i] != "frequency,value":
        raise Invalid(f"{path.name}: no 'frequency,value' column line")
    rows = [line.split(",") for line in lines[i + 1:]]
    if not rows or any(len(row) != 2 for row in rows):
        raise Invalid(f"{path.name}: rows must hold two cells")
    try:
        data = np.array(rows, dtype=float)
    except ValueError as exc:
        raise Invalid(f"{path.name}: unparsable number") from exc
    if not np.all(np.isfinite(data)):
        raise Invalid(f"{path.name}: non-finite value")
    return raw, header, data[:, 0], data[:, 1]


def _same_grid(got: np.ndarray, want: np.ndarray) -> None:
    if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-9:
        raise Invalid("estimate grid differs from the planned grid")


def _reference_model(op) -> SpectralModel:
    """The normalized model ``specden --gen kind:dim --seed s`` builds."""
    params = {} if op.ground_weight is None else {"ground_weight": op.ground_weight}
    op_, psi = random_model(op.dim, derive_seed(op.seed, 500), op.kind, **params)
    normalized, _ = normalize_operator(op_, "full")
    return diagonalize(normalized, psi)


def _outcome_probs(grid: np.ndarray, phases: np.ndarray, weights: np.ndarray, n: int):
    """sum_k weights[k] K(grid - phases[k]), K the Fejer kernel of order n.

    K(d) = sin^2(n x) / (n^2 sin^2 x) with x = pi d / 2, and 1 where
    sin x = 0.  sin x and sin(n x) of every (grid, phase) pair come from
    the angle-difference formula, so the chunks need products only.
    """
    a, b = 0.5 * np.pi * grid, 0.5 * np.pi * phases
    sa, ca, sna, cna = np.sin(a), np.cos(a), np.sin(n * a), np.cos(n * a)
    sb, cb, snb, cnb = np.sin(b), np.cos(b), np.sin(n * b), np.cos(n * b)
    probs = np.zeros(grid.size)
    step = max(1, CHUNK_CELLS // grid.size)
    for i in range(0, phases.size, step):
        k = slice(i, i + step)
        den = np.multiply.outer(sa, cb[k])
        den -= np.multiply.outer(ca, sb[k])
        den *= n
        num = np.multiply.outer(sna, cnb[k])
        num -= np.multiply.outer(cna, snb[k])
        peak = np.abs(den) < 1e-12
        den[peak] = 1.0
        num /= den
        num *= num
        num[peak] = 1.0
        probs += num @ weights[k]
    return probs


def _histogram_reference(method: str, model: SpectralModel, n: int):
    """Exact outcome grid and distribution of a fejer or qfejer histogram.

    fejer: outcomes 2q/n - 1, q = 0..n-1, each eigenvalue a Fejer peak.
    qfejer: each eigenvalue w, shifted to u = (w + 1) / 2, gives two mirror
    peaks at +-arccos(u) / pi; the outcomes +-2m/n are merged and reported
    at the frequency 2 cos(2 pi m / n) - 1, m = 0..n/2, in ascending order.
    """
    ev, w = model.eigenvalues, model.weights
    if method == "fejer":
        grid = 2.0 * np.arange(n) / n - 1.0
        return grid, _outcome_probs(grid, ev, w, n)
    theta = np.arccos(np.clip(0.5 * ev + 0.5, 0.0, 1.0)) / np.pi
    m = np.arange(n // 2 + 1)
    sigma = 2.0 * m / n
    # The folded distribution is even in sigma, so the merged pair is twice one side.
    probs = 0.5 * (_outcome_probs(sigma, theta, w, n) + _outcome_probs(sigma, -theta, w, n))
    probs[1:-1] *= 2.0
    return (2.0 * np.cos(np.pi * sigma) - 1.0)[::-1], probs[::-1]


def _fit_p_value(counts: np.ndarray, probs: np.ndarray) -> float:
    """Pearson chi-square p-value of `counts` drawn from `probs`, bins pooled."""
    expected = counts.sum() * probs / probs.sum()
    pooled_e, pooled_o = [], []
    e = o = 0.0
    for ei, oi in zip(expected.tolist(), counts.tolist()):
        e, o = e + ei, o + oi
        if e >= POOL_COUNT:
            pooled_e.append(e)
            pooled_o.append(o)
            e = o = 0.0
    if len(pooled_e) < 2:
        return 1.0
    pooled_e[-1] += e
    pooled_o[-1] += o
    pe, po = np.array(pooled_e), np.array(pooled_o)
    return float(chdtrc(pe.size - 1, np.sum((po - pe) ** 2 / pe)))


def _check_estimate(op, out: Path) -> Checked:
    raw, header, freqs, values = _read_csv(out / "estimate.csv")
    record = _json(out / "estimate_record.json")
    _finite("estimate_record", record)
    try:
        n = int(header["kernel_order"])
        n_samples = int(header["n_samples"])
        if record["rows"] != freqs.size or record["budget"]["kernel_order"] != n:
            raise Invalid("estimate_record.json disagrees with estimate.csv")
    except (KeyError, TypeError, ValueError) as exc:
        raise Invalid(f"estimate header or record lacks {exc}") from exc
    model = _reference_model(op)
    beta = op.beta if op.beta is not None else DEFAULT_BETA
    if op.method == "git":
        target = AccuracyTarget(sigma=op.sigma, delta=op.delta, beta=beta, eta=DEFAULT_ETA)
        grid = np.linspace(-1.0, 1.0, max(2, math.ceil(2.0 / (op.delta / 20.0))) + 1)
        _same_grid(freqs, grid)
        ref = exact_transform(model, GaussianKernel(gaussian_resolution(target)), grid).values
        err_over_beta = float(np.max(np.abs(values - ref))) / beta
        if err_over_beta > ERR_CEILING:
            raise Invalid(f"estimate is {err_over_beta:.3g} beta off the exact transform")
        return Checked(hashlib.sha256(raw).hexdigest(), err_over_beta=err_over_beta)
    counts = values * n_samples
    if np.min(values) < 0.0 or np.max(np.abs(counts - np.round(counts))) > 1e-6:
        raise Invalid("histogram values are not counts / n_samples")
    if abs(float(values.sum()) - 1.0) > 1e-9:
        raise Invalid("histogram does not sum to 1")
    grid, ref = _histogram_reference(op.method, model, n)
    _same_grid(freqs, grid)
    p_value = _fit_p_value(np.round(counts), ref)
    if p_value < P_VALUE_FLOOR:
        raise Invalid(f"histogram does not fit the exact distribution (p = {p_value:.3g})")
    return Checked(hashlib.sha256(raw).hexdigest(),
                   err_over_beta=float(np.max(np.abs(values - ref))) / beta)


def _check_verify(op, out: Path) -> Checked:
    report = _json(out / "verify_report.json")
    _finite("verify_report", report)
    try:
        verdict = report["pass"]
        entries = [report["reports"][m] for m in ("fejer", "git")]
        sweep = report["fault_sweep"]
    except (KeyError, TypeError) as exc:
        raise Invalid(f"verify_report.json lacks {exc}") from exc
    if not isinstance(verdict, bool) or not sweep:
        raise Invalid("verify_report.json has no verdict or fault sweep")
    for entry in entries:
        if not (entry.get("n_trials", 0) >= 1 and 0.0 <= entry["empirical_confidence"] <= 1.0):
            raise Invalid("verify_report.json has an impossible trial summary")
    return Checked(digest(op, out), verify_pass=verdict)


def _match(name: str, got, want) -> None:
    """Equal, except that floats may differ by PLAN_RTOL relative."""
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        for key in want:
            _match(f"{name}.{key}", got[key], want[key])
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            _match(f"{name}[{i}]", g, w)
    elif isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if not math.isclose(got, want, rel_tol=PLAN_RTOL):
            raise Invalid(f"{name} is {got!r}, expected {want!r}")
    elif type(got) is not type(want) or got != want:
        raise Invalid(f"{name} is {got!r}, expected {want!r}")


def _check_plan(op, out: Path) -> Checked:
    plan = _json(out / "plan.json")
    _finite("plan", plan)
    expected = json.loads(EXPECTED_PLANS.read_text()).get(f"{op.sigma!r},{op.delta!r}")
    if expected is None:
        raise Invalid(f"no stored plan for sigma={op.sigma!r}, delta={op.delta!r}")
    _match("plans", plan.get("plans"), expected)
    return Checked(digest(op, out))
