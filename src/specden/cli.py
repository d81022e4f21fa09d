"""Command-line workbench for planning, running, and verifying estimates.

Subcommands:

* ``plan``: print the planner outputs (grid sizes, expansion orders,
  sample budgets, fault tolerances) for a target.
* ``transform``: evaluate the exact broadened transform of a model.
* ``estimate``: run an estimation pipeline and write the transform CSV
  plus a run-record JSON.
* ``verify``: run the Monte Carlo accuracy-contract check and the
  faulty-evolution bound sweep, writing a JSON report.
* ``bench``: write the resource-comparison table and the planner
  scaling sweeps with log-log fits.

Configuration comes from flags or from a plain ``key=value`` file given
with ``--config`` (flags win on conflict).  Every run is deterministic
given its configuration: the seed is always explicit, output files
carry no timestamps, and floats are printed with round-trip precision.
Each output file starts with a comment header recording the artifact
version and a hash of the resolved configuration.

Exit codes: 0 success, 2 invalid configuration or input, 3 target out
of the supported regime, 4 resource cap exceeded, 5 file I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .chebgauss import coefficient_table, truncation_order
from .errors import (
    OutOfRegimeError,
    ResourceLimitError,
    SpecdenError,
    ValidationError,
)
from .estimators import (
    CONTRACT_GRID,
    Budget,
    complexity_table,
    plan_fejer_samples,
    plan_git_samples,
    run_algorithm1,
    run_algorithm2,
)
from .kernels import (
    GRID_CAP,
    AccuracyTarget,
    GaussianKernel,
    delta_theta,
    fejer_plan,
    gaussian_resolution,
    jackson_plan,
    qubitized_fejer_plan,
)
from .metrics import (
    AccuracyReport,
    merge_reports,
    observable_bound_empirical_check,
    scaling_fit,
)
from .numerics import derive_seed, fmt_float
from .operators import (
    AffineMap,
    HermitianOperator,
    ObservableFn,
    ProbeState,
    TransformGrid,
    diagonalize,
    exact_transform,
    normalize_operator,
    random_model,
    read_model_file,
)
from .sampling import (
    MEMORY_CAP,
    FaultModel,
    qpe_distribution,
    qubitized_qpe_distribution,
    statevector_qpe,
)

__all__ = ["RunConfig", "main"]

_METHODS = ("fejer", "qfejer", "git", "jackson")
_UNIT_SHIFT = AffineMap(0.5, 0.5)


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one CLI invocation."""

    command: str
    method: str | None = None
    sigma: float | None = None
    delta: float | None = None
    beta: float = 0.1
    eta: float = 0.05
    seed: int | None = None
    trials: int = 20
    grid_spacing: float | None = None
    model: str | None = None
    gen: str | None = None
    out: str = "."
    workers: int | None = None
    nu: float | None = None
    samples: int | None = None

    def target(self) -> AccuracyTarget:
        if self.sigma is None or self.delta is None:
            raise ValidationError(f"'{self.command}' needs --sigma and --delta")
        return AccuracyTarget(
            sigma=self.sigma, delta=self.delta, beta=self.beta, eta=self.eta
        )

    def require_seed(self) -> int:
        if self.seed is None:
            raise ValidationError(
                f"'{self.command}' needs an explicit --seed (no wall-clock default)"
            )
        return self.seed

    def hash(self) -> str:
        """Hash of the data-defining configuration.

        Excludes the output directory and worker count, which influence
        where and how fast results are produced but not their bytes.
        """
        items = sorted(
            (k, v)
            for k, v in asdict(self).items()
            if v is not None and k not in ("out", "workers")
        )
        blob = "\n".join(f"{k}={v}" for k, v in items)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


_FLOAT_KEYS = ("sigma", "delta", "beta", "eta", "grid_spacing", "nu")
_INT_KEYS = ("seed", "trials", "workers", "samples")
_STR_KEYS = ("method", "model", "gen", "out")


def _read_config_file(path: str) -> dict:
    out: dict = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        try:
            if key in _FLOAT_KEYS:
                out[key] = float(value)
            elif key in _INT_KEYS:
                out[key] = int(value)
            elif key in _STR_KEYS:
                out[key] = value
            else:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specden",
        description="Spectral density estimation workbench",
    )
    parser.add_argument("--version", action="version", version=f"specden {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("plan", "print planner outputs for an accuracy target"),
        ("transform", "evaluate the exact broadened transform of a model"),
        ("estimate", "run an estimation pipeline and write its outputs"),
        ("verify", "run the accuracy-contract and fault-bound checks"),
        ("bench", "write the resource table and scaling sweeps"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", help="key=value config file; flags win on conflict")
        sp.add_argument(
            "--method",
            choices=sorted(_METHODS + ("all",)),
            help="kernel family (default all for plan/verify)",
        )
        sp.add_argument("--sigma", type=float, help="kernel tail mass bound in (0, 1)")
        sp.add_argument("--delta", type=float, help="frequency resolution in (0, 1)")
        sp.add_argument("--beta", type=float, help="sup-norm accuracy of the estimate")
        sp.add_argument("--eta", type=float, help="confidence complement in (0, 1)")
        sp.add_argument("--seed", type=int, help="base seed (required when sampling)")
        sp.add_argument("--trials", type=int, help="Monte Carlo trials for verify")
        sp.add_argument("--grid-spacing", type=float, help="evaluation grid spacing")
        sp.add_argument("--model", help="model file (dim header, matrix rows, probe row)")
        sp.add_argument("--gen", help="model generator spec kind:dim[:k=v,...]")
        sp.add_argument("--out", help="output directory (default .)")
        sp.add_argument("--workers", type=int, help="parallel trial workers")
        sp.add_argument("--nu", type=float, help="single evaluation frequency")
        sp.add_argument("--samples", type=int, help="override the planned sample count")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(_read_config_file(args.config))
    for key in _FLOAT_KEYS + _INT_KEYS + _STR_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    cfg = RunConfig(command=args.command, **values)
    if cfg.method is not None and cfg.method not in _METHODS + ("all",):
        raise ValidationError(f"unknown method {cfg.method!r}")
    if cfg.trials < 1:
        raise ValidationError("trials must be >= 1")
    if cfg.workers is not None and cfg.workers < 1:
        raise ValidationError("workers must be >= 1")
    if cfg.samples is not None and cfg.samples < 1:
        raise ValidationError("samples must be >= 1")
    return cfg


def _parse_gen(spec: str) -> tuple[str, int, int, dict]:
    parts = spec.split(":")
    if len(parts) < 2:
        raise ValidationError(f"generator spec needs kind:dim, got {spec!r}")
    kind = parts[0]
    try:
        dim = int(parts[1])
    except ValueError as exc:
        raise ValidationError(f"bad dimension in generator spec {spec!r}") from exc
    count = 1
    params: dict = {}
    for chunk in parts[2:]:
        for item in chunk.split(","):
            if not item:
                continue
            if "=" not in item:
                raise ValidationError(f"bad generator parameter {item!r} in {spec!r}")
            key, value = item.split("=", 1)
            try:
                if key == "count":
                    count = int(value)
                elif key in ("gap", "ground_weight"):
                    params[key] = float(value)
                else:
                    raise ValidationError(f"unknown generator parameter {key!r}")
            except ValueError as exc:
                raise ValidationError(f"bad value for {key!r}: {value!r}") from exc
    if count < 1:
        raise ValidationError("generator count must be >= 1")
    return kind, dim, count, params


def _load_pairs(cfg: RunConfig) -> list[tuple[HermitianOperator, ProbeState, AffineMap]]:
    """Load or generate (operator, probe) pairs, normalized into [-1, 1]."""
    if cfg.model and cfg.gen:
        raise ValidationError("give either --model or --gen, not both")
    if cfg.model:
        pairs = [read_model_file(cfg.model)]
    elif cfg.gen:
        kind, dim, count, params = _parse_gen(cfg.gen)
        seed = cfg.require_seed()
        pairs = [
            random_model(dim, derive_seed(seed, 500 + i), kind, **params)
            for i in range(count)
        ]
    else:
        raise ValidationError(f"'{cfg.command}' needs --model or --gen")
    out = []
    for op, psi in pairs:
        norm_op, amap = normalize_operator(op, "full")
        out.append((norm_op, psi, amap))
    return out


def _out_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _header_pairs(cfg: RunConfig, extra: list[tuple[str, object]] | None = None):
    pairs: list[tuple[str, object]] = [
        ("specden", cfg.command),
        ("version", __version__),
        ("config", cfg.hash()),
    ]
    if extra:
        pairs.extend(extra)
    return pairs


def _write_csv(path: Path, header, columns, rows) -> None:
    lines = [f"# {k}: {v}" for k, v in header]
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(fmt_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _methods(cfg: RunConfig, allowed: tuple[str, ...], default: str) -> list[str]:
    raw = cfg.method if cfg.method is not None else default
    # "all" names every allowed method only for the commands that default to it.
    names = list(allowed) if raw == default == "all" else [raw]
    for name in names:
        if name not in allowed:
            raise ValidationError(
                f"'{cfg.command}' supports methods {allowed}, got {name!r}"
            )
    return names


def _grid_spacing(cfg: RunConfig, target: AccuracyTarget) -> float:
    """Evaluation grid spacing, checked against `GRID_CAP` before any grid exists."""
    h = cfg.grid_spacing if cfg.grid_spacing is not None else target.delta / 20.0
    if not (h > 0.0):
        raise ValidationError("grid spacing must be positive")
    if 2.0 / h + 1.0 > GRID_CAP:
        raise ResourceLimitError(
            f"grid spacing {h:g} needs more than {GRID_CAP} points over [-1, 1]; "
            "loosen --grid-spacing or delta"
        )
    return h


def _nu_grid(cfg: RunConfig, target: AccuracyTarget) -> np.ndarray:
    if cfg.nu is not None:
        return np.array([cfg.nu])
    h = _grid_spacing(cfg, target)
    return np.linspace(-1.0, 1.0, max(2, math.ceil(2.0 / h)) + 1)


def _plan_rows(cfg: RunConfig, target: AccuracyTarget) -> list[dict]:
    rows: list[dict] = []
    for name in _methods(cfg, _METHODS, "all"):
        if name == "fejer":
            kern = fejer_plan(target)
            n_faulty, dt = plan_fejer_samples(
                target.beta, target.eta, faulty=True, n=kern.n
            )
            rows.append(
                {
                    "method": "fejer",
                    "grid_size": kern.n,
                    "n_samples": plan_fejer_samples(target.beta, target.eta),
                    "n_samples_faulty": n_faulty,
                    "delta_t": dt,
                }
            )
        elif name == "qfejer":
            kern = qubitized_fejer_plan(target)
            rows.append(
                {
                    "method": "qfejer",
                    "grid_size": kern.n,
                    "delta_theta": delta_theta(target.delta),
                    "n_samples": plan_fejer_samples(target.beta, target.eta),
                }
            )
        elif name == "git":
            budget = truncation_order(target)
            table = coefficient_table(budget.lam, CONTRACT_GRID, budget.L)
            per_order, total, loose = plan_git_samples(
                budget.L, table, target.beta, target.eta
            )
            rows.append(
                {
                    "method": "git",
                    "order": budget.L,
                    "lam": budget.lam,
                    "regime": budget.regime,
                    "truncation_bound": budget.bound,
                    "bound_ok": budget.bound_ok,
                    "per_order_shots": per_order,
                    "n_samples": total,
                    "n_samples_loose": loose,
                }
            )
        else:
            plan = jackson_plan(target)
            row = {
                "method": "jackson",
                "degree": plan.degree,
                "amplifier_degree": plan.k,
                "tau": plan.tau,
                "d_min": plan.d_min,
                "kn_ok": plan.kn_ok,
            }
            if plan.norm_lower is not None:
                row["norm_lower"] = plan.norm_lower
            if plan.norm_upper is not None:
                row["norm_upper"] = plan.norm_upper
            if plan.kernel is None:
                row["degenerate"] = True
            rows.append(row)
    return rows


def _cmd_plan(cfg: RunConfig) -> int:
    target = cfg.target()
    rows = _plan_rows(cfg, target)
    for row in rows:
        text = ", ".join(
            f"{k}={fmt_float(v) if isinstance(v, float) else v}"
            for k, v in row.items()
            if k != "method"
        )
        print(f"{row['method']}: {text}")
    if cfg.out != ".":
        out = _out_dir(cfg)
        _write_json(
            out / "plan.json",
            {
                "version": __version__,
                "config": cfg.hash(),
                "target": asdict(target),
                "plans": rows,
            },
        )
        print(f"wrote {out / 'plan.json'}")
    return 0


def _cmd_transform(cfg: RunConfig) -> int:
    target = cfg.target()
    (name,) = _methods(cfg, _METHODS, "fejer")
    op, psi, amap = _load_pairs(cfg)[0]
    model = diagonalize(op, psi)
    if name in ("fejer", "qfejer"):
        if name == "fejer":
            kern = fejer_plan(target)
            dist = qpe_distribution(model, kern.n)
        else:
            kern = qubitized_fejer_plan(target)
            dist = qubitized_qpe_distribution(model.mapped(_UNIT_SHIFT), kern.n)
        grid = TransformGrid(dist.grid, dist.probs, kind=kern.kind, kernel=kern)
    elif name == "git":
        lam = gaussian_resolution(target)
        grid = exact_transform(model, GaussianKernel(lam), _nu_grid(cfg, target))
    else:
        plan = jackson_plan(target)
        if plan.kernel is None:
            raise ValidationError(
                "the window construction degenerates at this target (tau >= 1)"
            )
        grid = exact_transform(model, plan.kernel, _nu_grid(cfg, target))
    out = _out_dir(cfg)
    path = out / "transform.csv"
    header = _header_pairs(
        cfg,
        [("method", name), ("kind", grid.kind), ("spectrum_scale", fmt_float(amap.scale))],
    )
    _write_csv(path, header, ["frequency", "value"],
               list(zip(grid.frequencies.tolist(), grid.values.tolist())))
    print(f"wrote {path} ({grid.frequencies.size} rows)")
    return 0


def _cmd_estimate(cfg: RunConfig) -> int:
    target = cfg.target()
    seed = cfg.require_seed()
    (name,) = _methods(cfg, ("fejer", "qfejer", "git"), "fejer")
    op, psi, amap = _load_pairs(cfg)[0]
    model = diagonalize(op, psi)
    if name in ("fejer", "qfejer"):
        if name == "fejer":
            kernel = fejer_plan(target)
            spectrum_map = None
        else:
            kernel = qubitized_fejer_plan(target)
            spectrum_map = _UNIT_SHIFT
        n_samples = cfg.samples if cfg.samples is not None else plan_fejer_samples(
            target.beta, target.eta
        )
        budget = Budget(method=kernel.family, kernel_order=kernel.n, n_samples=n_samples)
        result = run_algorithm1(budget, seed, model, spectrum_map)
    else:
        per_order = None if cfg.samples is None else max(
            1, cfg.samples // truncation_order(target).L
        )
        result = run_algorithm2(
            model, target, _nu_grid(cfg, target), seed, per_order_shots=per_order
        )
    out = _out_dir(cfg)
    budget = result.budget
    header = _header_pairs(
        cfg,
        [
            ("method", name),
            ("kind", result.transform.kind),
            ("spectrum_scale", fmt_float(amap.scale)),
            ("kernel_order", budget.kernel_order),
            ("n_samples", budget.n_samples),
            ("seed", seed),
        ],
    )
    csv_path = out / "estimate.csv"
    _write_csv(
        csv_path,
        header,
        ["frequency", "value"],
        list(zip(result.transform.frequencies.tolist(), result.transform.values.tolist())),
    )
    record = {
        "version": __version__,
        "config": cfg.hash(),
        "method": name,
        "seed": seed,
        "budget": {k: v for k, v in asdict(budget).items() if v is not None},
        "elapsed_s": result.elapsed,
        "rows": int(result.transform.frequencies.size),
        "spectrum_scale": amap.scale,
    }
    json_path = out / "estimate_record.json"
    _write_json(json_path, record)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _obs_one(w):
    return np.ones_like(w)


def _obs_identity(w):
    return w


def _run_contract(
    cfg: RunConfig, target: AccuracyTarget, method: str, models, seed: int
) -> AccuracyReport:
    base, extra = divmod(cfg.trials, len(models))
    observables = [ObservableFn(_obs_one, "one"), ObservableFn(_obs_identity, "identity")]
    # one positional argument tuple of observable_bound_empirical_check per model
    tasks = [
        (model, method, observables, target, max(1, base + (i < extra)),
         derive_seed(seed, 100 + i), cfg.grid_spacing, cfg.samples)
        for i, model in enumerate(models)
    ]
    workers = cfg.workers if cfg.workers is not None else (os.cpu_count() or 1)
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(observable_bound_empirical_check, *zip(*tasks)))
    else:
        reports = [observable_bound_empirical_check(*task) for task in tasks]
    return merge_reports(reports, target.eta)


def _fault_sweep(
    cfg: RunConfig, target: AccuracyTarget, op: HermitianOperator, psi: ProbeState, seed: int
) -> list[dict]:
    planned_n = fejer_plan(target).n
    _, planned_dt = plan_fejer_samples(target.beta, target.eta, faulty=True, n=planned_n)
    # The statevector holds dim * n amplitudes: sweep on the largest grid that fits.
    n_ancilla = min(int(math.log2(planned_n)), (MEMORY_CAP // op.dim).bit_length() - 1)
    n = 2**n_ancilla
    if n < planned_n:
        print(
            f"fault sweep shrunk to n={n}: dim*n at the planned n={planned_n} "
            f"exceeds the cap {MEMORY_CAP}"
        )
    ideal = qpe_distribution(diagonalize(op, psi), n)
    realizations = min(cfg.trials, 20)
    rows = []
    for dt in sorted({1e-3, 1e-2, planned_dt}):
        worst = 0.0
        for r in range(realizations):
            fault = FaultModel(delta_t=dt, seed=derive_seed(seed, 700, r))
            noisy = statevector_qpe(op, psi, n_ancilla, fault=fault)
            worst = max(worst, float(np.max(np.abs(noisy.probs - ideal.probs))))
        bound = n_ancilla * dt
        rows.append(
            {
                "n": n,
                "delta_t": dt,
                "bound": bound,
                "measured": worst,
                "realizations": realizations,
                "ok": worst <= bound,
            }
        )
    return rows


def _cmd_verify(cfg: RunConfig) -> int:
    target = cfg.target()
    seed = cfg.require_seed()
    names = _methods(cfg, ("fejer", "git"), "all")
    _grid_spacing(cfg, target)  # fail before the contract builds its grids
    pairs = _load_pairs(cfg)
    models = [diagonalize(op, psi) for op, psi, _ in pairs]
    report_json: dict = {
        "version": __version__,
        "config": cfg.hash(),
        "target": asdict(target),
        "n_models": len(models),
        "reports": {},
    }
    overall = True
    for name in names:
        report = _run_contract(cfg, target, name, models, derive_seed(seed, 1 if name == "fejer" else 2))
        entry = asdict(report)
        entry["passed"] = report.passed()
        report_json["reports"][name] = entry
        overall = overall and report.passed()
        print(
            f"{name}: sigma'={report.measured_sigma:.4g} "
            f"delta_v={report.delta_v:.4g} confidence={report.empirical_confidence:.4g} "
            f"threshold={report.threshold:.4g} -> {'PASS' if report.passed() else 'FAIL'}"
        )
    if "fejer" in names:
        op, psi, _ = pairs[0]
        sweep = _fault_sweep(cfg, target, op, psi, derive_seed(seed, 3))
        report_json["fault_sweep"] = sweep
        overall = overall and all(row["ok"] for row in sweep)
        for row in sweep:
            print(
                f"fault: n={row['n']} delta_t={row['delta_t']:.4g} "
                f"measured={row['measured']:.4g} bound={row['bound']:.4g} "
                f"-> {'OK' if row['ok'] else 'VIOLATION'}"
            )
        out = _out_dir(cfg)
        _write_csv(
            out / "fault_sweep.csv",
            _header_pairs(cfg),
            ["n", "delta_t", "bound", "measured", "realizations", "ok"],
            [
                (r["n"], r["delta_t"], r["bound"], r["measured"], r["realizations"], r["ok"])
                for r in sweep
            ],
        )
    report_json["pass"] = overall
    out = _out_dir(cfg)
    path = out / "verify_report.json"
    _write_json(path, report_json)
    print(f"{'PASS' if overall else 'FAIL'}; wrote {path}")
    return 0


_SWEEPS = {
    "fejer_vs_inv_delta": dict(
        var="delta", lo=1e-4, hi=1e-1, points=25, sigma=0.1, beta=0.1
    ),
    "git_vs_inv_delta": dict(
        var="delta", lo=1e-4, hi=1e-1, points=25, sigma=0.1, beta=0.1
    ),
    "fejer_vs_inv_sigma": dict(
        var="sigma", lo=1e-4, hi=1e-2, points=17, delta=0.1, beta=0.1
    ),
    "git_vs_inv_beta": dict(
        var="beta", lo=1e-6, hi=1e-1, points=25, sigma=0.1, delta=0.1
    ),
}


def _sweep_points(name: str) -> tuple[np.ndarray, np.ndarray]:
    spec = _SWEEPS[name]
    values = np.logspace(math.log10(spec["lo"]), math.log10(spec["hi"]), spec["points"])
    xs = []
    ms = []
    for v in values:
        params = {
            "sigma": spec.get("sigma"),
            "delta": spec.get("delta"),
            "beta": spec.get("beta"),
        }
        params[spec["var"]] = float(v)
        target = AccuracyTarget(
            sigma=params["sigma"], delta=params["delta"], beta=params["beta"], eta=0.05
        )
        if name.startswith("fejer"):
            m = fejer_plan(target).n
        else:
            m = truncation_order(target).L
        xs.append(1.0 / v)
        ms.append(m)
    return np.asarray(xs), np.asarray(ms, dtype=float)


def _cmd_bench(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    deltas = [cfg.delta] if cfg.delta is not None else [0.1, 0.05, 0.01]
    epsilons = [cfg.sigma] if cfg.sigma is not None else [0.1, 0.05]
    rows = complexity_table(deltas, epsilons, eta=cfg.eta)
    _write_csv(
        out / "complexity.csv",
        _header_pairs(cfg),
        ["method", "delta", "eps", "kernel_order", "n_samples", "note"],
        [
            (r["method"], r["delta"], r["eps"], r["kernel_order"], r["n_samples"], r["note"])
            for r in rows
        ],
    )
    fit_header = list(_header_pairs(cfg))
    data_rows = []
    fits = {}
    for name in _SWEEPS:
        xs, ms = _sweep_points(name)
        exponent, intercept, r2 = scaling_fit(xs, ms)
        fits[name] = {"exponent": exponent, "intercept": intercept, "r2": r2}
        predicted = exponent * np.log(xs) + intercept
        residuals = np.log(ms) - predicted
        fit_header.append(
            (
                f"fit {name}",
                f"exponent={fmt_float(exponent)} intercept={fmt_float(intercept)} "
                f"r2={fmt_float(r2)}",
            )
        )
        data_rows.extend(
            (name, float(x), float(m), float(res))
            for x, m, res in zip(xs, ms, residuals)
        )
    _write_csv(
        out / "scaling.csv",
        fit_header,
        ["sweep", "x", "m", "fit_residual"],
        data_rows,
    )
    for name, fit in fits.items():
        print(
            f"{name}: exponent={fit['exponent']:.4f} r2={fit['r2']:.5f}"
        )
    print(f"wrote {out / 'complexity.csv'} and {out / 'scaling.csv'}")
    return 0


_DISPATCH = {
    "plan": _cmd_plan,
    "transform": _cmd_transform,
    "estimate": _cmd_estimate,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _DISPATCH[cfg.command](cfg)
    except ValidationError as exc:
        print(f"error: {exc}")
        return 2
    except OutOfRegimeError as exc:
        print(f"out of regime: {exc}")
        return 3
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}")
        return 4
    except SpecdenError as exc:
        print(f"error: {exc}")
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}")
        return 5


if __name__ == "__main__":
    sys.exit(main())
