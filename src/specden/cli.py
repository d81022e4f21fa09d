"""Command-line workbench for planning, running, and verifying estimates.

Subcommands:

* ``plan``: print the planner outputs (grid sizes, expansion orders,
  sample budgets, fault tolerances) for a target.
* ``transform``: evaluate the exact broadened transform of a model.
* ``estimate``: run an estimation pipeline and write the transform CSV
  plus a run-record JSON.
* ``verify``: run the Monte Carlo accuracy-contract check, state the
  faulty-evolution bound and cross-check the statevector simulator,
  writing a JSON report.
* ``bench``: write the resource-comparison table and the planner
  scaling sweeps with log-log fits.

Configuration comes from flags or from a plain ``key=value`` file given
with ``--config`` (flags win on conflict), whose keys are exactly the
option names, spelled with ``_`` or ``-`` (``grid_spacing`` or
``grid-spacing``).  Every run is deterministic given its
configuration: the seed is always explicit, output files carry no
timestamps, and floats are printed with round-trip precision.
Each output file starts with a comment header recording the artifact
version and a hash of the resolved configuration.

Exit codes, each error reported in one line on stderr, ``LABEL:
message``, a command-line parse error's included: 0 success, 2 invalid
configuration or input, 3 target out of the supported regime, 4
resource cap exceeded, 5 file I/O failure.  ``--help`` and
``--version`` print to stdout and exit 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
# argparse's gettext imports locale on first use: importing it here means a
# process forked after the package's import already has it
import locale
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# CPython's own SHA-256 (_sha2 from 3.12, _sha256 before): hashlib's sha256 is
# OpenSSL's, whose first call in a forked op maps about 1 MB of libcrypto
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:  # neither is built: OpenSSL's, the same digest
        from hashlib import sha256 as _sha256

from . import __version__
from .errors import SpecdenError, ValidationError
from .estimators import ESTIMATION_METHODS, complexity_table
from .kernels import AccuracyTarget, _check_cells, evaluation_grid, grid_spacing
from .metrics import bounded_observables, contract_report, scaling_fit
from .numerics import derive_seed, derive_seeds, fmt_float
from .operators import (
    ObservableFn,
    SpectralModel,
    _content_lines,
    normalize_spectrum,
    random_spectrum,
    read_model_file,
)
from .sampling import MEMORY_CAP, eigenbasis_qpe, qpe_distribution

__all__ = ["RunConfig", "main"]

_METHODS = tuple(ESTIMATION_METHODS)
# the methods that estimate, and those whose accuracy contract verify checks
_ESTIMATORS = tuple(n for n, m in ESTIMATION_METHODS.items() if m.family is not None)
_CONTRACTS = tuple(n for n, m in ESTIMATION_METHODS.items() if m.verify_stream is not None)


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
    out: str | None = None
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

        The first 12 hex digits of the SHA-256 of its sorted ``key=value``
        lines.  Excludes the output directory, which moves results but not
        their bytes, and the worker count, which nothing reads.
        """
        items = sorted(
            (k, v)
            for k, v in vars(self).items()
            if v is not None and k not in ("out", "workers")
        )
        blob = "\n".join(f"{k}={v}" for k, v in items)
        return _sha256(blob.encode()).hexdigest()[:12]


# Each option's type, its least value or its allowed names, and its help
# text: the parser, the config-file reader and the checks all read it.
_OPTIONS: dict[str, tuple[type, object, str]] = {
    "method": (str, _METHODS + ("all",), "kernel family (default all for plan/verify)"),
    "sigma": (float, None, "kernel tail mass bound in (0, 1)"),
    "delta": (float, None, "frequency resolution in (0, 1)"),
    "beta": (float, None, "sup-norm accuracy of the estimate"),
    "eta": (float, None, "confidence complement in (0, 1)"),
    "seed": (int, 0, "base seed (required when sampling)"),
    "trials": (int, 1, "Monte Carlo trials for verify, spread over the models; every model "
                       "runs at least one, so below the model count each runs one"),
    "grid_spacing": (float, None, "evaluation grid spacing"),
    "model": (str, None, "model file (dim header, matrix rows, probe row)"),
    "gen": (str, None, "model generator spec kind:dim[:k=v,...]"),
    "out": (str, None, "output directory (default .)"),
    "workers": (int, 1, "ignored; kept for old command lines"),
    "nu": (float, None, "single evaluation frequency"),
    "samples": (int, 1, "override the planned sample count"),
}


def _read_config_file(path: str) -> dict:
    out: dict = {}
    for lineno, line in _content_lines(path):
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _OPTIONS:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _OPTIONS[key][0](value)
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return out


class _Parser(argparse.ArgumentParser):
    """A parser whose errors, its subcommands' included, raise :class:`ValidationError`."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="specden", description="Spectral density estimation workbench")
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
        for key, (kind, check, help_text) in _OPTIONS.items():
            choices = sorted(check) if isinstance(check, tuple) else None
            sp.add_argument("--" + key.replace("_", "-"), type=kind, choices=choices, help=help_text)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    values = _read_config_file(args.config) if args.config else {}
    values.update((key, flag) for key in _OPTIONS if (flag := getattr(args, key)) is not None)
    cfg = RunConfig(command=args.command, **values)
    for key, (_, check, _) in _OPTIONS.items():
        value = getattr(cfg, key)
        if value is None or check is None:
            continue
        if isinstance(check, tuple) and value not in check:
            raise ValidationError(f"unknown {key} {value!r}")
        if isinstance(check, int) and value < check:
            raise ValidationError(f"{key} must be >= {check}")
    if cfg.nu is not None and not math.isfinite(cfg.nu):
        raise ValidationError(f"nu must be finite, got {cfg.nu!r}")
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
    _check_cells(count * dim, "eigenvalues of count x dim draws")
    return kind, dim, count, params


def _load_spectra(cfg: RunConfig):
    """Yield (eigenvalues scaled into [-1, 1], amplitudes, map) of the model file or each draw, as read."""
    if cfg.model and cfg.gen:
        raise ValidationError("give either --model or --gen, not both")
    if cfg.model:
        op, psi = read_model_file(cfg.model)
        spectra = [(op.evals, op.evecs.conj().T @ psi.vector)]
    elif cfg.gen:
        kind, dim, count, params = _parse_gen(cfg.gen)
        seed = cfg.require_seed()
        spectra = (
            random_spectrum(dim, derive_seed(seed, 500 + i), kind, **params)
            for i in range(count)
        )
    else:
        raise ValidationError(f"'{cfg.command}' needs --model or --gen")
    for evals, amplitudes in spectra:
        evals, amap = normalize_spectrum(evals)
        yield evals, amplitudes, amap


class _Output:
    """One command's output directory, made on its first write, and the envelope of its artifacts.

    Every CSV header and JSON artifact carries the artifact version and
    the config hash, computed once here.
    """

    def __init__(self, cfg: RunConfig):
        self.command = cfg.command
        self.dir = Path(cfg.out or ".")
        self.config = cfg.hash()

    def _path(self, name: str) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        return self.dir / name

    def write_csv(self, name: str, columns: dict, extra=()) -> Path:
        path = self._path(name)
        header = [("specden", self.command), ("version", __version__), ("config", self.config), *extra]
        _write_csv(path, header, columns)
        return path

    def write_json(self, name: str, fields: dict) -> Path:
        path = self._path(name)
        _write_json(path, {"version": __version__, "config": self.config, **fields})
        return path


# _write_csv formats and writes this many rows at a time.
_CSV_BLOCK = 2**12


def _write_csv(path: Path, header, columns: dict) -> None:
    """Write header comments, the column names and one line per row.

    `columns` maps each name to its column, a list or a 1-D array.  A
    column whose first cell is a float is written ``%.17g``, as
    :func:`fmt_float` writes a float, and any other column ``%s``, as
    ``str``.  The rows are formatted :data:`_CSV_BLOCK` at a time, each
    block with one ``%`` over all of its cells and one write, and array
    columns are read a block at a time.  A float64 array block that
    repeats a value is formatted once per distinct value, keyed on its
    bits, so ``-0.0`` stays ``-0`` beside ``0``.
    """
    cells = list(columns.values())
    rows = len(cells[0]) if cells else 0
    specs = ["%.17g" if rows and isinstance(c[0], float) else "%s" for c in cells]
    with _replaced(path) as f:
        f.write("".join(f"# {k}: {v}\n" for k, v in header) + ",".join(columns) + "\n")
        for start in range(0, rows, _CSV_BLOCK):
            block = [_block_cells(c[start:start + _CSV_BLOCK], spec) for c, spec in zip(cells, specs)]
            n = len(block[0][1])
            flat = [None] * (n * len(cells))
            for i, (_, column) in enumerate(block):
                flat[i::len(cells)] = column
            line = ",".join(spec for spec, _ in block) + "\n"
            f.write((line * n) % tuple(flat))


def _block_cells(block, spec: str):
    """The format and the cells of one column's block, as :func:`_write_csv` states.

    The distinct bit patterns come from a sort and a neighbour compare:
    numpy 2.4's ``np.unique`` took about 3 times as long on a 4,096-row block.
    """
    if not isinstance(block, np.ndarray):
        return spec, block
    if spec == "%.17g" and block.dtype == np.float64:
        bits = block.view(np.int64)
        keys = np.sort(bits)
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        if keys.size < bits.size:
            texts = np.array([spec % x for x in keys.view(np.float64).tolist()], dtype=object)
            return "%s", texts[np.searchsorted(keys, bits)].tolist()
    return spec, block.tolist()


def _write_json(path: Path, obj: dict) -> None:
    with _replaced(path) as f:
        f.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def _replaced(path: Path):
    """A text file written beside `path` that replaces it once the block completes.

    If the block fails, the file is removed and `path` is left as it was,
    so a failed write never leaves a truncated artifact.
    """
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w") as f:
            yield f
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


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


def _nu_grid(cfg: RunConfig, target: AccuracyTarget) -> np.ndarray:
    if cfg.nu is not None:
        return np.array([cfg.nu])
    return evaluation_grid(grid_spacing(target.delta, cfg.grid_spacing))


def _cmd_plan(cfg: RunConfig) -> int:
    target = cfg.target()
    rows = [ESTIMATION_METHODS[name].plan_row(target) for name in _methods(cfg, _METHODS, "all")]
    for row in rows:
        text = ", ".join(
            f"{k}={fmt_float(v) if isinstance(v, float) else v}"
            for k, v in row.items()
            if k != "method"
        )
        print(f"{row['method']}: {text}")
    if cfg.out is not None:
        path = _Output(cfg).write_json("plan.json", {"target": asdict(target), "plans": rows})
        print(f"wrote {path}")
    return 0


def _one_model(cfg: RunConfig, allowed: tuple[str, ...]):
    """Target, method name and entry, model, spectrum map and the grid the method reads."""
    target = cfg.target()
    (name,) = _methods(cfg, allowed, "fejer")
    method = ESTIMATION_METHODS[name]
    evals, amplitudes, amap = next(_load_spectra(cfg))
    nu = _nu_grid(cfg, target) if method.reads_nu else None
    return target, name, method, SpectralModel.from_amplitudes(evals, amplitudes), amap, nu


def _write_transform(out: _Output, filename: str, name: str, grid, amap, extra=()) -> Path:
    return out.write_csv(
        filename,
        {"frequency": grid.frequencies, "value": grid.values},
        [("method", name), ("kind", grid.kind), ("spectrum_scale", fmt_float(amap.scale)), *extra],
    )


def _cmd_transform(cfg: RunConfig) -> int:
    target, name, method, model, amap, nu = _one_model(cfg, _METHODS)
    grid = method.transform(model, target, nu)
    path = _write_transform(_Output(cfg), "transform.csv", name, grid, amap)
    print(f"wrote {path} ({grid.frequencies.size} rows)")
    return 0


def _cmd_estimate(cfg: RunConfig) -> int:
    target, name, method, model, amap, nu = _one_model(cfg, _ESTIMATORS)
    seed = cfg.require_seed()
    budget = method.budget(target, nu, cfg.samples)
    start = time.perf_counter()
    transform = method.estimate(model, budget, seed, nu)
    elapsed = time.perf_counter() - start
    if (route := method.route(model, budget)) is not None:
        print(route)
    extra = [("kernel_order", budget.kernel_order), ("n_samples", budget.n_samples), ("seed", seed)]
    out = _Output(cfg)
    csv_path = _write_transform(out, "estimate.csv", name, transform, amap, extra)
    record = {
        "method": name,
        "seed": seed,
        "budget": {k: v for k, v in asdict(budget).items() if v is not None},
        "elapsed_s": elapsed,
        "rows": int(transform.frequencies.size),
        "spectrum_scale": amap.scale,
    }
    json_path = out.write_json("estimate_record.json", record)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _contract_trials(cfg: RunConfig, models, seed: int) -> list:
    """Each model with its trial seeds: `cfg.trials` split over the models, at least one each."""
    base, extra = divmod(cfg.trials, len(models))
    return [
        (model, derive_seeds(derive_seed(seed, 100 + i), 0, count=max(1, base + (i < extra))))
        for i, model in enumerate(models)
    ]


def _fault_sweep(
    target: AccuracyTarget,
    evals: np.ndarray,
    amplitudes: np.ndarray,
    model: SpectralModel,
) -> tuple[list[dict], dict]:
    """Fault rows and the simulator cross-check of one model.

    A fault of step delta_t moves each controlled evolution by at most
    delta_t in operator norm, and errors of a product of unitaries add at
    most linearly (Nielsen & Chuang, section 4.4), so no outcome
    probability of an n_anc-bit register moves by more than
    ``n_anc * delta_t``.  Each row states that bound at the planned n.
    Nothing is sampled, so its ``measured`` is null and its
    ``realizations`` 0; the columns stay for readers of the report and
    the CSV.  The cross-check compares the fault-free statevector
    register with :func:`qpe_distribution` at the same n, within
    ``max(n, 64) * 2**-52``.  The register rounds eigenvalue + 1
    by up to 2**-53, and the kernel's slope of at most about 0.85 n
    turns that into at most about ``0.43 n * 2**-52``.  Both routes also
    round the phases, the transform and the squares by a few units that
    do not shrink with n (2.25 * 2**-52 at n = 4): the floor of 64 keeps
    those from failing a correct simulator on a small register.
    """
    plan = ESTIMATION_METHODS["fejer"].plan_row(target)
    planned_n, planned_dt = plan["grid_size"], plan["delta_t"]
    planned_anc = int(math.log2(planned_n))
    # The statevector holds dim * n amplitudes: run it on the largest grid that fits.
    n_ancilla = min(planned_anc, (MEMORY_CAP // evals.size).bit_length() - 1)
    n = 2**n_ancilla
    if n < planned_n:
        print(
            f"simulator check shrunk to n={n}: "
            f"dim*n at the planned n={planned_n} exceeds the cap {MEMORY_CAP}"
        )
    ideal = qpe_distribution(model, n)
    clean = eigenbasis_qpe(evals, amplitudes, n_ancilla)
    deviation = float(np.max(np.abs(clean.probs - ideal.probs)))
    tolerance = max(n, 64) * 2.0**-52
    check = {"n": n, "deviation": deviation, "tolerance": tolerance, "ok": deviation <= tolerance}
    rows = [
        {
            "n": planned_n,
            "planned_n": planned_n,
            "delta_t": dt,
            "bound": planned_anc * dt,
            "measured": None,
            "realizations": 0,
            "ok": True,
        }
        for dt in sorted({1e-3, 1e-2, planned_dt})
    ]
    return rows, check


def _cmd_verify(cfg: RunConfig) -> int:
    target = cfg.target()
    seed = cfg.require_seed()
    names = _methods(cfg, _CONTRACTS, "all")
    # the observables' bounds check the spacing before any model or grid is built
    observables = bounded_observables(
        [ObservableFn(np.ones_like, "one"), ObservableFn(lambda w: w, "identity")],
        target,
        cfg.grid_spacing,
    )
    spectra = list(_load_spectra(cfg))
    models = [SpectralModel.from_amplitudes(evals, amplitudes) for evals, amplitudes, _ in spectra]
    out = _Output(cfg)
    report_json: dict = {
        "target": asdict(target),
        "n_models": len(models),
        "reports": {},
    }
    overall = True
    for name in names:
        stream = ESTIMATION_METHODS[name].verify_stream
        trials = _contract_trials(cfg, models, derive_seed(seed, stream))
        report = contract_report(name, observables, target, trials, cfg.grid_spacing, cfg.samples)
        entry = asdict(report)
        entry["passed"] = report.passed()
        report_json["reports"][name] = entry
        overall = overall and report.passed()
        print(
            f"{name}: sigma'={report.measured_sigma:.4g} "
            f"delta_v={report.delta_v:.4g} confidence={report.empirical_confidence:.4g} "
            f"threshold={report.threshold:.4g} -> {'PASS' if report.passed() else 'FAIL'}"
        )
    if any(ESTIMATION_METHODS[name].checks_faults for name in names):
        evals, amplitudes, _ = spectra[0]
        sweep, check = _fault_sweep(target, evals, amplitudes, models[0])
        report_json["fault_sweep"] = sweep
        report_json["simulator_check"] = check
        overall = overall and check["ok"]
        for row in sweep:
            print(f"fault: n={row['n']} delta_t={row['delta_t']:.4g} certified bound={row['bound']:.4g}")
        print(
            f"simulator: n={check['n']} deviation={check['deviation']:.4g} "
            f"tolerance={check['tolerance']:.4g} -> {'OK' if check['ok'] else 'MISMATCH'}"
        )
        # a certified row has no measured value: its cell is left empty
        columns = ["n", "delta_t", "bound", "measured", "realizations", "ok"]
        out.write_csv("fault_sweep.csv",
                      {k: ["" if r[k] is None else r[k] for r in sweep] for k in columns})
    report_json["pass"] = overall
    path = out.write_json("verify_report.json", report_json)
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
    """``1/x`` and the kernel order the sweep's method plans at each of its targets."""
    spec = _SWEEPS[name]
    method = ESTIMATION_METHODS[name.split("_")[0]]
    values = np.logspace(math.log10(spec["lo"]), math.log10(spec["hi"]), spec["points"])
    ms = []
    for v in values:
        params = {k: spec.get(k) for k in ("sigma", "delta", "beta")}
        params[spec["var"]] = float(v)
        ms.append(method.kernel_order(AccuracyTarget(**params, eta=0.05)))
    return 1.0 / values, np.asarray(ms, dtype=float)


def _cmd_bench(cfg: RunConfig) -> int:
    out = _Output(cfg)
    deltas = [cfg.delta] if cfg.delta is not None else [0.1, 0.05, 0.01]
    epsilons = [cfg.sigma] if cfg.sigma is not None else [0.1, 0.05]
    rows = complexity_table(deltas, epsilons, eta=cfg.eta)
    columns = ["method", "delta", "eps", "kernel_order", "n_samples", "note"]
    table = out.write_csv("complexity.csv", {k: [r[k] for r in rows] for k in columns})
    fits = []
    data = {"sweep": [], "x": [], "m": [], "fit_residual": []}
    for name in _SWEEPS:
        xs, ms = _sweep_points(name)
        exponent, intercept, r2 = scaling_fit(xs, ms)
        predicted = exponent * np.log(xs) + intercept
        residuals = np.log(ms) - predicted
        fits.append(
            (
                f"fit {name}",
                f"exponent={fmt_float(exponent)} intercept={fmt_float(intercept)} "
                f"r2={fmt_float(r2)}",
            )
        )
        data["sweep"] += [name] * xs.size
        data["x"] += xs.tolist()
        data["m"] += ms.tolist()
        data["fit_residual"] += residuals.tolist()
        print(f"{name}: exponent={exponent:.4f} r2={r2:.5f}")
    scaling = out.write_csv("scaling.csv", data, fits)
    print(f"wrote {table} and {scaling}")
    return 0


# Built once: a process forked from an imported specden.cli reuses it.
_PARSER = _build_parser()
# argparse compiles its nargs patterns on the first parse; parsing a fixed
# command line here puts them in re's cache before any fork
_PARSER.parse_args(["plan", "--sigma", "0.1", "--delta", "0.1"])

_DISPATCH = {
    "plan": _cmd_plan,
    "transform": _cmd_transform,
    "estimate": _cmd_estimate,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    try:
        cfg = _resolve_config(_PARSER.parse_args(argv))
        code = _DISPATCH[cfg.command](cfg)
    except BrokenPipeError:
        code = 5
    except SpecdenError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        code = exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        code = 5
    try:
        sys.stdout.flush()  # a closed stdout fails here, not at exit
    except BrokenPipeError:
        # stdout's reader is gone: send what is left to devnull, so the exit flush succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return code or 5  # an error that came first keeps its code
    return code


if __name__ == "__main__":
    sys.exit(main())
