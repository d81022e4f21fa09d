"""End-to-end and per-layer benchmark of the specden command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is git_moments, fejer_histogram, verify_contract, planner, or all.
Runs the ops of a workload (workloads.py) one at a time, each in a fresh
fork of an op server that has just imported specden (child.py), checks
their artifacts (checks.py), and prints the
metrics of BENCHMARK.json as the last line: end-to-end ones with
``--trace 0``, per-layer ones (layers.py) with ``--trace 1``.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from layers import COUNTED, LAYERS, TRACED
from workloads import WORKLOADS, Op, pass_ops, warmup_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# One BLAS thread per child: one child runs at a time and timings stay
# comparable on shared machines.
BLAS_THREADS = "1"
# An invocation must end within 180 s; ops still running this long after
# it started are killed and count as failed.
DEADLINE_S = 170.0
# Ops per op server; each server's import of specden.cli is one setup_s sample.
SERVER_OPS = 7
# op_s.tail is the highest quantile with this many ops of the run above it.
TAIL_MARGIN = 10
# A pass of any workload takes 10 to 13 s on the reference machine (see
# README.md); a run makes as many as fit in --seconds at this length.
PASS_SECONDS = 14.0


@dataclass
class OpResult:
    op: Op
    out: Path
    op_s: float | None = None
    rss_mb: float = 0.0
    error: str | None = None
    digest: str | None = None
    err_over_beta: float | None = None
    verify_pass: bool | None = None
    trace: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


class Server:
    """A child.py process: one import of specden.cli, then one fork per op."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), repr(self.seconds_left())],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        hello = self._read()
        self.setup_s = hello["setup_s"]
        if not Path(hello["module"]).resolve().is_relative_to(ROOT / "src"):
            self.close()
            raise RuntimeError(f"imported specden from {hello['module']}, not from this checkout")

    def seconds_left(self) -> float:
        return max(0.0, self.deadline - time.monotonic())

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"op server ended (exit {self.proc.wait()})")
        return json.loads(line)

    def run(self, argv: list[str], out: Path, traced: bool) -> int:
        request = {"argv": argv, "log": str(out / "stdout.txt"),
                   "result": str(out / "child.json"), "trace": int(traced),
                   "seconds_left": self.seconds_left()}
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise RuntimeError(f"op server ended ({exc})") from exc
        return self._read()["rc"]

    def close(self) -> None:
        """End the server and wait for it; its alarm ends it if it hangs."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


def execute(op: Op, out: Path, traced: bool, server: Server) -> OpResult:
    """Run one op in a fork of `server` and collect its timing and peak RSS."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    res = OpResult(op, out)
    try:
        rc = server.run(op.argv(str(out)), out, traced)
    except RuntimeError as exc:
        res.error = str(exc)
        return res
    try:
        child = json.loads((out / "child.json").read_text())
    except (OSError, ValueError):
        log = (out / "stdout.txt").read_text(errors="replace").strip().splitlines()
        res.error = f"exit {rc} without a result: {' | '.join(log[-3:])}"
        return res
    res.op_s, res.rss_mb = child["op_s"], child.get("peak_rss_mb") or 0.0
    res.trace = {k: child[k] for k in ("spans", "counts", "absent") if k in child}
    if "error" in child:
        res.error = "raised: " + child["error"].strip().splitlines()[-1]
    elif rc != 0:
        log = (out / "stdout.txt").read_text(errors="replace").strip().splitlines()
        res.error = f"exit {rc}: {' | '.join(log[-2:])}"
    return res


class Servers:
    """Op servers in turn, each serving SERVER_OPS ops; keeps their import times."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.server: Server | None = None
        self.served = 0
        self.setup_s: list[float] = []

    def get(self) -> Server:
        if self.server is not None and (self.served >= SERVER_OPS
                                        or self.server.proc.poll() is not None):
            self.close()
        if self.server is None:
            self.server, self.served = Server(self.deadline), 0
            self.setup_s.append(self.server.setup_s)
        self.served += 1
        return self.server

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


def run_pass(ops: list[Op], tag: str, traced: bool, servers: Servers,
             first: list[OpResult] | None) -> list[OpResult]:
    """Run `ops` once; check pass 0's artifacts, and later passes' against pass 0's."""
    import checks  # imports specden, so only after main() has found the sources

    results = []
    for i, op in enumerate(ops):
        if time.monotonic() >= servers.deadline:
            break
        res = execute(op, WORK / f"{tag}-{i}", traced, servers.get())
        if res.error is None and first is None:
            try:
                checked = checks.check(op, res.out)
            except checks.Invalid as exc:
                res.error = f"invalid output: {exc}"
            else:
                res.digest = checked.digest
                res.err_over_beta = checked.err_over_beta
                res.verify_pass = checked.verify_pass
        elif res.error is None:
            res.digest = _digest(op, res.out)
            earlier = first[i] if i < len(first) else None
            if earlier is None or earlier.error is not None:
                res.error = "the same op failed in the first pass"
            elif res.digest != earlier.digest:
                res.error = "wrote other bytes than the same op in the first pass"
            else:
                res.err_over_beta, res.verify_pass = earlier.err_over_beta, earlier.verify_pass
        shutil.rmtree(res.out, ignore_errors=True)
        results.append(res)
    return results


def _digest(op: Op, out: Path) -> str:
    import checks

    try:
        return checks.digest(op, out)
    except checks.Invalid as exc:
        return f"invalid ({exc})"


def rerun_check(results: list[OpResult], servers: Servers) -> int:
    """Re-run the fastest passing op of each command/method; return re-runs made."""
    fastest: dict[str, OpResult] = {}
    for res in results:
        best = fastest.get(res.op.key)
        if res.error is None and (best is None or res.op_s < best.op_s):
            fastest[res.op.key] = res
    for i, res in enumerate(fastest.values()):
        again = execute(res.op, WORK / f"rerun-{i}", False, servers.get())
        if again.error is not None:
            res.error = f"determinism re-run failed: {again.error}"
        elif _digest(res.op, again.out) != res.digest:
            res.error = "determinism re-run wrote different bytes"
        shutil.rmtree(again.out, ignore_errors=True)
    return len(fastest)


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """`passes_for(seconds)` passes of the workload's ops, or with --trace 1
    an untraced and a traced pass.

    Every pass runs the same ops with the same seeds, so passes after the
    first check determinism: each op must write the bytes it wrote in the
    first pass.
    """
    start = time.monotonic()
    shutil.rmtree(WORK, ignore_errors=True)
    servers = Servers(deadline)
    ops = pass_ops(name, seed)
    passes: list[list[OpResult]] = []
    try:
        warm = execute(warmup_op(name, seed), WORK / "warmup", False, servers.get())
        if warm.error is not None:
            print(f"warning: warm-up op failed: {warm.error}")
        shutil.rmtree(warm.out, ignore_errors=True)
        for index in range(2 if trace else passes_for(seconds)):
            if time.monotonic() >= deadline:
                break
            passes.append(run_pass(ops, f"p{index}", trace and index == 1, servers,
                                   passes[0] if passes else None))
        reruns = rerun_check(passes[0], servers) if len(passes) == 1 else 0
    finally:
        servers.close()
        shutil.rmtree(WORK, ignore_errors=True)
    return {"passes": passes, "pass_size": len(ops), "setup_s": servers.setup_s,
            "reruns": reruns, "wall_s": time.monotonic() - start}


def passes_for(seconds: float) -> int:
    """Passes of a run: fixed by --seconds, so every run has the same ops."""
    return max(1, int(seconds // PASS_SECONDS))


def run_s(results: list[OpResult]) -> float:
    return sum(r.op_s for r in results if r.op_s is not None)


def tail_share(ops: int) -> float:
    """Share of the run's ops at or below op_s.tail."""
    return max(0.0, (ops - TAIL_MARGIN) / ops)


def end_to_end(run: dict, passes: list[list[OpResult]]) -> tuple[dict, list[str]]:
    """End-to-end metrics of `passes` and the lines that print them with sample counts."""
    ops = [r for p in passes for r in p]
    timed = [r for r in ops if r.op_s is not None]
    if not timed:
        return {}, ["  no op completed"]
    times = sorted(r.op_s for r in timed)
    share = tail_share(run["pass_size"] * len(passes))
    tail_index = max(0, math.ceil(share * len(times)) - 1)
    n = len(timed)
    whole = [p for p in passes if len(p) == run["pass_size"]] or passes
    metrics = {
        "op_s.p50": (statistics.median(times), "s", f"{n} ops"),
        "op_s.tail": (times[tail_index], "s",
                      f"p{100 * share:.1f}, {n} ops, {n - tail_index - 1} above"),
        "run_s": (statistics.median(run_s(p) for p in whole), "s",
                  f"median of {len(whole)} pass(es) of {run['pass_size']} ops"),
        "setup_s": (statistics.median(run["setup_s"]), "s", f"{len(run['setup_s'])} imports"),
        "peak_rss_mb": (max(r.rss_mb for r in ops), "MB", f"max VmHWM of {len(ops)} children"),
    }
    failed = sum(r.error is not None for r in ops)
    errs = [r.err_over_beta for r in ops if r.err_over_beta is not None]
    verdicts = [r.verify_pass for r in ops if r.verify_pass is not None]
    extra = {"failed_fraction": (failed / len(ops), "1", f"{failed} of {len(ops)} ops")}
    if errs:
        extra["err_over_beta.p50"] = (statistics.median(errs), "1",
                                      f"{len(errs)} estimate ops, max {max(errs):.4g}")
    if verdicts:
        extra["verify_pass_fraction"] = (sum(verdicts) / len(verdicts), "1",
                                         f"{sum(verdicts)} of {len(verdicts)} verify ops")
    lines = [f"  {m:<22} {v:<14.6g} {u:<3} {s}" for m, (v, u, s) in {**metrics, **extra}.items()]
    return {m: (v, u) for m, (v, u, _) in metrics.items()}, lines


def per_layer(run: dict, wanted: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced pass; absent names are left out."""
    untraced, traced = run["passes"][0], run["passes"][-1]
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    absent: set[str] = set()
    for res in traced:
        spans = res.trace.get("spans", [])
        covered = [0.0] * len(spans)
        for name, begin, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - begin
        for (name, begin, end, _), inner in zip(spans, covered):
            self_s[name] += end - begin - inner
            calls[name] += 1
        counts.update(res.trace.get("counts", {}))
        absent.update(res.trace.get("absent", []))
    known = {f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns}
    known |= {f"{layer}.{fn}" for layer, fns in COUNTED.items() for fn in fns}
    layer_self = {layer: sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
                  for layer in LAYERS}
    metrics, missing = {}, []
    for spec in wanted:
        metric, unit = spec["name"], spec["unit"]
        if metric == "trace.overhead_s":
            value = run_s(traced) - run_s(untraced)
        elif metric.count(".") == 1 and metric.split(".")[0] in LAYERS:
            value = layer_self[metric.split(".")[0]]
        else:
            func, stat = metric.rsplit(".", 1)
            if func not in known or func in absent:
                missing.append(metric)
                continue
            if stat == "self_s":
                value = self_s[func]
            elif stat == "calls":
                value = calls[func] + counts[f"{func}.calls"]
            else:
                value = counts[metric]
        if isinstance(value, int) and value > 2**53:
            value = float(value)  # beyond exact doubles; keep the output portable JSON
        metrics[metric] = (value, unit)
    total = sum(layer_self.values()) or 1.0
    lines = ["  layer self time (traced pass):"]
    for layer in sorted(LAYERS, key=layer_self.get, reverse=True):
        lines.append(f"    {layer:<11} {layer_self[layer]:10.4f} s  {100 * layer_self[layer] / total:5.1f}%")
    lines.append("  functions with the most self time (traced pass):")
    for func in sorted(self_s, key=self_s.get, reverse=True)[:8]:
        lines.append(f"    {func:<44} {self_s[func]:10.4f} s  {calls[func]:8d} calls")
    lines.append("  per-layer metrics (counts other than calls are computed from arguments):")
    lines += [f"    {m:<52} {v:<14.6g} {u}" for m, (v, u) in metrics.items()]
    lines += [f"    {m:<52} absent" for m in missing]
    return metrics, lines


def op_lines(results: list[OpResult]) -> list[str]:
    lines = []
    for res in results:
        acc = ""
        if res.err_over_beta is not None:
            acc = f" err/beta={res.err_over_beta:.3g}"
        elif res.verify_pass is not None:
            acc = " PASS" if res.verify_pass else " FAIL"
        status = "" if res.error is None else f"  FAILED: {res.error}"
        op_s = "-" if res.op_s is None else f"{res.op_s:.3f}"
        lines.append(f"    {op_s:>8} s {res.rss_mb:7.0f} MB  {res.op.describe()}{acc}{status}")
    return lines


def metadata(args, name: str, run: dict, timed: list[list[OpResult]]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
        "passes": len(run["passes"]), "ops": sum(len(p) for p in run["passes"]),
        "pass_size": run["pass_size"],
        "tail_percentile": 100 * tail_share(run["pass_size"] * len(timed)),
        "determinism_reruns": run["reruns"], "wall_s": run["wall_s"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "specden" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no specden sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    per_layer_spec = json.loads(spec_path.read_text())["per_layer"]
    sys.path.insert(0, str(ROOT / "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S
    attempted = failed = 0
    reported: dict[str, dict] = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        ops = [r for p in run["passes"] for r in p]
        attempted += len(ops)
        failed += sum(r.error is not None for r in ops)
        print(f"== {name} ==")
        # A traced run reports end-to-end figures of its untraced pass only.
        timed = run["passes"][:1] if args.trace else run["passes"]
        print("# meta " + json.dumps(metadata(args, name, run, timed)))
        print("  ops of the first pass (op time, peak RSS):")
        print("\n".join(op_lines(run["passes"][0])))
        values, lines = end_to_end(run, timed)
        if args.trace:
            values, layer_lines = per_layer(run, per_layer_spec)
            lines += layer_lines
        print("\n".join(lines))
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in values.items():
            reported[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
