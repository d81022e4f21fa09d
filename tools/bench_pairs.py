"""Alternating parent/change pairs of the benchmark, summarized as a ``BENCH_<PR>.json``.

    python3 tools/bench_pairs.py --parent REV --change REV|worktree \\
        --workload W|all --seeds A-B --out BENCH_37.json \\
        [--section workloads|extra_pairs] [--claim METRIC] [--note TEXT] [--work DIR] \\
        [--bytes]

Each side is exported whole with ``git archive``: the parent commit,
and the change commit (or, for ``worktree``, HEAD with the working
tree's ``src/``) with its ``perfbench/`` and ``BENCHMARK.json`` replaced
by the parent's, so each side is a whole tree of its commit and both run
the same benchmark.  For every seed S and workload W both sides run
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
with one BLAS thread and T the parent's ``run_seconds``, the parent
first on odd seeds, and the run's last line (its metrics as JSON) is
read.

Every end-to-end metric of ``BENCHMARK.json`` gets its pairs, each
side's median and quartiles (numpy's linear percentiles), the pairs in
which the change reads better, the parent's interquartile distance as a
share of its median, the metric's bound and a verdict (:func:`verdict`).
``--claim METRIC`` adds the claim rule of one workload's metric
(:func:`claim`).  The summary goes under ``--section`` in ``--out``;
an existing file keeps its other keys, so held-out seeds can be added to
the same file as ``extra_pairs``.

``--bytes`` times nothing: for each workload it runs every op of one
pass at the first seed (the parent's ``workloads.pass_ops``) once in
each side, as ``python3 -m specden ARGV``, and compares the sha256 of
every artifact, ``estimate_record.json`` without its ``elapsed_s``
(:func:`artifact_digests`, :func:`byte_mismatches`), and of what the op
printed to stdout and to stderr, with its output directory read as
``<out>`` (:func:`printed_digests`).  It then does the same for the
fixed :data:`BYTE_COMMANDS`, which reach what no pass runs: every
method's ``transform``, ``estimate`` on both histogram routes, a
per-peak ``verify`` and ``bench``.  The op count, the artifact count
and the mismatches go under ``bytes``, per workload and under
``commands``.  Nothing under ``perfbench/`` is imported into this
process or edited.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
PROTOCOL = (
    "parent and change run from clean copies of their files (git archive of each commit, "
    "the change's with the parent's perfbench/ and BENCHMARK.json); pairs "
    "alternate which side runs first (parent first on odd seeds); both sides of a pair use "
    "the same seed S and OPENBLAS_NUM_THREADS=1; quartiles are numpy's linear percentiles; "
    "a metric is unresolved when the parent's interquartile distance exceeds its bound, "
    "unless every change run reads better than every parent run; a claim is met when the "
    "change reads better in at least 9 of 10 pairs and its median by more than the parent's "
    "interquartile distance; metrics.*.pairs lists [parent, change] per seed in seed order"
)
CLAIM = ("median falls, lower in at least 9 of 10 pairs, by more than the parent's "
         "interquartile distance")
_TARGET = ["--sigma", "0.1", "--delta", "0.05", "--seed", "1"]
# At this target fejer has 256 bins and qfejer 1,024, and 185 shots (738 at beta
# 0.05) are drawn per peak when 32 shots < bins x peaks: spiked:8 takes fejer's
# distribution route, spiked:64 both per-peak routes, and qfejer's 16 mirrored
# peaks of spiked:8 take the distribution route at 738 shots.
BYTE_COMMANDS = [
    *(["transform", "--method", m, *_TARGET, "--gen", "spiked:64"]
      for m in ("fejer", "qfejer", "git", "jackson")),
    *(["estimate", "--method", m, *_TARGET, "--gen", gen]
      for m in ("fejer", "qfejer") for gen in ("spiked:8:count=2", "spiked:64")),
    ["estimate", "--method", "qfejer", *_TARGET, "--beta", "0.05", "--gen", "spiked:8:count=2"],
    ["verify", "--method", "fejer", *_TARGET, "--gen", "spiked:64:count=2"],
    ["bench"],
]


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6), "n": len(values)}


def _better(a: float, b: float, lower: bool) -> bool:
    return a < b if lower else a > b


def verdict(pairs, bound: float, lower: bool = True) -> dict:
    """Summary of one metric's ``[parent, change]`` pairs against its relative bound.

    The verdict is "unresolved" when the parent's interquartile distance
    exceeds the bound (a share of the parent's median) and not every
    change run reads better than every parent run; else "worse than
    bound" when the change's median is worse than the parent's by more
    than the bound; else "within bound".
    """
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    ps, cs = _quartiles(parent), _quartiles(change)
    sign = 1.0 if lower else -1.0
    worse_pct = sign * 100.0 * (cs["median"] - ps["median"]) / ps["median"]
    iqr_pct = 100.0 * (ps["q3"] - ps["q1"]) / ps["median"]
    separated = _better(max(change) if lower else min(change),
                        min(parent) if lower else max(parent), lower)
    if iqr_pct > 100.0 * bound and not separated:
        word = "unresolved"
    elif worse_pct > 100.0 * bound:
        word = "worse than bound"
    else:
        word = "within bound"
    return {
        "parent": ps,
        "change": cs,
        "median_change_pct": round(100.0 * (cs["median"] - ps["median"]) / ps["median"], 2),
        "change_lower_in_pairs": sum(_better(c, p, lower) for p, c in pairs),
        "parent_iqr_pct_of_median": round(iqr_pct, 1),
        "bound_pct": round(100.0 * bound, 1),
        "verdict": word,
        "pairs": [[round(p, 6), round(c, 6)] for p, c in pairs],
    }


def claim(pairs, lower: bool = True) -> dict:
    """The claim rule on one metric's ``[parent, change]`` pairs.

    Met when the change reads better in at least nine tenths of the
    pairs and its median beats the parent's by more than the parent's
    interquartile distance.
    """
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    ps, cs = _quartiles(parent), _quartiles(change)
    better = sum(_better(c, p, lower) for p, c in pairs)
    gain = (ps["median"] - cs["median"]) * (1.0 if lower else -1.0)
    iqr = ps["q3"] - ps["q1"]
    return {
        "parent_median": ps["median"],
        "change_median": cs["median"],
        "median_change_pct": round(100.0 * (cs["median"] - ps["median"]) / ps["median"], 2),
        "change_lower_in_pairs": better,
        "parent_iqr": round(iqr, 6),
        "median_difference": round(gain, 6),
        "met": 10 * better >= 9 * len(pairs) and gain > iqr,
    }


def _git_archive(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def export(parent: str, change: str, work: Path) -> dict[str, Path]:
    """The two sides' directories under `work`, each a whole tree with the parent's benchmark."""
    sides = {"parent": work / "parent", "change": work / "change"}
    for path in sides.values():
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    _git_archive(parent, sides["parent"])
    _git_archive("HEAD" if change == "worktree" else change, sides["change"])
    if change == "worktree":
        shutil.rmtree(sides["change"] / "src")
        shutil.copytree(ROOT / "src", sides["change"] / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.rmtree(sides["change"] / "perfbench")
    shutil.copytree(sides["parent"] / "perfbench", sides["change"] / "perfbench")
    shutil.copy2(sides["parent"] / "BENCHMARK.json", sides["change"] / "BENCHMARK.json")
    return sides


def run_side(path: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of one side: the JSON of its last output line."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": ""}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=path, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of every file under `out`, by relative path.

    ``estimate_record.json`` is hashed without its ``elapsed_s``, the
    one value of an artifact that is a wall-clock time.
    """
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "estimate_record.json":
            record = json.loads(data)
            record.pop("elapsed_s", None)
            data = json.dumps(record, sort_keys=True).encode()
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def byte_mismatches(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """Artifacts whose digests differ, or that only one side wrote, in name order."""
    return [name for name in sorted(parent.keys() | change.keys())
            if parent.get(name) != change.get(name)]


def printed_digests(stdout: bytes, stderr: bytes, out: Path) -> dict[str, str]:
    """sha256 of each stream an op printed, with its output directory `out` replaced by ``<out>``."""
    return {name: hashlib.sha256(data.replace(str(out).encode(), b"<out>")).hexdigest()
            for name, data in (("stdout", stdout), ("stderr", stderr))}


def _pass_argvs(side: Path, workload: str, seed: int) -> list[list[str]]:
    """The argv of every op of one pass, each without its trailing ``--out DIR``."""
    script = ("import json, sys; sys.path.insert(0, 'perfbench'); from workloads import pass_ops; "
              f"print(json.dumps([op.argv('')[:-2] for op in pass_ops({workload!r}, {seed})]))")
    done = subprocess.run([sys.executable, "-c", script], cwd=side, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def compare_bytes(sides: dict[str, Path], argvs: list[list[str]], label: str, work: Path) -> dict:
    """Run each of `argvs` once in each side and compare its exit codes, artifacts and printed streams."""
    artifacts, mismatches = 0, []
    for i, argv in enumerate(argvs):
        digests, printed, codes = {}, {}, {}
        for side, path in sides.items():
            out = work / "bytes" / side / label / str(i)
            shutil.rmtree(out, ignore_errors=True)
            env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(path / "src")}
            done = subprocess.run([sys.executable, "-m", "specden", *argv, "--out", str(out)],
                                  cwd=path, env=env, capture_output=True)
            codes[side] = done.returncode
            digests[side] = artifact_digests(out)
            printed[side] = printed_digests(done.stdout, done.stderr, out)
        artifacts += len(digests["parent"])
        op = " ".join(argv)
        if codes["parent"] != codes["change"]:
            mismatches.append(f"{op}: exit {codes['parent']} vs {codes['change']}")
        for found in (digests, printed):
            mismatches += [f"{op}: {name}" for name in byte_mismatches(found["parent"], found["change"])]
    return {"ops": len(argvs), "artifacts": artifacts, "mismatches": mismatches}


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _machine() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--change", required=True, help="change commit, or worktree")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seeds", required=True, help="seed range A-B")
    parser.add_argument("--out", required=True, help="BENCH_<PR>.json to write or update")
    parser.add_argument("--section", default="workloads", choices=("workloads", "extra_pairs"))
    parser.add_argument("--claim", help="claimed end-to-end metric of the one workload")
    parser.add_argument("--note", help="what the change does, written as the file's `change`")
    parser.add_argument("--work", help="directory for the exported sides (default: a temporary one)")
    parser.add_argument("--bytes", action="store_true",
                        help="compare every artifact of one pass at the first seed instead of timing")
    args = parser.parse_args(argv)
    work = Path(args.work or tempfile.mkdtemp(prefix="bench_pairs_"))
    sides = export(args.parent, args.change, work)
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])
    if args.claim and len(workloads) != 1:
        parser.error("--claim needs one workload")
    seeds = _seed_range(args.seeds)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("parent_commit", subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", args.parent],
        check=True, capture_output=True, text=True).stdout.strip())
    if args.note:
        doc["change"] = args.note
    if args.bytes:
        passes = {w: {"seed": seeds[0],
                      **compare_bytes(sides, _pass_argvs(sides["parent"], w, seeds[0]), w, work)}
                  for w in workloads}
        doc["bytes"] = {"command": ("python3 -m specden ARGV for each op of pass_ops(W, seed) "
                                    "and of BYTE_COMMANDS"),
                        "workloads": passes,
                        "commands": compare_bytes(sides, BYTE_COMMANDS, "commands", work)}
        out.write_text(json.dumps(doc, indent=1) + "\n")
        return 0
    seconds = spec["run_seconds"]
    doc.update(command=COMMAND.format(seconds=seconds) + " (run by tools/bench_pairs.py)",
               protocol=PROTOCOL, machine=_machine())
    for workload in workloads:
        runs: dict[int, dict] = {}
        order: dict[str, list[str]] = {}
        for seed in seeds:
            first = ["parent", "change"] if seed % 2 else ["change", "parent"]
            order[str(seed)] = first
            runs[seed] = {side: run_side(sides[side], workload, seed, seconds)
                          for side in first}
            print(workload, seed, {s: runs[seed][s]["metrics"]["op_s.p50"]["value"]
                                   for s in first}, flush=True)
        summary = {
            "pairs": len(seeds), "seeds": seeds, "order": order,
            "failed_ops": {s: sum(r[s]["failed"] for r in runs.values()) for s in sides},
            "attempted_ops": {s: sum(r[s]["attempted"] for r in runs.values()) for s in sides},
            "metrics": {},
        }
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            pairs = [[runs[s]["parent"]["metrics"][name]["value"],
                      runs[s]["change"]["metrics"][name]["value"]] for s in seeds]
            summary["metrics"][name] = {"unit": metric["unit"],
                                        **verdict(pairs, metric["bound"], lower)}
            if args.claim == name:
                claimed = doc.setdefault("claimed", {})
                if args.section == "workloads":
                    claimed.update(workload=workload, metric=name, claim=CLAIM)
                    claimed.update(seeds=seeds, **claim(pairs, lower))
                else:
                    claimed["extra_pairs"] = {"seeds": seeds, **claim(pairs, lower)}
        doc.setdefault(args.section, {})[workload] = summary
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
