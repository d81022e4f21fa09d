"""Each module's ``__all__`` is its public surface: every name in it must
exist, and every public function and class the module defines must be in it."""

import ast
import importlib
import inspect
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import specden

MODULES = sorted(m.name for m in pkgutil.iter_modules(specden.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"specden.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_listed(name):
    module = importlib.import_module(f"specden.{name}")
    defined = [
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    unlisted = [n for n in defined if n not in module.__all__]
    assert unlisted == []


def test_runtime_imports_no_scipy():
    # scipy is a test-only dependency: the package runs on numpy alone
    offenders = []
    for path in sorted(Path(specden.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert offenders == []


def test_benchmark_per_layer_functions_exist():
    # A traced benchmark run reports a per-layer metric ``layer.func.stat``
    # only while ``specden.<layer>.<func>`` exists: deleting or renaming one
    # drops a declared metric, so it waits for a change to the benchmark.
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"].split(".") for m in bench["per_layer"]]
    missing = [
        f"{layer}.{func}"
        for layer, func, _ in (n for n in names if len(n) == 3)
        if not callable(getattr(importlib.import_module(f"specden.{layer}"), func, None))
    ]
    assert missing == []


def test_no_dispatch_on_method_names():
    # Each estimation method answers for itself through the registry in
    # estimators; a comparison against a method's name would bring back the
    # if-chains that choose a route by name.
    names = {"fejer", "qfejer", "qubitized_fejer", "git", "jackson"}
    offenders = []
    for path in sorted(Path(specden.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(isinstance(o, ast.Constant) and o.value in names for o in operands):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_fourier_transforms_only_in_numerics_and_sampling():
    # numerics holds the Chebyshev DCT pair and sampling the phase-estimation
    # Fourier transforms; an FFT anywhere else would be a second Chebyshev
    # transform beside the one toolkit
    fft = re.compile(r"(np|numpy)\.fft\b")
    offenders = []
    for path in sorted(Path(specden.__file__).parent.glob("*.py")):
        if path.name in ("numerics.py", "sampling.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                used = [ast.unparse(node)]
            elif isinstance(node, ast.ImportFrom):
                used = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                used = [alias.name for alias in node.names]
            else:
                continue
            if any(fft.match(name) for name in used):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_reach_into_another_objects_privates():
    # A `_name` attribute belongs to its object: a module reads or writes
    # one only on `self`, `cls` or a class the module defines, so no object
    # carries state that another module sets behind its back.
    offenders = []
    for path in sorted(Path(specden.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {"self", "cls"} | {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id in owners)
            ):
                offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert offenders == []


def test_traced_benchmark_ops_find_every_declared_function(tmp_path):
    # perfbench's tracer wraps each function it names and reports a missing
    # one as absent: small ops of every workload kind, run traced, must exit
    # 0 and leave no declared per-layer function absent
    root = Path(__file__).resolve().parents[1]
    bench = json.loads((root / "BENCHMARK.json").read_text())
    declared = {".".join(n[:2]) for n in (m["name"].split(".") for m in bench["per_layer"]) if len(n) == 3}
    model = ["--gen", "dense:8", "--seed", "1", "--workers", "1"]
    runs = [
        *(["estimate", "--method", method, "--sigma", "0.1", "--delta", "0.3", "--beta", "0.1", *model]
          for method in ("git", "fejer", "qfejer")),
        ["verify", "--method", "all", "--sigma", "0.25", "--delta", "0.25", "--beta", "0.1",
         "--trials", "4", *model],
        ["plan", "--method", "all", "--sigma", "0.1", "--delta", "0.2"],
    ]
    runs = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(runs)]
    probe = (
        f"import json, sys; sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]; "
        "import specden.cli, layers; tracer = layers.Tracer(); tracer.install(); "
        f"codes = [specden.cli.main(argv) for argv in {runs!r}]; "
        "print(json.dumps([codes, tracer.absent]), file=sys.stderr)"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    codes, absent = json.loads(done.stderr.strip().splitlines()[-1])
    assert codes == [0] * len(runs)
    assert sorted(declared & set(absent)) == []
