"""Spans and computed counters around the public functions of each specden module.

Each function named in `TRACED` is replaced in every loaded ``specden.*``
namespace that bound it, since ``cli`` and ``estimators`` import some by
name.  Counters other than ``calls`` are computed from call arguments,
so they repeat exactly and ignore cache effects.  `COUNTED` functions run
once per CSV cell or trial seed and only count calls.  A name missing
from the package is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

LAYERS = ("cli", "operators", "kernels", "chebgauss", "sampling", "estimators",
          "metrics", "numerics")


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _table_cells(args, kwargs):
    freqs = _arg(args, kwargs, 1, "frequencies")
    return {"cells": int(np.size(freqs)) * (_arg(args, kwargs, 2, "order") + 1)}


def _matvecs(args, kwargs):
    return {"matvecs": _arg(args, kwargs, 2, "order")}


def _shots(args, kwargs):
    return {"shots": _arg(args, kwargs, 1, "shots")}


def _distribution_cells(args, kwargs):
    cells = _arg(args, kwargs, 1, "n") * _arg(args, kwargs, 0, "model").size
    return {"cells": cells, "bytes": 8 * cells}


def _scan_cells(args, kwargs):
    kernel = _arg(args, kwargs, 0, "kernel")
    delta = _arg(args, kwargs, 1, "delta")
    spacing = _arg(args, kwargs, 2, "spacing")
    h = delta / 20.0 if spacing is None else float(spacing)
    lo = 0.0 if type(kernel).__name__ == "QubitizedFejerKernel" else -1.0
    centres = np.arange(lo, 1.0 + h / 2.0, h).size
    return {"cells": centres * getattr(kernel, "n", 1)}


def _trials(args, kwargs):
    model = _arg(args, kwargs, 0, "model")
    models = 1 if hasattr(model, "eigenvalues") else len(model)
    return {"trials": _arg(args, kwargs, 4, "trials") * models}


# layer -> {public function: computed-counter function or None}
TRACED = {
    "cli": {"main": None},
    "operators": dict.fromkeys((
        "random_model", "normalize_operator", "diagonalize", "exact_transform",
        "observable_exact", "observable_from_transform", "model_to_json",
        "model_from_json")),
    "kernels": {
        **dict.fromkeys((
            "fejer_grid", "fejer_eval", "fejer_plan", "qubitized_fejer_eval",
            "qubitized_fejer_plan", "gaussian_resolution", "kernel_value",
            "jackson_coeffs", "jackson_approx", "amplifier_coeffs",
            "jackson_normalization", "jackson_plan", "jackson_eval")),
        "sigma_accuracy": _scan_cells,
    },
    "chebgauss": {
        "gauss_cheb_coeffs": None,
        "coefficient_table": _table_cells,
        "truncation_order": None,
        "cheb_moments": _matvecs,
        "git_transform_from_moments": None,
    },
    "sampling": {
        "qpe_distribution": _distribution_cells,
        "qubitized_qpe_distribution": _distribution_cells,
        "statevector_qpe": None,
        "hadamard_test_sample": _shots,
    },
    "estimators": dict.fromkeys((
        "plan_fejer_samples", "plan_git_samples", "run_algorithm1",
        "run_algorithm2", "complexity_table")),
    "metrics": {
        "total_variation": None,
        "observable_bound": None,
        "observable_bound_empirical_check": _trials,
        "merge_reports": None,
    },
    "numerics": dict.fromkeys(("cheb_series_coeffs", "child_rng", "adaptive_simpson")),
}

COUNTED = {"numerics": ("derive_seed", "fmt_float")}


class Tracer:
    """Spans and counters of one op, kept in memory until the op ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def span(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(args, kwargs).items():
                    key = f"{name}.{key}"
                    counts[key] = counts.get(key, 0) + value
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        return traced

    def count(self, name, fn):
        counts, key = self.counts, f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap the named functions in every loaded specden namespace."""
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"specden.{layer}")
            except ImportError:
                module = None
            for fname, counter in TRACED.get(layer, {}).items():
                self._patch(module, layer, fname, functools.partial(self.span, counter=counter))
            for fname in COUNTED.get(layer, ()):
                self._patch(module, layer, fname, self.count)

    def _patch(self, module, layer, fname, make) -> None:
        name = f"{layer}.{fname}"
        original = getattr(module, fname, None)
        if not callable(original):
            self.absent.append(name)
            return
        wrapped = make(name, original)
        for modname, namespace in list(sys.modules.items()):
            if modname != "specden" and not modname.startswith("specden."):
                continue
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapped)
