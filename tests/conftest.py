"""Fixtures shared by the test modules."""

from pathlib import Path

import numpy as np
import pytest


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


@pytest.fixture
def write_model_file():
    """The writer of a ``--model`` file: ``write(path, op, psi)``.

    It writes a ``dim N`` header, the operator's rows, then the probe
    row, each entry a complex literal of 17 significant digits, so that
    ``operators.read_model_file`` parses back every float as written.
    """

    def write(path, op, psi):
        rows = (" ".join(_fmt_complex(z) for z in row) for row in (*op.matrix, psi.vector))
        Path(path).write_text("\n".join((f"dim {op.dim}", *rows)) + "\n")

    return write


@pytest.fixture
def eigensolves(monkeypatch):
    """Record every ``np.linalg.eigh`` and ``eigvalsh`` call as a ``(name, matrix)`` pair."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _solver=solver, **kwargs):
            calls.append((_name, a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def qrs(monkeypatch):
    """Record every ``np.linalg.qr`` call by the matrix it factors."""
    calls = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(a)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


@pytest.fixture
def matrix_builds(monkeypatch):
    """Record the shape of every operator matrix built and checked."""
    from specden.operators import HermitianOperator

    builds = []
    init = HermitianOperator.__init__

    def counted(op, matrix, eig=None):
        builds.append(np.shape(matrix))
        init(op, matrix, eig)

    monkeypatch.setattr(HermitianOperator, "__init__", counted)
    return builds
