"""Fixtures shared by the test modules."""

import numpy as np
import pytest


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
