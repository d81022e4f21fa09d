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
