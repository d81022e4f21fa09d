"""Each module's ``__all__`` is its public surface, so every name in it must exist."""

import importlib
import pkgutil

import pytest

import specden

MODULES = sorted(m.name for m in pkgutil.iter_modules(specden.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"specden.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
