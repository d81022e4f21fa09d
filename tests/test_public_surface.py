"""Each module's ``__all__`` is its public surface: every name in it must
exist, and every public function and class the module defines must be in it."""

import importlib
import inspect
import pkgutil

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
