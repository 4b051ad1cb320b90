import importlib
import pkgutil

import pytest

import modplab

MODULES = sorted(m.name for m in pkgutil.iter_modules(modplab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"modplab.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"modplab.{name}.__all__ names missing attributes: {missing}"
