import importlib
import pkgutil

import pytest

import subreglab

MODULES = ["subreglab"] + sorted(f"subreglab.{m.name}"
                                 for m in pkgutil.iter_modules(subreglab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
