"""Every exported name resolves: ``__all__`` of the package and of each
module lists only names that exist, so ``import *`` works everywhere."""

import importlib
import pkgutil

import pytest

import schsim

# ``__main__`` runs the command line on import
MODULES = sorted(info.name for info in pkgutil.iter_modules(schsim.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", ["schsim"] + [f"schsim.{module}" for module in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
