import importlib
import pkgutil

import pytest

import schrodingerizer
import schrodingerizer.models

MODULES = sorted(f"{schrodingerizer.__name__}.{m.name}" for m in pkgutil.iter_modules(schrodingerizer.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    # a deletion that leaves its name in __all__ breaks `import *`, not the tests
    module = importlib.import_module(name)
    assert [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)] == []


def test_generic_path_wrappers_are_gone():
    # ode and liouville configs run ode.SchrodingerisedSystem itself
    for module in (schrodingerizer, schrodingerizer.models):
        assert not {"OdeModel", "LiouvilleModel"} & set(vars(module))
