import dataclasses
import importlib
import json
import pathlib
import pkgutil

import pytest

import schrodingerizer
import schrodingerizer.grids
import schrodingerizer.models
import schrodingerizer.ode
from schrodingerizer import evolvers
from schrodingerizer.config import parse_config

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


def test_kronecker_factor_layer_is_gone():
    # the tests build their dense generators with np.kron (oracles.hamiltonian)
    gone = {"KronOperator", "kron_apply", "Identity", "Diagonal", "Momentum", "Dense"}
    for module in (schrodingerizer, schrodingerizer.grids):
        assert not gone & set(vars(module))
    for module in (schrodingerizer.models, schrodingerizer.ode):
        for name, cls in vars(module).items():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                assert not hasattr(cls, "h_terms"), name


def test_test_only_split_pieces_are_gone():
    # the oracles split Black-Scholes themselves, nothing reads a split's
    # report, and Fokker-Planck holds its H1 alone, with no zero H2
    assert not hasattr(schrodingerizer.models.BlackScholesModel, "split")
    assert not hasattr(schrodingerizer.ode.HermitianSplit, "report")
    fokker_planck = schrodingerizer.models.FokkerPlanckModel
    assert "split" not in {f.name for f in dataclasses.fields(fokker_planck)}
    assert not hasattr(fokker_planck, "split")


@pytest.mark.filterwarnings("ignore::schrodingerizer.ode.StabilityWarning")  # liouville, ode_demo
def test_every_engine_runs_some_bundled_model():
    # an engine stays in the plan's list only while a model that a bundled
    # config builds still offers it
    configs = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "configs"
    offered = set()
    for path in sorted(configs.glob("*.json")):
        if path.stem != "estimate_heat":
            model, _ = parse_config(json.loads(path.read_text())).model.build()
            offered.update(model.engines)
    assert sorted(evolvers.ENGINES) == sorted(offered)
