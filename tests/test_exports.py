import dataclasses
import importlib
import inspect
import json
import pathlib
import pkgutil

import pytest

import schrodingerizer
import schrodingerizer.dilation
import schrodingerizer.grids
import schrodingerizer.models
import schrodingerizer.ode
import schrodingerizer.warp
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


def test_state_time_label_is_gone():
    # a trajectory's times are the only time label of its states
    from schrodingerizer.warp import ModeFrameState, ProductState, WarpedState

    for cls in (WarpedState, ProductState, ModeFrameState):
        assert "t" not in {f.name for f in dataclasses.fields(cls)}, cls.__name__


def test_direct_convection_is_gone():
    # convection runs only the sin(p) warp, so every model state is a warp state
    for module in (schrodingerizer, schrodingerizer.models):
        assert "DirectConvectionModel" not in vars(module)


def test_trajectory_final_is_gone():
    # the last snapshot is states[-1]
    assert not hasattr(evolvers.Trajectory, "final")


def test_u_dim_is_gone():
    # a state's row count comes from its samples (or its amplitudes)
    from schrodingerizer.warp import ModeFrameState, ProductState, WarpedState

    for cls in (WarpedState, ProductState, ModeFrameState):
        assert not hasattr(cls, "u_dim"), cls.__name__


def test_sample_readouts_and_point_node_are_gone():
    # the tests build a state's samples (oracles.samples); a point recovery
    # reads the default node, so no key picks one
    from schrodingerizer.warp import ModeFrameState, PointP, ProductState, WarpedState

    for cls in (WarpedState, ProductState, ModeFrameState):
        assert not {"values", "matrix", "coeffs", "table"} & set(dir(cls)), cls.__name__
    assert not hasattr(schrodingerizer.warp, "_Matrix")
    assert not hasattr(schrodingerizer.grids.PGrid, "index_of")
    assert dataclasses.fields(PointP) == ()


def test_liouville_form_is_gone():
    # the lift is the skew form; the conservative one is a test oracle
    assert "form" not in inspect.signature(schrodingerizer.models.build_liouville).parameters


def test_dilation_variant_and_mode_threshold_are_gone():
    # the dilation contracts by exp(H1 dt) alone, and one cut picks the modes
    for fn in (schrodingerizer.dilation.build_dilation_step, schrodingerizer.dilation.ladder_evolve):
        assert "variant" not in inspect.signature(fn).parameters
    for fn in (schrodingerizer.warp.dominant_mode, schrodingerizer.warp.dominant_speed):
        assert "threshold" not in inspect.signature(fn).parameters
    assert not hasattr(schrodingerizer.dilation, "_sqrt_spectrum")


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
