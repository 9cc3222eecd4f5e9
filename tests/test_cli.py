import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import schrodingerizer
from schrodingerizer import cli
from schrodingerizer.cli import main
from schrodingerizer.config import ConfigError, parse_config
from schrodingerizer.evolvers import EvolutionPlan
from schrodingerizer.grids import Grid, PGrid, to_modes
from schrodingerizer.models import build_heat
from schrodingerizer.ode import SchrodingerisedSystem, StabilityWarning
from schrodingerizer.warp import (
    IntegrateP,
    ModeFrameState,
    PointP,
    WarpedState,
    _x_mode,
    extend_initial,
    recover,
)

from oracles import commuting_matrix, peak_bytes, samples, samples_state


T_STAR = 4.0 / math.pi**2
ROOT = pathlib.Path(__file__).resolve().parents[1]


def heat_config(out_dir, engine="exact_diagonal", dt=None, n_points=512, error=True):
    cfg = {
        "model": {
            "kind": "heat",
            "grid": {"a": -1.0, "b": 1.0, "points": 16},
            "pgrid": {
                "left": -5.0,
                "right": 5.0,
                "points": n_points,
                "alpha_neg": 10.0,
                "left_support": -1.0,
            },
            "params": {"initial": {"type": "sine", "k": 1}, "potential": None},
        },
        "engine": {"kind": engine, "t_final": T_STAR},
        "recovery": {"kind": "point"},
        "outputs": {
            "snapshots": [0.0, T_STAR],
            "diagnostics": {"norm": True, "error_vs_exact": error, "mode_profile": "dominant"},
        },
        "out_dir": str(out_dir),
    }
    if dt is not None:
        cfg["engine"]["dt"] = dt
    return cfg


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _bundled_config(name, out_dir, **diagnostics):
    raw = json.loads((ROOT / "scripts" / "configs" / f"{name}.json").read_text())
    raw["outputs"]["diagnostics"].update(diagnostics)
    raw["out_dir"] = str(out_dir)
    return raw


def test_validate_accepts_good_config(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", heat_config(tmp_path / "out"))
    assert main(["validate", "--config", cfg]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_unknown_keys(tmp_path, capsys):
    raw = heat_config(tmp_path / "out")
    raw["model"]["mystery"] = 1
    cfg = write_json(tmp_path / "cfg.json", raw)
    assert main(["validate", "--config", cfg]) == 2
    assert "mystery" in capsys.readouterr().err


def _bad_configs(out_dir):
    off_step = heat_config(out_dir, engine="trotter", dt=0.1)
    off_step["engine"]["t_final"] = 1.0
    off_step["outputs"]["snapshots"] = [0.25, 1.0]
    no_width = heat_config(out_dir)
    no_width["model"]["params"]["initial"] = {"type": "gaussian"}
    nan_amplitude = heat_config(out_dir)
    nan_amplitude["model"]["params"]["initial"]["amplitude"] = float("nan")
    huge_k = heat_config(out_dir)
    huge_k["model"]["params"]["initial"]["k"] = 10**400  # an integer no float holds
    ode = {
        "model": {"kind": "ode", "params": {"a": [[-1.0, 0.2], [0.0]], "u0": [1.0, 0.5]}},
        "engine": {"kind": "exact_diagonal", "t_final": 1.0},
        "out_dir": str(out_dir),
    }
    infinite_entry = json.loads(json.dumps(ode))
    infinite_entry["model"]["params"]["a"][1] = [0.0, float("inf")]
    half_quadrature = heat_config(out_dir, engine="trotter", dt=T_STAR / 8)
    half_quadrature["model"].update(kind="boltzmann")
    half_quadrature["model"]["params"] = {"initial": {"type": "sine"}, "weights": [0.5, 0.5]}
    # rejected by the model builders and by the model's engine list
    bs_sigma = heat_config(out_dir, error=False)
    bs_sigma["model"].update(kind="black_scholes")
    bs_sigma["model"]["params"] = {"initial": {"type": "sine"}, "r": 0.05, "sigma": -0.2}
    fp_sigma = heat_config(out_dir, error=False)
    fp_sigma["model"].update(kind="fokker_planck")
    fp_sigma["model"]["params"] = {
        "initial": {"type": "sine"},
        "potential": {"type": "cosine", "k": 1, "amplitude": 0.5},
        "sigma": 0.0,
    }
    fp_overflow = json.loads(json.dumps(fp_sigma))
    fp_overflow["model"]["params"].update(
        sigma=0.01, potential={"type": "cosine", "k": 1, "amplitude": 1e4}
    )
    # exp(+-V/sigma) is finite, but the conservation sandwich
    # exp(V/(2 sigma)) P exp(-V/sigma) P exp(V/(2 sigma)) is not
    fp_operator_overflow = json.loads(json.dumps(fp_sigma))
    fp_operator_overflow["model"]["params"].update(
        sigma=1.0, potential={"type": "cosine", "k": 1, "amplitude": 400.0}
    )
    liouville = {
        "model": {
            "kind": "liouville",
            "grid": {"a": -1.0, "b": 1.0, "points": 16},
            "params": {"field": {"type": "linear", "rate": -1.0}, "q0": 0.5, "width": 0.0},
        },
        "engine": {"kind": "exact_diagonal", "t_final": 1.0},
        "out_dir": str(out_dir),
    }
    q0_at_edge = json.loads(json.dumps(liouville))
    q0_at_edge["model"]["params"].update(q0=0.95, width=0.05)
    # a dense lattice operator has at most 1024 sites, refused before any
    # n x n matrix is allocated
    dense_too_large = {}
    for form in ("conservation", "heat_form"):
        dense_too_large[f"fokker_planck_{form}"] = json.loads(json.dumps(fp_sigma))
        dense_too_large[f"fokker_planck_{form}"]["model"]["params"].update(sigma=1.0, form=form)
    dense_too_large["liouville"] = json.loads(json.dumps(liouville))
    dense_too_large["liouville"]["model"]["params"]["width"] = 0.05
    for raw in dense_too_large.values():
        raw["model"]["grid"]["points"] = 2048
    convection_trotter = {
        "model": {
            "kind": "convection",
            "grid": {"a": -1.0, "b": 1.0, "points": 16},
            "params": {"initial": {"type": "sine"}},
        },
        "engine": {"kind": "trotter", "dt": 0.1, "t_final": 0.3},
        "out_dir": str(out_dir),
    }
    # diagnostics switches are booleans, and a profile mode is not one
    switches = {}
    for key, value in (("norm", 1), ("mass", "false"), ("error_vs_exact", "no"), ("mode_profile", True)):
        switches[key] = heat_config(out_dir)
        switches[key]["outputs"]["diagnostics"][key] = value
    center_text = heat_config(out_dir)
    center_text["model"]["params"]["initial"] = {"type": "gaussian", "width": 0.2, "center": "abc"}
    center_bool = json.loads(json.dumps(center_text))
    center_bool["model"]["params"]["initial"]["center"] = True
    # a center is one number for every axis or one per axis
    center_2_on_1d = json.loads(json.dumps(center_text))
    center_2_on_1d["model"]["params"]["initial"]["center"] = [0.1, 0.7]
    center_2_on_3d = json.loads(json.dumps(center_2_on_1d))
    center_2_on_3d["model"]["grid"].update(points=4, dims=3)
    # exact_diagonal evolves to each snapshot exactly and would ignore a dt
    exact_dt = heat_config(out_dir, dt=0.0123)
    # a point recovery reads the third node above zero; no key picks another
    p_star = heat_config(out_dir)
    p_star["recovery"] = {"kind": "point", "p_star": 0.1}
    # checked on the warped initial state, by the calls run makes per snapshot
    mode_out_of_range = heat_config(out_dir)
    mode_out_of_range["outputs"]["diagnostics"]["mode_profile"] = 99
    zero_dominant = heat_config(out_dir)
    zero_dominant["model"]["params"]["initial"] = {"type": "zero"}
    # engines a heat model runs only for a constant potential or on at most
    # 1024 sites, or in 1-D
    heat_varying_exact = heat_config(out_dir, error=False)
    heat_varying_exact["model"]["grid"].update(points=64, dims=2)
    heat_varying_exact["model"]["params"]["potential"] = {"type": "cosine", "k": 1, "amplitude": 0.5}
    heat_upwind_2d = heat_config(out_dir, engine="upwind_fd", dt=T_STAR / 16, error=False)
    heat_upwind_2d["model"]["grid"]["dims"] = 2
    # or without a positive eigenvalue in the upwind transport matrix
    heat_upwind_positive = heat_config(out_dir, engine="upwind_fd", dt=T_STAR / 16, error=False)
    heat_upwind_positive["model"]["params"]["potential"] = {"type": "constant", "value": 5.0}
    # an engine no model runs any more
    dense_expm = heat_config(out_dir)
    dense_expm["engine"]["kind"] = "dense_expm"
    # nothing in a run is random, so there is no seed to set
    seeded = heat_config(out_dir)
    seeded["seed"] = 7
    # convection recovers by projection, reading no p node: a point
    # recovery it would ignore is refused
    convection_point = _bundled_config("convection", out_dir)
    convection_point["recovery"] = {"kind": "point"}
    # the sin(p) warp is the only convection variant
    convection_direct = _bundled_config("convection", out_dir)
    convection_direct["model"]["params"]["variant"] = "direct"
    # a state without a spatial grid has no x-mode profile to write
    no_grid_profile = {
        name: _bundled_config(name, out_dir, mode_profile=mode)
        for name, mode in (("boltzmann", 5), ("liouville", "dominant"), ("ode_demo", 0))
    }
    no_grid_message = "$.outputs.diagnostics.mode_profile: model {!r} has no x modes"
    return {
        **{
            f"non_boolean_{key}": (raw, f"$.outputs.diagnostics.{key}")
            for key, raw in switches.items()
        },
        "gaussian_text_center": (center_text, "$.model.params.initial.center"),
        "gaussian_boolean_center": (center_bool, "$.model.params.initial.center"),
        "gaussian_two_centers_on_1d_grid": (
            center_2_on_1d,
            "$.model.params.initial.center: 2 entries for a 1-D grid; give one, or one per axis",
        ),
        "gaussian_two_centers_on_3d_grid": (
            center_2_on_3d,
            "$.model.params.initial.center: 2 entries for a 3-D grid",
        ),
        "exact_diagonal_dt": (exact_dt, "$.engine.dt: engine 'exact_diagonal' takes no dt; it evolves exactly"),
        "p_star_key": (p_star, "$.recovery: unknown keys ['p_star']"),
        "profile_mode_out_of_range": (
            mode_out_of_range,
            "$.outputs.diagnostics.mode_profile: mode index 99 out of range",
        ),
        "dominant_profile_zero_initial": (
            zero_dominant,
            "$.outputs.diagnostics.mode_profile: initial data is identically zero",
        ),
        "trotter_off_step_snapshot": (off_step, "$.engine"),
        "gaussian_without_width": (no_width, "$.model.params.initial"),
        "nan_amplitude": (nan_amplitude, "$.model.params.initial.amplitude"),
        "integer_beyond_float_range": (huge_k, "$.model.params.initial.k"),
        "non_square_ode_matrix": (ode, "$.model.params.a"),
        "infinite_ode_entry": (infinite_entry, "$.model.params.a[1][1]"),
        "weights_without_ordinates": (half_quadrature, "$.model.params: missing keys ['ordinates']"),
        "black_scholes_negative_sigma": (bs_sigma, "$.model: sigma must be positive"),
        "fokker_planck_zero_sigma": (fp_sigma, "$.model: sigma must be positive"),
        "fokker_planck_exp_overflow": (fp_overflow, "$.model: exp(V/sigma) overflows"),
        "fokker_planck_operator_overflow": (
            fp_operator_overflow,
            "$.model: the Fokker-Planck operator H1 is not finite on this grid; rescale V or sigma",
        ),
        "liouville_zero_width": (liouville, "$.model: width must be positive"),
        **{
            f"{name}_on_2048_sites": (
                raw, "$.model: a dense operator is built on at most 1024 lattice sites; this grid has 2048"
            )
            for name, raw in dense_too_large.items()
        },
        "liouville_q0_near_boundary": (q0_at_edge, "$.model: q0 is within 3*width"),
        "convection_trotter_engine": (
            convection_trotter,
            "$.engine.kind: model 'convection' runs exact_diagonal, not 'trotter'",
        ),
        "heat_exact_diagonal_varying_potential": (
            heat_varying_exact,
            "$.engine.kind: model 'heat' runs trotter, not 'exact_diagonal'",
        ),
        "heat_upwind_fd_2d": (
            heat_upwind_2d,
            "$.engine.kind: model 'heat' runs exact_diagonal or trotter, not 'upwind_fd'",
        ),
        "heat_upwind_fd_positive_potential": (
            heat_upwind_positive,
            "$.engine.kind: model 'heat' runs exact_diagonal or trotter, not 'upwind_fd'",
        ),
        "dense_expm_engine": (dense_expm, "$.engine: unknown engine 'dense_expm'"),
        "seed_key": (seeded, "$: unknown keys ['seed']"),
        "convection_sin_p_point_recovery": (convection_point, "$.recovery: kind 'point' does not apply"),
        "convection_direct_variant": (
            convection_direct,
            "$.model.params.variant: expected one of ('sin_p',), got 'direct'",
        ),
        **{
            f"mode_profile_{name}": (raw, no_grid_message.format(raw["model"]["kind"]))
            for name, raw in no_grid_profile.items()
        },
    }


@pytest.mark.parametrize("case", list(_bad_configs("out")))
@pytest.mark.parametrize("command", ["validate", "run"])
def test_bad_config_exits_2_before_running(tmp_path, capsys, command, case):
    # every config check that run makes before it evolves is made by validate
    raw, path = _bad_configs(tmp_path / "out")[case]
    cfg = write_json(tmp_path / "cfg.json", raw)
    assert main([command, "--config", cfg]) == 2
    assert f"error: {path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fokker_planck_operator_overflow_is_one_error_line(tmp_path, capsys):
    # the operator is built under np.errstate: its overflow is the error
    # with the remedy, not a numpy warning as well
    raw, _ = _bad_configs(tmp_path / "out")["fokker_planck_operator_overflow"]
    assert main(["validate", "--config", write_json(tmp_path / "cfg.json", raw)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: $.model: the Fokker-Planck operator H1 is not finite on this grid; rescale V or sigma"
    ]


def test_parse_rejects_bad_values(tmp_path):
    raw = heat_config(tmp_path / "out")
    raw["engine"]["t_final"] = -1.0
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw = heat_config(tmp_path / "out")
    raw["recovery"] = {"kind": "integrate", "p_star": 0.1}
    with pytest.raises(ConfigError, match=r"^\$\.recovery: unknown keys \['p_star'\]$"):
        parse_config(raw)


def test_run_heat_emits_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_json(tmp_path / "cfg.json", heat_config(out))
    assert main(["run", "--config", cfg]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert "diagnostics.csv" in names
    assert "manifest.json" in names
    assert "snapshot_000.csv" in names and "snapshot_001.csv" in names
    assert "profile_000.csv" in names
    header, rows = read_rows(out / "diagnostics.csv")
    assert header == ["time", "norm2", "error_vs_exact", "mass"]
    final = rows[-1]
    assert float(final[0]) == pytest.approx(T_STAR)
    assert float(final[2]) <= 2e-2  # point-recovery error against the exact flow
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["engine"] == "exact_diagonal"
    assert manifest["config"]["model"]["kind"] == "heat"


def test_run_resolves_dominant_mode_once(tmp_path, monkeypatch):
    calls = []
    resolve = cli.dominant_mode
    monkeypatch.setattr(cli, "dominant_mode", lambda *a: calls.append(a) or resolve(*a))
    raw = heat_config(tmp_path / "out")
    raw["outputs"]["snapshots"] = [0.0, 0.1, T_STAR]
    assert main(["run", "--config", write_json(tmp_path / "cfg.json", raw)]) == 0
    assert len(calls) == 1
    assert len(list((tmp_path / "out").glob("profile_*.csv"))) == 3


def test_run_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = write_json(tmp_path / "c1.json", heat_config(out1))
    cfg2 = write_json(tmp_path / "c2.json", heat_config(out2))
    assert main(["run", "--config", cfg1]) == 0
    assert main(["run", "--config", cfg2]) == 0
    for name in ("diagnostics.csv", "snapshot_001.csv", "profile_000.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_round_trip(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = write_json(tmp_path / "cfg.json", heat_config(out1))
    assert main(["run", "--config", cfg]) == 0
    manifest = str(out1 / "manifest.json")
    assert main(["run", "--config", manifest, "--out", str(out2)]) == 0
    for name in ("diagnostics.csv", "snapshot_000.csv", "snapshot_001.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_cfl_violation_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    # dt far above the admissible bound for the upwind march
    cfg = write_json(
        tmp_path / "cfg.json", heat_config(out, engine="upwind_fd", dt=T_STAR / 16, error=False)
    )
    assert main(["run", "--config", cfg]) == 2
    assert "admissible" in capsys.readouterr().err


@pytest.mark.parametrize("factor", [1e9, float("nan")], ids=["1e9", "nan"])
def test_run_blowup_exits_3(tmp_path, monkeypatch, factor):
    from schrodingerizer import models as model_mod
    from schrodingerizer.evolvers import Trajectory

    def explode(self, w0, plan):
        traj = Trajectory()
        traj.add(plan.t_final, samples_state(values=samples(w0) * factor, pgrid=w0.pgrid, grid=w0.grid))
        return traj

    monkeypatch.setattr(model_mod.HeatModel, "evolve", explode)
    out = tmp_path / "out"
    raw = heat_config(out, error=False)
    raw["outputs"]["snapshots"] = [T_STAR]
    raw["outputs"]["diagnostics"] = {"norm": True}
    cfg = write_json(tmp_path / "cfg.json", raw)
    assert main(["run", "--config", cfg]) == 3
    assert (out / "diagnostics.csv").exists()  # partial outputs kept


@pytest.mark.parametrize("poison", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_exact_route_blowup_exits_3(tmp_path, monkeypatch, poison):
    # the exact route's snapshots stay in the factored mode frame, and the
    # norm guard reads their factors: one non-finite transport-table entry
    # still trips it
    from schrodingerizer import evolvers

    transport_phase = evolvers._transport_phase

    def poisoned(*args):
        coarse, fine = transport_phase(*args)
        coarse[1, 3] = poison
        return coarse, fine

    monkeypatch.setattr(evolvers, "_transport_phase", poisoned)
    out = tmp_path / "out"
    raw = heat_config(out)
    with pytest.raises(cli.BlowUpError, match="not finite"):
        cli.run_experiment(parse_config(raw), str(out))
    assert main(["run", "--config", write_json(tmp_path / "cfg.json", raw)]) == 3
    assert (out / "diagnostics.csv").exists()  # partial outputs kept


def test_exact_route_makes_no_full_state_transform(tmp_path, monkeypatch):
    # modelled on test_trotter_transform_budget: the product initial state
    # enters the mode frame by one transform of u0 and one of the p profile,
    # and every snapshot is read from its coefficients, so no transform of
    # a whole run sees an array of M^d * P entries
    from schrodingerizer import evolvers, grids

    sizes = []

    def recording(transform):
        def wrapper(values, *args, **kwargs):
            sizes.append(np.size(values))
            return transform(values, *args, **kwargs)

        return wrapper

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "schrodingerizer"]
    for original in (evolvers._fftn, evolvers._ifftn, grids.to_modes, grids.from_modes):
        wrapper = recording(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    raw = heat_config(tmp_path / "out", n_points=128)
    raw["model"]["grid"] = {"a": -1.0, "b": 1.0, "points": 8, "dims": 2}
    raw["outputs"]["snapshots"] = [0.0, T_STAR / 2, T_STAR]
    cfg = parse_config(raw)
    assert cli.run_experiment(cfg, str(tmp_path / "out")) == 0
    assert sizes and max(sizes) <= 128 < 8 * 8 * 128
    model, u0 = cfg.model.build()
    sizes.clear()
    traj = model.evolve(model.initial_state(u0), cfg.plan)
    assert sorted(sizes) == [64, 128]
    assert traj.x_transforms == traj.p_transforms == 1
    # on a dense basis (the shared eigenbasis of Fokker-Planck, and of heat
    # with a varying potential) the state enters by q^H u0, a matrix
    # product, and one transform of the p profile, and every readout, the
    # profiles included, stays P-sized
    raw["model"]["params"]["potential"] = {"type": "cosine", "k": 1, "amplitude": 0.5}
    fokker_planck = _fokker_planck_config(tmp_path / "fp", "conservation")
    for name, dense_case in (("fp", fokker_planck), ("heat_v", raw)):
        sizes.clear()
        cfg = parse_config(dense_case)
        assert cli.run_experiment(cfg, str(tmp_path / name)) == 0
        model, u0 = cfg.model.build()
        assert sizes and max(sizes) <= 128 < model.grid.size * 128
        sizes.clear()
        traj = model.evolve(model.initial_state(u0), cfg.plan)
        assert sizes == [128]
        assert (traj.x_transforms, traj.p_transforms) == (0, 1)


def _fokker_planck_config(out_dir, form):
    return {
        "model": {
            "kind": "fokker_planck",
            "grid": {"a": -1.0, "b": 1.0, "points": 16},
            "pgrid": {"left": -14.0, "right": 6.0, "points": 128, "alpha_neg": 10.0,
                      "left_support": -1.0},
            "params": {
                "initial": {"type": "gaussian", "width": 0.3},
                "potential": {"type": "cosine", "k": 1, "amplitude": 0.5},
                "sigma": 1.0,
                "form": form,
            },
        },
        "engine": {"kind": "exact_diagonal", "t_final": 0.2},
        "recovery": {"kind": "point"},
        "outputs": {
            "snapshots": [0.0, 0.1, 0.2],
            "diagnostics": {"norm": True, "mass": True, "mode_profile": "dominant"},
        },
        "out_dir": str(out_dir),
    }


def _commuting_ode_config(out_dir):
    a = commuting_matrix(5, 4)
    return {
        "model": {
            "kind": "ode",
            "params": {
                "a": [[[z.real, z.imag] for z in row] for row in a.tolist()],
                "u0": [1.0, -0.5, 0.25, 2.0],
            },
        },
        "engine": {"kind": "exact_diagonal", "t_final": 1.0},
        "recovery": {"kind": "integrate"},
        "outputs": {"snapshots": [0.0, 0.5, 1.0], "diagnostics": {"norm": True}},
        "out_dir": str(out_dir),
    }


def _factored_route_config(case, out_dir):
    """Configs of every route that evolves the initial product from its
    factors: those whose snapshots are factored ModeFrameStates, and the
    heat split step (``*_trotter*``, with a cosine potential) over 8 steps,
    on its step loop (M = 16) and per axis (8^2 in 2-D), and over 64 steps
    (``*_powers``) on the power route in 1-D (M = 16) and per axis on 4^2
    in 2-D (powers are a 1-D route), the exact heat route with that
    potential (``*_varying_v``, on 8^2 sites) and the heat upwind march
    (1400 steps, inside the CFL bound of M = 16, P = 128)."""
    if case == "heat1d_upwind":
        return heat_config(out_dir, engine="upwind_fd", dt=T_STAR / 1400, n_points=128)
    if case.startswith("heat"):
        trotter, powers = "_trotter" in case, case.endswith("_powers")
        raw = heat_config(out_dir, engine="trotter" if trotter else "exact_diagonal",
                          dt=T_STAR / (64 if powers else 8) if trotter else None, n_points=128)
        if case.startswith("heat2d"):
            raw["model"]["grid"] = {"a": -1.0, "b": 1.0, "points": 4 if powers else 8, "dims": 2}
        if trotter or case.endswith("_varying_v"):
            raw["model"]["params"]["potential"] = {"type": "cosine", "k": 1, "amplitude": 0.5}
        return raw
    if case.startswith("fokker_planck"):
        return _fokker_planck_config(out_dir, case.removeprefix("fokker_planck_"))
    if case == "commuting_ode":
        return _commuting_ode_config(out_dir)
    # Liouville's state has no spatial grid, so it writes no mode profile
    profile = {} if case == "liouville" else {"mode_profile": "dominant"}
    return _bundled_config(case, out_dir, **profile)


FACTORED_ROUTES = [
    "heat2d", "black_scholes", "convection", "fokker_planck_conservation",
    "fokker_planck_heat_form", "liouville", "commuting_ode", "heat1d_trotter", "heat2d_trotter",
    "heat1d_trotter_powers", "heat2d_trotter_powers", "heat1d_upwind", "heat2d_varying_v",
]


@pytest.mark.parametrize("case", FACTORED_ROUTES)
def test_factored_routes_never_materialise_the_state(tmp_path, monkeypatch, case):
    # the run reads the norm, the recovery and the profiles of every
    # snapshot from its factors: no readout builds the samples or the
    # coefficients of a snapshot or of the initial product (test_exports).
    # The split step enters from the factors too and
    # evolves only the P/2 + 1 p modes eta <= 0: its step loop (1-D)
    # transforms them, that wide, once each way per step, and its per-axis
    # route (2-D) and power route (1-D) transform only the M-wide identity,
    # from which they build the kinetic blocks.  Its snapshots keep those p
    # modes.  The upwind march and the exact heat route with a varying
    # potential enter a dense eigenbasis by a matrix product and make no x
    # transform
    from schrodingerizer import evolvers

    widths = []
    fftn = evolvers._fftn

    def recording(values, *args, **kwargs):
        widths.append(values.shape[-1])
        return fftn(values, *args, **kwargs)

    monkeypatch.setattr(evolvers, "_fftn", recording)
    raw = _factored_route_config(case, tmp_path / "out")
    trotter = "_trotter" in case
    if trotter:
        del raw["outputs"]["diagnostics"]["mode_profile"]
    cfg = parse_config(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, u0 = cfg.model.build()
        traj = model.evolve(model.initial_state(u0), cfg.plan)
        kind = WarpedState if trotter else ModeFrameState
        assert traj.states and all(isinstance(s, kind) for s in traj.states)
        assert cli.run_experiment(cfg, str(tmp_path / "out")) == 0
    assert len(list((tmp_path / "out").glob("snapshot_*.csv"))) == len(cfg.plan.snapshot_times)
    # widths of the forward transforms of two evolves: the one above and the run's
    if case.endswith("_powers") or case == "heat2d_trotter":
        assert widths == [model.grid.points] * 2 and traj.x_transforms == 2
    elif trotter:
        assert widths == [model.pgrid.points // 2 + 1] * (2 * cfg.plan.n_steps)
        assert traj.x_transforms == 2 * cfg.plan.n_steps
    elif case in ("heat1d_upwind", "heat2d_varying_v"):
        assert widths == [] and (traj.x_transforms, traj.p_transforms) == (0, 1)


def test_exact_route_peak_memory_stays_below_one_state():
    # the coefficients of a 32^2 x 1024 heat state are one 16 MiB array;
    # evolving it and reading every snapshot (norm, both recoveries, a
    # profile) never holds as much
    grid = Grid(-1, 1, 32, 2)
    model = build_heat(None, grid, PGrid(-4, 5, 1024, alpha_neg=10.0, left_support=-1.0))
    w0 = model.initial_state(grid.sample(lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y)))
    plan = EvolutionPlan("exact_diagonal", dt=0.05, t_final=0.05, snapshot_times=(0.0, 0.025, 0.05))

    def evolve_and_read():
        for state in model.evolve(w0, plan).states:
            state.norm()
            recover(state, PointP())
            recover(state, IntegrateP())
            state.mode_profile(grid.size // 2 + 33)

    assert peak_bytes(evolve_and_read) < grid.size * 1024 * 16


def _csv_oracle_config(case, out_dir):
    """Configs of ``test_run_csv_bytes_match_write_csv``: 2-D and 1-D heat
    with profiles, Boltzmann (integer ordinate and index columns), 2-D
    convection on 64^2 sites and a grid-less ODE (integer index column)."""
    if case == "boltzmann":
        return _bundled_config("boltzmann", out_dir)
    if case == "heat1d_profiles":
        return heat_config(out_dir, n_points=8192)
    if case == "convection2d_64x64":
        raw = _bundled_config("convection", out_dir)
        raw["model"]["grid"] = {"a": -1.0, "b": 1.0, "points": 64, "dims": 2}
        return raw
    if case == "ode":
        return _ode_config(out_dir)
    return _factored_route_config("heat2d", out_dir)


@pytest.mark.filterwarnings("ignore::schrodingerizer.ode.StabilityWarning")  # the ODE's source
@pytest.mark.parametrize(
    "case", ["heat2d_profiles", "boltzmann", "heat1d_profiles", "convection2d_64x64", "ode"]
)
def test_run_csv_bytes_match_write_csv(tmp_path, case):
    # the run formats the coordinate and p columns once per run, into one
    # template per kind of file; every snapshot and profile file is still
    # byte-equal to _write_csv of its rows
    cfg = parse_config(_csv_oracle_config(case, tmp_path / "out"))
    assert cli.run_experiment(cfg, str(tmp_path / "out")) == 0
    model, _, w0, mode = cli._prepare(cfg)
    assert (mode is None) == (case in ("boltzmann", "convection2d_64x64", "ode"))
    header, axes = model.coords()
    coords = list(itertools.product(*axes))
    traj = model.evolve(w0, cfg.plan)
    want = tmp_path / "want.csv"
    for idx, state in enumerate(traj.states):
        recovered = np.ravel(model.recover(state, cfg.recovery)).tolist()
        rows = [[*c, v.real, v.imag, abs(v)] for c, v in zip(coords, recovered, strict=True)]
        cli._write_csv(str(want), header + ["re", "im", "abs"], rows)
        assert (tmp_path / "out" / f"snapshot_{idx:03d}.csv").read_bytes() == want.read_bytes()
        if mode is not None:
            rows = [[p, a] for p, a in zip(w0.pgrid.axis(), np.abs(state.mode_profile(mode)))]
            cli._write_csv(str(want), ["p", "abs"], rows)
            assert (tmp_path / "out" / f"profile_{idx:03d}.csv").read_bytes() == want.read_bytes()


def test_recovered_size_unlike_coordinates_exits_2(tmp_path, monkeypatch, capsys):
    # a model whose coordinates list fewer sites than its recovered u has
    # entries is refused with both sizes named, not a traceback
    from schrodingerizer.models import HeatModel

    monkeypatch.setattr(HeatModel, "coords", lambda self: (["x1"], [self.grid.axis().tolist()[:-1]]))
    cfg = write_json(tmp_path / "cfg.json", heat_config(tmp_path / "out"))
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "recovered u has 16 entries" in err and "15 sites" in err


BUNDLED = sorted(p.stem for p in (ROOT / "scripts" / "configs").glob("*.json") if p.stem != "estimate_heat")


@pytest.mark.filterwarnings("ignore::schrodingerizer.ode.StabilityWarning")  # ode_demo's source
@pytest.mark.parametrize("name", BUNDLED)
def test_every_bundled_model_returns_warped_states(name):
    # one protocol: every engine hands back one warp state per snapshot
    # time, and the model's recovery reads each of them
    cfg = parse_config(_bundled_config(name, "out"))
    model, _, w0, _ = cli._prepare(cfg)
    traj = model.evolve(w0, cfg.plan)
    assert traj.times == list(cfg.plan.snapshot_times)
    for state in traj.states:
        assert isinstance(state, (WarpedState, ModeFrameState))
        assert np.all(np.isfinite(model.recover(state, cfg.recovery)))


def test_generic_path_configs_run_the_schrodingerised_system():
    # ode and liouville configs run the system itself: its rows are lattice
    # nodes when it carries the Liouville grid, else components; both H1
    # have a positive eigenvalue (H1 = I/2, the source column), which warns
    for name, header in (("liouville", ["x1"]), ("ode_demo", ["index"])):
        with pytest.warns(StabilityWarning, match="not negative semi-definite"):
            model = cli._prepare(parse_config(_bundled_config(name, "out")))[0]
        assert isinstance(model, SchrodingerisedSystem)
        assert model.coords()[0] == header


@pytest.mark.parametrize("command", ["validate", "run"])
def test_stability_warning_is_one_config_line(tmp_path, capsys, command):
    # the CLI reports the builder's warning under its config path, with
    # lambda_max(H1), and no package source location or line
    cfg = write_json(tmp_path / "cfg.json", _bundled_config("liouville", tmp_path / "out"))
    assert main([command, "--config", cfg]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "warning: $.model: H1 is not negative semi-definite (lambda_max(H1) = 0.5); "
        "p-transport moves rightward and recovery may be inaccurate"
    ]
    assert "config.py" not in err


def test_run_linalg_failure_exits_3(tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError but is a numerical failure, not a
    # config error
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    cfg = {
        "model": {"kind": "ode", "params": {"a": [[-1.0, 0.2], [0.0, -0.5]], "u0": [1.0, 0.5]}},
        "engine": {"kind": "exact_diagonal", "t_final": 1.0},
        "recovery": {"kind": "integrate"},
        "outputs": {"snapshots": [1.0]},
        "out_dir": str(tmp_path / "out"),
    }
    assert main(["run", "--config", write_json(tmp_path / "ode.json", cfg)]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_run_without_norm_diagnostic_leaves_norm_blank(tmp_path):
    out = tmp_path / "out"
    raw = heat_config(out)
    raw["outputs"]["diagnostics"]["norm"] = False
    assert main(["run", "--config", write_json(tmp_path / "cfg.json", raw)]) == 0
    header, rows = read_rows(out / "diagnostics.csv")
    assert header == ["time", "norm2", "error_vs_exact", "mass"]
    assert [row[1] for row in rows] == ["", ""]
    assert float(rows[-1][2]) <= 2e-2  # the other columns are still written


def test_thread_cap_is_exported_before_numpy_loads():
    # the BLAS pools size themselves when numpy loads, so the package must
    # export SCHRO_THREADS to the pool variables before its first numpy import
    probe = (
        "import builtins, os, sys\n"
        "seen = []\n"
        "real_import = builtins.__import__\n"
        "def hook(name, *args, **kwargs):\n"
        "    if name.split('.')[0] == 'numpy' and 'numpy' not in sys.modules and not seen:\n"
        "        seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "    return real_import(name, *args, **kwargs)\n"
        "assert 'numpy' not in sys.modules\n"
        "builtins.__import__ = hook\n"
        "import schrodingerizer.cli\n"
        "assert seen == ['1'], seen\n"
    )
    src = str(pathlib.Path(schrodingerizer.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    env["SCHRO_THREADS"] = "1"
    env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # the runtime needs numpy only: neither importing the CLI nor a full run
    # of a bundled config loads scipy
    src = str(pathlib.Path(schrodingerizer.__file__).resolve().parents[1])
    config = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "configs" / "ode_demo.json"
    probe = (
        "import sys, warnings\n"
        "from schrodingerizer.cli import main\n"
        "assert 'scipy' not in sys.modules\n"
        "warnings.simplefilter('ignore')\n"
        f"assert main(['run', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_numpy_fft_unloaded():
    # numpy.fft is reached only inside functions, so importing the CLI (the
    # benchmark's setup_s) does not pay for loading it
    src = str(pathlib.Path(schrodingerizer.__file__).resolve().parents[1])
    probe = (
        "import sys\n"
        "import schrodingerizer.cli\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'numpy.fft' not in sys.modules, 'numpy.fft loaded on import'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_estimate_subcommand_matches_worked_example(tmp_path, capsys):
    query = write_json(
        tmp_path / "q.json",
        {"method": "schr_heat", "d": 1, "m": 4, "m_p": 9, "t_final": 1.0, "dt": 0.01},
    )
    assert main(["estimate", "--query", query]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "method,count,polylog_factor,total"
    fields = out[1].split(",")
    assert fields[0] == "schr_heat"
    assert float(fields[1]) == pytest.approx(100 * (8 + 9 * math.log2(9)))
    assert out[2].startswith("formula: N = ")


def test_estimate_unknown_key_exits_2(tmp_path, capsys):
    query = write_json(tmp_path / "q.json", {"method": "schr_heat", "bogus": 1})
    assert main(["estimate", "--query", query]) == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("t_final", math.nan), ("dt", math.inf), ("max_norm", -math.inf), ("epsilon", True),
        ("d", True), ("m", 1.5), ("m_p", 9.0), ("sparsity", False), ("n_ord", math.nan),
    ],
    ids=["nan", "infinity", "minus_infinity", "bool_number", "bool_count", "fractional_count",
         "float_count", "bool_sparsity", "nan_count"],
)
def test_estimate_rejects_a_bad_number_and_names_the_field(tmp_path, capsys, key, value):
    # json reads NaN, Infinity, true and 1.5; estimate refuses each, as run
    # and validate do, with the field's name
    query = {"method": "schr_heat", "d": 1, "m": 4, "m_p": 9, "t_final": 1.0, "dt": 0.01, key: value}
    assert main(["estimate", "--query", write_json(tmp_path / "q.json", query)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ")


def test_estimate_without_a_method_exits_2(tmp_path, capsys):
    query = write_json(tmp_path / "q.json", {"d": 1})
    assert main(["estimate", "--query", query]) == 2
    assert "missing keys ['method']" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["validate", "--config", "/nonexistent.json"]) == 2


def test_profile_rows_initial_data():
    grid = Grid(-1, 1, 16)
    pg = PGrid(-5, 5, 64, alpha_neg=10.0, left_support=-1.0)
    u0 = np.sin(np.pi * grid.axis())
    w = extend_initial(u0, pg, grid=grid)
    coeffs = to_modes(u0.astype(complex))
    l_star = int(np.argmax(np.abs(coeffs)))
    profile = np.abs(_x_mode(samples(w).reshape(grid.shape + (pg.points,)), l_star, grid))
    expected = np.abs(coeffs[l_star]) * pg.warp_profile()
    assert np.allclose(profile, expected, atol=1e-12)


def test_profile_rows_zero_state_and_bounds():
    grid = Grid(-1, 1, 8)
    pg = PGrid(-2, 2, 16)
    w = samples_state(values=np.zeros(8 * 16, dtype=complex), pgrid=pg, grid=grid)
    assert np.all(w.mode_profile(0) == 0.0)
    with pytest.raises(ValueError):
        w.mode_profile(99)


@pytest.mark.parametrize("dims", [1, 2])
def test_profile_row_matches_full_transform(dims):
    # one row of Phi^-1 contracted along each x axis gives the row of the
    # full x transform
    grid = Grid(-1, 1, 16, dims)
    pg = PGrid(-3, 3, 32)
    rng = np.random.default_rng(dims)
    values = rng.standard_normal(grid.size * pg.points) + 1j * rng.standard_normal(grid.size * pg.points)
    w = samples_state(values=values, pgrid=pg, grid=grid)
    modes = to_modes(values.reshape(grid.shape + (pg.points,)), axis=tuple(range(dims)))
    modes = np.abs(modes.reshape(grid.size, pg.points))
    for l in (0, 1, grid.size // 2 + 3, grid.size - 1):
        profile = np.abs(w.mode_profile(l))
        assert np.abs(profile - modes[l]).max() <= 1e-14 * modes.max()
    for l in (-1, grid.size):
        with pytest.raises(ValueError, match="out of range"):
            w.mode_profile(l)


def test_numeric_csv_matches_fmt(tmp_path):
    # the template writer of snapshots and profiles writes the text of _fmt
    # on every cell, signed zero, non-finite and subnormal values too, and
    # a header that holds "%" as it is
    z = [complex(3.0, -4.0), complex(1 / 3, 1 / 7), complex(5e-324, 0.0), complex(1e300, 1e300)]
    cells = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e300, 1 / 3,
             np.float64(0.1), 7, *(abs(v) for v in z)]
    rows = [cells[i:i + 4] for i in range(0, len(cells) - 3)]
    header = ["a%", "b%%", "%s", "%.17g"]
    cli._write_csv(str(tmp_path / "fmt.csv"), header, rows)
    sites = cli._site_text([[r[0] for r in rows]])
    body = cli._body_template(sites, 3)
    cli._write_template(str(tmp_path / "template.csv"), header, body, [c for r in rows for c in r[1:]])
    assert (tmp_path / "template.csv").read_bytes() == (tmp_path / "fmt.csv").read_bytes()
    # per-axis text of a 2-D lattice: the sites in C order, each as _fmt
    # writes its coordinates
    xs, ys = cells[:6], cells[6:]
    want = [f"{cli._fmt(x)},{cli._fmt(y)}" for x in xs for y in ys]
    assert cli._site_text([xs, ys]) == want


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1e300, 1e-300, float("inf"), float("-inf"), float("nan")]


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 3),
    cells=st.lists(
        st.floats(allow_subnormal=True) | st.sampled_from(_EDGE_FLOATS), min_size=1, max_size=30
    ),
)
def test_numeric_lines_same_text_from_array_and_list(width, cells):
    # the run fills its templates with Python floats (``tolist``), which
    # format faster than numpy scalars; "%.17g" writes the same text for
    # both, in the site columns and in the cells
    rows = np.array(cells)[: len(cells) // width * width].reshape(-1, width)

    def text(rows):
        sites = cli._site_text([[r[0] for r in rows]])
        return cli._body_template(sites, width - 1) % tuple(c for r in rows for c in r[1:])

    assert text(rows) == text(rows.tolist())
    assert text(rows) == "".join(",".join(cli._fmt(c) for c in r) + "\n" for r in rows.tolist())


def _ode_config(out):
    return {
        "model": {
            "kind": "ode",
            "params": {
                "a": [[-1.0, 0.2], [0.0, -0.5]],
                "b": [0.3, 0.0],
                "u0": [1.0, [0.0, 1.0]],
            },
        },
        "engine": {"kind": "exact_diagonal", "t_final": 1.0},
        "recovery": {"kind": "integrate"},
        "outputs": {"snapshots": [1.0]},
        "out_dir": str(out),
    }


def test_ode_run_without_pgrid_takes_one_h1_spectrum(tmp_path, monkeypatch):
    # the stability check and default_pgrid read the same cached eigenvalues
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(a) or eigvalsh(*a))
    path = write_json(tmp_path / "ode.json", _ode_config(tmp_path / "out"))
    assert main(["run", "--config", path]) == 0
    assert len(calls) == 1


def test_heat_exact_run_validates_without_the_upwind_matrix(tmp_path, monkeypatch):
    # only an upwind plan builds and checks the dense M x M transport
    # matrix: a 1-D exact-spectral heat config on 2048 points builds none
    from schrodingerizer import models as model_mod

    def refuse(*args, **kwargs):
        raise AssertionError("the upwind transport was built")

    monkeypatch.setattr(model_mod, "FDTransport", refuse)
    raw = heat_config(tmp_path / "out", error=False)
    raw["model"]["grid"]["points"] = 2048
    model, _ = parse_config(raw).model.build()
    assert model.engines == ("exact_diagonal", "trotter")
    assert main(["validate", "--config", write_json(tmp_path / "cfg.json", raw)]) == 0


@pytest.mark.filterwarnings("ignore::schrodingerizer.ode.StabilityWarning")
def test_ode_demo_is_untouched_by_the_scalar_h1_route(tmp_path, monkeypatch):
    # the bundled ode_demo's H1 is no multiple of the identity: its CSVs
    # are the same bytes with the scalar detection switched off
    from schrodingerizer import ode

    config = str(ROOT / "scripts" / "configs" / "ode_demo.json")
    assert main(["run", "--config", config, "--out", str(tmp_path / "on")]) == 0
    monkeypatch.setattr(ode, "_scalar_value", lambda h: None)
    assert main(["run", "--config", config, "--out", str(tmp_path / "off")]) == 0
    names = sorted(p.name for p in (tmp_path / "on").glob("*.csv"))
    assert names
    for name in names:
        assert (tmp_path / "on" / name).read_bytes() == (tmp_path / "off" / name).read_bytes()


def test_ode_model_through_cli(tmp_path):
    out = tmp_path / "out"
    path = write_json(tmp_path / "ode.json", _ode_config(out))
    assert main(["run", "--config", path]) == 0
    header, rows = read_rows(out / "snapshot_000.csv")
    assert header == ["index", "re", "im", "abs"]
    assert len(rows) == 3  # augmented system carries the unit component
    assert float(rows[2][1]) == pytest.approx(1.0, abs=2e-2)


def test_profile_peak_translates_left_by_wave_distance():
    from schrodingerizer.evolvers import EvolutionPlan
    from schrodingerizer.models import build_heat

    grid = Grid(-1, 1, 16)
    pg = PGrid(-5, 5, 512, alpha_neg=10.0, left_support=-1.0)
    model = build_heat(None, grid, pg)
    u0 = np.sin(np.pi * grid.axis())
    w0 = model.initial_state(u0)
    t_star = 4.0 / math.pi**2
    traj = model.evolve(w0, EvolutionPlan("exact_diagonal", dt=t_star, t_final=t_star))
    coeffs = to_modes(u0.astype(complex))
    l_star = int(np.argmax(np.abs(coeffs)))
    initial = _x_mode(samples(w0).reshape(grid.shape + (pg.points,)), l_star, grid)
    peak_before = pg.axis()[np.argmax(np.abs(initial))]
    peak_after = pg.axis()[np.argmax(np.abs(traj.states[-1].mode_profile(l_star)))]
    # the dominant mode travels at speed pi^2, covering L0 - L = 4 by T*
    assert peak_before == pytest.approx(0.0, abs=pg.dp)
    assert peak_after == pytest.approx(-4.0, abs=2 * pg.dp)
