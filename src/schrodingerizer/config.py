"""Experiment configuration: schema validation and model construction.

Configs are plain JSON with a fixed, strictly-checked shape; unknown keys
and non-finite numbers are rejected with the offending path, so typos fail
loudly before any model is built.  Each model kind is known here alone: its
params are parsed in one branch, which returns the builder that
``ModelConfig.build`` runs.  Scalar functions (initial data, potentials, vector fields)
are named forms with parameters, which keeps runs reproducible byte for
byte.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .evolvers import EvolutionPlan
from .grids import Grid, PGrid, _check_power_of_two
from . import models, ode
from .warp import IntegrateP, PointP, RecoveryMethod

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "parse_function",
    "parse_matrix",
    "parse_vector",
]


class ConfigError(ValueError):
    """Configuration does not match the schema."""


def _require_keys(obj: dict, path: str, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


def _number(obj, path: str) -> float:
    # json reads NaN, +-Infinity and integers beyond the float range; no field takes them
    if isinstance(obj, bool) or not isinstance(obj, (int, float)) or not abs(obj) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number")
    return float(obj)


def _bool(obj, path: str) -> bool:
    if not isinstance(obj, bool):
        raise ConfigError(f"{path}: expected true or false")
    return obj


def _integer(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path}: expected an integer")
    return obj


# ---------------------------------------------------------------------------
# Named scalar functions.
# ---------------------------------------------------------------------------

FUNCTION_TYPES = ("zero", "constant", "sine", "cosine", "gaussian", "linear", "quadratic")


def parse_function(spec: Any, path: str, dims: int) -> Callable:
    """Build a callable(*coords) -> array from a named-form spec, for a grid
    of ``dims`` axes.

    Multi-dimensional grids receive one coordinate array per axis; `sine`,
    `cosine` and `gaussian` take products across axes, `linear` and
    `quadratic` sum across axes.  A `gaussian` center is one number or one
    per axis.
    """
    if spec is None:
        return lambda *coords: np.zeros(np.broadcast_shapes(*map(np.shape, coords)))
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"{path}: expected an object with a 'type' key")
    kind = spec["type"]
    if kind not in FUNCTION_TYPES:
        raise ConfigError(f"{path}.type: unknown function {kind!r}")
    if kind == "zero":
        _require_keys(spec, path, ("type",))
        return parse_function(None, path, dims)
    if kind == "constant":
        _require_keys(spec, path, ("type", "value"))
        value = _number(spec["value"], f"{path}.value")
        return lambda *coords: np.full(np.broadcast_shapes(*map(np.shape, coords)), value)
    if kind in ("sine", "cosine"):
        _require_keys(spec, path, ("type",), ("k", "amplitude"))
        k = _number(spec.get("k", 1), f"{path}.k")
        amp = _number(spec.get("amplitude", 1.0), f"{path}.amplitude")
        base = np.sin if kind == "sine" else np.cos

        def trig(*coords):
            out = amp
            for c in coords:
                out = out * base(k * np.pi * np.asarray(c, dtype=float))
            return out

        return trig
    if kind == "gaussian":
        _require_keys(spec, path, ("type", "width"), ("center", "amplitude"))
        width = _number(spec["width"], f"{path}.width")
        if width <= 0:
            raise ConfigError(f"{path}.width: must be positive")
        centers = np.atleast_1d(_numbers(spec.get("center", 0.0), f"{path}.center"))
        if centers.ndim != 1 or not centers.size:
            raise ConfigError(f"{path}.center: expected a number or a list of numbers")
        if centers.size not in (1, dims):
            raise ConfigError(
                f"{path}.center: {centers.size} entries for a {dims}-D grid; give one, or one per axis"
            )
        centers = np.broadcast_to(centers, (dims,))
        amp = _number(spec.get("amplitude", 1.0), f"{path}.amplitude")

        def gauss(*coords):
            out = amp
            for c, c0 in zip(coords, centers):
                out = out * np.exp(-((np.asarray(c, dtype=float) - c0) ** 2) / (2 * width**2))
            return out

        return gauss
    if kind == "linear":
        _require_keys(spec, path, ("type",), ("rate",))
        rate = _number(spec.get("rate", 1.0), f"{path}.rate")
        return lambda *coords: rate * sum(np.broadcast_arrays(*coords))
    if kind == "quadratic":
        _require_keys(spec, path, ("type",), ("coefficient",))
        coeff = _number(spec.get("coefficient", 0.5), f"{path}.coefficient")
        return lambda *coords: coeff * sum(np.asarray(c, dtype=float) ** 2 for c in np.broadcast_arrays(*coords))
    raise ConfigError(f"{path}: unhandled function {kind!r}")


def _numbers(obj, path: str) -> np.ndarray:
    """A number, or a nested list of numbers, as a float array."""
    if isinstance(obj, list):
        return np.array([_numbers(v, f"{path}[{i}]") for i, v in enumerate(obj)])
    return np.asarray(_number(obj, path))


def _choice(obj, path: str, choices: tuple) -> str:
    if obj not in choices:
        raise ConfigError(f"{path}: expected one of {choices}, got {obj!r}")
    return obj


def _entry_to_complex(entry, path: str) -> complex:
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return complex(_number(entry, path))
    if isinstance(entry, list) and len(entry) == 2:
        return complex(_number(entry[0], path), _number(entry[1], path))
    raise ConfigError(f"{path}: matrix entries are numbers or [re, im] pairs")


def parse_vector(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{path}: expected a non-empty list")
    return np.array([_entry_to_complex(e, f"{path}[{i}]") for i, e in enumerate(obj)])


def parse_matrix(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{path}: expected a non-empty list of rows")
    rows = [parse_vector(row, f"{path}[{i}]") for i, row in enumerate(obj)]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ConfigError(f"{path}: matrix must be square (row-major rows)")
    return np.array(rows)


# ---------------------------------------------------------------------------
# Schema sections.
# ---------------------------------------------------------------------------


def _parse_grid(obj, path: str) -> Grid:
    _require_keys(obj, path, ("a", "b", "points"), ("dims",))
    try:
        return Grid(
            a=_number(obj["a"], f"{path}.a"),
            b=_number(obj["b"], f"{path}.b"),
            points=_integer(obj["points"], f"{path}.points"),
            dims=_integer(obj.get("dims", 1), f"{path}.dims"),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_pgrid(obj, path: str) -> PGrid:
    _require_keys(obj, path, ("left", "right", "points"), ("alpha_neg", "left_support"))
    try:
        return PGrid(
            left=_number(obj["left"], f"{path}.left"),
            right=_number(obj["right"], f"{path}.right"),
            points=_integer(obj["points"], f"{path}.points"),
            alpha_neg=_number(obj.get("alpha_neg", 10.0), f"{path}.alpha_neg"),
            left_support=_number(obj.get("left_support", -1.0), f"{path}.left_support"),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# the model kinds, each with the (required, optional) keys of its params
_PARAM_KEYS = {
    "heat": (("initial",), ("potential",)),
    "convection": (("initial",), ("variant", "p_points")),
    "black_scholes": (("initial", "r", "sigma"), ()),
    "fokker_planck": (("initial", "potential", "sigma"), ("form",)),
    "boltzmann": (("initial",), ("weights", "ordinates")),
    "liouville": (("field", "q0", "width"), ()),
    "ode": (("a", "u0"), ("b",)),
}


@dataclass(frozen=True)
class ModelConfig:
    """The model kind and ``build() -> (model, u0)``.  Parsing checks every
    param; only ``build`` runs the model builders, whose own checks
    (parameter ranges, finite samples) raise ValueError there."""

    kind: str
    build: Callable[[], tuple]


@dataclass(frozen=True)
class DiagnosticsConfig:
    norm: bool = True
    mass: bool = False
    mode_profile: Optional[str | int] = None
    error_vs_exact: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    plan: EvolutionPlan
    recovery: RecoveryMethod
    diagnostics: DiagnosticsConfig
    out_dir: Optional[str]
    raw: dict


def _parse_model(obj, path: str, plan: EvolutionPlan) -> ModelConfig:
    _require_keys(obj, path, ("kind",), ("grid", "pgrid", "params"))
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _PARAM_KEYS:
        raise ConfigError(f"{path}.kind: unknown model {kind!r}")
    grid = pgrid = None
    if kind == "ode":
        if "grid" in obj:
            raise ConfigError(f"{path}: the ode model has no spatial grid")
    else:
        if "grid" not in obj:
            raise ConfigError(f"{path}: model {kind!r} needs a grid")
        grid = _parse_grid(obj["grid"], f"{path}.grid")
    if kind == "convection":
        if "pgrid" in obj:
            raise ConfigError(f"{path}: model {kind!r} fixes its own p-domain; drop 'pgrid'")
    else:
        if "pgrid" in obj and obj["pgrid"] is not None:
            pgrid = _parse_pgrid(obj["pgrid"], f"{path}.pgrid")
        elif kind not in ("liouville", "ode"):
            raise ConfigError(f"{path}: model {kind!r} needs a pgrid")
    params = obj.get("params", {})
    _require_keys(params, f"{path}.params", *_PARAM_KEYS[kind])
    try:
        return ModelConfig(kind, _model_builder(kind, params, f"{path}.params", grid, pgrid, plan))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}.params: {exc}") from exc


def _model_builder(kind: str, params: dict, path: str, grid, pgrid, plan: EvolutionPlan) -> Callable:
    """Parse one kind's params into its zero-argument builder of (model, u0),
    built for ``plan``: an ode model sizes its default p-grid from its
    ``t_final``, and only a heat model for ``upwind_fd`` builds the upwind
    transport matrix."""
    if kind in ("liouville", "ode"):
        if kind == "liouville":
            field = parse_function(params["field"], f"{path}.field", grid.dims)
            width = _number(params["width"], f"{path}.width")
            q0 = _numbers(params["q0"], f"{path}.q0")
            lift = lambda: models.build_liouville(field, grid, q0, width)
        else:
            b = params.get("b")
            linear = ode.LinearSystem(
                a_mat=parse_matrix(params["a"], f"{path}.a"),
                b=None if b is None else parse_vector(b, f"{path}.b"),
                u0=parse_vector(params["u0"], f"{path}.u0"),
            )
            lift = lambda: ode.augment_inhomogeneous(linear)

        def build_ode():
            # the generic path, sized from the Hermitian split without a pgrid
            system = lift()
            split = ode.hermitian_split(system.a_mat)
            model = ode.assemble_schrodingerised(split, pgrid or ode.default_pgrid(split, plan.t_final), grid)
            return model, system.u0

        return build_ode

    initial = parse_function(params["initial"], f"{path}.initial", grid.dims)
    if kind == "heat":
        potential = parse_function(params.get("potential"), f"{path}.potential", grid.dims)
        make = lambda: models.build_heat(potential, grid, pgrid, upwind=plan.engine == "upwind_fd")
    elif kind == "convection":
        variant = _choice(params.get("variant", "sin_p"), f"{path}.variant", ("sin_p", "direct"))
        if variant == "direct":
            if "p_points" in params:
                raise ConfigError(f"{path}.p_points: the direct variant has no p axis")
            make = lambda: models.DirectConvectionModel(grid=grid)
        else:
            p_points = _integer(params.get("p_points", 64), f"{path}.p_points")
            _check_power_of_two(p_points, "p_points")
            make = lambda: models.build_convection(grid, p_points=p_points)
    elif kind == "black_scholes":
        r, sigma = _number(params["r"], f"{path}.r"), _number(params["sigma"], f"{path}.sigma")
        make = lambda: models.build_black_scholes(r, sigma, grid, pgrid)
    elif kind == "fokker_planck":
        potential = parse_function(params["potential"], f"{path}.potential", grid.dims)
        sigma = _number(params["sigma"], f"{path}.sigma")
        form = _choice(params.get("form", "conservation"), f"{path}.form", ("conservation", "heat_form"))
        make = lambda: models.build_fokker_planck(potential, sigma, grid, pgrid, form=form)
    else:
        quad = models.default_ordinates()
        if "weights" in params or "ordinates" in params:
            _require_keys(params, path, ("initial", "weights", "ordinates"))
            quad = models.QuadratureRule(
                points=_numbers(params["ordinates"], f"{path}.ordinates"),
                weights=_numbers(params["weights"], f"{path}.weights"),
            )
        make = lambda: models.build_boltzmann(quad, grid, pgrid)
    return lambda: (make(), np.asarray(grid.sample(initial), dtype=complex))


def _parse_plan(obj, path: str, snapshots: tuple[float, ...]) -> EvolutionPlan:
    """The evolution plan; its own checks (engine, positivity, snapshots on
    [0, t_final] and on a step) are reported under ``path``.  A ``dt`` is
    needed by the stepped engines and refused by ``exact_diagonal``, which
    would ignore it."""
    _require_keys(obj, path, ("kind", "t_final"), ("dt",))
    kind, dt = obj["kind"], obj.get("dt")
    t_final = _number(obj["t_final"], f"{path}.t_final")
    if dt is None and kind in ("trotter", "upwind_fd"):
        raise ConfigError(f"{path}: engine {kind!r} needs dt")
    if dt is not None and kind == "exact_diagonal":
        raise ConfigError(f"{path}.dt: engine 'exact_diagonal' takes no dt; it evolves exactly")
    dt = t_final if dt is None else _number(dt, f"{path}.dt")
    try:
        return EvolutionPlan(engine=kind, dt=dt, t_final=t_final, snapshot_times=snapshots)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_recovery(obj, path: str) -> RecoveryMethod:
    _require_keys(obj, path, ("kind",), ("p_star",))
    kind = obj["kind"]
    if kind == "integrate":
        if "p_star" in obj:
            raise ConfigError(f"{path}: 'p_star' only applies to point recovery")
        return IntegrateP()
    if kind == "point":
        p_star = obj.get("p_star")
        if p_star is not None:
            p_star = _number(p_star, f"{path}.p_star")
        return PointP(p_star=p_star)
    raise ConfigError(f"{path}.kind: unknown recovery {kind!r}")


def _parse_outputs(obj, path: str) -> tuple[tuple[float, ...], DiagnosticsConfig]:
    """Snapshot times (empty when not given: the plan then takes t_final)
    and the diagnostics switches."""
    _require_keys(obj, path, (), ("snapshots", "diagnostics"))
    snaps = obj.get("snapshots")
    snapshots = ()
    if snaps is not None:
        if not isinstance(snaps, list) or not snaps:
            raise ConfigError(f"{path}.snapshots: expected a non-empty list of times")
        snapshots = tuple(_number(t, f"{path}.snapshots[{i}]") for i, t in enumerate(snaps))
    diag = obj.get("diagnostics", {})
    _require_keys(diag, f"{path}.diagnostics", (), ("norm", "mass", "mode_profile", "error_vs_exact"))
    mode_profile = diag.get("mode_profile")
    if mode_profile not in (None, "dominant") and type(mode_profile) is not int:
        raise ConfigError(f"{path}.diagnostics.mode_profile: expected 'dominant', an integer, or null")
    switches = {
        key: _bool(diag.get(key, default), f"{path}.diagnostics.{key}")
        for key, default in (("norm", True), ("mass", False), ("error_vs_exact", False))
    }
    return snapshots, DiagnosticsConfig(mode_profile=mode_profile, **switches)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON object (or a manifest echoing one) into a config."""
    if isinstance(raw, dict) and "config" in raw and "model" not in raw:
        raw = raw["config"]
    _require_keys(raw, "$", ("model", "engine"), ("recovery", "outputs", "out_dir"))
    snapshots, diagnostics = _parse_outputs(raw.get("outputs", {}), "$.outputs")
    plan = _parse_plan(raw["engine"], "$.engine", snapshots)
    model = _parse_model(raw["model"], "$.model", plan)
    recovery = _parse_recovery(raw.get("recovery", {"kind": "integrate"}), "$.recovery")
    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("$.out_dir: expected a string path")
    return ExperimentConfig(
        model=model,
        plan=plan,
        recovery=recovery,
        diagnostics=diagnostics,
        out_dir=out_dir,
        raw=raw,
    )
