"""Command-line runner.

Subcommands:

* ``run --config cfg.json [--out DIR]``: build the configured model, evolve,
  recover, and emit plot-ready CSVs plus a JSON manifest.  Every model
  returns ``warp`` states, so each snapshot is read through the same
  ``norm``, ``recover`` and ``mode_profile``.  Re-running from a manifest
  reproduces the CSVs byte for byte on the same machine and BLAS.
* ``estimate --query q.json``: evaluate one gate-count formula; prints a
  one-row CSV and a human-readable formula line.
* ``validate --config cfg.json``: every check ``run`` makes before it
  evolves: the schema, finite numbers and booleans, the named functions
  (a ``gaussian`` center is one number or one per grid axis), matrices and
  vectors, the evolution plan with its snapshot schedule (a ``dt`` only for
  the stepped engines: ``exact_diagonal`` refuses one), the model itself,
  built but not evolved (parameter ranges such as ``sigma > 0``, a
  Fokker-Planck operator that overflows, and an engine the model runs),
  the recovery (a kind the model makes, at an on-grid ``p_star > 0``)
  tried on the warped initial state, and the profile mode (on a state with
  a spatial grid: an integer in range, or ``"dominant"`` resolved on
  non-zero initial data).  Only the CFL bound, checked while evolving, is
  left to ``run``.

Exit codes: 0 success, 2 configuration/schema errors (including CFL
violations, with the admissible step in the message), 3 numerical failure:
a linear-algebra routine that does not converge, or a state norm that is
not finite or exceeds 1e6 times the initial one (partial outputs are kept).
A warning is one ``warning: ...`` line on stderr, a model builder's (the
``StabilityWarning`` of an unstable ``H1``) under ``$.model``.

The environment variable ``SCHRO_THREADS`` caps worker parallelism (the
package ``__init__`` exports it to the BLAS/OpenMP pools before numpy loads).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
import warnings
from dataclasses import fields
from typing import Sequence

import numpy as np

from .config import ConfigError, ExperimentConfig, _require_keys, parse_config
from .warp import dominant_mode

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class BlowUpError(RuntimeError):
    pass


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    return format(float(value), ".17g")


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _site_text(axes: Sequence[Sequence]) -> list[str]:
    """The coordinate cells of every site as CSV text, the sites in C order
    (the last axis fastest): each axis value is formatted once, with the
    text ``_fmt`` gives it."""
    columns = [["%.17g" % v for v in axis] for axis in axes]
    return [",".join(site) for site in itertools.product(*columns)]


def _body_template(sites: list[str], width: int) -> str:
    """The body of a CSV file as one ``%`` template: each site's text, then
    ``width`` "%.17g" cells and a newline."""
    cells = ",%.17g" * width + "\n"
    return "".join([site + cells for site in sites])


def _write_template(path: str, header: list[str], body: str, cells: Sequence) -> None:
    """A CSV file: its header, then ``body`` filled with ``cells`` by one
    ``%``.  The header stays outside the ``%``, so it may hold a "%"."""
    _write_atomic(path, ",".join(header) + "\n" + body % tuple(cells))


# ---------------------------------------------------------------------------
# Model and initial state from a validated config.
# ---------------------------------------------------------------------------


def _prepare(cfg: ExperimentConfig):
    """(model, u0, w0, profile_mode) after every check ``run`` makes before
    it evolves.

    ``profile_mode`` is the x-mode index whose p profile each snapshot
    writes (``"dominant"`` resolved once, on u0), or None when no profile
    is written.  A builder's rejection of a value, an engine the model does
    not run, a recovery that the per-snapshot calls of ``run`` reject on
    ``w0``, and a profile mode on a state without a spatial grid, out of
    range or with no dominant mode to resolve to are config errors.
    """
    try:
        with warnings.catch_warnings(record=True) as caught:
            model, u0 = cfg.model.build()
            w0 = model.initial_state(u0)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise ConfigError(f"$.model: {exc}") from exc
    for warning in caught:  # a builder's warning names the config path too
        warnings.warn(f"$.model: {warning.message}", warning.category, stacklevel=2)
    if cfg.plan.engine not in model.engines:
        raise ConfigError(
            f"$.engine.kind: model {cfg.model.kind!r} runs {' or '.join(model.engines)}, "
            f"not {cfg.plan.engine!r}"
        )
    try:
        model.recover(w0, cfg.recovery)
    except ValueError as exc:
        raise ConfigError(f"$.recovery: {exc}") from exc
    mode = cfg.diagnostics.mode_profile
    if mode is None:
        return model, u0, w0, None
    try:
        if w0.grid is None:
            raise ValueError(f"model {cfg.model.kind!r} has no x modes: its state has no spatial grid")
        if mode == "dominant":
            mode = dominant_mode(u0, w0.grid)
        elif not 0 <= mode < w0.grid.size:
            raise ValueError(f"mode index {mode} out of range")
    except ValueError as exc:
        raise ConfigError(f"$.outputs.diagnostics.mode_profile: {exc}") from exc
    return model, u0, w0, mode


# ---------------------------------------------------------------------------
# run subcommand.
# ---------------------------------------------------------------------------


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> int:
    """Evolve ``cfg`` and write its CSVs and manifest into ``out_dir``.

    The coordinate and p columns, which every snapshot and profile repeats,
    are formatted once per run, into one ``%`` template per kind of file;
    each snapshot and profile file is then its header and one ``%`` of its
    template over a flat list of the snapshot's numbers.  The text is that
    of ``_write_csv`` on the same rows.  A recovered u whose size is not
    the number of coordinate rows raises ValueError.
    """
    started = time.monotonic()
    model, u0, w0, profile_mode = _prepare(cfg)
    os.makedirs(out_dir, exist_ok=True)
    traj = model.evolve(w0, cfg.plan)

    norm0 = w0.norm()
    norm0 = norm0 if norm0 > 0 else 1.0
    diagnostics = cfg.diagnostics
    coord_header, axes = model.coords()
    sites = _site_text(axes)
    snapshot_body = _body_template(sites, 3)
    cells = [0.0] * (3 * len(sites))
    if profile_mode is not None:
        profile_body = _body_template(_site_text([w0.pgrid.axis().tolist()]), 1)
    diag_header = ["time", "norm2", "error_vs_exact", "mass"]
    diag_rows = []
    for idx, (t, state) in enumerate(zip(traj.times, traj.states)):
        norm = state.norm()
        if not np.isfinite(norm) or norm > 1e6 * norm0:
            _write_csv(os.path.join(out_dir, "diagnostics.csv"), diag_header, diag_rows)
            raise BlowUpError(
                f"state norm {norm:g} at t = {t:g} is not finite or exceeds 1e6 x initial"
            )
        recovered = model.recover(state, cfg.recovery)
        flat = np.ravel(recovered)
        if flat.size != len(sites):
            raise ValueError(
                f"recovered u has {flat.size} entries but the coordinates list {len(sites)} sites"
            )
        cells[0::3] = flat.real.tolist()
        cells[1::3] = flat.imag.tolist()
        # the scalar abs of a Python complex: numpy's vectorised abs differs
        # from it in the last bit for some values
        cells[2::3] = map(abs, flat.tolist())
        _write_template(
            os.path.join(out_dir, f"snapshot_{idx:03d}.csv"),
            coord_header + ["re", "im", "abs"],
            snapshot_body,
            cells,
        )
        err = ""
        exact = model.exact(u0, t) if diagnostics.error_vs_exact else None
        if exact is not None:
            scale = np.linalg.norm(exact)
            err = float(np.linalg.norm(recovered - exact) / (scale if scale > 0 else 1.0))
        mass = model.mass(recovered) if diagnostics.mass else None
        diag_rows.append([t, norm if diagnostics.norm else None, err, mass])
        if profile_mode is not None:
            amplitude = np.abs(state.mode_profile(profile_mode)).tolist()
            _write_template(
                os.path.join(out_dir, f"profile_{idx:03d}.csv"), ["p", "abs"], profile_body, amplitude
            )
    _write_csv(os.path.join(out_dir, "diagnostics.csv"), diag_header, diag_rows)
    manifest = {
        "config": cfg.raw,
        "engine": cfg.plan.engine,
        "wall_time_s": time.monotonic() - started,
        "outputs": sorted(
            name for name in os.listdir(out_dir) if name.endswith(".csv")
        ),
    }
    _write_atomic(
        os.path.join(out_dir, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate subcommand.
# ---------------------------------------------------------------------------

def run_estimate(query_raw: dict, out) -> int:
    from .resources import CostQuery, estimate

    _require_keys(query_raw, "$", ("method",), tuple(f.name for f in fields(CostQuery)))
    try:
        result = estimate(CostQuery(**query_raw))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    out.write("method,count,polylog_factor,total\n")
    out.write(
        f"{result.method},{_fmt(result.count)},{_fmt(result.polylog_factor)},{_fmt(result.total)}\n"
    )
    out.write(f"formula: N = {result.formula}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point.
# ---------------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="schrodingerizer",
        description="Hamiltonian emulation of linear PDEs/ODEs via the warped phase transformation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory (overrides config out_dir)")
    p_est = sub.add_parser("estimate", help="evaluate a gate-count formula")
    p_est.add_argument("--query", required=True)
    p_val = sub.add_parser("validate", help="schema-check a config")
    p_val.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    with warnings.catch_warnings():  # one stderr line a warning, no source location
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            if args.command == "validate":
                _prepare(parse_config(_load_json(args.config)))
                print("ok")
                return EXIT_OK
            if args.command == "estimate":
                return run_estimate(_load_json(args.query), sys.stdout)
            cfg = parse_config(_load_json(args.config))
            out_dir = args.out or cfg.out_dir
            if not out_dir:
                raise ConfigError("no output directory: set --out or config out_dir")
            return run_experiment(cfg, out_dir)
        except (BlowUpError, np.linalg.LinAlgError) as exc:
            # LinAlgError subclasses ValueError, so it is caught first
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except ValueError as exc:  # ConfigError and CFLError among them
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
