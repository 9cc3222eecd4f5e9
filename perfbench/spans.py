"""Outside-in tracing of the package's layers.

Wrappers are installed on the package's public functions from the outside:
every module-level binding of a traced function is replaced, so a name
bound separately by ``from .grids import to_modes`` in ``models``,
``evolvers``, ``warp`` and ``cli`` is wrapped in each of them, and methods
are wrapped on their class.  ``numpy.linalg.eigh`` is wrapped as the
``linalg`` layer.  Each wrapper records a span ``(name, start, end, parent,
run_id)`` in memory; spans are written out once, when the run ends.

A span's self time is its duration minus the time its direct child spans
cover (calls are nested and single-threaded, so the children are disjoint).
Counters are computed from the call's arguments and result after the span
has closed; their small cost lands in the caller's self time and in
``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

PACKAGE = "schrodingerizer"


def _fft_counts(args, kwargs, result) -> dict:
    return {"grids.fft.calls": 1, "grids.fft.bytes": args[0].nbytes + result.nbytes}


def _eigh_counts(args, kwargs, result) -> dict:
    a = np.asarray(args[0])
    batch = math.prod(a.shape[:-2])
    return {"linalg.eigh.calls": 1, "linalg.eigh.matrices": batch,
            "linalg.eigh.n3": batch * a.shape[-1] ** 3}


def _plan_steps(metric: str, position: int) -> Callable:
    def count(args, kwargs, result) -> dict:
        plan = kwargs["plan"] if "plan" in kwargs else args[position]
        return {metric: plan.n_steps}

    return count


def _ladder_steps(args, kwargs, result) -> dict:
    return {"dilation.steps": result.n_steps}


def _calls(metric: str) -> Callable:
    return lambda args, kwargs, result: {metric: 1}


# (span name, module, attribute or Class.method, counter).  The span name
# with "_s" appended is the self-time metric, except where SELF_METRIC says
# otherwise.
TARGETS = [
    ("config.parse", "config", "parse_config", None),
    *[("models.build", "models", f"build_{kind}", None)
      for kind in ("heat", "convection", "black_scholes", "fokker_planck", "boltzmann", "liouville")],
    *[("models.evolve", "models", f"{cls}.evolve", None)
      for cls in ("HeatModel", "ConvectionModel", "BlackScholesModel", "FokkerPlanckModel", "BoltzmannModel")],
    ("models.exact", "models", "exact_heat_solution", None),
    ("models.exact", "models", "exact_convection_solution", None),
    ("models.exact", "models", "BlackScholesModel.exact_solution", None),
    ("ode.split", "ode", "hermitian_split", None),
    ("ode.split", "ode", "assemble_schrodingerised", None),
    ("ode.pgrid", "ode", "default_pgrid", None),
    ("evolvers.mode_blocks", "evolvers", "evolve_mode_blocks", None),
    ("evolvers.trotter", "evolvers", "evolve_trotter", _plan_steps("evolvers.trotter.steps", 4)),
    ("evolvers.upwind", "evolvers", "evolve_upwind_fd", _plan_steps("evolvers.upwind.steps", 1)),
    ("grids.fft", "grids", "to_modes", _fft_counts),
    ("grids.fft", "grids", "from_modes", _fft_counts),
    ("warp.extend", "warp", "extend_initial", None),
    ("warp.recover", "warp", "recover", _calls("warp.recover.calls")),
    ("dilation.build", "dilation", "build_dilation_step", None),
    ("dilation.ladder", "dilation", "ladder_evolve", None),
    ("dilation.ladder", "dilation", "ladder_state", _ladder_steps),
    ("resources.estimate", "resources", "estimate", _calls("resources.estimate.calls")),
    ("cli.run", "cli", "run_experiment", None),
    ("linalg.eigh", "numpy.linalg", "eigh", _eigh_counts),
]

SELF_METRIC = {"models.evolve": "models.evolve_self_s", "cli.run": "cli.self_s"}

# Every per-layer metric: (name, unit, end-to-end metrics it should move,
# workloads where it should move them).  Times are self times per sweep and
# counts are per sweep; "computed" counts come from array shapes, not from
# hardware counters.
LAYER_METRICS = [
    ("setup.numpy_s", "s", "setup_s", "all (-X importtime, cumulative)"),
    ("setup.scipy_linalg_s", "s", "setup_s", "all (-X importtime, cumulative)"),
    ("setup.pkg_s", "s", "setup_s", "all (-X importtime, package modules' own time)"),
    ("config.parse_s", "s", "run_ref.p50_gm", "all (expected small)"),
    ("models.build_s", "s", "sweep_ref", "dense_blocks"),
    ("models.evolve_self_s", "s", "sweep_ref, run_ref.p50_gm", "spectral"),
    ("models.exact_s", "s", "run_ref.p50_gm", "spectral (error_vs_exact diagnostics)"),
    ("ode.split_s", "s", "sweep_ref", "dense_blocks"),
    ("ode.pgrid_s", "s", "sweep_ref", "dense_blocks"),
    ("evolvers.mode_blocks_s", "s", "sweep_ref, run_ref.p75, peak_rss_mb", "dense_blocks"),
    ("linalg.eigh_s", "s", "sweep_ref, peak_rss_mb", "dense_blocks; no change on spectral"),
    ("linalg.eigh.calls", "count", "sweep_ref", "dense_blocks"),
    ("linalg.eigh.matrices", "count", "sweep_ref, peak_rss_mb", "dense_blocks"),
    ("linalg.eigh.n3", "count", "sweep_ref", "dense_blocks (computed: sum of batch * n^3)"),
    ("evolvers.trotter_s", "s", "sweep_ref, run_ref.p75", "march; also spectral"),
    ("evolvers.trotter.steps", "count", "sweep_ref", "march; also spectral"),
    ("evolvers.upwind_s", "s", "sweep_ref, run_ref.p75", "march"),
    ("evolvers.upwind.steps", "count", "sweep_ref", "march"),
    ("grids.fft_s", "s", "sweep_ref, run_ref.p50_gm", "spectral (large arrays), march (small); ~0 on dense_blocks"),
    ("grids.fft.calls", "count", "sweep_ref", "spectral, march"),
    ("grids.fft.bytes", "B", "sweep_ref", "spectral, march (computed: input + output array bytes)"),
    ("warp.extend_s", "s", "run_ref.p50_gm", "spectral"),
    ("warp.recover_s", "s", "run_ref.p50_gm", "spectral"),
    ("warp.recover.calls", "count", "run_ref.p50_gm", "spectral"),
    ("dilation.build_s", "s", "sweep_ref", "march"),
    ("dilation.ladder_s", "s", "sweep_ref", "march"),
    ("dilation.steps", "count", "sweep_ref", "march"),
    ("resources.estimate_s", "s", "sweep_ref", "march (expected negligible)"),
    ("resources.estimate.calls", "count", "sweep_ref", "march"),
    ("cli.self_s", "s", "run_ref.p50_gm", "spectral (profile-heavy outputs)"),
    ("cli.write.bytes", "B", "run_ref.p50_gm", "spectral (measured in the out dirs)"),
    ("cli.files", "count", "run_ref.p50_gm", "all (measured in the out dirs)"),
    ("trace.sweep_s", "s", "none: traced sweep time, the base for self-time shares", "all"),
    ("trace.overhead_s", "s", "none: cost of tracing (traced minus untraced sweep, in ref units, times ref_s)", "all"),
    ("fail_frac", "ratio", "correctness: failed runs / attempted runs", "all"),
    ("err_to_tol.max", "ratio", "correctness: worst error / tolerance (<= 1 passes)", "all"),
]


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``install()`` patches every binding of each target; ``uninstall()``
    restores the originals.  ``run_id`` is set by the caller before each run
    so that spans of one run share it.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.run_id = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, module_name, attr, counter in TARGETS:
            qualified = module_name if module_name.startswith("numpy") else f"{PACKAGE}.{module_name}"
            owner = sys.modules[qualified]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            for module in modules + [owner]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict:
        """Self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return out

    def layer_totals(self) -> dict:
        """Self-time metrics and counters summed over everything traced."""
        out = {SELF_METRIC.get(name, name + "_s"): value for name, value in self.self_times().items()}
        out.update(self.counts)
        return out

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"], "names": names,
                       "spans": [[index[n], s, e, p, r] for n, s, e, p, r in self.spans]}, fh)
