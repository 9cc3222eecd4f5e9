"""``scripts/traffic.py`` as a gate: every function under src/schrodingerizer/
is reached by a bundled config or a benchmark case, or is listed here.

A function that loses its last run fails this test: give it a caller, or add
it to ``IDLE`` on purpose.  A listed function that gains a run fails it too,
so the list stays the script's output.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# test-only readouts, error paths and the open items of ROADMAP.md's note on
# code with no caller in src/
IDLE = {
    "dilation.arccos_hermitian",
    "dilation.sqrt_psd",
    "dilation.DilationStep.dim",
    "dilation.DilationStep.utilde",
    "dilation.evolutionary_step",
    "dilation.postselect",
    "dilation.DilationLadder.ancilla_dim",
    "dilation.DilationLadder.slot",
    "dilation.ladder_state",
    "evolvers.CFLError.__init__",
    "evolvers.EvolutionPlan.n_steps",
    "grids.PGrid.index_of",
    "grids.density_moment",
    "models.GridModel.exact",
    "models.GridModel.mass",
    "ode.sparsity",
    "ode.max_norm",
    "ode.SchrodingerisedSystem.exact",
    "resources.CostQuery.m_h",
    "resources.schr_vs_unitary_ratio",
    "warp.ModeFrameState.table",
    "warp.ModeFrameState.coeffs",
    "warp.ModeFrameState.values",
    "warp.dominant_speed",
    "warp.containment_ratio",
}


def test_every_function_is_reached_or_listed():
    # a fresh interpreter, as the script runs: the scan must see the
    # package imported under its tracer and its caches empty
    code = "import json, sys; sys.path.insert(0, sys.argv[1]); import traffic; print(json.dumps(traffic.scan()))"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "scripts")],
        capture_output=True, text=True, timeout=300, check=True,
    )
    idle, failures, total = json.loads(proc.stdout.splitlines()[-1])
    assert failures == []
    assert {name for name, _ in idle} == IDLE
    assert len(idle) == len(IDLE) < total


def test_span_counts_a_function_from_its_decorators_to_its_last_line():
    # the script prints each idle function's def span and their total
    import inspect

    sys.path.insert(0, str(ROOT / "scripts"))
    import traffic
    from schrodingerizer import evolvers

    for fn in (evolvers.EvolutionPlan.n_steps.fget, evolvers.evolve_trotter):
        lines, start = inspect.getsourcelines(fn)
        assert traffic._span(f"src/schrodingerizer/evolvers.py:{start}") == len(lines)
