"""``scripts/traffic.py`` as a gate: every function under src/schrodingerizer/
is reached by a bundled config or a benchmark case, or is listed here.

A function that loses its last run fails this test: give it a caller, or add
it to ``IDLE`` with the reason it stays.  A listed function that gains a run
fails it too, so the list stays the script's output.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Each entry with the reason it stays: "planned" (an item of ROADMAP.md
# gives it a caller), "tracer" (perfbench/spans.py names it, until item 13
# frees it), "protocol" (a default of the model protocol), "reference" (the
# tests check the run path against it), "error" (an error path the tests
# reach) or "config" (a config key no bundled config sets)
IDLE = {
    "dilation.arccos_hermitian": ("reference", "the arccos(H1 dt) of acceptance criterion 8"),
    "dilation.DilationStep.dim": ("reference", "the slot width of ladder_state's register"),
    "dilation.ladder_state": ("tracer", "the dilation.steps counter; the register ladder_evolve is checked against"),
    "evolvers.CFLError.__init__": ("error", "a dt above the CFL bound"),
    "evolvers.EvolutionPlan.n_steps": ("tracer", "the trotter and upwind step counters"),
    "grids.PGrid.index_of": ("config", "a point recovery at a given p_star"),
    "grids.density_moment": ("planned", "item 8: the Liouville read-out"),
    "models.GridModel.mass": ("protocol", "no mass on a grid model without one"),
    "ode.sparsity": ("planned", "item 12: the gate counts of a run"),
    "ode.max_norm": ("planned", "item 12: the gate counts of a run"),
    "resources.CostQuery.m_h": ("planned", "item 12: the gate counts of a run"),
    "resources.schr_vs_unitary_ratio": ("planned", "item 12: the dilation route beside a run"),
    "warp.ModeFrameState.table": ("reference", "the dense layout of the factored readouts"),
    "warp.ModeFrameState.coeffs": ("reference", "the dense layout of the factored readouts"),
    "warp.ModeFrameState.values": ("reference", "the dense layout of the factored readouts"),
    "warp.ModelDefaults.exact": ("protocol", "no closed-form u for a model without one"),
    "warp.dominant_speed": ("planned", "item 1: the speed that sizes the recovery window"),
    "warp.containment_ratio": ("planned", "item 4: the run trace's containment per snapshot"),
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
    assert {name for name, _ in idle} == set(IDLE)
    assert len(idle) == len(IDLE) < total


def test_every_idle_entry_has_a_reason():
    reasons = {"planned", "tracer", "protocol", "reference", "error", "config"}
    assert all(why in reasons and note for why, note in IDLE.values())


def test_tracer_pinned_entries_are_named_by_the_tracer():
    # an entry kept because the benchmark's tracer wraps or reads it: once
    # perfbench/spans.py no longer names it, this fails and the entry goes
    text = (ROOT / "perfbench" / "spans.py").read_text()
    pinned = [name for name, (why, _) in IDLE.items() if why == "tracer"]
    assert pinned == ["dilation.ladder_state", "evolvers.EvolutionPlan.n_steps"]
    for name in pinned:
        assert name.rsplit(".", 1)[1] in text, name


def test_span_counts_a_function_from_its_decorators_to_its_last_line():
    # the script prints each idle function's def span and their total
    import inspect

    sys.path.insert(0, str(ROOT / "scripts"))
    import traffic
    from schrodingerizer import evolvers

    for fn in (evolvers.EvolutionPlan.n_steps.fget, evolvers.evolve_trotter):
        lines, start = inspect.getsourcelines(fn)
        assert traffic._span(f"src/schrodingerizer/evolvers.py:{start}") == len(lines)
