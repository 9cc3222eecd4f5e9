"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``)."""

import json
import os
import sys
import warnings

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _outputs(runner, outputs) -> dict:
    """Snapshot CSV bytes of CLI cases and returned arrays of library cases."""
    out = {}
    for case in runner.cases:
        got = outputs[case.name]
        assert not isinstance(got, Exception), f"{case.name} raised {got!r}"
        if case.config is None:
            out[case.name] = got[0]
            continue
        for name in sorted(os.listdir(got)):
            if name.endswith(".csv"):
                with open(os.path.join(got, name), "rb") as fh:
                    out[f"{case.name}/{name}"] = fh.read()
    runner.collect_outputs()
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_writes_bit_identical_outputs(workload, tmp_path):
    runner = run.Runner(workloads.generate(workload, 3), str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plain = _outputs(runner, runner.sweep()[2])
        tracer = spans.Tracer()
        runner.tracer = tracer
        tracer.install()
        try:
            traced = _outputs(runner, runner.sweep()[2])
        finally:
            tracer.uninstall()
    assert tracer.spans and all(s is not None for s in tracer.spans)
    assert plain.keys() == traced.keys()
    for key in plain:
        if isinstance(plain[key], bytes):
            assert plain[key] == traced[key], key
        else:
            assert np.array_equal(plain[key], traced[key]), key
    # uninstall restored every binding
    import schrodingerizer.models as models

    assert models.to_modes is sys.modules["schrodingerizer.grids"].to_modes
    assert not hasattr(models.to_modes, "__wrapped__")


def _shape(case) -> tuple:
    """What sets a case's work, seeded values dropped (upwind steps vary < 1%)."""
    if case.config is None:
        return (case.name,)
    model, engine = case.config["model"], case.config["engine"]
    steps = 1 if "dt" not in engine else engine["t_final"] / engine["dt"]
    order = len(model["params"]["a"]) if model["kind"] == "ode" else None
    return (case.name, model["kind"], json.dumps(model.get("grid")),
            (model.get("pgrid") or {}).get("points"), model["params"].get("p_points"),
            engine["kind"], float(f"{steps:.2g}"), len(case.config["outputs"]["snapshots"]), order)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_values_not_sizes(workload):
    a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert [_shape(c) for c in a] == [_shape(c) for c in b]
    assert [c.config for c in a] != [c.config for c in b]
    assert [c.config for c in a] == [c.config for c in workloads.generate(workload, 1)]


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, *_ in spans.LAYER_METRICS
    ]


def test_import_breakdown_parses_importtime_lines():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       500 |      70000 | numpy",
        "import time:       100 |     300000 | scipy.linalg",
        "import time:      2000 |       2000 |   schrodingerizer.grids",
        "import time:      1000 |     400000 | schrodingerizer",
    ])
    assert run._import_breakdown(stderr) == pytest.approx(
        {"setup.numpy_s": 0.07, "setup.scipy_linalg_s": 0.3, "setup.pkg_s": 0.003})
