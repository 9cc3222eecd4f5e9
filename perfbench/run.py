#!/usr/bin/env python3
"""Benchmark of the warp -> evolve -> recover pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``spectral`` (FFT-diagonal routes on large
states), ``dense_blocks`` (batched ``eigh`` of the generic Hermitian split)
and ``march`` (step loops on small states and the dilation ladder).

One process runs the workload as a closed loop: a single caller starts the
next run only after the previous one returned.  Configs go through
``parse_config`` and ``run_experiment`` as ``schrodingerizer run`` would
(writing CSVs and a manifest into a scratch out dir); library cases call
``dilation.ladder_evolve`` and ``resources.estimate``.  After one untimed
warm-up sweep the batch is swept repeatedly for ``--seconds``; every run of
every timed sweep is checked against its reference outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` splits the time in
half between untraced and traced sweeps and prints the per-layer metrics
(self time per sweep, counts per sweep) plus the tracing overhead.  Both
print an environment block, every metric by name with its unit, and, as the
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end run and sweep times are reported in units of a reference kernel
(``Reference``) timed before and after every run: the shared host's speed
drifts by a third over seconds to minutes, and the drift cancels in the
ratio.  The plain wall-clock seconds are printed beside them.

Numeric thread pools are capped through ``SCHRO_THREADS``, default 1.  On a
2-vCPU VM shared with other guests, two BLAS threads were both slower and
noisier than one (median ``sweep_s`` on ``dense_blocks`` 5.2 s against 4.4 s;
quartile spread of ``run_s.p50`` over five seeds 0.35 against 0.15).  The
pool variables are exported here, before numpy loads, because the package
reads ``SCHRO_THREADS`` only when ``schrodingerizer.cli`` is imported, after
numpy is already loaded.

Scratch files go to ``.perfbench/`` at the repository root; the traced run
leaves its spans there as ``trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
# run_ref.p75 is the tail with at least ten runs beyond it: every untraced
# measurement makes at least 40 runs.  A fixed percentile keeps the metric
# comparable when a change makes more runs fit into the measured time.
TAIL_PERCENTILE = 75
TAIL_MIN_RUNS = 40
# (name, unit) of the end-to-end metrics, in BENCHMARK.json's order.
END_TO_END = [("setup_s", "s"), ("sweep_ref", "ref"), ("run_ref.p50_gm", "ref"),
              (f"run_ref.p{TAIL_PERCENTILE}", "ref"), ("peak_rss_mb", "MiB")]
COLD_START = (
    "import json, sys\n"
    "import schrodingerizer.cli as cli\n"
    "with open(sys.argv[1]) as fh:\n"
    "    cli.parse_config(json.load(fh))\n"
)
LIMITS = (
    "timings are wall clock in this process and its cold-start children; no "
    "system-wide profiler or hardware counters are used; byte and n^3 counts "
    "are computed from array shapes, not measured; no memory-bandwidth figure "
    "is reported, since a bandwidth-grade array (4 x L3) is beyond the memory "
    "budget of the benchmark"
)


def _cap_threads() -> dict:
    cap = os.environ.get("SCHRO_THREADS") or "1"
    os.environ["SCHRO_THREADS"] = cap
    for var in POOL_VARS:
        os.environ.setdefault(var, cap)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return env


# ---------------------------------------------------------------------------
# Cold start in fresh interpreters.
# ---------------------------------------------------------------------------


def _cold_start(env: dict, cfg_path: str, importtime: bool = False):
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", COLD_START, cfg_path]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stderr


def _import_breakdown(stderr: str) -> dict:
    """setup.* seconds from ``-X importtime`` lines (self | cumulative | name)."""
    out = {"setup.numpy_s": 0.0, "setup.scipy_linalg_s": 0.0, "setup.pkg_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if not self_us.strip().isdigit():
            continue
        if name == "numpy":
            out["setup.numpy_s"] = int(cum_us) * 1e-6
        elif name == "scipy.linalg":
            out["setup.scipy_linalg_s"] = int(cum_us) * 1e-6
        elif name == "schrodingerizer" or name.startswith("schrodingerizer."):
            out["setup.pkg_s"] += int(self_us) * 1e-6
    return out


# ---------------------------------------------------------------------------
# Closed-loop sweeps.
# ---------------------------------------------------------------------------


class Reference:
    """A fixed kernel whose time is the unit of the end-to-end run times.

    On a host shared with other guests the CPU speed drifts by up to a
    third over seconds to minutes; process CPU time rises with wall time, so
    it is contention, not stolen time, and longer runs do not average it
    out.  Timed next to every run, this kernel slows with the host, and a
    run's time divided by the kernel's moves far less (quartile spread over
    five seeds 0.03-0.06 of the median, against 0.21-0.30 in seconds).  It mixes the kinds of work
    the package does (an interpreter loop, complex FFTs along one axis and a
    small batched ``eigh``) on fixed data no seed changes, calls numpy only,
    and takes about 8 ms.  The numpy functions are bound here, before any
    trace wrapper is installed, so the kernel adds no spans.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((64, 1024)) + 1j * rng.standard_normal((64, 1024))
        m = rng.standard_normal((8, 32, 32))
        self._m = m + m.transpose(0, 2, 1)
        self._fft, self._ifft, self._eigh = np.fft.fft, np.fft.ifft, np.linalg.eigh
        for _ in range(5):
            self()

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        for _ in range(2):
            self._ifft(self._fft(self._x, axis=1), axis=1)
        self._eigh(self._m)
        return time.perf_counter() - start


class Runner:
    """Runs a workload's cases back to back and checks what they produced."""

    def __init__(self, cases, work: str):
        import schrodingerizer.cli as cli
        import schrodingerizer.config as config

        self.cli, self.config = cli, config
        self.cases = cases
        self.work = work
        self.texts = {c.name: json.dumps(c.config) for c in cases if c.config is not None}
        self.tracer = None
        self.next_run = 0
        self.reference = Reference()

    def _out_dir(self, case) -> str:
        return os.path.join(self.work, case.name)

    def _run(self, case):
        if case.config is None:
            return case.call()
        # looked up at call time, so installed trace wrappers take effect
        cfg = self.config.parse_config(json.loads(self.texts[case.name]))
        code = self.cli.run_experiment(cfg, self._out_dir(case))
        if code != 0:
            raise RuntimeError(f"run_experiment returned {code}")
        return self._out_dir(case)

    def sweep(self):
        """Run every case once; returns (run seconds, reference seconds, outputs).

        The reference kernel is timed before the first run and after each
        run, so run ``i`` lies between reference timings ``i`` and ``i + 1``.
        """
        outputs, times = {}, []
        refs = [self.reference()]
        clock = time.perf_counter
        for case in self.cases:
            if self.tracer is not None:
                self.tracer.run_id = self.next_run
            self.next_run += 1
            t0 = clock()
            try:
                outputs[case.name] = self._run(case)
            except Exception as exc:  # a failed run is recorded, not fatal
                outputs[case.name] = exc
            times.append(clock() - t0)
            refs.append(self.reference())
        return times, refs, outputs

    def check(self, outputs) -> list:
        """(case, err/tol or None, failure reason or None) per case."""
        from workloads import CheckError

        verdicts = []
        for case in self.cases:
            out = outputs[case.name]
            ratio, reason = None, None
            if isinstance(out, Exception):
                reason = f"raised {type(out).__name__}: {out}"
            else:
                try:
                    ratio = case.check(out)
                except (CheckError, OSError, ValueError) as exc:
                    reason = f"bad output: {exc}"
                else:
                    if not ratio <= 1.0:
                        reason = f"err/tol = {ratio:.3g}"
            verdicts.append((case, ratio, reason))
        return verdicts

    def collect_outputs(self) -> tuple[int, int]:
        """(files, bytes) written by the CLI runs; empties the out dirs."""
        files = size = 0
        for case in self.cases:
            path = self._out_dir(case)
            if case.config is None or not os.path.isdir(path):
                continue
            for name in os.listdir(path):
                files += 1
                size += os.path.getsize(os.path.join(path, name))
            shutil.rmtree(path)
        return files, size

    def measure(self, seconds: float, min_runs: int, between=None) -> list:
        """Sweep for ``seconds`` and at least ``min_runs`` runs (two sweeps).

        ``between(elapsed share of seconds)`` is called after every sweep,
        outside the timed runs.
        """
        sweeps = []
        started = time.perf_counter()
        while (len(sweeps) < 2 or len(sweeps) * len(self.cases) < min_runs
               or time.perf_counter() - started < seconds):
            times, refs, outputs = self.sweep()
            verdicts = self.check(outputs)
            files, size = self.collect_outputs()
            # each run in units of the mean of the reference timings around it
            rel = [2.0 * t / (a + b) for t, a, b in zip(times, refs, refs[1:])]
            sweeps.append({"total": sum(times), "times": times, "rel": rel,
                           "ref": statistics.median(refs), "verdicts": verdicts,
                           "files": files, "bytes": size})
            if between is not None:
                between((time.perf_counter() - started) / seconds)
        return sweeps


def _correctness(sweeps: list) -> dict:
    verdicts = [v for s in sweeps for v in s["verdicts"]]
    failed = [(case, reason) for case, _, reason in verdicts if reason is not None]
    ratios = [(ratio, case.name) for case, ratio, _ in verdicts if ratio is not None]
    return {
        "attempted": len(verdicts),
        "failed": failed,
        "worst": max(ratios) if ratios else (0.0, "no run produced a checkable output"),
    }


# ---------------------------------------------------------------------------
# Environment.
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def _environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = None
    caches = {}
    for label, key in (("l2_bytes", 191), ("l3_bytes", 194)):  # _SC_LEVEL{2,3}_CACHE_SIZE
        try:
            caches[label] = os.sysconf(key) or None
        except (ValueError, OSError):
            caches[label] = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "SCHRO_THREADS": os.environ.get("SCHRO_THREADS"),
        "pools": {v: os.environ.get(v) for v in POOL_VARS},
        "git_sha": _git_sha(),
        **caches,
    }


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "schrodingerizer")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    env = _cap_threads()
    sys.path[:0] = [SRC, HERE]
    import workloads  # numpy loads here, after the thread cap

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")  # StabilityWarning on constant-source ODEs is expected
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        return _benchmark(args, env, work, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _benchmark(args, env: dict, work: str, workloads) -> int:
    cases = workloads.generate(args.workload, args.seed)
    cfg_path = os.path.join(work, "setup_config.json")
    with open(cfg_path, "w") as fh:
        json.dump(next(c.config for c in cases if c.config is not None), fh)
    runner = Runner(cases, work)
    runner.sweep()  # warm-up, untimed
    runner.collect_outputs()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  cases {len(cases)}  closed loop, 1 caller")
    print("env " + json.dumps(_environment(), sort_keys=True))
    print("limits: " + LIMITS)
    if args.trace:
        metrics, info, sweeps = _per_layer(runner, env, cfg_path, args)
    else:
        metrics, info, sweeps = _end_to_end(runner, env, cfg_path, args.seconds)

    verdict = _correctness(sweeps)
    failed = verdict["failed"]
    fail_frac = len(failed) / verdict["attempted"]
    worst, worst_case = verdict["worst"]
    quality = {
        "fail_frac": (fail_frac, "ratio", f"{len(failed)} of {verdict['attempted']} runs"),
        "err_to_tol.max": (worst, "ratio", f"worst run: {worst_case}"),
    }
    if args.trace:
        metrics.update(quality)  # per-layer entries: seed-dependent, may be 0
    for name, (value, unit, note) in {**metrics, **info, **quality}.items():
        print(f"{name:26s} {value:>14.6g} {unit:6s} {note}".rstrip())
    for name, count in sorted(Counter(c.name for c, _ in failed).items()):
        case, reason = next((c, r) for c, r in failed if c.name == name)
        label = "known defect" if case.known_defect else "UNEXPECTED"
        print(f"FAILED {name} [{label}]: {count} runs; first: {reason}")
    print(json.dumps({
        "correct": not any(not c.known_defect for c, _ in failed),
        "attempted": verdict["attempted"],
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def _end_to_end(runner: Runner, env: dict, cfg_path: str, seconds: float):
    # cold starts are spread over the measured time, so that their median
    # sees the same host as the sweeps
    setup = []

    def cold_starts(share: float) -> None:
        while len(setup) < min(SETUP_RUNS, int(share * SETUP_RUNS) + 1):
            setup.append(_cold_start(env, cfg_path)[0])

    sweeps = runner.measure(seconds, TAIL_MIN_RUNS, cold_starts)
    cold_starts(1.0)
    runs = [t for s in sweeps for t in s["times"]]
    rel = [r for s in sweeps for r in s["rel"]]
    cases = len(runner.cases)
    per_case = [statistics.median(s["rel"][i] for s in sweeps) for i in range(cases)]

    def tail(values):
        return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]

    beyond = sum(r > tail(rel) for r in rel)
    ref_s = statistics.median(s["ref"] for s in sweeps)
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} cold starts"),
        "sweep_ref": (statistics.median(s["total"] / s["ref"] for s in sweeps), "ref",
                      f"median of {len(sweeps)} sweeps, each over its median reference time"),
        "run_ref.p50_gm": (math.exp(statistics.fmean(math.log(v) for v in per_case)), "ref",
                           f"geometric mean over {cases} cases of each one's median of {len(sweeps)} runs"),
        f"run_ref.p{TAIL_PERCENTILE}": (tail(rel), "ref", f"n={len(rel)}, {beyond} beyond"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", "this process"),
    }
    assert [(name, unit) for name, (_, unit, _) in metrics.items()] == END_TO_END
    seconds_only = {
        "ref_s": (ref_s, "s", "median time of the reference kernel (the unit 'ref')"),
        "sweep_s": (statistics.median(s["total"] for s in sweeps), "s", f"median of {len(sweeps)} sweeps"),
        "run_s.p50": (statistics.median(runs), "s", f"median of {len(runs)} runs"),
        f"run_s.p{TAIL_PERCENTILE}": (tail(runs), "s", f"n={len(runs)}"),
    }
    return metrics, seconds_only, sweeps


def _per_layer(runner: Runner, env: dict, cfg_path: str, args):
    """Half the time untraced, half traced; layer values are per traced sweep."""
    import spans

    breakdowns = [_import_breakdown(_cold_start(env, cfg_path, importtime=True)[1])
                  for _ in range(IMPORTTIME_RUNS)]
    plain = runner.measure(args.seconds / 2, 0)
    tracer = spans.Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        traced = runner.measure(args.seconds / 2, 0)
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))

    totals = tracer.layer_totals()
    values = {name: totals.get(name, 0) / len(traced) for name, *_ in spans.LAYER_METRICS}
    for key in breakdowns[0]:
        values[key] = statistics.median(b[key] for b in breakdowns)
    values["cli.files"] = statistics.median(s["files"] for s in traced)
    values["cli.write.bytes"] = statistics.median(s["bytes"] for s in traced)
    values["trace.sweep_s"] = statistics.median(s["total"] for s in traced)
    # compared in reference units, so that host drift between the halves cancels
    values["trace.overhead_s"] = statistics.median(s["ref"] for s in plain + traced) * (
        statistics.median(s["total"] / s["ref"] for s in traced)
        - statistics.median(s["total"] / s["ref"] for s in plain))
    metrics = {}
    for name, unit, moves, on in spans.LAYER_METRICS:
        note = f"moves {moves}; on {on}"
        if name in totals and name.endswith("_s"):
            note = f"{100 * values[name] / values['trace.sweep_s']:5.1f}% of traced sweep; {note}"
        metrics[name] = (values[name], unit, note)
    info = {"ref_s": (statistics.median(s["ref"] for s in plain + traced), "s",
                      "median time of the reference kernel")}
    return metrics, info, plain + traced


if __name__ == "__main__":
    sys.exit(main())
