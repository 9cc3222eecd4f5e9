#!/usr/bin/env python3
"""List the functions under src/schrodingerizer/ whose body no run reaches.

    python3 scripts/traffic.py

``scan()`` returns what the script prints; ``tests/test_traffic.py`` holds
its expected list, so a function that loses its last run fails the tests.

The runs, all in this process under ``sys.settrace``: every bundled config
under scripts/configs through the CLI (``run`` and ``validate``, or
``estimate`` for a gate-count query), and one seed of every benchmark case
of perfbench/workloads.py, its generation included, run as perfbench/run.py
runs it.  Only the start of each call is recorded (the trace function turns
line tracing off), and only calls of the package's own source files count.

Each function or method (lambdas and generator expressions aside) that no
run entered is printed with its file, line and line count (its ``def``
span: decorators through the last line of its body), then the number of
such functions and their lines in all.  Such a
function is code no user path runs: it needs a test or an open item that
uses it, or it can go.  Every benchmark case runs once, so this takes about
as long as one sweep of each workload; outputs go to a temporary directory.
"""

import ast
import contextlib
import io
import os
import pathlib
import sys
import tempfile
import types
import warnings

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "schrodingerizer"
SEED = 1


def _name(code: types.CodeType) -> str:
    """The qualified name of a function (its bare name before Python 3.11)."""
    return getattr(code, "co_qualname", code.co_name)


def _functions(path: pathlib.Path) -> list[tuple[int, str]]:
    """(first line, qualified name) of every named function in one source file."""
    found = []

    def walk(code: types.CodeType) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if not const.co_name.startswith("<"):
                    found.append((const.co_firstlineno, _name(const)))
                walk(const)

    walk(compile(path.read_text(), str(path), "exec"))
    return found


def _span(where: str) -> int:
    """The lines of the function that starts at ``where`` (file:line, as
    ``scan`` gives it), from its first decorator or ``def`` through the last
    line of its body."""
    path, line = where.rsplit(":", 1)
    for node in ast.walk(ast.parse((ROOT / path).read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if first == int(line):
                return node.end_lineno - first + 1
    raise ValueError(f"no function starts at {where}")


def _bundled_configs(cli, out: pathlib.Path) -> list[str]:
    """Run and validate every bundled config; the failures, if any."""
    failures = []
    for config in sorted((ROOT / "scripts" / "configs").glob("*.json")):
        if config.stem.startswith("estimate"):
            commands = [["estimate", "--query", str(config)]]
        else:
            commands = [
                ["run", "--config", str(config), "--out", str(out / config.stem)],
                ["validate", "--config", str(config)],
            ]
        for argv in commands:
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            if code != 0:
                failures.append(f"{argv[0]} {config.stem}: exit {code}: {stderr.getvalue().strip()}")
    return failures


def _benchmark_cases(cli, config, out: pathlib.Path) -> list[str]:
    """Generate and run every benchmark case for one seed; the failures."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    failures = []
    for workload in sorted(workloads.WORKLOADS):
        for case in workloads.generate(workload, SEED):
            try:
                if case.config is None:
                    case.call()
                else:
                    cli.run_experiment(config.parse_config(case.config), str(out / workload / case.name))
            except Exception as exc:
                failures.append(f"{workload}/{case.name}: {type(exc).__name__}: {exc}")
    return failures


def scan() -> tuple[list[tuple[str, str]], list[str], int]:
    """Trace every run in this process: the (name, file:line) of each
    function no run entered, the run failures and the number of functions.

    Run it in a fresh interpreter: a class body counts as reached only when
    its module is imported under the tracer, and a cached call
    (``grids.fourier_matrix``) only when its cache is still empty."""
    os.environ.setdefault("SCHRO_THREADS", "1")
    sys.path.insert(0, str(PACKAGE.parent))
    entered: set[types.CodeType] = set()

    def trace(frame, event, arg):
        entered.add(frame.f_code)

    sys.settrace(trace)
    try:
        import schrodingerizer.cli as cli
        import schrodingerizer.config as config

        if pathlib.Path(cli.__file__).resolve().parent != PACKAGE:
            raise RuntimeError(f"schrodingerizer was imported from {cli.__file__}")
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the StabilityWarnings of the ode and liouville runs
            failures = _bundled_configs(cli, pathlib.Path(tmp))
            failures += _benchmark_cases(cli, config, pathlib.Path(tmp))
    finally:
        sys.settrace(None)

    reached = {
        (os.path.realpath(code.co_filename), code.co_firstlineno, _name(code)) for code in entered
    }
    total, idle = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in _functions(path):
            total += 1
            if (os.path.realpath(path), line, name) not in reached:
                idle.append((f"{path.stem}.{name}", f"{path.relative_to(ROOT)}:{line}"))
    return idle, failures, total


def main() -> int:
    try:
        idle, failures, total = scan()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spans = [_span(where) for _, where in idle]
    for (name, where), lines in zip(idle, spans):
        print(f"{name}  ({where}, {lines} lines)")
    print(f"{len(idle)} of {total} functions, {sum(spans)} lines by their def spans: no run reached their body")
    for failure in failures:
        print(f"run failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
