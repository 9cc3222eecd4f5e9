import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _compare(*args):
    """(exit code, last line printed)."""
    cmd = [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"), *map(str, args)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    return done.returncode, done.stdout.splitlines()[-1]


def test_strict_exits_1_unless_every_csv_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for tree in (a, b):
        (tree / "run").mkdir(parents=True)
        (tree / "run" / "snapshot_000.csv").write_text("x1,re\n0.5,0.25\n")
    assert _compare("--strict", a, b) == (0, "worst: 0.00e+00")
    # one digit off: a number within tolerance, but not the same bytes; the
    # worst counts it with or without --strict (0.01 relative to 0.5)
    (b / "run" / "snapshot_000.csv").write_text("x1,re\n0.5,0.26\n")
    assert _compare("--strict", a, b) == (1, "worst: 2.00e-02")
    assert _compare(a, b) == (0, "worst: 2.00e-02")


def test_tol_exits_1_when_the_worst_difference_exceeds_it(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for tree, cell in ((a, "0.25"), (b, "0.26")):
        (tree / "run").mkdir(parents=True)
        (tree / "run" / "snapshot_000.csv").write_text(f"x1,re\n0.5,{cell}\n")
    # 0.01 relative to 0.5: within 0.05, beyond 0.01
    assert _compare("--tol", 0.05, a, b) == (0, "worst: 2.00e-02")
    assert _compare("--tol", 0.01, a, b) == (1, "worst: 2.00e-02")
    # byte-identical trees pass any tolerance, zero included
    assert _compare("--tol", 0, a, a) == (0, "worst: 0.00e+00")
