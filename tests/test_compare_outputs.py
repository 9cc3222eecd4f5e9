import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _compare(*args):
    cmd = [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"), *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True).returncode


def test_strict_exits_1_unless_every_csv_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for tree in (a, b):
        (tree / "run").mkdir(parents=True)
        (tree / "run" / "snapshot_000.csv").write_text("x1,re\n0.5,0.25\n")
    assert _compare("--strict", a, b) == 0
    # one digit off: a number within tolerance, but not the same bytes
    (b / "run" / "snapshot_000.csv").write_text("x1,re\n0.5,0.26\n")
    assert _compare("--strict", a, b) == 1
    assert _compare(a, b) == 0
