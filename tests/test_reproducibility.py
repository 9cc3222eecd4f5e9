"""Every bundled run config reproduces the tracked ``results/``.

The CSVs are byte-identical on the machine and BLAS that wrote them; across
machines, BLAS kernels (batched ``eigh``, matrix products) may round
differently, so values are compared to 1e-10 relative to each file's
largest magnitude.
"""

import csv
import pathlib
import warnings

import numpy as np
import pytest

from schrodingerizer.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = sorted(
    path for path in (ROOT / "scripts" / "configs").glob("*.json") if path.stem != "estimate_heat"
)
REL_TOL = 1e-10


def _read(path: pathlib.Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.mark.parametrize("config", CONFIGS, ids=[path.stem for path in CONFIGS])
def test_bundled_config_reproduces_tracked_results(config, tmp_path):
    expected_dir = ROOT / "results" / config.stem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    names = sorted(path.name for path in expected_dir.glob("*.csv"))
    assert names == sorted(path.name for path in tmp_path.glob("*.csv"))
    for name in names:
        header, want = _read(expected_dir / name)
        got_header, got = _read(tmp_path / name)
        assert got_header == header, name
        assert len(got) == len(want), name
        # empty cells (no exact solution, no mass) must stay empty
        assert [[cell == "" for cell in row] for row in got] == [
            [cell == "" for cell in row] for row in want
        ], name
        ref = np.array([float(cell) for row in want for cell in row if cell != ""])
        new = np.array([float(cell) for row in got for cell in row if cell != ""])
        assert np.abs(new - ref).max() <= REL_TOL * np.abs(ref).max(), name
