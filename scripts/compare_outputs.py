#!/usr/bin/env python3
"""Compare the CSV outputs of two runs, file by file.

    python scripts/compare_outputs.py [--strict] [--tol X] A B

A and B are output directories, e.g. two ``scripts/run_all_models.py --out``
trees or ``results/`` and one of them.  For every CSV under A (searched
recursively) the script prints the largest |difference| of its numeric cells
relative to the file's largest magnitude in A, the rule of
``tests/test_reproducibility.py``; ``identical`` marks byte-equal files.
A file missing from B, a different header, row count or set of empty cells
is reported instead of a number.  The last line is the worst number over
every file that could be compared, byte-identical or not.  Exits 1 when a
file cannot be compared, with ``--strict`` when any CSV under A is not
byte-identical in B, or with ``--tol X`` when that worst number exceeds X;
else 0.
"""

import argparse
import csv
import pathlib
import sys

import numpy as np


def _read(path: pathlib.Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def compare(a: pathlib.Path, b: pathlib.Path) -> tuple[float | None, str]:
    """(relative difference or None, text to print) for one pair of files."""
    if not b.exists():
        return None, "missing in B"
    if a.read_bytes() == b.read_bytes():
        return 0.0, "identical"
    (head_a, rows_a), (head_b, rows_b) = _read(a), _read(b)
    if head_a != head_b or len(rows_a) != len(rows_b):
        return None, "different header or row count"
    if [[c == "" for c in r] for r in rows_a] != [[c == "" for c in r] for r in rows_b]:
        return None, "different empty cells"
    ref = np.array([float(c) for r in rows_a for c in r if c != ""])
    new = np.array([float(c) for r in rows_b for c in r if c != ""])
    if ref.size == 0:
        return 0.0, "no numbers"
    scale = np.abs(ref).max()
    rel = float(np.abs(new - ref).max() / (scale if scale > 0 else 1.0))
    return rel, f"{rel:.2e}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=pathlib.Path)
    parser.add_argument("b", type=pathlib.Path)
    parser.add_argument("--strict", action="store_true", help="exit 1 unless every CSV is byte-identical")
    parser.add_argument("--tol", type=float, help="exit 1 when the worst relative difference exceeds TOL")
    args = parser.parse_args(argv)
    worst, failed = 0.0, False
    for path in sorted(args.a.rglob("*.csv")):
        name = path.relative_to(args.a)
        rel, text = compare(path, args.b / name)
        print(f"{name}: {text}")
        if rel is None or (args.strict and text != "identical"):
            failed = True
        if rel is not None:
            worst = max(worst, rel)
    print(f"worst: {worst:.2e}")
    if args.tol is not None and worst > args.tol:
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
