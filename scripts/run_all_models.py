#!/usr/bin/env python3
"""Drive every bundled experiment config through the CLI.

Each run writes to its config's ``out_dir`` (``results/<config>``), or to
``OUT/<config>`` with ``--out OUT``, so two checkouts can be compared with
``diff -r`` without touching the tracked ``results/``.
"""

import argparse
import pathlib
import sys

from schrodingerizer.cli import main

HERE = pathlib.Path(__file__).resolve().parent

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, help="write each run to OUT/<config>")
    args = parser.parse_args()
    for config in sorted((HERE / "configs").glob("*.json")):
        if config.stem == "estimate_heat":
            code = main(["estimate", "--query", str(config)])
        else:
            out = [] if args.out is None else ["--out", str(args.out / config.stem)]
            code = main(["run", "--config", str(config), *out])
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{config.stem}: {status}")
        if code != 0:
            sys.exit(code)
