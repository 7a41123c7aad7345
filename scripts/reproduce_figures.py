#!/usr/bin/env python3
"""Run every experiment preset and render the figures.

Usage: python3 scripts/reproduce_figures.py [--out DIR] [paswipt sweep flags...]

Each preset runs as `paswipt sweep --preset <name> --out DIR/<name> <flags>`,
so its subdirectory holds that command's CSV and plot script, and the
rendered PNG if matplotlib is installed.  DIR defaults to figures.
"""

import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path

from paswipt.cli import main as paswipt
from paswipt.sweep import PRESETS


def main(argv: list[str]) -> int:
    # --out is the outdir: passed on, it would replace each preset's subdirectory
    parser = argparse.ArgumentParser(prog="reproduce_figures.py", add_help=False,
                                     usage="%(prog)s [--out DIR] [paswipt sweep flags]")
    parser.add_argument("--out", default="figures")
    args, argv = parser.parse_known_args(argv)
    plots = importlib.util.find_spec("matplotlib") is not None
    for name, (experiment, _) in PRESETS.items():
        out = Path(args.out) / name
        paswipt(["sweep", "--preset", name, "--out", str(out), *argv])
        if not plots:  # a plot process would only fail on the import
            print("  plot skipped: matplotlib is not installed")
            continue
        script = f"plot_{experiment}.py"  # the sweep writes it next to the CSV
        proc = subprocess.run([sys.executable, script], cwd=out, capture_output=True, text=True)
        if proc.returncode:
            print(f"  plot skipped: {proc.stderr.strip().splitlines()[-1]}")
        else:
            print(f"  {proc.stdout.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
