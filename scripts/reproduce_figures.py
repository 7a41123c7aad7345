#!/usr/bin/env python3
"""Run every experiment preset and render the figures.

Usage: python3 scripts/reproduce_figures.py [outdir] [--mc] [--samples N]

Each preset gets its own subdirectory with the CSV, the emitted plot
script, and the rendered PNG (if matplotlib is installed).
"""

import argparse
import subprocess
import sys
from pathlib import Path

from paswipt.montecarlo import DEFAULT_SAMPLES
from paswipt.sweep import PRESETS, emit_outputs, preset, run_power_sweep, run_tradeoff


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="figures")
    ap.add_argument("--mc", action="store_true", help="add Monte-Carlo rows")
    ap.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    for name in PRESETS:
        spec = preset(name, include_mc=args.mc, samples=args.samples,
                      seed=args.seed, workers=args.workers)
        rows = run_tradeoff(spec) if spec.experiment == "region" else run_power_sweep(spec)
        out = Path(args.outdir) / name
        written = emit_outputs(rows, out, spec.experiment)
        print(f"{name}: {len(rows)} rows -> {written[0]}")
        script = written[1]
        proc = subprocess.run([sys.executable, script.name], cwd=out,
                              capture_output=True, text=True)
        if proc.returncode:
            print(f"  plot skipped: {proc.stderr.strip().splitlines()[-1]}")
        else:
            print(f"  {proc.stdout.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
