#!/usr/bin/env python3
"""paswipt benchmark: one command, four workloads, every output checked.

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

    cli-cold          cold ``paswipt`` subprocess calls, closed forms and quadrature
    figures-analytic  the five presets without MC, through CSV emission
    figures-mc        the five presets with MC rows, one worker
    mc-point          large single MC columns through the CLI, two workers

Each workload runs in a fresh interpreter (worker.py) against the package
under ``src/``; this script imports neither numpy, scipy nor the package,
so set-up and import times are the workload's own.  Set-up is timed from
process start to the worker's READY line, five times, and reported as
the median, which also keeps out the one start in a fresh checkout that
byte-compiles the sources.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics: fresh-interpreter ``-X importtime`` figures plus a
traced run whose spans are recorded from the benchmark's own code
(tracer.py) and written to ``.bench_work/``.  The last line of stdout is
the result; the line before it is a report with counts, percentiles and
provenance.  No system-wide profiler is used, and no kernel or cgroup
setting is read or changed beyond what the processes themselves report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("cli-cold", "figures-analytic", "figures-mc", "mc-point")

# Every workload reports every one of these.  Throughputs (rows/s, MC
# samples/s) are the fixed size of an operation over its latency, so they
# are printed in the report line and as per-layer metrics instead; the
# tail latency is printed in the report line, because on a shared 2-CPU
# host it tracks other tenants' bursts more than the program.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "import.paswipt_cli_s": "s",
    "import.scipy_integrate_s": "s",
    "import.scipy_special_s": "s",
    "import.numpy_s": "s",
    "import.yaml_s": "s",
    "cli.main_self_s": "s",
    "config.load_s": "s",
    "sweep.rows": "count",
    "sweep.self_s": "s",
    "sweep.emit_s": "s",
    "sweep.emit_bytes": "bytes",
    "sweep.rows_per_s": "1/s",
    "energy.closed_calls": "count",
    "energy.closed_s": "s",
    "energy.quad_calls": "count",
    "energy.quad_s": "s",
    "rate.closed_calls": "count",
    "rate.closed_s": "s",
    "rate.quad_calls": "count",
    "rate.quad_s": "s",
    "distributions.expect_calls": "count",
    "distributions.expect_s": "s",
    "distributions.integrand_evals": "count",
    "montecarlo.estimate_calls": "count",
    "montecarlo.samples": "count",
    "montecarlo.chunks": "count",
    "montecarlo.estimate_s": "s",
    "montecarlo.samples_per_s": "1/s",
    "montecarlo.self_ns_per_sample": "ns",
    "montecarlo.draw_ns_per_sample": "ns",
    "geometry.distance_ns_per_sample": "ns",
    "energy.logistic_ns_per_sample": "ns",
    "montecarlo.metric_ns_per_sample": "ns",
    "montecarlo.unexplained_ns_per_sample": "ns",
    "montecarlo.parallel_efficiency": "ratio",
    "trace.overhead_ratio": "ratio",
}

IMPORTS = {  # metric -> module, each timed alone in a fresh interpreter
    "import.paswipt_cli_s": "paswipt.cli",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.scipy_special_s": "scipy.special",
    "import.numpy_s": "numpy",
    "import.yaml_s": "yaml",
}
IMPORT_REPS = 3
SETUP_REPS = 5  # setup_s is the median of these many timed starts
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def start_worker(args, mode: str, work_dir: Path, seconds: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds to READY, result or None)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--mode", mode,
           "--work-dir", str(work_dir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{args.workload} {mode} worker timed out")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{args.workload} {mode} worker failed (exit {proc.returncode})")
    return setup, (json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def import_times() -> dict:
    """Cumulative ``-X importtime`` of each module alone, median of reps."""
    out = {}
    for metric, module in IMPORTS.items():
        times = []
        for _ in range(IMPORT_REPS):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                                  capture_output=True, text=True, env=child_env(), cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
            if proc.returncode:
                raise BenchError(f"import {module} failed: {proc.stderr[-300:]}")
            last = proc.stderr.strip().splitlines()[-1].split("|")
            if last[-1].strip() != module:
                raise BenchError(f"unexpected -X importtime output for {module}: {last}")
            times.append(int(last[1]) / 1e6)
        out[metric] = statistics.median(times)
    return out


def git_describe() -> str | None:
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True,
                              text=True, cwd=ROOT, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cache_sizes() -> dict:
    out = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            proc = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=30)
            out[level.lower()] = int(proc.stdout.strip())
        except (OSError, ValueError):
            out[level.lower()] = None
    return out


def metric_block(values: dict, units: dict) -> dict:
    unknown = set(values) - set(units)
    if unknown:
        raise BenchError(f"metrics outside the catalogue: {sorted(unknown)}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}


def run(args) -> tuple[dict, dict]:
    work_dir = WORK / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = {}
        if args.trace:
            layers = import_times()
            _, res = start_worker(args, "trace", work_dir, args.seconds)
            layers.update(res.pop("layers"))
            metrics = metric_block(layers, PER_LAYER)
            report["tracing"] = {k: res.get(k) for k in ("trace_ops", "trace_file",
                                                       "stage_chunk_size")}
        else:
            setups = [start_worker(args, "setup", work_dir, 0)[0] for _ in range(SETUP_REPS - 1)]
            setup, res = start_worker(args, "run", work_dir, args.seconds)
            setups.append(setup)
            lat = res["latencies"]
            tail_value, tail_pct = tail(lat)
            metrics = metric_block({
                "setup_s": statistics.median(setups),
                "latency_p50_s": statistics.median(lat),
                "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            }, END_TO_END)
            busy = sum(lat)
            report.update(
                ops=len(lat), latency_tail_s=tail_value, tail_percentile=tail_pct,
                latency_max_s=max(lat), setup_samples_s=setups,
                rows_per_s=res["rows"] / busy, mc_samples_per_s=res["samples"] / busy)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        attempted=res["attempted"], failed=res["failed"],
        error_rate=res["failed"] / res["attempted"], failures=res["failures"],
        provenance=dict(res["provenance"], nproc=os.cpu_count(), python=platform.python_version(),
                        git_describe=git_describe(), **cache_sizes(),
                        profiling="none system-wide; kernel and cgroup settings untouched"),
    )
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return report, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (SRC / "paswipt" / "cli.py").is_file():
        print(f"benchmark: package source not found at {SRC / 'paswipt'}", file=sys.stderr)
        return 2
    try:
        report, result = run(args)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    leaked = {"numpy", "scipy", "paswipt"} & set(sys.modules)
    if leaked:
        print(f"benchmark: run.py itself imported {sorted(leaked)}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
