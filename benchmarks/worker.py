"""One workload in a fresh interpreter; started by benchmarks/run.py.

Usage: python3 benchmarks/worker.py --workload NAME --seed N --seconds T
           --mode setup|run|trace --work-dir DIR

Prints ``READY`` once set-up is done (run.py times interpreter start
to that line), then, unless the mode is ``setup``, runs operations in a
closed loop for T seconds and prints one JSON line with the results.
Every output is checked; an operation that raises or fails a check is
counted as failed.

``trace`` mode runs the workload untraced, then traced (tracer.py), and
requires the two to produce identical bytes for the same operation.  On
mc-point the traced phase runs with one worker, because spans recorded
in worker processes are lost; an untraced one-worker phase is the plain
single-threaded baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, summarize

MAX_FAILURE_MESSAGES = 5


def make_workload(name: str, seed: int, work_dir: Path):
    if name == "cli-cold":
        from cli_cold import CliCold
        return CliCold(seed, work_dir)
    import inproc
    if name == "figures-analytic":
        return inproc.Figures(seed, work_dir, include_mc=False)
    if name == "figures-mc":
        return inproc.Figures(seed, work_dir, include_mc=True)
    if name == "mc-point":
        return inproc.McPoint(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")


def measure(wl, seconds: float, tracer: Tracer | None = None, min_ops: int = 1) -> dict:
    """Closed loop: the next operation starts when the previous one and its
    check are done.  At least min_ops operations run."""
    lat, digests, failures = [], [], []
    failed = rows = samples = nbytes = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = wl.op(i, tracer)
            lat.append(time.perf_counter() - t0)
            problems = wl.check(i, out)
            digests.append(out["digest"])
            rows += out.get("rows", 0)
            samples += out.get("samples", 0)
            nbytes += out.get("bytes", 0)
        except Exception:
            lat.append(time.perf_counter() - t0)
            digests.append(None)
            problems = [traceback.format_exc(limit=4)]
        if problems:
            failed += 1
            failures += problems
        i += 1
    return dict(latencies=lat, digests=digests, attempted=i, failed=failed,
                failures=failures[:MAX_FAILURE_MESSAGES], rows=rows, samples=samples,
                bytes=nbytes)


def _merge_failures(result: dict, problems: list[str]) -> None:
    if problems:
        result["failed"] = max(result["failed"], 1)
        result["failures"] = (result["failures"] + problems)[:MAX_FAILURE_MESSAGES]


def _compare(a: dict, b: dict, what: str) -> list[str]:
    pairs = list(zip(a["digests"], b["digests"]))
    bad = [i for i, (x, y) in enumerate(pairs) if x != y]
    return [f"{what}: op {i} output differs" for i in bad[:MAX_FAILURE_MESSAGES]]


def run_trace(wl, name: str, seconds: float, seed: int, work_dir: Path) -> dict:
    in_process = name != "cli-cold"
    mc_point = name == "mc-point"
    share = seconds / (3 if mc_point else 2)
    untraced = measure(wl, share)
    serial = None
    if mc_point:
        wl.workers = 1
        serial = measure(wl, share)
    tracer = Tracer()
    if in_process:
        tracer.install()
    try:
        # A full cycle of cli-cold's call mix, so every layer is reached.
        traced = measure(wl, share, tracer, min_ops=getattr(wl, "cycle", 1))
    finally:
        tracer.restore()
    result = dict(untraced)
    result["attempted"] = untraced["attempted"] + traced["attempted"]
    result["failed"] = untraced["failed"] + traced["failed"]
    result["failures"] = (untraced["failures"] + traced["failures"])[:MAX_FAILURE_MESSAGES]
    _merge_failures(result, _compare(untraced, traced, "traced vs untraced"))
    if serial is not None:
        result["attempted"] += serial["attempted"]
        result["failed"] += serial["failed"]
        _merge_failures(result, serial["failures"] + _compare(untraced, serial, "1 vs 2 workers"))
    _merge_failures(result, wl.finish())

    trace_file = work_dir.parent / f"trace-{name}-seed{seed}.jsonl"
    tracer.write(trace_file)
    summary = summarize(tracer.spans)
    missing = [s for s in wl.required_spans if summary.get(s, {}).get("calls", 0) == 0]
    if missing:
        raise RuntimeError(f"{name}: traced run recorded no calls to {missing}")
    ops = traced["attempted"]
    base = serial if mc_point else untraced
    layers = layer_metrics(summary, tracer.spans, tracer.counts, ops, traced)
    layers["trace.overhead_ratio"] = (statistics.median(traced["latencies"])
                                      / statistics.median(base["latencies"]))
    untraced_s = sum(untraced["latencies"])
    layers["sweep.rows_per_s"] = untraced["rows"] / untraced_s if name.startswith("figures") else 0.0
    layers["montecarlo.samples_per_s"] = untraced["samples"] / untraced_s
    if mc_point:
        layers["montecarlo.parallel_efficiency"] = statistics.median(serial["latencies"]) / (
            wl.parallel_workers * statistics.median(untraced["latencies"]))
    if summary.get("montecarlo.estimate"):
        stages, result["stage_chunk_size"] = stage_metrics(wl, tracer.spans, summary, seed)
        layers.update(stages)
    result["layers"] = layers
    result["trace_ops"] = dict(untraced=untraced["attempted"], traced=traced["attempted"],
                               serial=serial["attempted"] if serial else 0)
    result["trace_file"] = trace_file.name
    return result


def layer_metrics(summary: dict, spans: list, counts: dict, ops: int, traced: dict) -> dict:
    """Per-operation counts and seconds at each wrapped layer boundary."""
    def calls(name):
        return summary.get(name, {}).get("calls", 0) / ops

    def total_s(name):
        return summary.get(name, {}).get("total_ns", 0) / ops / 1e9

    def self_s(name):
        return summary.get(name, {}).get("self_ns", 0) / ops / 1e9

    samples = sum(s[5][2] for s in spans if s[0] == "montecarlo.estimate")
    out = {
        "cli.main_self_s": self_s("cli.main"),
        "config.load_s": total_s("config.load"),
        "sweep.self_s": self_s("sweep.run"),
        "sweep.emit_s": total_s("sweep.emit"),
        "montecarlo.estimate_calls": calls("montecarlo.estimate"),
        "montecarlo.samples": samples / ops,
        "montecarlo.chunks": calls("geometry.distance"),
        "montecarlo.estimate_s": total_s("montecarlo.estimate"),
        "distributions.expect_calls": calls("distributions.expect"),
        "distributions.expect_s": total_s("distributions.expect"),
        "distributions.integrand_evals": counts.get("distributions.integrand_evals", 0) / ops,
    }
    for layer in ("energy", "rate"):
        for kind in ("closed", "quad"):
            out[f"{layer}.{kind}_calls"] = calls(f"{layer}.{kind}")
            out[f"{layer}.{kind}_s"] = total_s(f"{layer}.{kind}")
    if summary.get("sweep.run"):
        out["sweep.rows"] = traced["rows"] / ops
        out["sweep.emit_bytes"] = traced["bytes"] / ops
    if samples:
        est = summary["montecarlo.estimate"]
        out["montecarlo.self_ns_per_sample"] = est["self_ns"] / samples
    return out


def stage_metrics(wl, spans: list, summary: dict, seed: int) -> tuple[dict, int]:
    """Standalone stage costs, weighted by the samples each metric and
    scheme drew in the traced run, set against the estimate's self time."""
    import inproc
    cfg, schemes, size = wl.stage_config()
    costs = inproc.stage_costs(cfg, schemes, size, seed)
    est = [s[5] for s in spans if s[0] == "montecarlo.estimate"]
    total = sum(n for _, _, n in est)
    distance = sum(n * costs["distance"][scheme] for _, scheme, n in est) / total
    inline = sum(n * costs["inline"][metric] for metric, _, n in est) / total
    self_ns = summary["montecarlo.estimate"]["self_ns"] / total
    return {
        "montecarlo.draw_ns_per_sample": costs["draw"],
        "geometry.distance_ns_per_sample": distance,
        "energy.logistic_ns_per_sample": costs["logistic"],
        "montecarlo.metric_ns_per_sample": inline,
        "montecarlo.unexplained_ns_per_sample": self_ns - costs["draw"] - inline,
    }, size


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    args = ap.parse_args()

    wl = make_workload(args.workload, args.seed, args.work_dir)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "trace":
        result = run_trace(wl, args.workload, args.seconds, args.seed, args.work_dir)
    else:
        result = measure(wl, args.seconds)
        _merge_failures(result, wl.finish())
    result["peak_rss_kb"] = wl.peak_rss_kb()
    result["provenance"] = dict(provenance(), mc_samples_per_row=wl.mc_samples)
    del result["digests"]
    print(json.dumps(result), flush=True)
    return 0


def provenance() -> dict:
    """Library versions; imported only after the measurement."""
    import numpy
    import scipy
    from paswipt.montecarlo import CHUNK_SIZE
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "chunk_size": CHUNK_SIZE}


if __name__ == "__main__":
    sys.exit(main())
