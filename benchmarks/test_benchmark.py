"""The benchmark's own tests: every workload at a tiny size.

Run from the repository root:  python3 -m pytest -q benchmarks/test_benchmark.py
(The package's test suite does not collect this directory.)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH_DIR))
from run import tail  # noqa: E402
from tracer import summarize  # noqa: E402

# Per-layer metrics that must be non-zero on each workload's traced run.
EXERCISED = {
    "cli-cold": ["cli.main_self_s", "config.load_s", "energy.closed_calls", "rate.quad_calls",
                 "distributions.integrand_evals"],
    "figures-analytic": ["sweep.rows", "sweep.self_s", "sweep.emit_s", "sweep.emit_bytes",
                         "sweep.rows_per_s", "energy.closed_calls", "energy.quad_calls",
                         "rate.closed_calls", "rate.quad_calls", "distributions.expect_calls",
                         "distributions.integrand_evals"],
    "figures-mc": ["sweep.rows", "montecarlo.estimate_calls", "montecarlo.chunks",
                   "montecarlo.samples", "montecarlo.samples_per_s",
                   "montecarlo.self_ns_per_sample", "montecarlo.draw_ns_per_sample",
                   "geometry.distance_ns_per_sample", "energy.logistic_ns_per_sample"],
    "mc-point": ["cli.main_self_s", "montecarlo.estimate_calls", "montecarlo.chunks",
                 "montecarlo.self_ns_per_sample", "montecarlo.draw_ns_per_sample",
                 "energy.logistic_ns_per_sample", "montecarlo.parallel_efficiency"],
}
IMPORTS = ["import.paswipt_cli_s", "import.scipy_integrate_s", "import.scipy_special_s",
           "import.numpy_s", "import.yaml_s", "trace.overhead_ratio"]


def bench(workload, trace, seconds=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    return result, report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_spec(workload):
    result, report = result_of(bench(workload, trace=0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["error_rate"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_match_spec(workload):
    # correct == True includes: traced and untraced operations on the same
    # inputs produced identical bytes (and, on mc-point, 1 and 2 workers).
    result, report = result_of(bench(workload, trace=1, seconds=2))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    zero = [k for k in EXERCISED[workload] + IMPORTS if result["metrics"][k]["value"] <= 0]
    assert not zero, zero
    assert report["tracing"]["trace_ops"]["traced"] >= 1


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_direct_children():
    spans = [["a", 0, 100, -1, 0, None], ["b", 10, 40, 0, 0, None],
             ["c", 15, 25, 1, 0, None], ["b", 50, 60, 0, 0, None]]
    s = summarize(spans)
    assert s["a"] == {"calls": 1, "total_ns": 100, "self_ns": 60}
    assert s["b"] == {"calls": 2, "total_ns": 40, "self_ns": 30}
    assert s["c"]["self_ns"] == 10


def test_tail_has_ten_samples_beyond():
    value, pct = tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0
    assert tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_missing_traced_name_fails_loudly(monkeypatch):
    import tracer
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setattr(tracer, "WRAPS", tracer.WRAPS + (("paswipt.sweep", "gone", "x"),))
    t = tracer.Tracer()
    try:
        with pytest.raises(LookupError, match="paswipt.sweep.gone"):
            t.install()
    finally:
        t.restore()
