"""In-process workloads: figures-analytic, figures-mc and mc-point.

Each runs in its own fresh interpreter.  The package is imported at the
top of this module, so that import counts toward set-up.  Package entry
points are always looked up on their module at call time
(``paswipt.sweep.run_power_sweep``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import random
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import paswipt.cli
import paswipt.sweep
from paswipt.config import LinearHarvest, RegionGeometry, default_config
from paswipt.distributions import SquaredDistanceDistribution
from paswipt.energy import (
    avg_energy_nlm_bound,
    avg_energy_quadrature,
    logistic_harvest_power,
)
from paswipt.geometry import Scheme, optimal_squared_distance
from paswipt.montecarlo import CHUNK_SIZE, _chunk_ue
from paswipt.rate import avg_rate_quadrature

from cli_cold import JENSEN_FLOOR_W, REL_TOL

PRESETS = ("s1", "s2", "c1", "c2", "fig4")
LN2 = math.log(2.0)

# An MC mean may differ from its exact reference by K standard errors plus
# this share of the reference: far above the rounding of a pairwise sum
# and the 1e-11 relative tolerance the quadrature reference is asked for,
# far below any modelling error.  It matters only where the per-sample
# value is constant (a saturated harvester), so the standard error is 0.
MC_FLOOR_REL = 1e-9
# Chance that a correct program fails one run's MC checks; K is sized
# from it and the number of MC rows the run checks (a Bonferroni bound).
MC_FALSE_FAIL = 1e-6

# figures-analytic: distinct rooms per run, then repeated.  Quadrature
# cost depends on the room, so the rooms are stratified over the ranges:
# every seed then sees the same spread of room costs.
ROOM_CYCLE = 64
FIGURES_MC_SAMPLES = 1 << 14
REGION_CHECK_STRIDE = 8  # fig4 rows re-derived by quadrature: every 8th
MC_POINT_SAMPLES = 10_000_000
MC_POINT_WORKERS = 2
MC_POINT_INPUTS = 4
STAGE_REPS = 25


def mc_multiple(rows: int) -> float:
    """Standard errors allowed per MC row when `rows` rows are checked."""
    return statistics.NormalDist().inv_cdf(1.0 - MC_FALSE_FAIL / (2.0 * rows))


def _rel_close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _metric_fn(metric: str, cfg):
    """Per-sample value v(l) of an MC metric, written out independently."""
    s, p, m = cfg.system, cfg.protocol, cfg.harvest
    if metric == "energy-lm":
        c = p.alpha * p.beta * m.eta * s.transmit_power_w
        return lambda l: c / l
    if metric == "energy-nlm":
        return lambda l: p.alpha * logistic_harvest_power(m, p.beta * s.transmit_power_w / l)
    mu_gamma = s.path_loss_factor_m2 * s.transmit_snr
    return lambda l: (1.0 - p.alpha * p.beta) * math.log1p(mu_gamma / l) / LN2


def mc_tolerance(metric: str, scheme: Scheme, cfg, n: int, reference: float, k: float) -> float:
    """k standard errors, with the standard error sqrt(Var[v]/n) from the
    distance law by quadrature, plus the rounding floor."""
    v = _metric_fn(metric, cfg)
    dist = SquaredDistanceDistribution(scheme, cfg.geometry)
    m1 = dist.expect(v)
    m2 = dist.expect(lambda l: v(l) ** 2)
    sigma = math.sqrt(max(m2 - m1 * m1, 0.0) / n)
    return k * sigma + MC_FLOOR_REL * abs(reference)


def _model_tag(model) -> str:
    return "lm" if isinstance(model, LinearHarvest) else "nlm"


def _row_config(spec, row):
    """The config a sweep row was evaluated with."""
    cfg = spec.config.replace(system=dataclasses.replace(spec.config.system,
                                                         transmit_power_w=row["pt_w"]))
    if "model" in row:
        model = next(m for m in spec.models if _model_tag(m) == row["model"])
        cfg = cfg.replace(harvest=model)
    return cfg


def check_power_rows(spec, rows) -> list[str]:
    """Closed form vs quadrature within REL_TOL; Jensen bound >= quadrature."""
    value = "value_w" if spec.experiment == "energy" else "value_bits_s_hz"
    by_key = {(r["scheme"], r.get("model"), r["method"], r["pt_w"]): r[value] for r in rows}
    problems = []
    for (scheme, model, method, pt), v in by_key.items():
        if not (math.isfinite(v) and v >= 0.0):
            problems.append(f"{scheme} {model} {method} {pt}: value {v}")
        quad = by_key.get((scheme, model, "quadrature", pt))
        if method == "closed" and not _rel_close(v, quad):
            problems.append(f"{scheme} {model} pt={pt}: closed {v} vs quadrature {quad}")
        if method == "bound" and v < quad - JENSEN_FLOOR_W:
            problems.append(f"{scheme} pt={pt}: Jensen bound {v} < quadrature {quad}")
    return problems


def check_region_rows(spec, rows) -> list[str]:
    """Every REGION_CHECK_STRIDE-th trade-off row re-derived by quadrature."""
    problems = []
    for r in rows[::REGION_CHECK_STRIDE]:
        alpha, beta = (r["control"], 1.0) if r["protocol"] == "ts" else (1.0, r["control"])
        model = next(m for m in spec.models if _model_tag(m) == r["model"])
        s, g = spec.config.system, spec.config.geometry
        p = dataclasses.replace(spec.config.protocol, alpha=alpha, beta=beta)
        scheme = Scheme(r["scheme"])
        energy = avg_energy_quadrature(scheme, s, p, g, model)
        rate = avg_rate_quadrature(scheme, s, p, g).value_bits_s_hz
        if not (_rel_close(r["energy_w"], energy) and _rel_close(r["rate_bits_s_hz"], rate)):
            problems.append(f"region row {r}: quadrature gives energy {energy}, rate {rate}")
    return problems


def check_csv(path: Path, rows, columns) -> list[str]:
    """The emitted CSV holds exactly the rows, floats round-tripping."""
    with open(path, newline="") as f:
        table = list(csv.reader(f))
    if tuple(table[0]) != tuple(columns) or len(table) != len(rows) + 1:
        return [f"{path.name}: header or row count differs from the sweep"]
    for line, row in zip(table[1:], rows):
        for text, col in zip(line, columns):
            want = row[col]
            if (float(text) != want) if isinstance(want, float) else (text != str(want)):
                return [f"{path.name}: {col}={text} does not round-trip {want!r}"]
    return []


def _csv_record(text: str) -> dict:
    """The CLI's two-line CSV output (header, values) as a dict."""
    header, values = text.split()
    return dict(zip(header.split(","), values.split(",")))


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n uniform draws on [lo, hi], one in each of n equal strata, shuffled."""
    xs = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(xs)
    return xs


class Figures:
    """Five presets through preset -> run_power_sweep/run_tradeoff ->
    emit_outputs, the path of scripts/reproduce_figures.py."""

    def __init__(self, seed: int, work_dir: Path, include_mc: bool):
        self.work_dir = work_dir
        self.include_mc = include_mc
        self.mc_samples = FIGURES_MC_SAMPLES if include_mc else 0
        self.seed = seed
        rng = random.Random(seed)
        if include_mc:
            self.rooms = [None]  # the presets' own rooms
        else:
            d_x, d_y, h = (_stratified(rng, lo, hi, ROOM_CYCLE)
                           for lo, hi in ((4.0, 20.0), (4.0, 20.0), (1.0, 5.0)))
            self.rooms = [RegionGeometry(*room) for room in zip(d_x, d_y, h)]
        self.digests: dict[int, str] = {}
        self.first_pass = None
        self.required_spans = ("sweep.run", "sweep.emit", "energy.closed", "energy.quad",
                               "rate.closed", "rate.quad", "distributions.expect")
        if include_mc:
            self.required_spans += ("montecarlo.estimate", "geometry.distance", "energy.logistic")

    def _spec(self, name: str, room):
        spec = paswipt.sweep.preset(name, include_mc=self.include_mc, samples=FIGURES_MC_SAMPLES,
                                    seed=self.seed, workers=1)
        if room is not None:
            spec = dataclasses.replace(spec, config=spec.config.replace(geometry=room))
        return spec

    def op(self, i: int, tracer=None) -> dict:
        room = self.rooms[i % len(self.rooms)]
        passes, written = [], []
        for name in PRESETS:
            spec = self._spec(name, room)
            if spec.experiment == "region":
                rows = paswipt.sweep.run_tradeoff(spec)
            else:
                rows = paswipt.sweep.run_power_sweep(spec)
            files = paswipt.sweep.emit_outputs(rows, self.work_dir / name, spec.experiment)
            passes.append((spec, rows, files[0]))
            written += files
        blob = b"".join(p.read_bytes() for p in written)
        return dict(passes=passes, digest=hashlib.sha256(blob).hexdigest(),
                    rows=sum(len(rows) for _, rows, _ in passes), bytes=len(blob),
                    samples=sum(FIGURES_MC_SAMPLES for _, rows, _ in passes
                                for r in rows if r.get("method") == "mc"))

    def check(self, i: int, out: dict) -> list[str]:
        key = i % len(self.rooms)
        if key in self.digests:
            if self.digests[key] != out["digest"]:
                return [f"pass {i}: output bytes differ from an earlier pass on the same inputs"]
            return []  # identical bytes to a pass that was checked in full
        self.digests[key] = out["digest"]
        problems = []
        for spec, rows, path in out["passes"]:
            problems += check_csv(path, rows, paswipt.sweep.CSV_COLUMNS[spec.experiment])
            if spec.experiment == "region":
                problems += check_region_rows(spec, rows)
            else:
                problems += check_power_rows(spec, rows)
        if self.include_mc:
            self.first_pass = out["passes"]
        return [f"pass {i}: {p}" for p in problems]

    def finish(self) -> list[str]:
        """MC rows of the first pass against their exact references."""
        if not self.include_mc:
            return []
        quad, mc_rows = {}, []
        for preset_index, (spec, rows, _) in enumerate(self.first_pass):
            if spec.experiment == "region":
                continue  # the trade-off rows carry no MC
            value = "value_w" if spec.experiment == "energy" else "value_bits_s_hz"
            for r in rows:
                key = (preset_index, r["scheme"], r.get("model"), r["pt_w"])
                if r.get("method") == "quadrature":
                    quad[key] = r[value]
                elif r.get("method") == "mc":
                    mc_rows.append((spec, key, r[value], r))
        k = mc_multiple(len(mc_rows))
        problems = []
        for spec, key, got, r in mc_rows:
            metric = "rate" if spec.experiment == "rate" else f"energy-{r['model']}"
            tol = mc_tolerance(metric, Scheme(r["scheme"]), _row_config(spec, r),
                               FIGURES_MC_SAMPLES, quad[key], k)
            if abs(got - quad[key]) > tol:
                problems.append(f"MC {metric} {r['scheme']} pt={r['pt_w']}: {got} vs "
                                f"quadrature {quad[key]}, allowed {tol} ({k:.2f} std errors)")
        return problems

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def stage_config(self):
        """Config, schemes and per-call sample count for standalone stage timing."""
        spec = self._spec("s1", None)
        return spec.config, tuple(Scheme), min(FIGURES_MC_SAMPLES, CHUNK_SIZE)


class McPoint:
    """One large Monte-Carlo column per call on the diagonal scheme, with
    the parallel dispatch on.  An operation is one ``rate --method mc``
    call followed by one ``energy --model nlm --mc`` call, so every
    operation does the same work."""

    required_spans = ("cli.main", "montecarlo.estimate", "geometry.distance",
                      "energy.logistic", "energy.closed", "energy.quad", "rate.closed")

    def __init__(self, seed: int, work_dir: Path):
        rng = random.Random(seed)
        self.inputs = [(10.0 ** rng.uniform(-2.0, 0.0), rng.randrange(1 << 32))
                       for _ in range(MC_POINT_INPUTS)]
        self.workers = self.parallel_workers = MC_POINT_WORKERS
        self.mc_samples = MC_POINT_SAMPLES
        self.outputs: dict[int, str] = {}

    def _argv(self, i: int) -> list[list[str]]:
        pt_w, mc_seed = self.inputs[i % MC_POINT_INPUTS]
        mc = ["--samples", str(MC_POINT_SAMPLES), "--seed", str(mc_seed),
              "--workers", str(self.workers)]
        return [
            ["rate", "--scheme", "dds", "--pt-w", repr(pt_w),
             "--method", "closed", "--method", "mc", *mc],
            ["energy", "--scheme", "dds", "--model", "nlm", "--pt-w", repr(pt_w), "--mc", *mc],
        ]

    def op(self, i: int, tracer=None) -> dict:
        texts, codes = [], []
        for argv in self._argv(i):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(paswipt.cli.main(argv))
            texts.append(buf.getvalue())
        blob = "".join(texts).encode()
        return dict(texts=texts, codes=codes, digest=hashlib.sha256(blob).hexdigest(),
                    rows=2, bytes=len(blob), samples=2 * MC_POINT_SAMPLES)

    def check(self, i: int, out: dict) -> list[str]:
        where = f"op {i}"
        if out["codes"] != [0, 0]:
            return [f"{where}: exit codes {out['codes']}"]
        key = i % MC_POINT_INPUTS
        if key in self.outputs:
            if self.outputs[key] != out["digest"]:
                return [f"{where}: output differs from an earlier call with the same seed"]
            return []
        self.outputs[key] = out["digest"]
        pt_w, _ = self.inputs[key]
        rate, energy = (_csv_record(t) for t in out["texts"])
        k = mc_multiple(2 * MC_POINT_INPUTS)
        problems = []
        cfg = default_config(pt_w)  # the CLI's defaults, as the calls pass no room flags
        closed = float(rate["closed_bits_s_hz"])
        mc = float(rate["mc_bits_s_hz"])
        tol = mc_tolerance("rate", Scheme.DDS, cfg, MC_POINT_SAMPLES, closed, k)
        if abs(mc - closed) > tol:
            problems.append(f"{where}: rate MC {mc} vs closed {closed}, allowed {tol}")
        cfg = default_config(pt_w, "nlm")
        bound, quad, mc = (float(energy[c]) for c in ("bound_w", "quadrature_w", "mc_w"))
        if bound < quad - JENSEN_FLOOR_W:
            problems.append(f"{where}: Jensen bound {bound} < quadrature {quad}")
        want = avg_energy_nlm_bound(Scheme.DDS, cfg.system, cfg.protocol, cfg.geometry, cfg.harvest)
        if bound != want:
            problems.append(f"{where}: CLI bound {bound} differs from the library's {want}")
        tol = mc_tolerance("energy-nlm", Scheme.DDS, cfg, MC_POINT_SAMPLES, quad, k)
        if abs(mc - quad) > tol:
            problems.append(f"{where}: energy MC {mc} vs quadrature {quad}, allowed {tol}")
        return problems

    def finish(self) -> list[str]:
        return []

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def stage_config(self):
        return default_config(self.inputs[0][0], "nlm"), (Scheme.DDS,), CHUNK_SIZE


def _median_ns_per_sample(fn, size: int) -> float:
    times = []
    for _ in range(STAGE_REPS):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / size


def stage_costs(cfg, schemes, size: int, seed: int) -> dict:
    """Each MC stage timed alone on arrays of one chunk: the UE draw, the
    optimal squared distance per scheme, the logistic curve, and the
    inline arithmetic each metric does around them.

    The draw is timed through the chunk drawer the estimate loop calls;
    ``sample_ue_stream`` wraps the same drawer and adds a concatenating
    copy, which the loop never pays.
    """
    g, p, s = cfg.geometry, cfg.protocol, cfg.system
    x, y = _chunk_ue(cfg, seed, 0, size)
    l = optimal_squared_distance(Scheme.DDS, g, x, y)
    nlm = default_config(1.0, "nlm").harvest
    p_in = p.beta * s.transmit_power_w / l
    c = p.alpha * p.beta * s.transmit_power_w
    mu_gamma = s.path_loss_factor_m2 * s.transmit_snr
    return {
        "draw": _median_ns_per_sample(lambda: _chunk_ue(cfg, seed, 0, size), size),
        "distance": {sc.value: _median_ns_per_sample(
            lambda sc=sc: optimal_squared_distance(sc, g, x, y), size) for sc in schemes},
        "logistic": _median_ns_per_sample(lambda: logistic_harvest_power(nlm, p_in), size),
        "inline": {
            "energy-lm": _median_ns_per_sample(lambda: c / l, size),
            "energy-nlm": _median_ns_per_sample(lambda: p.alpha * (p.beta * s.transmit_power_w / l),
                                                size),
            "rate": _median_ns_per_sample(
                lambda: (1.0 - p.alpha * p.beta) * np.log1p(mu_gamma / l) / LN2, size),
        },
    }
