"""Experiment driver: power sweeps and energy-rate trade-off regions.

Reproduces the three standard experiments at desk scale: harvested
energy vs transmit power, achievable rate vs transmit power, and the
energy-rate region under the pure time-switching (beta = 1, alpha swept)
and pure power-splitting (alpha = 1, beta swept) restrictions of the
hybrid protocol.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from paswipt.config import (
    Config,
    HarvestModel,
    LinearHarvest,
    LogisticHarvest,
    ProtocolParams,
    default_config,
    model_tag,
    validate,
)
from paswipt.energy import (
    avg_energy_lm_closed,
    avg_energy_nlm_bound,
    avg_energy_quadrature,
)
from paswipt.geometry import Scheme
from paswipt.montecarlo import DistanceStream, distance_stream, estimate
from paswipt.rate import avg_rate_closed, avg_rate_quadrature

EXPERIMENTS = ("energy", "rate", "region")

CSV_COLUMNS = {
    "energy": ("pt_w", "scheme", "model", "method", "value_w"),
    "rate": ("pt_w", "scheme", "method", "value_bits_s_hz"),
    "region": ("protocol", "control", "scheme", "model", "energy_w", "rate_bits_s_hz"),
}

ALL_SCHEMES = (Scheme.EDS, Scheme.CDS, Scheme.DDS)

DEFAULT_NLM = LogisticHarvest(saturation_w=20e-3, slope_per_w=1e8, turn_on_w=2.9e-6)


@dataclass(frozen=True)
class SweepSpec:
    experiment: str
    config: Config
    grid: tuple[float, ...]
    schemes: tuple[Scheme, ...] = ALL_SCHEMES
    harvest_models: tuple[HarvestModel, ...] = ()
    methods: tuple[str, ...] = ("closed", "bound", "quadrature")
    include_mc: bool = False
    samples: int = 1_000_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if len(self.grid) < 2:
            raise ValueError("grid needs at least 2 points")
        validate(self.config)

    @property
    def models(self) -> tuple[HarvestModel, ...]:
        return self.harvest_models or (self.config.harvest,)


def _with(config: Config, *, pt_w=None, model=None, alpha=None, beta=None) -> Config:
    cfg = config
    if pt_w is not None:
        cfg = cfg.replace(system=replace(cfg.system, transmit_power_w=pt_w))
    if model is not None:
        cfg = cfg.replace(harvest=model)
    if alpha is not None or beta is not None:
        p = cfg.protocol
        cfg = cfg.replace(
            protocol=ProtocolParams(
                alpha=p.alpha if alpha is None else alpha,
                beta=p.beta if beta is None else beta,
            )
        )
    return cfg


def _energy_value(method: str, scheme: Scheme, cfg: Config, spec: SweepSpec,
                  stream: DistanceStream | None) -> float | None:
    s, p, g, m = cfg.system, cfg.protocol, cfg.geometry, cfg.harvest
    if method == "closed":
        if not isinstance(m, LinearHarvest):
            return None
        return avg_energy_lm_closed(scheme, s, p, g, m)
    if method == "bound":
        if not isinstance(m, LogisticHarvest):
            return None
        return avg_energy_nlm_bound(scheme, s, p, g, m)
    if method == "quadrature":
        return avg_energy_quadrature(scheme, s, p, g, m)
    if method == "mc":
        metric = "energy-lm" if isinstance(m, LinearHarvest) else "energy-nlm"
        return estimate(metric, scheme, cfg, spec.samples, spec.seed, spec.workers,
                        stream=stream).mean
    raise ValueError(f"unknown energy method {method!r}")


def _rate_value(method: str, scheme: Scheme, cfg: Config, spec: SweepSpec,
                stream: DistanceStream | None) -> float | None:
    s, p, g = cfg.system, cfg.protocol, cfg.geometry
    if method == "closed":
        return avg_rate_closed(scheme, s, p, g).value_bits_s_hz
    if method == "quadrature":
        return avg_rate_quadrature(scheme, s, p, g).value_bits_s_hz
    if method == "mc":
        return estimate("rate", scheme, cfg, spec.samples, spec.seed, spec.workers,
                        stream=stream).mean
    if method == "bound":
        return None
    raise ValueError(f"unknown rate method {method!r}")


def run_power_sweep(spec: SweepSpec) -> list[dict]:
    """One row per (grid power x scheme x model x method), sorted.

    MC rows of one scheme share a single distance stream: every row uses
    the same seed, n and room, so the UE draw is done once per scheme.
    """
    rows = []
    methods = spec.methods + (("mc",) if spec.include_mc and "mc" not in spec.methods else ())
    for scheme in spec.schemes:
        stream = (distance_stream(scheme, spec.config, spec.samples, spec.seed)
                  if "mc" in methods else None)
        for model in spec.models:
            for method in methods:
                for pt_w in spec.grid:
                    cfg = _with(spec.config, pt_w=pt_w, model=model)
                    try:
                        if spec.experiment == "energy":
                            value = _energy_value(method, scheme, cfg, spec, stream)
                            if value is None:
                                break
                            rows.append({
                                "pt_w": pt_w, "scheme": scheme.value,
                                "model": model_tag(model), "method": method,
                                "value_w": value,
                            })
                        else:
                            value = _rate_value(method, scheme, cfg, spec, stream)
                            if value is None:
                                break
                            rows.append({
                                "pt_w": pt_w, "scheme": scheme.value,
                                "method": method, "value_bits_s_hz": value,
                            })
                    except RuntimeError as exc:
                        raise RuntimeError(
                            f"sweep row failed: scheme={scheme.value} method={method} pt_w={pt_w}"
                        ) from exc
            if spec.experiment == "rate":
                break  # rate rows carry no model tag
        del stream  # 8 * n bytes; free it before the next scheme draws its own
    key = (("scheme", "model", "method", "pt_w") if spec.experiment == "energy"
           else ("scheme", "method", "pt_w"))
    rows.sort(key=lambda r: tuple(r[c] for c in key))
    return rows


def _tradeoff_config(protocol_tag: str, control: float, cfg: Config) -> Config:
    if protocol_tag == "ts":
        return _with(cfg, alpha=control, beta=1.0)
    if protocol_tag == "ps":
        return _with(cfg, alpha=1.0, beta=control)
    raise ValueError(f"protocol must be 'ts' or 'ps', got {protocol_tag!r}")


def _tradeoff_energy(scheme: Scheme, cfg: Config) -> float:
    # LM has an exact closed form; the logistic model uses quadrature
    # (the true expectation, not the Jensen bound) for the region.
    if isinstance(cfg.harvest, LinearHarvest):
        return avg_energy_lm_closed(scheme, cfg.system, cfg.protocol, cfg.geometry, cfg.harvest)
    return avg_energy_quadrature(scheme, cfg.system, cfg.protocol, cfg.geometry, cfg.harvest)


def run_tradeoff(spec: SweepSpec) -> list[dict]:
    """Energy-rate points along the control grid for both protocols.

    Transmit power is fixed at spec.config's value; grid values are the
    swept protocol factor in [0, 1].
    """
    rows = []
    for protocol_tag in ("ts", "ps"):
        for scheme in spec.schemes:
            for model in spec.models:
                for control in spec.grid:
                    if not 0.0 <= control <= 1.0:
                        raise ValueError(f"control value {control} outside [0, 1]")
                    cfg = _tradeoff_config(protocol_tag, control, _with(spec.config, model=model))
                    rows.append({
                        "protocol": protocol_tag,
                        "control": control,
                        "scheme": scheme.value,
                        "model": model_tag(model),
                        "energy_w": _tradeoff_energy(scheme, cfg),
                        "rate_bits_s_hz": avg_rate_closed(
                            scheme, cfg.system, cfg.protocol, cfg.geometry
                        ).value_bits_s_hz,
                    })
    rows.sort(key=lambda r: (r["protocol"], r["scheme"], r["model"], r["control"]))
    return rows


def tradeoff_rate_at_energy(
    scheme: Scheme, protocol_tag: str, model: HarvestModel, base: Config, energy_w: float
) -> float:
    """Rate on a scheme's trade-off boundary at a given energy level.

    Inverts the monotone energy(control) map exactly (bisection on the
    closed forms / quadrature, not grid interpolation) and evaluates the
    closed-form rate there.  Saturating harvesters make energy(control)
    flat over much of the range, so the boundary point is the SMALLEST
    control reaching the requested energy (leftmost crossing).
    """
    base = _with(base, model=model)

    def energy_at(control: float) -> float:
        return _tradeoff_energy(scheme, _tradeoff_config(protocol_tag, control, base))

    if energy_w <= 0.0:
        control = 0.0
    elif energy_w >= energy_at(1.0):
        control = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if energy_at(mid) >= energy_w:
                hi = mid
            else:
                lo = mid
        control = hi
    cfg = _tradeoff_config(protocol_tag, control, base)
    return avg_rate_closed(scheme, cfg.system, cfg.protocol, cfg.geometry).value_bits_s_hz


def _preset_grid(lo: float, hi: float, points: int) -> tuple[float, ...]:
    return tuple(np.logspace(np.log10(lo), np.log10(hi), points))


def preset(name: str, *, include_mc: bool = False, samples: int = 1_000_000,
           seed: int = 0, workers: int = 1) -> SweepSpec:
    """Named experiment presets.

    s1/s2: energy vs power in a square (8 x 8) / rectangular (15 x 8)
    room; c1/c2: rate vs power with alpha = beta = 0.8 / 0.6; fig4:
    energy-rate region at 0.3 W in the 8 x 8 room.  Power grids default
    to 50 log-spaced points on [0.01, 1] W (a repo choice; the axis range
    is otherwise unspecified).
    """
    common = dict(include_mc=include_mc, samples=samples, seed=seed, workers=workers)
    if name == "s1":
        return SweepSpec(
            "energy", default_config(0.3, d_x=8.0, d_y=8.0),
            _preset_grid(0.01, 1.0, 50),
            harvest_models=(LinearHarvest(eta=1.0), DEFAULT_NLM),
            methods=("closed", "bound", "quadrature"), **common,
        )
    if name == "s2":
        return SweepSpec(
            "energy", default_config(0.3, d_x=15.0, d_y=8.0),
            _preset_grid(0.01, 1.0, 50),
            harvest_models=(LinearHarvest(eta=1.0), DEFAULT_NLM),
            methods=("closed", "bound", "quadrature"), **common,
        )
    if name == "c1":
        return SweepSpec(
            "rate", default_config(0.3, alpha=0.8, beta=0.8),
            _preset_grid(0.01, 1.0, 50), methods=("closed", "quadrature"), **common,
        )
    if name == "c2":
        return SweepSpec(
            "rate", default_config(0.3, alpha=0.6, beta=0.6),
            _preset_grid(0.01, 1.0, 50), methods=("closed", "quadrature"), **common,
        )
    if name == "fig4":
        return SweepSpec(
            "region", default_config(0.3, d_x=8.0, d_y=8.0),
            tuple(np.linspace(0.0, 1.0, 41)),
            harvest_models=(LinearHarvest(eta=1.0), DEFAULT_NLM), **common,
        )
    raise ValueError(f"unknown preset {name!r}; choose s1, s2, c1, c2 or fig4")


PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Renders {experiment}.csv produced alongside this script.
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open("{csv_name}")))
series = defaultdict(list)
for r in rows:
    series[{series_key}].append(({x_expr}, {y_expr}))

fig, ax = plt.subplots()
for label, pts in sorted(series.items()):
    pts.sort()
    ax.plot([p[0] for p in pts], [p[1] for p in pts], marker=".", label=str(label))
ax.set_xlabel("{x_label}")
ax.set_ylabel("{y_label}")
ax.legend(fontsize=7)
{x_scale}
fig.tight_layout()
fig.savefig("{experiment}.png", dpi=150)
print("wrote {experiment}.png")
"""

_PLOT_FIELDS = {
    "energy": dict(
        series_key='(r["scheme"], r["model"], r["method"])',
        x_expr='float(r["pt_w"])', y_expr='float(r["value_w"])',
        x_label="transmit power [W]", y_label="avg harvested energy [W]",
        x_scale='ax.set_xscale("log")',
    ),
    "rate": dict(
        series_key='(r["scheme"], r["method"])',
        x_expr='float(r["pt_w"])', y_expr='float(r["value_bits_s_hz"])',
        x_label="transmit power [W]", y_label="avg rate [bits/s/Hz]",
        x_scale='ax.set_xscale("log")',
    ),
    "region": dict(
        series_key='(r["scheme"], r["model"], r["protocol"])',
        x_expr='float(r["energy_w"])', y_expr='float(r["rate_bits_s_hz"])',
        x_label="avg harvested energy [W]", y_label="avg rate [bits/s/Hz]",
        x_scale="",
    ),
}


def emit_outputs(rows: list[dict], out_dir: str | Path, experiment: str,
                 write_plot_script: bool = True) -> list[Path]:
    """Write <experiment>.csv (fixed column order, deterministic bytes)
    and optionally a standalone plot script next to it."""
    if not rows:
        raise ValueError("refusing to write an empty table")
    columns = CSV_COLUMNS[experiment]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{experiment}.csv"
    try:
        with open(csv_path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow(
                    f"{row[c]:.17g}" if isinstance(row[c], float) else row[c]
                    for c in columns
                )
    except OSError as exc:
        raise OSError(f"failed writing {csv_path}: {exc}") from exc
    written = [csv_path]
    if write_plot_script:
        script_path = out_dir / f"plot_{experiment}.py"
        script_path.write_text(
            PLOT_SCRIPT.format(experiment=experiment, csv_name=csv_path.name,
                               **_PLOT_FIELDS[experiment])
        )
        written.append(script_path)
    return written
