"""Experiment driver: power sweeps and energy-rate trade-off regions.

Reproduces the three standard experiments at desk scale: harvested
energy vs transmit power, achievable rate vs transmit power, and the
energy-rate region under the pure time-switching (beta = 1, alpha swept)
and pure power-splitting (alpha = 1, beta swept) restrictions of the
hybrid protocol.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from paswipt.config import (
    DEFAULT_HARVEST,
    Config,
    HarvestModel,
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

METHODS = ("closed", "bound", "quadrature", "mc")

CSV_COLUMNS = {
    "energy": ("pt_w", "scheme", "model", "method", "value_w"),
    "rate": ("pt_w", "scheme", "method", "value_bits_s_hz"),
    "region": ("protocol", "control", "scheme", "model", "energy_w", "rate_bits_s_hz"),
}

ALL_SCHEMES = (Scheme.EDS, Scheme.CDS, Scheme.DDS)


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
        if self.experiment == "region":
            bad = [c for c in self.grid if not 0.0 <= c <= 1.0]
            if bad:
                raise ValueError(f"region controls must lie in [0, 1], got {bad}")
        else:
            bad = [p for p in self.grid if not (math.isfinite(p) and p > 0.0)]
            if bad:
                raise ValueError(f"grid powers must be finite and > 0, got {bad}")
        validate(self.config)

    @property
    def models(self) -> tuple[HarvestModel, ...]:
        return self.harvest_models or (self.config.harvest,)


def evaluate(quantity: str, method: str, scheme: Scheme, cfg: Config, *,
             samples: int = 1_000_000, seed: int = 0, workers: int = 1,
             stream: DistanceStream | None = None) -> tuple[float, float | None] | None:
    """The average energy [W] or rate [bits/s/Hz] of one method.

    Returns (value, MC standard error), the error being None for every
    method but mc, or None where the method does not apply: there is no
    closed form for the logistic model and no bound for the linear model
    or the rate.  samples, seed, workers and stream are read by mc only.
    """
    s, p, g, m = cfg.system, cfg.protocol, cfg.geometry, cfg.harvest
    if quantity == "energy":
        tag = model_tag(m)
        if method == "closed":
            return (avg_energy_lm_closed(scheme, s, p, g, m), None) if tag == "lm" else None
        if method == "bound":
            return (avg_energy_nlm_bound(scheme, s, p, g, m), None) if tag == "nlm" else None
        if method == "quadrature":
            return avg_energy_quadrature(scheme, s, p, g, m), None
        metric = f"energy-{tag}"
    elif quantity == "rate":
        if method == "closed":
            return avg_rate_closed(scheme, s, p, g).value_bits_s_hz, None
        if method == "bound":
            return None
        if method == "quadrature":
            return avg_rate_quadrature(scheme, s, p, g).value_bits_s_hz, None
        metric = "rate"
    else:
        raise ValueError(f"unknown quantity {quantity!r}; expected energy or rate")
    if method != "mc":
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    est = estimate(metric, scheme, cfg, samples, seed, workers, stream=stream)
    return est.mean, est.std_error


def run_power_sweep(spec: SweepSpec) -> list[dict]:
    """One row per (grid power x scheme x model x method that applies), sorted.

    MC rows of one scheme share a single distance stream: every row uses
    the same seed, n and room, so the UE draw is done once per scheme.
    """
    columns = CSV_COLUMNS[spec.experiment]
    # rate rows carry no model tag, so a rate sweep runs the first model only
    models = spec.models if "model" in columns else spec.models[:1]
    methods = spec.methods + (("mc",) if spec.include_mc and "mc" not in spec.methods else ())
    rows = []
    for scheme in spec.schemes:
        stream = (distance_stream(scheme, spec.config, spec.samples, spec.seed)
                  if "mc" in methods else None)
        for model in models:
            base = spec.config.with_params(harvest=model)
            for method in methods:
                for pt_w in spec.grid:
                    cfg = base.with_params(transmit_power_w=pt_w)
                    try:
                        result = evaluate(spec.experiment, method, scheme, cfg,
                                          samples=spec.samples, seed=spec.seed,
                                          workers=spec.workers, stream=stream)
                    except RuntimeError as exc:
                        raise RuntimeError(
                            f"sweep row failed: scheme={scheme.value} method={method} pt_w={pt_w}"
                        ) from exc
                    if result is None:
                        break  # the method does not apply to this model, at any power
                    row = {"pt_w": pt_w, "scheme": scheme.value, "model": model_tag(model),
                           "method": method, columns[-1]: result[0]}
                    rows.append({c: row[c] for c in columns})
        del stream  # 8 * n bytes; free it before the next scheme draws its own
    key = [c for c in ("scheme", "model", "method", "pt_w") if c in columns]
    rows.sort(key=lambda r: tuple(r[c] for c in key))
    return rows


def _tradeoff_config(protocol_tag: str, control: float, cfg: Config) -> Config:
    if protocol_tag == "ts":
        return cfg.with_params(alpha=control, beta=1.0)
    if protocol_tag == "ps":
        return cfg.with_params(alpha=1.0, beta=control)
    raise ValueError(f"protocol must be 'ts' or 'ps', got {protocol_tag!r}")


def _region_energy(scheme: Scheme, cfg: Config) -> float:
    """The true expected energy: the closed form where one exists (LM),
    else quadrature, never the Jensen bound."""
    closed = evaluate("energy", "closed", scheme, cfg)
    return (closed or evaluate("energy", "quadrature", scheme, cfg))[0]


def run_tradeoff(spec: SweepSpec) -> list[dict]:
    """Energy-rate points along the control grid for both protocols.

    Transmit power is fixed at spec.config's value; grid values are the
    swept protocol factor in [0, 1].
    """
    rows = []
    for protocol_tag in ("ts", "ps"):
        for scheme in spec.schemes:
            for model in spec.models:
                base = spec.config.with_params(harvest=model)
                for control in spec.grid:
                    cfg = _tradeoff_config(protocol_tag, control, base)
                    rows.append({
                        "protocol": protocol_tag,
                        "control": control,
                        "scheme": scheme.value,
                        "model": model_tag(model),
                        "energy_w": _region_energy(scheme, cfg),
                        "rate_bits_s_hz": evaluate("rate", "closed", scheme, cfg)[0],
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
    base = base.with_params(harvest=model)

    def energy_at(control: float) -> float:
        return _region_energy(scheme, _tradeoff_config(protocol_tag, control, base))

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
    return evaluate("rate", "closed", scheme, _tradeoff_config(protocol_tag, control, base))[0]


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
    both = tuple(DEFAULT_HARVEST.values())
    if name == "s1":
        return SweepSpec(
            "energy", default_config(0.3, d_x=8.0, d_y=8.0),
            _preset_grid(0.01, 1.0, 50),
            harvest_models=both,
            methods=("closed", "bound", "quadrature"), **common,
        )
    if name == "s2":
        return SweepSpec(
            "energy", default_config(0.3, d_x=15.0, d_y=8.0),
            _preset_grid(0.01, 1.0, 50),
            harvest_models=both,
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
            harvest_models=both, **common,
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
