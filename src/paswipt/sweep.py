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
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

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
from paswipt.montecarlo import check_mc_inputs, estimate
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
        check_mc_inputs(self.samples, self.seed, self.workers)
        validate(self.config)

    @property
    def models(self) -> tuple[HarvestModel, ...]:
        return self.harvest_models or (self.config.harvest,)


def evaluate(quantity: str, method: str, scheme: Scheme, cfgs: Sequence[Config], *,
             samples: int = 1_000_000, seed: int = 0, workers: int = 1,
             ) -> list[tuple[float, float | None]] | None:
    """The average energy [W] or rate [bits/s/Hz] of one method over a
    series of configs of one harvest model.

    Returns one (value, MC standard error) per config, the error being
    None for every method but mc, or None where the method does not
    apply: there is no closed form for the logistic model and no bound
    for the linear model or the rate.  samples, seed and workers are read
    by mc only, which draws the series' samples once (see estimate).
    """
    tags = {model_tag(cfg.harvest) for cfg in cfgs}
    if len(tags) != 1:
        raise ValueError(f"evaluate needs a non-empty series of one harvest model, "
                         f"got {sorted(tags)}")
    (tag,) = tags
    if quantity == "energy":
        functions = {"closed": avg_energy_lm_closed if tag == "lm" else None,
                     "bound": avg_energy_nlm_bound if tag == "nlm" else None,
                     "quadrature": avg_energy_quadrature}
        metric = f"energy-{tag}"
    elif quantity == "rate":
        functions = {"closed": avg_rate_closed, "bound": None, "quadrature": avg_rate_quadrature}
        metric = "rate"
    else:
        raise ValueError(f"unknown quantity {quantity!r}; expected energy or rate")
    if method == "mc":
        estimates = estimate(metric, scheme, cfgs, samples, seed, workers)
        return [(e.mean, e.std_error) for e in estimates]
    if method not in functions:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    fn = functions[method]
    if fn is None:
        return None
    results = []
    for cfg in cfgs:
        s, p, g = cfg.system, cfg.protocol, cfg.geometry
        try:
            if quantity == "energy":
                value = fn(scheme, s, p, g, cfg.harvest)
            else:
                value = fn(scheme, s, p, g).value_bits_s_hz
        except RuntimeError as exc:
            raise RuntimeError(f"{quantity} row failed: scheme={scheme.value} model={tag} "
                               f"method={method} pt_w={s.transmit_power_w}") from exc
        results.append((value, None))
    return results


def run_power_sweep(spec: SweepSpec) -> list[dict]:
    """One row per (grid power x scheme x model x method that applies), sorted.

    Each (scheme, model, method) is one evaluate call over the power grid,
    so the MC rows of a series share their draws.
    """
    columns = CSV_COLUMNS[spec.experiment]
    # rate rows carry no model tag, so a rate sweep runs the first model only
    models = spec.models if "model" in columns else spec.models[:1]
    rows = []
    for model in models:
        base = spec.config.with_params(harvest=model)
        cfgs = [base.with_params(transmit_power_w=pt_w) for pt_w in spec.grid]
        for scheme in spec.schemes:
            for method in spec.methods:
                results = evaluate(spec.experiment, method, scheme, cfgs, samples=spec.samples,
                                   seed=spec.seed, workers=spec.workers)
                for pt_w, (value, _) in zip(spec.grid, results or ()):
                    row = {"pt_w": pt_w, "scheme": scheme.value, "model": model_tag(model),
                           "method": method, columns[-1]: value}
                    rows.append({c: row[c] for c in columns})
    key = [c for c in ("scheme", "model", "method", "pt_w") if c in columns]
    rows.sort(key=lambda r: tuple(r[c] for c in key))
    return rows


def _tradeoff_config(protocol_tag: str, control: float, cfg: Config) -> Config:
    if protocol_tag == "ts":
        return cfg.with_params(alpha=control, beta=1.0)
    if protocol_tag == "ps":
        return cfg.with_params(alpha=1.0, beta=control)
    raise ValueError(f"protocol must be 'ts' or 'ps', got {protocol_tag!r}")


def _region_energy(scheme: Scheme, cfgs: list[Config]) -> list[float]:
    """The true expected energy: the closed form where one exists (LM),
    else quadrature, never the Jensen bound."""
    closed = evaluate("energy", "closed", scheme, cfgs)
    return [value for value, _ in closed or evaluate("energy", "quadrature", scheme, cfgs)]


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
                cfgs = [_tradeoff_config(protocol_tag, control, base) for control in spec.grid]
                energies = _region_energy(scheme, cfgs)
                rates = evaluate("rate", "closed", scheme, cfgs)
                for control, energy_w, (rate, _) in zip(spec.grid, energies, rates):
                    rows.append({
                        "protocol": protocol_tag,
                        "control": control,
                        "scheme": scheme.value,
                        "model": model_tag(model),
                        "energy_w": energy_w,
                        "rate_bits_s_hz": rate,
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
        return _region_energy(scheme, [_tradeoff_config(protocol_tag, control, base)])[0]

    if energy_w <= 0.0:
        control = 0.0
    elif energy_w > energy_at(1.0):
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
    return evaluate("rate", "closed", scheme, [cfg])[0][0]


def _preset_grid(lo: float, hi: float, points: int) -> tuple[float, ...]:
    import numpy as np

    return tuple(np.logspace(np.log10(lo), np.log10(hi), points))


def preset(name: str, *, include_mc: bool = False, samples: int = 1_000_000,
           seed: int = 0, workers: int = 1) -> SweepSpec:
    """Named experiment presets; include_mc appends "mc" to the methods.

    s1/s2: energy vs power in a square (8 x 8) / rectangular (15 x 8)
    room; c1/c2: rate vs power with alpha = beta = 0.8 / 0.6; fig4:
    energy-rate region at 0.3 W in the 8 x 8 room, which has no MC rows.
    Power grids default to 50 log-spaced points on [0.01, 1] W (a repo
    choice; the axis range is otherwise unspecified).
    """
    mc = ("mc",) if include_mc else ()
    common = dict(samples=samples, seed=seed, workers=workers)
    both = tuple(DEFAULT_HARVEST.values())
    if name == "s1":
        return SweepSpec(
            "energy", default_config(0.3, d_x=8.0, d_y=8.0),
            _preset_grid(0.01, 1.0, 50),
            harvest_models=both,
            methods=("closed", "bound", "quadrature", *mc), **common,
        )
    if name == "s2":
        return SweepSpec(
            "energy", default_config(0.3, d_x=15.0, d_y=8.0),
            _preset_grid(0.01, 1.0, 50),
            harvest_models=both,
            methods=("closed", "bound", "quadrature", *mc), **common,
        )
    if name == "c1":
        return SweepSpec(
            "rate", default_config(0.3, alpha=0.8, beta=0.8),
            _preset_grid(0.01, 1.0, 50), methods=("closed", "quadrature", *mc), **common,
        )
    if name == "c2":
        return SweepSpec(
            "rate", default_config(0.3, alpha=0.6, beta=0.6),
            _preset_grid(0.01, 1.0, 50), methods=("closed", "quadrature", *mc), **common,
        )
    if name == "fig4":
        import numpy as np

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


def emit_outputs(rows: list[dict], out_dir: str | Path, experiment: str) -> list[Path]:
    """Write <experiment>.csv (fixed column order, deterministic bytes)
    and a standalone plot script, plot_<experiment>.py, next to it."""
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
    script_path = out_dir / f"plot_{experiment}.py"
    script_path.write_text(
        PLOT_SCRIPT.format(experiment=experiment, csv_name=csv_path.name,
                           **_PLOT_FIELDS[experiment])
    )
    return [csv_path, script_path]
