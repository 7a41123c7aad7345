"""Experiment driver: power sweeps and energy-rate trade-off regions.

Reproduces the three standard experiments at desk scale: harvested
energy vs transmit power, achievable rate vs transmit power, and the
energy-rate region under the pure time-switching (beta = 1, alpha swept)
and pure power-splitting (alpha = 1, beta swept) restrictions of the
hybrid protocol.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from paswipt.config import (
    DEFAULT_HARVEST,
    Config,
    HarvestModel,
    default_config,
    model_tag,
    validate,
)
from paswipt.distributions import QuadratureError, _linspace
from paswipt.energy import (
    avg_energy_lm_closed,
    avg_energy_nlm_bound,
    avg_energy_quadrature,
)
from paswipt.geometry import Scheme
from paswipt.montecarlo import DEFAULT_SAMPLES, check_mc_inputs, estimate
from paswipt.rate import avg_rate_closed, avg_rate_quadrature

METHODS = ("closed", "bound", "quadrature", "mc")

CSV_COLUMNS = {
    "energy": ("pt_w", "scheme", "model", "method", "value_w"),
    "rate": ("pt_w", "scheme", "method", "value_bits_s_hz"),
    "region": ("protocol", "control", "scheme", "model", "energy_w", "rate_bits_s_hz"),
}
# written as they are, numbers as .17g; a plot series is keyed by those present, in this order
_NAME_COLUMNS = ("scheme", "model", "method", "protocol")


@dataclass(frozen=True)
class SweepSpec:
    experiment: str
    config: Config
    grid: tuple[float, ...]
    models: tuple[HarvestModel, ...] = ()  # empty: the config's own, set at construction
    methods: tuple[str, ...] = METHODS[:3]
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.experiment not in CSV_COLUMNS:
            raise ValueError(f"experiment must be one of {tuple(CSV_COLUMNS)}, "
                             f"got {self.experiment!r}")
        if len(self.grid) < 2:
            raise ValueError("grid needs at least 2 points")
        if self.experiment == "region":
            bad = [c for c in self.grid if not 0.0 <= c <= 1.0]
            if bad:
                raise ValueError(f"region controls must lie in [0, 1], got {bad}")
            if tuple(self.methods) != METHODS[:3]:  # run_tradeoff reads none of them
                raise ValueError(f"a region sweep picks its own methods, got {self.methods}")
        else:
            bad = [p for p in self.grid if not (math.isfinite(p) and p > 0.0)]
            if bad:
                raise ValueError(f"grid powers must be finite and > 0, got {bad}")
        # Python floats, not numpy scalars: every quadrature node computes on them
        object.__setattr__(self, "grid", tuple(map(float, self.grid)))
        check_mc_inputs(self.samples, self.seed, self.workers)
        if not self.models:
            object.__setattr__(self, "models", (self.config.harvest,))
        if self.experiment == "rate" and len(self.models) > 1:
            raise ValueError(f"a rate sweep takes one harvest model, as its rows carry no model "
                             f"tag, got {len(self.models)}")
        for model in self.models:  # the configs the sweep runs, not the one it was given
            validate(self.config.with_params(harvest=model))


def evaluate(quantity: str, method: str, scheme: Scheme, cfgs: Sequence[Config], *,
             samples: int = DEFAULT_SAMPLES, seed: int = 0, workers: int = 1,
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
        return estimate(metric, scheme, cfgs, samples, seed, workers)
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
        except QuadratureError as exc:
            raise QuadratureError(f"{quantity} row failed: scheme={scheme.value} model={tag} "
                                  f"method={method} pt_w={s.transmit_power_w}: {exc}") from exc
        results.append((value, None))
    return results


def run_power_sweep(spec: SweepSpec) -> list[dict]:
    """One row per (grid power x scheme x model x method that applies), sorted.

    Each (scheme, model, method) is one evaluate call over the power grid,
    so the MC rows of a series share their draws.
    """
    columns = CSV_COLUMNS[spec.experiment]
    rows = []
    for model in spec.models:
        base = spec.config.with_params(harvest=model)
        cfgs = [base.with_params(transmit_power_w=pt_w) for pt_w in spec.grid]
        tag = (model_tag(model),) if "model" in columns else ()
        for scheme in Scheme:
            for method in spec.methods:
                results = evaluate(spec.experiment, method, scheme, cfgs, samples=spec.samples,
                                   seed=spec.seed, workers=spec.workers)
                names = (scheme.value, *tag, method)
                rows += [dict(zip(columns, (pt_w, *names, value)))
                         for pt_w, (value, _) in zip(spec.grid, results or ())]
    rows.sort(key=itemgetter(*columns[1:-1], "pt_w"))
    return rows


# the pure edges of the hybrid protocol: a swept control c -> (alpha, beta)
PURE_PROTOCOLS = {"ts": lambda c: (c, 1.0), "ps": lambda c: (1.0, c)}


def run_tradeoff(spec: SweepSpec) -> list[dict]:
    """Energy-rate points along the control grid for both pure protocols.

    Transmit power is fixed at spec.config's value; grid values are the
    swept protocol factor in [0, 1].  The energy is the true expectation:
    the closed form where one exists (LM), else quadrature, never the
    Jensen bound.  The rate reads no harvest model, so one closed-rate
    series per (protocol, scheme) serves every model's rows.
    """
    columns = CSV_COLUMNS["region"]
    rows = []
    for protocol_tag, alpha_beta in PURE_PROTOCOLS.items():
        series = [[spec.config.with_params(harvest=model, alpha=alpha, beta=beta)
                   for alpha, beta in map(alpha_beta, spec.grid)] for model in spec.models]
        for scheme in Scheme:
            rates = evaluate("rate", "closed", scheme, series[0])
            for model, cfgs in zip(spec.models, series):
                energies = (evaluate("energy", "closed", scheme, cfgs)
                            or evaluate("energy", "quadrature", scheme, cfgs))
                names = (scheme.value, model_tag(model))
                rows += [dict(zip(columns, (protocol_tag, control, *names, energy, rate)))
                         for control, (energy, _), (rate, _) in zip(spec.grid, energies, rates)]
    rows.sort(key=itemgetter("protocol", "scheme", "model", "control"))
    return rows


# name: (experiment, changes to default_config(0.3))
PRESETS = {
    "s1": ("energy", dict(d_x=8.0, d_y=8.0)),
    "s2": ("energy", dict(d_x=15.0, d_y=8.0)),
    "c1": ("rate", dict(alpha=0.8, beta=0.8)),
    "c2": ("rate", dict(alpha=0.6, beta=0.6)),
    "fig4": ("region", dict(d_x=8.0, d_y=8.0)),
}


def preset(name: str, *, include_mc: bool = False, samples: int = DEFAULT_SAMPLES,
           seed: int = 0, workers: int = 1) -> SweepSpec:
    """The SweepSpec of a PRESETS entry: both harvest models (a rate sweep
    takes its config's own, as rate rows carry no model) and the closed,
    bound and quadrature methods, each row where it applies.  include_mc
    adds "mc" to the power sweeps; the region (fig4) has no MC rows.  Power
    grids are 50 log-spaced points on [0.01, 1] W, libm's correctly rounded
    10**x (a repo choice; the axis range is otherwise unspecified), region
    controls 41 points on [0, 1]."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose s1, s2, c1, c2 or fig4")
    experiment, changes = PRESETS[name]
    if experiment == "region":
        grid = tuple(_linspace(0.0, 1.0, 41))
        include_mc = False
    else:
        grid = tuple(10.0 ** x for x in _linspace(math.log10(0.01), 0.0, 50))
    return SweepSpec(
        experiment, default_config(0.3).with_params(**changes), grid,
        models=() if experiment == "rate" else tuple(DEFAULT_HARVEST.values()),
        methods=METHODS if include_mc else METHODS[:3],
        samples=samples, seed=seed, workers=workers,
    )


PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Renders {csv_name} produced alongside this script.
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

KEY, X, Y = {key!r}, {x!r}, {y!r}
rows = list(csv.DictReader(open({csv_name!r})))
series = defaultdict(list)
for r in rows:
    series[tuple(r[c] for c in KEY)].append((float(r[X]), float(r[Y])))

fig, ax = plt.subplots()
for label, pts in sorted(series.items()):
    pts.sort()
    ax.plot([p[0] for p in pts], [p[1] for p in pts], marker=".", label=str(label))
ax.set_xlabel({x_label!r})
ax.set_ylabel({y_label!r})
ax.legend(fontsize=7)
if X == "pt_w":  # the power grids are log-spaced
    ax.set_xscale("log")
fig.tight_layout()
fig.savefig("{experiment}.png", dpi=150)
print("wrote {experiment}.png")
"""
_AXIS_LABELS = {"pt_w": "transmit power [W]", "value_w": "avg harvested energy [W]",
                "energy_w": "avg harvested energy [W]", "value_bits_s_hz": "avg rate [bits/s/Hz]",
                "rate_bits_s_hz": "avg rate [bits/s/Hz]"}


def csv_text(columns: Sequence[str], rows: Iterable[dict]) -> str:
    """The package's CSV format: a header, then each row's values in column
    order, names as they are and numbers as .17g.  One template per table:
    csv.writer's bytes, as no field needs quoting."""
    line = ",".join(f"{{{c}}}" if c in _NAME_COLUMNS else f"{{{c}:.17g}}" for c in columns)
    return "".join([",".join(columns), "\n", *map((line + "\n").format_map, rows)])


def emit_outputs(rows: list[dict], out_dir: str | Path, experiment: str) -> list[Path]:
    """Write <experiment>.csv (fixed column order, deterministic bytes)
    and a standalone plot script, plot_<experiment>.py, next to it, whose
    series key, axes and labels derive from the CSV_COLUMNS row."""
    if not rows:
        raise ValueError("refusing to write an empty table")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{experiment}.csv"
    columns = CSV_COLUMNS[experiment]
    csv_path.write_text(csv_text(columns, rows), newline="")
    x, y = [c for c in columns if c not in _NAME_COLUMNS][-2:]  # the last two numeric columns
    script_path = out_dir / f"plot_{experiment}.py"
    script_path.write_text(PLOT_SCRIPT.format(
        experiment=experiment, csv_name=csv_path.name,
        key=tuple(c for c in _NAME_COLUMNS if c in columns), x=x, y=y,
        x_label=_AXIS_LABELS[x], y_label=_AXIS_LABELS[y],
    ))
    return [csv_path, script_path]
