"""Command-line front end: dist / energy / rate / sweep subcommands.

Physical quantities are given in field units (dBm, GHz, meters, watts)
and converted once at this boundary; see README for the config-file
schema accepted by --config.
"""

from __future__ import annotations

import argparse
import sys

from paswipt.config import Config, default_config, dbm_to_watts, load_config, model_tag, validate
from paswipt.distributions import SquaredDistanceDistribution, emit_cdf_table
from paswipt.geometry import Scheme
from paswipt.montecarlo import check_mc_inputs
from paswipt.sweep import METHODS, emit_outputs, evaluate, preset, run_power_sweep, run_tradeoff

# Not called here: bound so that benchmarks/tracer.py finds every name it wraps in this module.
from paswipt.energy import (  # noqa: F401
    avg_energy_lm_closed,
    avg_energy_nlm_bound,
    avg_energy_quadrature,
)
from paswipt.montecarlo import estimate  # noqa: F401
from paswipt.rate import avg_rate_closed, avg_rate_quadrature  # noqa: F401

# (flag, Config field, conversion from the flag's unit to SI, help).  No
# flag has a default: one left out keeps the --config file's value, or
# default_config's without a file.
_CONFIG_FLAGS = (
    ("--pt-w", "transmit_power_w", float, "transmit power [W]; required without --config"),
    ("--noise-dbm", "noise_power_w", dbm_to_watts, "noise power [dBm]"),
    ("--fc-ghz", "carrier_frequency_hz", lambda ghz: ghz * 1e9, "carrier frequency [GHz]"),
    ("--dx", "d_x", float, "room size along x [m]"),
    ("--dy", "d_y", float, "room size along y [m]"),
    ("--height", "height", float, "waveguide height [m]"),
    ("--alpha", "alpha", float, "time-switching factor"),
    ("--beta", "beta", float, "power-splitting factor"),
)

_UNITS = {"energy": "w", "rate": "bits_s_hz"}


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="YAML config file; a flag below, when given, overrides it")
    for flag, field, _, text in _CONFIG_FLAGS:
        p.add_argument(flag, dest=field, type=float, help=text,
                       metavar=flag[2:].upper().replace("-", "_"))


def _add_mc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)


def _config(args, need_power: bool = True) -> Config:
    """The --config file, or default_config without one, with every flag
    that was given applied on top.  A flag value is validated unchanged,
    so a bad one fails instead of being replaced by a default."""
    model = getattr(args, "model", None)
    if args.config:
        cfg = load_config(args.config)
        tag = model_tag(cfg.harvest)
        if model is not None and model != tag:
            raise ValueError(f"--model {model} contradicts harvest model {tag!r} in {args.config}")
    elif need_power and args.transmit_power_w is None:
        raise ValueError("--pt-w is required without a --config file")
    else:
        # --pt-w replaces the 1 W; only `dist` may omit it, the distance law ignores it
        cfg = default_config(1.0, model or "lm")
    given = {field: to_si(getattr(args, field)) for _, field, to_si, _ in _CONFIG_FLAGS
             if getattr(args, field) is not None}
    return validate(cfg.with_params(**given))


def _cmd_dist(args) -> int:
    cfg = _config(args, need_power=False)
    dist = SquaredDistanceDistribution(Scheme(args.scheme), cfg.geometry)
    table = emit_cdf_table(dist, args.points)
    with open(args.emit_cdf, "w") as f:
        f.write("l_m2,cdf,pdf\n")
        for l, c, p in table:
            f.write(f"{l:.17g},{c:.17g},{p:.17g}\n")
    print(f"wrote {args.emit_cdf} ({len(table)} rows)")
    return 0


def _cmd_evaluate(args) -> int:
    """energy / rate: one CSV row with a `{method}_{unit}` column for each
    requested method that applies, in METHODS order; mc adds its error."""
    cfg = _config(args)
    check_mc_inputs(args.samples, args.seed, args.workers)  # even where no mc column runs
    scheme = Scheme(args.scheme)
    unit = _UNITS[args.command]
    if args.command == "energy":
        wanted = {"closed", "bound", "quadrature"} | ({"mc"} if args.mc else set())
        fields, values = ["scheme", "model"], [scheme.value, model_tag(cfg.harvest)]
    else:
        wanted = {"quadrature" if m == "quad" else m for m in args.method or ("closed", "quad")}
        fields, values = ["scheme"], [scheme.value]
    fields.append("pt_w")
    values.append(f"{cfg.system.transmit_power_w:.17g}")
    for method in METHODS:
        if method not in wanted:
            continue
        results = evaluate(args.command, method, scheme, [cfg],
                           samples=args.samples, seed=args.seed, workers=args.workers)
        if results is None:
            continue
        (value, std_error), = results
        fields.append(f"{method}_{unit}")
        values.append(f"{value:.17g}")
        if std_error is not None:
            fields.append(f"{method}_stderr_{unit}")
            values.append(f"{std_error:.17g}")
    print(",".join(fields))
    print(",".join(values))
    return 0


def _cmd_sweep(args) -> int:
    spec = preset(args.preset, include_mc=args.mc, samples=args.samples,
                  seed=args.seed, workers=args.workers)
    rows = run_tradeoff(spec) if spec.experiment == "region" else run_power_sweep(spec)
    written = emit_outputs(rows, args.out, spec.experiment)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="paswipt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="emit the squared-distance CDF/PDF table")
    p.add_argument("--scheme", choices=[s.value for s in Scheme], required=True)
    p.add_argument("--emit-cdf", metavar="CSV", required=True)
    p.add_argument("--points", type=int, default=1000)
    _add_config_args(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("energy", help="average harvested energy, all methods")
    p.add_argument("--scheme", choices=[s.value for s in Scheme], required=True)
    p.add_argument("--model", choices=["lm", "nlm"],
                   help="harvest model (default lm; with --config, the file's model)")
    p.add_argument("--mc", action="store_true", help="add a Monte-Carlo cross-check")
    _add_config_args(p)
    _add_mc_args(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("rate", help="average achievable rate, chosen methods")
    p.add_argument("--scheme", choices=[s.value for s in Scheme], required=True)
    p.add_argument("--method", action="append", choices=["closed", "quad", "mc"])
    _add_config_args(p)
    _add_mc_args(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="run a named experiment preset")
    p.add_argument("--preset", choices=["s1", "s2", "c1", "c2", "fig4"], required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--mc", action="store_true")
    _add_mc_args(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input: ConfigError is a ValueError
        message = " ".join(str(exc).split())
        parser.exit(2, f"paswipt {args.command}: error: {message}\n")


if __name__ == "__main__":
    sys.exit(main())
