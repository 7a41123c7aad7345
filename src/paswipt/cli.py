"""Command-line front end: dist / energy / rate / sweep subcommands.

Physical quantities are given in field units (dBm, GHz, meters, watts)
and converted once at this boundary; see README for the config-file
schema accepted by --config.
"""

from __future__ import annotations

import argparse
import sys

from paswipt.config import Config, LinearHarvest, LogisticHarvest, load_config, model_tag
from paswipt.distributions import SquaredDistanceDistribution, emit_cdf_table
from paswipt.energy import (
    avg_energy_lm_closed,
    avg_energy_nlm_bound,
    avg_energy_quadrature,
)
from paswipt.geometry import Scheme
from paswipt.montecarlo import estimate
from paswipt.rate import avg_rate_closed, avg_rate_quadrature
from paswipt.sweep import emit_outputs, preset, run_power_sweep, run_tradeoff


def _add_config_args(p: argparse.ArgumentParser, need_power: bool) -> None:
    p.add_argument("--config", help="YAML config file (overrides the flags below)")
    p.add_argument("--pt-w", type=float, required=need_power,
                   help="transmit power in watts (no default: it is the usual sweep variable)")
    p.add_argument("--noise-dbm", type=float, default=-90.0)
    p.add_argument("--fc-ghz", type=float, default=28.0)
    p.add_argument("--dx", type=float, default=15.0, help="room size along x [m]")
    p.add_argument("--dy", type=float, default=10.0, help="room size along y [m]")
    p.add_argument("--height", type=float, default=3.0, help="waveguide height [m]")
    p.add_argument("--alpha", type=float, default=0.8, help="time-switching factor")
    p.add_argument("--beta", type=float, default=0.8, help="power-splitting factor")


def _add_mc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)


def _build_config(args, model: str | None = None) -> Config:
    """The config from --config, or else from the flags.  A flag value is
    passed to validate() unchanged, so a bad one fails instead of being
    replaced by a default."""
    if args.config:
        return load_config(args.config)
    from paswipt.config import (
        ProtocolParams, RegionGeometry, SystemParams, dbm_to_watts, validate,
    )
    if model in (None, "lm"):
        harvest = LinearHarvest(eta=1.0)
    else:
        harvest = LogisticHarvest(saturation_w=20e-3, slope_per_w=1e8, turn_on_w=2.9e-6)
    return validate(Config(
        system=SystemParams(
            carrier_frequency_hz=args.fc_ghz * 1e9,
            noise_power_w=dbm_to_watts(args.noise_dbm),
            # only `dist` may leave the power unset; the distance law ignores it
            transmit_power_w=1.0 if args.pt_w is None else args.pt_w,
        ),
        protocol=ProtocolParams(alpha=args.alpha, beta=args.beta),
        geometry=RegionGeometry(d_x=args.dx, d_y=args.dy, height=args.height),
        harvest=harvest,
    ))


def _cmd_dist(args) -> int:
    cfg = _build_config(args)
    dist = SquaredDistanceDistribution(Scheme(args.scheme), cfg.geometry)
    table = emit_cdf_table(dist, args.points)
    with open(args.emit_cdf, "w") as f:
        f.write("l_m2,cdf,pdf\n")
        for l, c, p in table:
            f.write(f"{l:.17g},{c:.17g},{p:.17g}\n")
    print(f"wrote {args.emit_cdf} ({len(table)} rows)")
    return 0


def _cmd_energy(args) -> int:
    cfg = _build_config(args, model=args.model)
    tag = model_tag(cfg.harvest)
    if args.model is not None and args.model != tag:
        raise ValueError(f"--model {args.model} contradicts harvest model {tag!r} in {args.config}")
    scheme = Scheme(args.scheme)
    s, p, g, m = cfg.system, cfg.protocol, cfg.geometry, cfg.harvest
    fields = ["scheme", "model", "pt_w"]
    values: list[str] = [scheme.value, tag, f"{s.transmit_power_w:.17g}"]
    if isinstance(m, LinearHarvest):
        fields.append("closed_w")
        values.append(f"{avg_energy_lm_closed(scheme, s, p, g, m):.17g}")
    else:
        fields.append("bound_w")
        values.append(f"{avg_energy_nlm_bound(scheme, s, p, g, m):.17g}")
    fields.append("quadrature_w")
    values.append(f"{avg_energy_quadrature(scheme, s, p, g, m):.17g}")
    if args.mc:
        metric = "energy-lm" if isinstance(m, LinearHarvest) else "energy-nlm"
        est = estimate(metric, scheme, cfg, args.samples, args.seed, args.workers)
        fields += ["mc_w", "mc_stderr_w"]
        values += [f"{est.mean:.17g}", f"{est.std_error:.17g}"]
    print(",".join(fields))
    print(",".join(values))
    return 0


def _cmd_rate(args) -> int:
    cfg = _build_config(args)
    scheme = Scheme(args.scheme)
    s, p, g = cfg.system, cfg.protocol, cfg.geometry
    fields = ["scheme", "pt_w"]
    values = [scheme.value, f"{s.transmit_power_w:.17g}"]
    methods = args.method or ["closed", "quad"]
    if "closed" in methods:
        fields.append("closed_bits_s_hz")
        values.append(f"{avg_rate_closed(scheme, s, p, g).value_bits_s_hz:.17g}")
    if "quad" in methods:
        fields.append("quadrature_bits_s_hz")
        values.append(f"{avg_rate_quadrature(scheme, s, p, g).value_bits_s_hz:.17g}")
    if "mc" in methods:
        est = estimate("rate", scheme, cfg, args.samples, args.seed, args.workers)
        fields += ["mc_bits_s_hz", "mc_stderr_bits_s_hz"]
        values += [f"{est.mean:.17g}", f"{est.std_error:.17g}"]
    print(",".join(fields))
    print(",".join(values))
    return 0


def _cmd_sweep(args) -> int:
    spec = preset(args.preset, include_mc=args.mc, samples=args.samples,
                  seed=args.seed, workers=args.workers)
    if spec.experiment != args.experiment:
        raise SystemExit(
            f"preset {args.preset!r} drives the {spec.experiment!r} experiment, "
            f"not {args.experiment!r}"
        )
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
    _add_config_args(p, need_power=False)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("energy", help="average harvested energy, all methods")
    p.add_argument("--scheme", choices=[s.value for s in Scheme], required=True)
    p.add_argument("--model", choices=["lm", "nlm"],
                   help="harvest model (default lm; with --config, the file's model)")
    p.add_argument("--mc", action="store_true", help="add a Monte-Carlo cross-check")
    _add_config_args(p, need_power=True)
    _add_mc_args(p)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("rate", help="average achievable rate, chosen methods")
    p.add_argument("--scheme", choices=[s.value for s in Scheme], required=True)
    p.add_argument("--method", action="append", choices=["closed", "quad", "mc"])
    _add_config_args(p, need_power=True)
    _add_mc_args(p)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("sweep", help="run a named experiment preset")
    p.add_argument("--experiment", choices=["energy", "rate", "region"], required=True)
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
