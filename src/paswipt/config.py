"""Physical / protocol parameters, unit conversions, and validation.

All computation inside the package happens in SI units (W, m, Hz).  The
config file and CLI accept the usual mixed units (dBm, GHz, mW, uW) via
unit-suffixed keys and convert here, at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Union

SPEED_OF_LIGHT = 299792458.0  # m/s


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_w: float) -> float:
    return 10.0 * math.log10(p_w) + 30.0


def expit_float(x: float) -> float:
    """The logistic sigmoid 1 / (1 + e^{-x}) of one float, on libm's exp.

    This is scipy.special.expit's formula, so it gives scipy's bits
    without loading numpy or scipy; where e^{-x} overflows (x below about
    -709.78) the value is 0.0, scipy's 1 / (1 + inf).
    tests/test_logistic_kernel.py pins it against scipy bit for bit.
    """
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


@dataclass(frozen=True)
class SystemParams:
    """Carrier, noise and power constants plus derived link factors."""

    carrier_frequency_hz: float
    noise_power_w: float
    transmit_power_w: float

    @property
    def path_loss_factor_m2(self) -> float:
        """Free-space factor c^2 / (16 pi^2 f_c^2) == (lambda / 4 pi)^2."""
        return SPEED_OF_LIGHT**2 / (16.0 * math.pi**2 * self.carrier_frequency_hz**2)

    @property
    def transmit_snr(self) -> float:
        return self.transmit_power_w / self.noise_power_w


@dataclass(frozen=True)
class ProtocolParams:
    """Hybrid protocol factors: alpha = TS share, beta = PS share.

    The transmission period is normalized to 1 and never stored.
    """

    alpha: float
    beta: float


@dataclass(frozen=True)
class RegionGeometry:
    """Service rectangle [0, d_x] x [0, d_y] with waveguide height h."""

    d_x: float
    d_y: float
    height: float

    @property
    def aspect_ratio(self) -> float:
        """Slope k = d_y / d_x of the diagonal waveguide."""
        return self.d_y / self.d_x

    @property
    def diagonal_half_width(self) -> float:
        """Max perpendicular distance from a corner to the diagonal."""
        return self.d_x * self.d_y / math.hypot(self.d_x, self.d_y)


@dataclass(frozen=True)
class LinearHarvest:
    """Constant-efficiency harvesting: output = eta * incident power."""

    eta: float


@dataclass(frozen=True)
class LogisticHarvest:
    """Saturating logistic harvester.

    saturation_w is the ceiling, slope_per_w and turn_on_w are the
    circuit constants of the logistic transfer curve.
    """

    saturation_w: float
    slope_per_w: float
    turn_on_w: float

    @cached_property
    def curve_constants(self) -> tuple[float, float]:
        """(Omega, scale) of the transfer curve: the logistic value at zero
        input, Omega = expit(-a b), and saturation_w / (1 - Omega).

        Computed on first use and kept on the instance, so the curve's
        kernel reads them per call without hashing the model.  expit
        keeps a*b of several hundred from overflowing e^{a b}; it is the
        float form, expit_float, so no scipy is loaded here.
        """
        omega = expit_float(-self.slope_per_w * self.turn_on_w)
        return omega, self.saturation_w / (1.0 - omega)


HarvestModel = Union[LinearHarvest, LogisticHarvest]

# The baseline harvesters, by model tag: eta = 1 for the linear model; a
# 20 mW ceiling, 100 per uW slope and 2.9 uW turn-on for the logistic one.
DEFAULT_HARVEST: dict[str, HarvestModel] = {
    "lm": LinearHarvest(eta=1.0),
    "nlm": LogisticHarvest(saturation_w=20e-3, slope_per_w=1e8, turn_on_w=2.9e-6),
}


def model_tag(model: HarvestModel) -> str:
    """The short name of a harvest model, as in config files: lm or nlm."""
    return "lm" if isinstance(model, LinearHarvest) else "nlm"


@dataclass(frozen=True)
class Config:
    system: SystemParams
    protocol: ProtocolParams
    geometry: RegionGeometry
    harvest: HarvestModel

    def replace(self, **kwargs) -> "Config":
        return replace(self, **kwargs)

    def with_params(self, **params) -> "Config":
        """A copy with leaf fields replaced by name, whatever their section:
        with_params(transmit_power_w=0.5, d_x=40.0, harvest=model).  Names
        are unique across sections; an unknown one raises TypeError.  The
        copy is not validated."""
        changes = {}
        if "harvest" in params:
            changes["harvest"] = params.pop("harvest")
        for section in ("system", "protocol", "geometry"):
            if not params:
                break
            part = getattr(self, section)
            own = {f.name: params.pop(f.name) for f in fields(part) if f.name in params}
            if own:
                changes[section] = replace(part, **own)
        if params:
            raise TypeError(f"unknown config field(s): {', '.join(sorted(params))}")
        return replace(self, **changes)


class ConfigError(ValueError):
    """Raised with the full list of violated constraints, one per field."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def validate(config: Config) -> Config:
    """Check every constraint and return the config, or raise ConfigError.

    All violations are collected (not just the first) so a batch sweep
    reports everything wrong with a spec in one shot.
    """
    errors: list[str] = []

    s = config.system
    if not (math.isfinite(s.carrier_frequency_hz) and s.carrier_frequency_hz > 0):
        errors.append(f"carrier_frequency_hz must be > 0, got {s.carrier_frequency_hz}")
    if not (math.isfinite(s.noise_power_w) and s.noise_power_w > 0):
        errors.append(f"noise_power_w must be > 0, got {s.noise_power_w}")
    if not (math.isfinite(s.transmit_power_w) and s.transmit_power_w > 0):
        errors.append(f"transmit_power_w must be > 0, got {s.transmit_power_w}")

    p = config.protocol
    if not (0.0 <= p.alpha <= 1.0):
        errors.append(f"alpha must be in [0, 1], got {p.alpha}")
    if not (0.0 <= p.beta <= 1.0):
        errors.append(f"beta must be in [0, 1], got {p.beta}")

    g = config.geometry
    if not (math.isfinite(g.d_x) and g.d_x > 0):
        errors.append(f"d_x must be > 0, got {g.d_x}")
    if not (math.isfinite(g.d_y) and g.d_y > 0):
        errors.append(f"d_y must be > 0, got {g.d_y}")
    if not (math.isfinite(g.height) and g.height > 0):
        errors.append(f"height must be > 0, got {g.height}")

    m = config.harvest
    if isinstance(m, LinearHarvest):
        if not (0.0 < m.eta <= 1.0):
            errors.append(f"eta must be in (0, 1], got {m.eta}")
    elif isinstance(m, LogisticHarvest):
        if not (math.isfinite(m.saturation_w) and m.saturation_w > 0):
            errors.append(f"saturation_w must be > 0, got {m.saturation_w}")
        if not (math.isfinite(m.slope_per_w) and m.slope_per_w > 0):
            errors.append(f"slope_per_w must be > 0, got {m.slope_per_w}")
        if not (math.isfinite(m.turn_on_w) and m.turn_on_w > 0):
            errors.append(f"turn_on_w must be > 0, got {m.turn_on_w}")
    else:
        errors.append(f"harvest model must be LinearHarvest or LogisticHarvest, got {type(m).__name__}")

    if errors:
        raise ConfigError(errors)
    return config


def default_config(
    transmit_power_w: float,
    model: str = "lm",
    *,
    d_x: float = 15.0,
    d_y: float = 10.0,
    height: float = 3.0,
    alpha: float = 0.8,
    beta: float = 0.8,
) -> Config:
    """Baseline simulation setup: -90 dBm noise, 28 GHz carrier and the
    DEFAULT_HARVEST model named by `model`.  This is the one home of the
    defaults: the CLI and the presets start from it.

    The transmit power has no sensible default (it is the usual sweep
    variable) and must be given explicitly.
    """
    if model not in DEFAULT_HARVEST:
        raise ValueError(f"model must be 'lm' or 'nlm', got {model!r}")
    return validate(
        Config(
            system=SystemParams(
                carrier_frequency_hz=28e9,
                noise_power_w=dbm_to_watts(-90.0),
                transmit_power_w=transmit_power_w,
            ),
            protocol=ProtocolParams(alpha=alpha, beta=beta),
            geometry=RegionGeometry(d_x=d_x, d_y=d_y, height=height),
            harvest=DEFAULT_HARVEST[model],
        )
    )


def _require(section: dict, key: str, where: str, errors: list[str]):
    if key not in section:
        errors.append(f"missing key '{key}' in section '{where}'")
        return None
    return section[key]


def _number(section: dict, key: str, where: str, errors: list[str]) -> float | None:
    """section[key] as a float, or None with the reason appended to errors."""
    if key not in section:
        return _require(section, key, where, errors)  # records the missing key
    try:
        return float(section[key])
    except (TypeError, ValueError):
        errors.append(f"key '{key}' in section '{where}' must be a number, got {section[key]!r}")
        return None


def config_from_dict(raw: dict) -> Config:
    """Build a Config from the nested, unit-suffixed file schema.

    Sections: system / protocol / geometry / harvest.  See README for the
    full key list; units are encoded in the key names (dbm, ghz, mw, uw).
    """
    errors: list[str] = []
    for section in ("system", "protocol", "geometry", "harvest"):
        if section not in raw:
            errors.append(f"missing section '{section}'")
        elif not isinstance(raw[section], dict):
            errors.append(f"section '{section}' must be a mapping, got {raw[section]!r}")
    if errors:
        raise ConfigError(errors)

    sy, pr, ge, ha = raw["system"], raw["protocol"], raw["geometry"], raw["harvest"]

    fc = _number(sy, "carrier_frequency_ghz", "system", errors)
    noise = _number(sy, "noise_power_dbm", "system", errors)
    pt = _number(sy, "transmit_power_w", "system", errors)
    alpha = _number(pr, "alpha", "protocol", errors)
    beta = _number(pr, "beta", "protocol", errors)
    dx = _number(ge, "d_x_m", "geometry", errors)
    dy = _number(ge, "d_y_m", "geometry", errors)
    h = _number(ge, "height_m", "geometry", errors)
    model = _require(ha, "model", "harvest", errors)

    harvest: HarvestModel | None = None
    if model == "lm":
        eta = _number(ha, "eta", "harvest", errors)
        if eta is not None:
            harvest = LinearHarvest(eta=eta)
    elif model == "nlm":
        phi = _number(ha, "saturation_mw", "harvest", errors)
        a = _number(ha, "slope_per_uw", "harvest", errors)
        b = _number(ha, "turn_on_uw", "harvest", errors)
        if None not in (phi, a, b):
            harvest = LogisticHarvest(
                saturation_w=phi * 1e-3,
                slope_per_w=a * 1e6,
                turn_on_w=b * 1e-6,
            )
    elif model is not None:
        errors.append(f"harvest.model must be 'lm' or 'nlm', got {model!r}")

    if errors:
        raise ConfigError(errors)

    return validate(
        Config(
            system=SystemParams(
                carrier_frequency_hz=fc * 1e9,
                noise_power_w=dbm_to_watts(noise),
                transmit_power_w=pt,
            ),
            protocol=ProtocolParams(alpha=alpha, beta=beta),
            geometry=RegionGeometry(d_x=dx, d_y=dy, height=h),
            harvest=harvest,  # type: ignore[arg-type]
        )
    )


def load_config(path: str | Path) -> Config:
    import yaml  # here, not at the top: only a config file needs it

    with open(path) as f:
        try:
            raw = yaml.safe_load(f)
        except yaml.YAMLError as exc:
            raise ConfigError([f"config file {path} is not valid YAML: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([f"config file {path} is not a mapping"])
    return config_from_dict(raw)
