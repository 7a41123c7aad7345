"""Physical / protocol parameters, unit conversions, and validation.

All computation inside the package happens in SI units (W, m, Hz).  The
config file and CLI accept the usual mixed units (dBm, GHz, mW, uW) via
unit-suffixed keys and convert here, at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple, Union

SPEED_OF_LIGHT = 299792458.0  # m/s


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


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

    # The link budget: the only place the package states it.  Every energy
    # and rate formula reads these two, never P_t, mu or gamma directly.
    @property
    def received_power_w_m2(self) -> float:
        """A UE at squared distance L receives this / L watts.  Still P_t:
        the free-space factor mu is missing (ROADMAP.md item 1)."""
        return self.transmit_power_w

    @property
    def link_snr_m2(self) -> float:
        """mu gamma: the SNR of a UE at squared distance L is this / L."""
        return self.path_loss_factor_m2 * self.transmit_snr


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


HarvestModel = Union[LinearHarvest, LogisticHarvest]


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
        sections: dict[str, dict] = {}
        for name, value in params.items():
            sections.setdefault(_SECTION_OF.get(name), {})[name] = value
        top = sections.pop(None, {})
        unknown = top.keys() - {"harvest"}
        if unknown:
            raise TypeError(f"unknown config field(s): {', '.join(sorted(unknown))}")
        return replace(self, **top, **{section: replace(getattr(self, section), **own)
                                       for section, own in sections.items()})


class ConfigError(ValueError):
    """Raised with the full list of violated constraints, one per field."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _decimal(exponent: int) -> Callable[[float], float]:
    """value * 10**exponent, rounded once by shifting the exponent of the value's
    shortest repr: 2.9 uW is the float 2.9e-6 W, not 2.9 * 1e-6, one ulp lower.
    inf and nan pass through, for validate to name."""
    def to_si(value: float) -> float:
        digits, _, power = repr(value).partition("e")
        return float(f"{digits}e{int(power or 0) + exponent}") if math.isfinite(value) else value
    return to_si


class Field(NamedTuple):
    """One parameter as the config file, the CLI and the defaults see it, the
    one home of its default (a NamedTuple: a dataclass costs a cold import ~1 ms)."""

    section: str  # system, protocol, geometry or harvest
    name: str  # the SI field of that section's dataclass
    key: str  # the config-file key; its suffix names the file unit
    to_si: Callable[[float], float]  # file (and flag) unit -> SI
    flag: str | None = None
    help: str | None = None
    default: float | None = None  # in file units; the transmit power has none

    def convert(self, value: float, where: str) -> float:
        """value in SI units; a ConfigError naming `where` if it overflows."""
        try:
            return self.to_si(value)
        except OverflowError:
            raise ConfigError([f"{where} is out of range, got {value!r}"]) from None


# Every system, protocol and geometry field.  A flag that is not given keeps
# the --config file's value, or the default without a file.
FIELDS = (
    Field("system", "carrier_frequency_hz", "carrier_frequency_ghz", _decimal(9),
          "--fc-ghz", "carrier frequency [GHz]", 28.0),
    Field("system", "noise_power_w", "noise_power_dbm", dbm_to_watts,
          "--noise-dbm", "noise power [dBm]", -90.0),
    Field("system", "transmit_power_w", "transmit_power_w", float,
          "--pt-w", "transmit power [W]; required without --config"),
    Field("protocol", "alpha", "alpha", float, "--alpha", "time-switching factor", 0.8),
    Field("protocol", "beta", "beta", float, "--beta", "power-splitting factor", 0.8),
    Field("geometry", "d_x", "d_x_m", float, "--dx", "room size along x [m]", 15.0),
    Field("geometry", "d_y", "d_y_m", float, "--dy", "room size along y [m]", 10.0),
    Field("geometry", "height", "height_m", float, "--height", "waveguide height [m]", 3.0),
)

_SECTION_OF = {f.name: f.section for f in FIELDS}  # for Config.with_params

# The harvester class and its file keys and defaults, by model tag (harvest.model); no
# flag sets them.  The logistic curve is Boshkovska et al.'s (IEEE Commun. Lett. 2015).
HARVEST_FIELDS: dict[str, tuple[type, tuple[Field, ...]]] = {
    "lm": (LinearHarvest, (Field("harvest", "eta", "eta", float, default=1.0),)),
    "nlm": (LogisticHarvest, (
        Field("harvest", "saturation_w", "saturation_mw", _decimal(-3), default=20.0),
        Field("harvest", "slope_per_w", "slope_per_uw", _decimal(6), default=100.0),
        Field("harvest", "turn_on_w", "turn_on_uw", _decimal(-6), default=2.9),
    )),
}
_MODELS = " or ".join(map(repr, HARVEST_FIELDS))  # 'lm' or 'nlm', for error messages
DEFAULT_HARVEST: dict[str, HarvestModel] = {  # the baseline harvesters, from those defaults
    tag: cls(**{f.name: f.to_si(f.default) for f in rows})
    for tag, (cls, rows) in HARVEST_FIELDS.items()
}

# (allowed range, test) by field name; every other field must be finite and > 0
_RANGES = {
    "alpha": ("in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "beta": ("in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "eta": ("in (0, 1]", lambda v: 0.0 < v <= 1.0),
}
_POSITIVE = ("> 0", lambda v: math.isfinite(v) and v > 0)
_SMALLEST_NORMAL = 2.2250738585072014e-308


def validate(config: Config) -> Config:
    """Check every constraint and return the config, or raise ConfigError.

    All violations are collected (not just the first) so a batch sweep
    reports everything wrong with a spec in one shot.
    """
    errors: list[str] = []
    m = config.harvest
    known = isinstance(m, (LinearHarvest, LogisticHarvest))
    bad_sections = set()
    for f in FIELDS + (HARVEST_FIELDS[model_tag(m)][1] if known else ()):
        value = getattr(getattr(config, f.section), f.name)
        allowed, ok = _RANGES.get(f.name, _POSITIVE)
        if not ok(value):
            errors.append(f"{f.name} must be {allowed}, got {value}")
            bad_sections.add(f.section)
    if "system" not in bad_sections:
        # mu P_t / sigma^2 scales every rate; it can overflow with valid fields
        s = config.system
        try:
            link = s.link_snr_m2
        except (OverflowError, ZeroDivisionError):
            link = math.inf
        if not math.isfinite(link):
            errors.append(f"link factor mu P_t / sigma^2 (path_loss_factor_m2 * transmit_snr) "
                          f"must be finite, got {link}")
    if "geometry" not in bad_sections:
        # the widest support, h^2 + d_y^2 (edge scheme), and the diagonal span can overflow
        g = config.geometry
        widest = g.height * g.height + g.d_y * g.d_y
        lam = g.diagonal_half_width
        # and its twin for a tiny height: h^2 and (S / h)^2 for the widest span, S = d_y
        h2, ratio2 = g.height * g.height, (g.d_y / g.height) * (g.d_y / g.height)
        # and for a narrow room: the diagonal span Lambda squared, and (Lambda / h)^2
        lam2, lam_ratio2 = lam * lam, (lam / g.height) * (lam / g.height)
        if not (math.isfinite(widest) and math.isfinite(lam)):
            errors.append(f"room support h^2 + d_y^2 (height, d_y) and diagonal_half_width "
                          f"(d_x, d_y) must be finite, got {widest} and {lam}")
        elif not (h2 >= _SMALLEST_NORMAL and math.isfinite(ratio2)):
            errors.append(f"height^2 must be a normal float and (d_y / height)^2 finite, "
                          f"got {h2} and {ratio2}")
        elif not (lam2 >= _SMALLEST_NORMAL and lam_ratio2 >= _SMALLEST_NORMAL):
            errors.append(f"diagonal_half_width^2 and (diagonal_half_width / height)^2 "
                          f"must be normal floats, got {lam2} and {lam_ratio2}")
    if not known:
        errors.append(f"harvest model must be LinearHarvest or LogisticHarvest, got {type(m).__name__}")
    if errors:
        raise ConfigError(errors)
    return config


def default_config(transmit_power_w: float, model: str = "lm") -> Config:
    """Baseline setup: the file-unit defaults of FIELDS in SI, and the
    DEFAULT_HARVEST model named by `model`, built from HARVEST_FIELDS.  The CLI
    and the presets start from it.  The transmit power has no default."""
    if model not in DEFAULT_HARVEST:
        raise ValueError(f"model must be {_MODELS}, got {model!r}")
    si = {f.name: f.to_si(f.default) for f in FIELDS if f.default is not None}
    si["transmit_power_w"] = transmit_power_w
    return validate(Config(*(cls(**{f.name: si[f.name] for f in fields(cls)})
                             for cls in (SystemParams, ProtocolParams, RegionGeometry)),
                           DEFAULT_HARVEST[model]))


def config_from_dict(raw: dict) -> Config:
    """Build a Config from the nested, unit-suffixed file schema.

    Sections: system / protocol / geometry / harvest, with the keys of
    FIELDS and of HARVEST_FIELDS for the harvest model; the units are
    encoded in the key names (dbm, ghz, mw, uw).  Every key is required,
    and an unknown key or section is an error.
    """
    sections = ("system", "protocol", "geometry", "harvest")
    errors: list[str] = []
    for section in sections:
        if section not in raw:
            errors.append(f"missing section '{section}'")
        elif not isinstance(raw[section], dict):
            errors.append(f"section '{section}' must be a mapping, got {raw[section]!r}")
    errors += [f"unknown section '{section}'" for section in raw if section not in sections]
    if errors:
        raise ConfigError(errors)

    model = raw["harvest"].get("model")
    known_model = model in tuple(HARVEST_FIELDS)  # a tuple: the value may be unhashable
    rows = FIELDS + (HARVEST_FIELDS[model][1] if known_model else ())
    si: dict[str, float] = {}
    for f in rows:
        section, where = raw[f.section], f"key '{f.key}' in section '{f.section}'"
        try:
            if isinstance(section[f.key], bool):  # YAML's true, yes, on, false, no and off
                raise TypeError
            si[f.name] = f.convert(float(section[f.key]), where)
        except KeyError:
            errors.append(f"missing {where}")
        except ConfigError as exc:  # the unit conversion overflowed
            errors += exc.errors
        except (TypeError, ValueError):
            errors.append(f"{where} must be a number, got {section[f.key]!r}")
    if "model" not in raw["harvest"]:
        errors.append("missing key 'model' in section 'harvest'")
    elif not known_model:
        errors.append(f"harvest.model must be {_MODELS}, got {model!r}")
    allowed = {(f.section, f.key) for f in rows} | {("harvest", "model")}
    for section in sections if known_model else sections[:3]:
        errors += [f"unknown key '{key}' in section '{section}'"
                   for key in raw[section] if (section, key) not in allowed]
    if errors:
        raise ConfigError(errors)
    cls, harvest_rows = HARVEST_FIELDS[model]
    harvest = cls(**{f.name: si.pop(f.name) for f in harvest_rows})
    # every key is required, so the file's values replace each default
    return validate(default_config(1.0).with_params(harvest=harvest, **si))


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
