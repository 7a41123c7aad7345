import math
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from paswipt.cli import main
from paswipt.config import (
    DEFAULT_HARVEST,
    FIELDS,
    HARVEST_FIELDS,
    Config,
    ConfigError,
    LinearHarvest,
    LogisticHarvest,
    ProtocolParams,
    RegionGeometry,
    SystemParams,
    config_from_dict,
    dbm_to_watts,
    default_config,
    validate,
)
from paswipt.geometry import Scheme

from oracles import regime_power, wavelength_m

README = Path(__file__).resolve().parents[1] / "README.md"


def test_dbm_to_watts_known_points():
    assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)


@given(st.floats(min_value=-120.0, max_value=60.0))
def test_dbm_watts_round_trip(p_dbm):
    assert 10.0 * math.log10(dbm_to_watts(p_dbm)) + 30.0 == pytest.approx(p_dbm, abs=1e-12)


def test_path_loss_factor_at_28ghz():
    s = SystemParams(28e9, 1e-12, 1.0)
    # c^2 / (16 pi^2 f_c^2) evaluated independently
    assert s.path_loss_factor_m2 == pytest.approx(7.2595e-7, rel=1e-4)
    assert s.path_loss_factor_m2 == pytest.approx((wavelength_m(s) / (4 * math.pi)) ** 2, rel=1e-12)


def test_path_loss_factor_degenerate_unit_case():
    from paswipt.config import SPEED_OF_LIGHT

    s = SystemParams(SPEED_OF_LIGHT / (4 * math.pi), 1e-12, 1.0)
    assert s.path_loss_factor_m2 == pytest.approx(1.0, rel=1e-12)


def test_path_loss_inverse_square_in_frequency():
    lo = SystemParams(10e9, 1e-12, 1.0)
    hi = SystemParams(20e9, 1e-12, 1.0)
    assert lo.path_loss_factor_m2 / hi.path_loss_factor_m2 == pytest.approx(4.0, rel=1e-12)


def test_transmit_snr():
    s = SystemParams(28e9, dbm_to_watts(-90.0), 0.3)
    assert s.transmit_snr == pytest.approx(3e11, rel=1e-12)


def test_region_derived_constants():
    g = RegionGeometry(d_x=15.0, d_y=10.0, height=3.0)
    assert g.aspect_ratio == pytest.approx(10.0 / 15.0, rel=1e-15)
    lam = 150.0 / math.sqrt(15.0**2 + 10.0**2)
    assert g.diagonal_half_width == pytest.approx(lam, rel=1e-15)
    assert 0 < g.diagonal_half_width <= min(g.d_x, g.d_y)


def test_validate_collects_all_errors():
    bad = Config(
        system=SystemParams(28e9, 1e-12, 0.3),
        protocol=ProtocolParams(alpha=1.2, beta=0.5),
        geometry=RegionGeometry(d_x=15.0, d_y=0.0, height=3.0),
        harvest=LinearHarvest(eta=1.0),
    )
    with pytest.raises(ConfigError) as exc:
        validate(bad)
    msgs = exc.value.errors
    assert len(msgs) == 2
    assert any("alpha" in m for m in msgs)
    assert any("d_y" in m for m in msgs)


def test_default_config_is_valid():
    cfg = default_config(0.3)
    assert validate(cfg) is cfg
    cfg = default_config(0.3, model="nlm")
    m = cfg.harvest
    assert isinstance(m, LogisticHarvest)
    assert m.saturation_w == pytest.approx(20e-3)
    assert m.slope_per_w == pytest.approx(1e8)
    assert m.turn_on_w == pytest.approx(2.9e-6)


def test_derived_constants_are_pure():
    a = default_config(0.3)
    b = default_config(0.3)
    assert a.system.path_loss_factor_m2 == b.system.path_loss_factor_m2
    assert a.system.transmit_snr == b.system.transmit_snr
    assert a.geometry.diagonal_half_width == b.geometry.diagonal_half_width


def test_with_params_replaces_fields_across_sections():
    cfg = default_config(0.3).with_params(transmit_power_w=0.5, d_x=40.0, beta=0.5,
                                          harvest=LogisticHarvest(1e-2, 1e8, 3e-6))
    assert cfg.system.transmit_power_w == 0.5
    assert cfg.geometry == RegionGeometry(d_x=40.0, d_y=10.0, height=3.0)
    assert cfg.protocol == ProtocolParams(alpha=0.8, beta=0.5)
    assert cfg.harvest == LogisticHarvest(1e-2, 1e8, 3e-6)
    assert default_config(0.3).with_params() == default_config(0.3)


def test_with_params_rejects_unknown_field():
    with pytest.raises(TypeError, match="pt_w"):
        default_config(0.3).with_params(pt_w=0.5)


def test_config_from_dict_units():
    cfg = config_from_dict({
        "system": {"carrier_frequency_ghz": 28, "noise_power_dbm": -90, "transmit_power_w": 0.3},
        "protocol": {"alpha": 0.8, "beta": 0.8},
        "geometry": {"d_x_m": 15, "d_y_m": 10, "height_m": 3},
        "harvest": {"model": "nlm", "saturation_mw": 20, "slope_per_uw": 100, "turn_on_uw": 2.9},
    })
    assert cfg.system.noise_power_w == pytest.approx(1e-12)
    assert cfg.harvest.slope_per_w == pytest.approx(1e8)
    assert cfg.harvest.turn_on_w == pytest.approx(2.9e-6)


def test_config_from_dict_reports_missing_keys():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({
            "system": {"carrier_frequency_ghz": 28},
            "protocol": {"alpha": 0.8, "beta": 0.8},
            "geometry": {"d_x_m": 15, "d_y_m": 10, "height_m": 3},
            "harvest": {"model": "lm", "eta": 1.0},
        })
    assert any("noise_power_dbm" in m for m in exc.value.errors)
    assert any("transmit_power_w" in m for m in exc.value.errors)


def _raw_config(**changes):
    raw = {
        "system": {"carrier_frequency_ghz": 28, "noise_power_dbm": -90, "transmit_power_w": 0.3},
        "protocol": {"alpha": 0.8, "beta": 0.8},
        "geometry": {"d_x_m": 15, "d_y_m": 10, "height_m": 3},
        "harvest": {"model": "lm", "eta": 1.0},
    }
    for section, value in changes.items():
        raw[section] = value if not isinstance(value, dict) else {**raw[section], **value}
    return raw


@pytest.mark.parametrize("changes, message", [
    (dict(system=5), "section 'system' must be a mapping, got 5"),
    (dict(geometry=[15, 10, 3]), "section 'geometry' must be a mapping"),
    (dict(harvest={"eta": [1]}), "key 'eta' in section 'harvest' must be a number, got [1]"),
    (dict(system={"transmit_power_w": "abc"}),
     "key 'transmit_power_w' in section 'system' must be a number, got 'abc'"),
    (dict(protocol={"alpha": None}), "key 'alpha' in section 'protocol' must be a number"),
    (dict(system={"noise_power_dbm": 1e6}),
     "key 'noise_power_dbm' in section 'system' is out of range, got 1000000.0"),
])
def test_config_from_dict_rejects_malformed_structure(changes, message):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(_raw_config(**changes))
    assert any(message in m for m in exc.value.errors), exc.value.errors


def test_config_from_dict_rejects_booleans():
    # YAML loads true, yes and on as True, false, no and off as False
    raw = _raw_config(system={"transmit_power_w": True}, protocol={"alpha": True, "beta": False},
                      harvest={"eta": True})
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert exc.value.errors == [
        "key 'transmit_power_w' in section 'system' must be a number, got True",
        "key 'alpha' in section 'protocol' must be a number, got True",
        "key 'beta' in section 'protocol' must be a number, got False",
        "key 'eta' in section 'harvest' must be a number, got True",
    ]


def test_config_from_dict_accepts_numeric_strings():
    cfg = config_from_dict(_raw_config(system={"transmit_power_w": "0.5"}))
    assert cfg.system.transmit_power_w == 0.5


def test_load_config_yaml(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "system:\n"
        "  carrier_frequency_ghz: 28\n"
        "  noise_power_dbm: -90\n"
        "  transmit_power_w: 0.3\n"
        "protocol:\n  alpha: 0.8\n  beta: 0.8\n"
        "geometry:\n  d_x_m: 15\n  d_y_m: 10\n  height_m: 3\n"
        "harvest:\n  model: lm\n  eta: 1.0\n"
    )
    from paswipt.config import load_config

    cfg = load_config(path)
    assert cfg.system.transmit_power_w == 0.3
    assert isinstance(cfg.harvest, LinearHarvest)


def test_config_from_dict_names_each_unknown_key_and_section():
    raw = _raw_config(protocol={"gamma": 0.5}, harvest={"model": "nlm", "saturation_mw": 20,
                                                        "slope_per_uw": 100, "turn_on_uw": 2.9})
    raw["extra"] = {"x": 1}
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert exc.value.errors == ["unknown section 'extra'"]
    del raw["extra"]
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    # the lm key eta is unknown to the nlm harvester
    assert exc.value.errors == ["unknown key 'gamma' in section 'protocol'",
                                "unknown key 'eta' in section 'harvest'"]


@pytest.fixture
def readme_config(tmp_path):
    """The README's example config file."""
    text = README.read_text()
    start = text.index("```yaml\n", text.index("## Config file")) + len("```yaml\n")
    path = tmp_path / "readme.yaml"
    path.write_text(text[start:text.index("```", start)])
    return path


def test_readme_config_example_loads(readme_config):
    from paswipt.config import load_config

    # the file's turn_on_uw: 2.9 is DEFAULT_HARVEST's float, not 2.9 * 1e-6 one ulp lower
    assert load_config(readme_config) == default_config(0.3, "nlm")


def test_readme_config_and_flags_print_the_same_knee_row(readme_config, capsys):
    # at the knee power the logistic curve shows any ulp of the turn-on in every digit
    knee = regime_power(default_config(1.0, "nlm"), Scheme.DDS, "knee")
    argv = ["energy", "--scheme", "dds", "--model", "nlm", "--pt-w", repr(knee), "--mc",
            "--samples", "100000"]
    assert main(argv) == 0
    by_flags = capsys.readouterr().out
    assert main([*argv, "--config", str(readme_config)]) == 0
    assert capsys.readouterr().out == by_flags


def test_default_harvest_comes_from_the_field_table_with_its_bits():
    nlm = DEFAULT_HARVEST["nlm"]
    assert DEFAULT_HARVEST["lm"] == LinearHarvest(eta=1.0)
    assert [nlm.saturation_w.hex(), nlm.slope_per_w.hex(), nlm.turn_on_w.hex()] == [
        "0x1.47ae147ae147bp-6", "0x1.7d78400000000p+26", "0x1.853b3dc3afedap-19"]
    raw = {f.key: f.default for _, rows in HARVEST_FIELDS.values() for f in rows}
    assert raw == {"eta": 1.0, "saturation_mw": 20.0, "slope_per_uw": 100.0, "turn_on_uw": 2.9}


# the file keys in power-of-ten units, by their exponent: GHz, mW, per uW and uW
_DECIMAL_UNITS = {"carrier_frequency_ghz": 9, "saturation_mw": -3, "slope_per_uw": 6,
                  "turn_on_uw": -6}
_FIELD_OF_KEY = {f.key: f for f in FIELDS + HARVEST_FIELDS["nlm"][1]}


@pytest.mark.parametrize("key", _DECIMAL_UNITS)
@given(value=st.floats())
def test_decimal_units_round_once(key, value):
    # the exact decimal value * 10**exponent, rounded once to the nearest float;
    # inf and nan pass through, for validate to reject
    got = _FIELD_OF_KEY[key].to_si(value)
    if math.isnan(value):
        assert math.isnan(got)
    else:
        assert got == float(Decimal(repr(value)).scaleb(_DECIMAL_UNITS[key]))


def test_validate_rejects_an_infinite_link_factor():
    # each field is valid, but mu P_t / sigma^2 overflows
    with pytest.raises(ConfigError) as exc:
        validate(default_config(0.3).with_params(transmit_power_w=1e300, noise_power_w=1e-33))
    assert exc.value.errors == ["link factor mu P_t / sigma^2 (path_loss_factor_m2 * "
                                "transmit_snr) must be finite, got inf"]
    # a carrier whose square underflows to 0 divides by zero inside the factor
    with pytest.raises(ConfigError, match="must be finite, got inf"):
        validate(default_config(0.3).with_params(carrier_frequency_hz=1e-200))


def test_validate_checks_the_link_factor_only_on_valid_fields():
    with pytest.raises(ConfigError) as exc:
        validate(default_config(0.3).with_params(noise_power_w=0.0))
    assert exc.value.errors == ["noise_power_w must be > 0, got 0.0"]


@pytest.mark.parametrize("room, got", [
    (dict(height=1e200), "got inf and 8.320502943378438"),  # h^2 overflows
    (dict(d_x=1e200, d_y=1e200), "got inf and inf"),
    (dict(d_x=1e300, d_y=1e10), "got 1e+20 and inf"),  # only d_x d_y in the half-width overflows
])
def test_validate_rejects_a_room_whose_support_overflows(room, got):
    with pytest.raises(ConfigError) as exc:
        validate(default_config(0.3).with_params(**room))
    assert exc.value.errors == [f"room support h^2 + d_y^2 (height, d_y) and diagonal_half_width "
                                f"(d_x, d_y) must be finite, {got}"]


@pytest.mark.parametrize("room, got", [
    (dict(height=1e-200), "got 0.0 and inf"),  # h^2 underflows to zero
    (dict(height=1e-160, d_y=1e-10), "got 1e-320 and 9.999999999999999e+299"),  # subnormal h^2
    (dict(height=0.1, d_y=1e154), "got 0.010000000000000002 and inf"),  # (d_y / h)^2 overflows
])
def test_validate_rejects_a_height_too_small_for_the_room(room, got):
    with pytest.raises(ConfigError) as exc:
        validate(default_config(0.3).with_params(**room))
    assert exc.value.errors == [f"height^2 must be a normal float and (d_y / height)^2 finite, "
                                f"{got}"]


@pytest.mark.parametrize("room, got", [
    (dict(d_x=1e-200, d_y=1.0), "got 0.0 and 0.0"),  # Lambda^2 underflows to zero
    (dict(d_x=1e-150, d_y=1.0, height=1e10), "got 1e-300 and 1e-320"),  # subnormal (Lambda / h)^2
    (dict(d_x=1.0, d_y=1e-155), "got 1e-310 and 1.111111111111e-311"),  # subnormal Lambda^2
])
def test_validate_rejects_a_room_too_narrow_for_its_squares(room, got):
    with pytest.raises(ConfigError) as exc:
        validate(default_config(0.3).with_params(**room))
    assert exc.value.errors == ["diagonal_half_width^2 and (diagonal_half_width / height)^2 "
                                f"must be normal floats, {got}"]


def test_validate_accepts_the_narrowest_rooms_that_fit():
    cfg = default_config(0.3).with_params(d_x=1e-150, d_y=1.0)  # (Lambda / 3)^2 = 1.1e-301
    assert validate(cfg) is cfg
    cfg = default_config(0.3).with_params(d_x=1e-153, d_y=1.0, height=1e-3)  # Lambda^2 = 1e-306
    assert validate(cfg) is cfg


def test_validate_accepts_the_smallest_heights_that_fit():
    cfg = default_config(0.3).with_params(height=1e-150)  # (10 / h)^2 = 1e302
    assert validate(cfg) is cfg
    cfg = default_config(0.3).with_params(height=1.5e-154, d_y=1e-10)  # h^2 is normal
    assert validate(cfg) is cfg


def test_validate_checks_the_room_support_only_on_valid_geometry():
    cfg = default_config(0.3).with_params(d_y=1e150, height=1e150, d_x=1e150)
    assert validate(cfg) is cfg  # h^2 + d_y^2 = 2e300 is still finite
    with pytest.raises(ConfigError) as exc:
        validate(cfg.with_params(d_y=1e200, height=-1.0))
    assert exc.value.errors == ["height must be > 0, got -1.0"]
