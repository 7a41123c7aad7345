import math

import pytest
from hypothesis import given, strategies as st

from paswipt.config import (
    DEFAULT_HARVEST,
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
    watts_to_dbm,
)


def test_dbm_to_watts_known_points():
    assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)


@given(st.floats(min_value=-120.0, max_value=60.0))
def test_dbm_watts_round_trip(p_dbm):
    assert watts_to_dbm(dbm_to_watts(p_dbm)) == pytest.approx(p_dbm, abs=1e-12)


def test_path_loss_factor_at_28ghz():
    s = SystemParams(28e9, 1e-12, 1.0)
    # c^2 / (16 pi^2 f_c^2) evaluated independently
    assert s.path_loss_factor_m2 == pytest.approx(7.2595e-7, rel=1e-4)
    assert s.path_loss_factor_m2 == pytest.approx((s.wavelength_m / (4 * math.pi)) ** 2, rel=1e-12)


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


def test_logistic_offset_underflows_gracefully():
    m = DEFAULT_HARVEST["nlm"]
    # a*b = 290: e^{a b} overflows but the offset must still come out fine
    assert 0.0 <= m.zero_input_offset <= 1e-100


def test_logistic_offset_range():
    m = LogisticHarvest(saturation_w=1e-3, slope_per_w=100.0, turn_on_w=1e-3)
    assert 0.0 < m.zero_input_offset < 0.5


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
])
def test_config_from_dict_rejects_malformed_structure(changes, message):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(_raw_config(**changes))
    assert any(message in m for m in exc.value.errors), exc.value.errors


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
