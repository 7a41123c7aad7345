"""Relations that follow from the link model alone (metamorphic tests).

Closed form, quadrature and Monte Carlo share the link model, so their
agreement cannot see a defect in it.  Each relation here compares a
method with itself at a transformed input, the Monte Carlo on one seed.  Scaling by a power of two is
exact in IEEE arithmetic away from overflow and underflow, so those
relations hold bit for bit.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from paswipt.config import (DEFAULT_HARVEST, Config, ProtocolParams, RegionGeometry, SystemParams,
                            dbm_to_watts, default_config)
from paswipt.geometry import Scheme
from paswipt.sweep import METHODS, evaluate

from oracles import REGIMES, log_uniform, regime_power

ROOMS = [(15.0, 10.0, 3.0), (8.0, 8.0, 3.0), (1e4, 1e4, 3.0), (0.5, 2.0, 10.0)]  # d_x, d_y, h
ROOM_IDS = ["x".join(f"{v:g}" for v in room) for room in ROOMS]
# the deterministic methods of the linear-model energy and of the rate; mc has its own relations
EXACT = ("closed", "quadrature")
# the Monte-Carlo relations: one seed, 3 chunks (2 * 2^15 + 4465 samples)
MC_SEED, MC_SAMPLES = 2026, 70_001


def _value(quantity, method, scheme, cfg):
    """sweep.evaluate's (value, MC standard error or None) at cfg alone, or
    None where the method does not apply."""
    results = evaluate(quantity, method, scheme, [cfg], samples=MC_SAMPLES, seed=MC_SEED)
    return None if results is None else results[0]


@pytest.mark.parametrize("method", EXACT)
@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("room", ROOMS, ids=ROOM_IDS)
def test_energy_scales_with_the_transmit_power(room, scheme, method):
    """The linear-model energy at 2^k P_t is 2^k times its 1 W value."""
    base = default_config(1.0).with_params(d_x=room[0], d_y=room[1], height=room[2])
    one_watt, _ = _value("energy", method, scheme, base)
    for k in (-60, -40, -20, -8, 8, 20):
        scaled, _ = _value("energy", method, scheme, base.with_params(transmit_power_w=2.0**k))
        assert scaled == 2.0**k * one_watt, k


@pytest.mark.parametrize("method", EXACT)
@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("room", ROOMS, ids=ROOM_IDS)
def test_rate_is_unchanged_by_scaling_the_room_and_the_noise(room, scheme, method):
    """Every length times 2^k and the noise times 4^-k leave mu gamma / L,
    and so the rate, as they are."""
    base = default_config(0.3).with_params(d_x=room[0], d_y=room[1], height=room[2])
    rate = _value("rate", method, scheme, base)
    for k in (-30, -5, 5, 30):
        scaled = base.with_params(d_x=room[0] * 2.0**k, d_y=room[1] * 2.0**k,
                                  height=room[2] * 2.0**k,
                                  noise_power_w=base.system.noise_power_w * 4.0**-k)
        assert _value("rate", method, scheme, scaled) == rate, k


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("room", ROOMS, ids=ROOM_IDS)
def test_mc_energy_scales_with_the_transmit_power(room, scheme):
    """The `mc` linear energy at 2^k P_t has 2^k times the 1 W mean and
    standard error: every sample c / l, its square and the sums scale
    exactly, and so does the square root of a variance scaled by 4^k."""
    base = default_config(1.0).with_params(d_x=room[0], d_y=room[1], height=room[2])
    mean, std_error = _value("energy", "mc", scheme, base)
    for k in (-60, -40, -20, -8, 8, 20):
        scaled = _value("energy", "mc", scheme, base.with_params(transmit_power_w=2.0**k))
        assert scaled == (2.0**k * mean, 2.0**k * std_error), k


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("room", ROOMS, ids=ROOM_IDS)
def test_mc_rate_is_unchanged_by_scaling_the_room_and_the_noise(room, scheme):
    """Every length times 2^k and the noise times 4^-k: each UE draw scales
    by 2^k and each L by 4^k, so every mu gamma / L, and the `mc` rate,
    keeps its bits."""
    base = default_config(0.3).with_params(d_x=room[0], d_y=room[1], height=room[2])
    rate = _value("rate", "mc", scheme, base)
    for k in (-30, -5, 5, 30):
        scaled = base.with_params(d_x=room[0] * 2.0**k, d_y=room[1] * 2.0**k,
                                  height=room[2] * 2.0**k,
                                  noise_power_w=base.system.noise_power_w * 4.0**-k)
        assert _value("rate", "mc", scheme, scaled) == rate, k


def _every_value(scheme, cfg, methods=METHODS[:3]):
    """float.hex of the value, and of mc's standard error, of each of methods
    that applies at cfg: the linear-model energy (closed, quadrature), the
    logistic energy (Jensen bound, quadrature) and the rate (closed,
    quadrature); mc gives all three."""
    values = {}
    for tag, quantity in (("lm", "energy"), ("nlm", "energy"), ("rate", "rate")):
        own = cfg if tag == "rate" else cfg.with_params(harvest=DEFAULT_HARVEST[tag])
        for method in methods:
            result = _value(quantity, method, scheme, own)
            if result is not None:
                values[f"{tag} {method}"] = tuple(v.hex() for v in result if v is not None)
    return values


# Pairs of (scheme, room) with one offset law: the same span S and shape
# (c0, c1), so every value must have the same bits.  EDS in d_y and CDS in
# 2 d_y both span d_y (halving is exact); the diagonal half-width d_x d_y /
# hypot(d_x, d_y) is symmetric in d_x and d_y.
SAME_LAW = {
    "eds-dy-is-cds-2dy": lambda g: ((Scheme.EDS, g), (Scheme.CDS, {**g, "d_y": 2.0 * g["d_y"]})),
    "dds-swaps-dx-dy": lambda g: ((Scheme.DDS, g), (Scheme.DDS, {**g, "d_x": g["d_y"],
                                                                  "d_y": g["d_x"]})),
}
LAW_ROOMS = [(15.0, 10.0, 3.0), (8.0, 8.0, 3.0), (3.0, 40.0, 0.5), (1e3, 2.0, 7.0)]
LAW_ROOM_IDS = ["x".join(f"{v:g}" for v in room) for room in LAW_ROOMS]
# far below the turn-on to saturated; each room adds its own knee and saturated powers
LAW_POWERS = (1e-20, 1e-16, 1e-12, 1e-8, 1e-5, 1e-4, 0.3, 5.0)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("room", LAW_ROOMS, ids=LAW_ROOM_IDS)
def test_each_regime_power_is_in_its_regime(room, scheme):
    """oracles.regime of each oracles.regime_power is its own name (regime_power
    asserts it), and the powers rise in the order of REGIMES."""
    cfg = default_config(1.0, "nlm").with_params(**dict(zip(("d_x", "d_y", "height"), room)))
    powers = [regime_power(cfg, scheme, name) for name in REGIMES]
    assert powers == sorted(set(powers))


@pytest.mark.parametrize("relation", list(SAME_LAW))
@pytest.mark.parametrize("room", LAW_ROOMS, ids=LAW_ROOM_IDS)
def test_one_offset_law_gives_one_value(room, relation):
    """Every method depends on the scheme and the room only through the
    offset law, so two pairs with one law agree bit for bit."""
    room = dict(zip(("d_x", "d_y", "height"), room))
    (scheme, geom), (twin, twin_geom) = SAME_LAW[relation](room)
    nlm = default_config(1.0, "nlm").with_params(**geom)
    for pt in (*LAW_POWERS, *(regime_power(nlm, scheme, name) for name in ("knee", "saturated"))):
        cfg = default_config(pt)
        assert _every_value(scheme, cfg.with_params(**geom)) == \
            _every_value(twin, cfg.with_params(**twin_geom)), pt


# each link property of SystemParams, and the quantities whose methods read it
LINK = {"received_power_w_m2": ("lm", "nlm"), "link_snr_m2": ("rate",)}


@pytest.mark.parametrize("power", ["knee", "saturated"])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_every_formula_reads_the_link_properties(scheme, power, monkeypatch):
    """A link property whose getter doubles is P_t doubled for every method
    that reads it: each value at P_t then equals its value at 2 P_t, bit for
    bit.  A formula that reads P_t, mu or gamma past the property misses the
    doubling.  Where every logistic sample is saturated such a read hides in
    the logistic energy, so the scheme's knee power (oracles.regime_power)
    runs too."""
    pt = regime_power(default_config(1.0, "nlm"), scheme, power)
    cfg = default_config(pt)
    doubled = _every_value(scheme, cfg.with_params(transmit_power_w=2.0 * pt), METHODS)
    for name, tags in LINK.items():
        getter = getattr(SystemParams, name).fget
        with monkeypatch.context() as patch:
            patch.setattr(SystemParams, name, property(lambda s, get=getter: 2.0 * get(s)))
            values = _every_value(scheme, cfg, METHODS)
        for method, value in values.items():
            if method.split()[0] in tags:
                assert value == doubled[method], (name, method)


@pytest.mark.xfail(reason="the energy has no free-space factor (c / (4 pi f_c))^2 yet "
                   "(ROADMAP.md item 1): it does not move with f_c")
def test_doubling_the_carrier_frequency_quarters_the_energy():
    base = default_config(0.3)
    doubled = base.with_params(carrier_frequency_hz=2.0 * base.system.carrier_frequency_hz)
    for method in EXACT:
        for scheme in Scheme:
            assert _value("energy", method, scheme, doubled)[0] == \
                _value("energy", method, scheme, base)[0] / 4.0, (method, scheme)


# 0, or at least 1e-100: the energy, and every product on the way to it,
# stays a normal float, whose digits a relative tolerance can ask for
_FACTOR = st.one_of(st.just(0.0), st.floats(1e-100, 1.0))


# the accepted range, drawn per field into SystemParams, ProtocolParams and
# RegionGeometry directly
_ROOMS = dict(pt=log_uniform(-30, 1), d_x=log_uniform(-3, 4), d_y=log_uniform(-3, 4),
              h=log_uniform(-3, 3), noise_dbm=st.floats(-190, -60), alpha=_FACTOR, beta=_FACTOR)


def _setup(pt, d_x, d_y, h, noise_dbm, alpha, beta):
    cfg = default_config(pt)
    return Config(SystemParams(cfg.system.carrier_frequency_hz, dbm_to_watts(noise_dbm), pt),
                  ProtocolParams(alpha, beta), RegionGeometry(d_x, d_y, h), cfg.harvest)


@settings(max_examples=40, deadline=None)
@given(**_ROOMS)
@example(pt=1e-12, d_x=1e4, d_y=1e4, h=3.0, noise_dbm=-90.0, alpha=0.8, beta=0.8)  # 3e-17 W and up
def test_energy_quadrature_matches_its_closed_form_over_the_accepted_range(**room):
    cfg = _setup(**room)
    for scheme in Scheme:
        (closed, _), (quad, _) = (_value("energy", method, scheme, cfg) for method in EXACT)
        assert abs(quad - closed) <= 1e-9 * closed, scheme


# item 13's bitwise relations over the same range (ROADMAP.md)
@settings(max_examples=40, deadline=None)
@given(**_ROOMS)
def test_energy_scales_with_the_transmit_power_over_the_accepted_range(**room):
    cfg = _setup(**room)
    for scheme in Scheme:
        for method in EXACT:
            value, _ = _value("energy", method, scheme, cfg)
            for k in (-60, -40, -20, -8, 8, 20):
                scaled = cfg.with_params(transmit_power_w=cfg.system.transmit_power_w * 2.0**k)
                assert _value("energy", method, scheme, scaled)[0] == 2.0**k * value, \
                    (scheme, method, k)


# libm's pow, under x**2, misrounds about 0.08% of squares (glibc 2.36: 1 ulp
# above x * x at this h, but not at h / 32), so a height squared with ** does
# not always scale by exactly 4^k with the room; the package squares with *
_H = 7.149689054770527


@pytest.mark.parametrize("method", EXACT)
@settings(max_examples=40, deadline=None)
@given(**_ROOMS)
@example(pt=1.0, d_x=1.0, d_y=1.0, h=_H, noise_dbm=-60.0, alpha=0.0, beta=0.0)
def test_rate_is_unchanged_by_scaling_the_room_and_the_noise_over_the_accepted_range(
        method, **room):
    cfg = _setup(**room)
    s, g = cfg.system, cfg.geometry
    for scheme in Scheme:
        value = _value("rate", method, scheme, cfg)
        for k in (-30, -5, 5, 30):
            scaled = cfg.with_params(noise_power_w=s.noise_power_w * 4.0**-k, d_x=g.d_x * 2.0**k,
                                     d_y=g.d_y * 2.0**k, height=g.height * 2.0**k)
            assert _value("rate", method, scheme, scaled) == value, (scheme, k)
