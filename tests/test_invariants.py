"""Relations that follow from the link model alone (metamorphic tests).

Closed form, quadrature and Monte Carlo share the link model, so their
agreement cannot see a defect in it.  Each relation here compares a
method with itself at a transformed input.  Scaling by a power of two is
exact in IEEE arithmetic away from overflow and underflow, so those
relations hold bit for bit.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from paswipt.config import (ProtocolParams, RegionGeometry, SystemParams, dbm_to_watts,
                            default_config)
from paswipt.energy import avg_energy_lm_closed, avg_energy_quadrature
from paswipt.geometry import Scheme
from paswipt.rate import avg_rate_closed, avg_rate_quadrature

ROOMS = [(15.0, 10.0, 3.0), (8.0, 8.0, 3.0), (1e4, 1e4, 3.0), (0.5, 2.0, 10.0)]  # d_x, d_y, h
ROOM_IDS = ["x".join(f"{v:g}" for v in room) for room in ROOMS]
ENERGY = {"closed": avg_energy_lm_closed, "quadrature": avg_energy_quadrature}
RATE = {"closed": avg_rate_closed, "quadrature": avg_rate_quadrature}


def _energy(method, scheme, cfg):
    return ENERGY[method](scheme, cfg.system, cfg.protocol, cfg.geometry, cfg.harvest)


def _rate(method, scheme, cfg):
    return RATE[method](scheme, cfg.system, cfg.protocol, cfg.geometry).value_bits_s_hz


@pytest.mark.parametrize("method", list(ENERGY))
@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("room", ROOMS, ids=ROOM_IDS)
def test_energy_scales_with_the_transmit_power(room, scheme, method):
    """The linear-model energy at 2^k P_t is 2^k times its 1 W value."""
    base = default_config(1.0).with_params(d_x=room[0], d_y=room[1], height=room[2])
    one_watt = _energy(method, scheme, base)
    for k in (-60, -40, -20, -8, 8, 20):
        scaled = _energy(method, scheme, base.with_params(transmit_power_w=2.0**k))
        assert scaled == 2.0**k * one_watt, k


@pytest.mark.parametrize("method", list(RATE))
@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("room", ROOMS, ids=ROOM_IDS)
def test_rate_is_unchanged_by_scaling_the_room_and_the_noise(room, scheme, method):
    """Every length times 2^k and the noise times 4^-k leave mu gamma / L,
    and so the rate, as they are."""
    base = default_config(0.3).with_params(d_x=room[0], d_y=room[1], height=room[2])
    rate = _rate(method, scheme, base)
    for k in (-30, -5, 5, 30):
        scaled = base.with_params(d_x=room[0] * 2.0**k, d_y=room[1] * 2.0**k,
                                  height=room[2] * 2.0**k,
                                  noise_power_w=base.system.noise_power_w * 4.0**-k)
        assert _rate(method, scheme, scaled) == rate, k


@pytest.mark.xfail(reason="the energy has no free-space factor (c / (4 pi f_c))^2 yet "
                   "(ROADMAP.md item 1): it does not move with f_c")
def test_doubling_the_carrier_frequency_quarters_the_energy():
    base = default_config(0.3)
    doubled = base.with_params(carrier_frequency_hz=2.0 * base.system.carrier_frequency_hz)
    for method in ENERGY:
        for scheme in Scheme:
            assert _energy(method, scheme, doubled) == _energy(method, scheme, base) / 4.0, \
                (method, scheme)


def _exponent(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# 0, or at least 1e-100: the energy, and every product on the way to it,
# stays a normal float, whose digits a relative tolerance can ask for
_FACTOR = st.one_of(st.just(0.0), st.floats(1e-100, 1.0))


@settings(max_examples=40, deadline=None)
@given(pt=_exponent(-30, 1), d_x=_exponent(-3, 4), d_y=_exponent(-3, 4), h=_exponent(-3, 3),
       noise_dbm=st.floats(-190, -60), alpha=_FACTOR, beta=_FACTOR)
@example(pt=1e-12, d_x=1e4, d_y=1e4, h=3.0, noise_dbm=-90.0, alpha=0.8, beta=0.8)  # 3e-17 W and up
def test_energy_quadrature_matches_its_closed_form_over_the_accepted_range(
        pt, d_x, d_y, h, noise_dbm, alpha, beta):
    cfg = default_config(pt)
    s = SystemParams(cfg.system.carrier_frequency_hz, dbm_to_watts(noise_dbm), pt)
    p = ProtocolParams(alpha, beta)
    g = RegionGeometry(d_x, d_y, h)
    for scheme in Scheme:
        closed = avg_energy_lm_closed(scheme, s, p, g, cfg.harvest)
        quad = avg_energy_quadrature(scheme, s, p, g, cfg.harvest)
        assert abs(quad - closed) <= 1e-9 * closed, scheme
