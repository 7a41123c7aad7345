import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paswipt.config import (ProtocolParams, RegionGeometry, SystemParams, dbm_to_watts,
                            default_config)
from paswipt.geometry import Scheme
from paswipt.rate import _log_integral, _log_moment, avg_rate_closed, avg_rate_quadrature

from oracles import log_uniform, offset_mean_mpmath, snr


def _random_setup(rng):
    g = RegionGeometry(d_x=rng.uniform(4, 20), d_y=rng.uniform(4, 20), height=rng.uniform(1, 5))
    s = SystemParams(28e9, 1e-12, rng.uniform(0.01, 1.0))
    p = ProtocolParams(rng.uniform(0, 1), rng.uniform(0, 1))
    return s, p, g


class TestSnr:  # oracles.snr against SystemParams.link_snr_m2, the one such check
    def test_unit_point(self, lm_config):
        s = lm_config.system
        assert snr(s, s.link_snr_m2) == pytest.approx(1.0, rel=1e-14)

    def test_noise_scaling(self):
        a = SystemParams(28e9, 1e-12, 0.3)
        b = SystemParams(28e9, 2e-12, 0.3)
        assert snr(a, 9.0) / snr(b, 9.0) == pytest.approx(2.0, rel=1e-14)

    def test_default_magnitude(self, lm_config):
        s = lm_config.system
        assert s.link_snr_m2 == pytest.approx(2.178e5, rel=1e-3)
        assert snr(s, 9.0) == pytest.approx(s.link_snr_m2 / 9.0, rel=1e-14)


class TestEdgeCenterClosedForm:
    def test_zero_snr_bracket_cancels(self):
        assert _log_integral(0.0, 3.0, 10.0) == pytest.approx(0.0, abs=1e-12)

    def test_default_edge_value(self, lm_config):
        s, p, g = lm_config.system, lm_config.protocol, lm_config.geometry
        val = avg_rate_closed(Scheme.EDS, s, p, g).value_bits_s_hz
        # frozen from the quadrature oracle at the default setup
        assert val == pytest.approx(4.587339420276814, rel=1e-12)

    def test_center_at_least_edge(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            s, p, g = _random_setup(rng)
            eds = avg_rate_closed(Scheme.EDS, s, p, g).value_bits_s_hz
            cds = avg_rate_closed(Scheme.CDS, s, p, g).value_bits_s_hz
            assert cds >= eds - 1e-12

    def test_integral_identity_vs_quadrature(self):
        from scipy import integrate

        # bracketed integration-by-parts value against direct quadrature
        rng = np.random.default_rng(21)
        for _ in range(100):
            h = rng.uniform(1, 5)
            span = rng.uniform(2, 20)
            mu_gamma = rng.uniform(1e2, 1e6)
            direct, _ = integrate.quad(
                lambda t: math.log1p(mu_gamma / (h * h + t * t)), 0.0, span,
                epsabs=1e-13, epsrel=1e-12, limit=200,
            )
            assert _log_integral(mu_gamma, h, span) == pytest.approx(direct / span, rel=1e-9)


class TestDiagonalClosedForm:
    def test_zero_snr(self):
        assert _log_moment(0.0, 3.0, 5.0) == pytest.approx(0.0, abs=1e-12)

    def test_all_resources_to_harvesting(self, lm_config):
        s, g = lm_config.system, lm_config.geometry
        val = avg_rate_closed(Scheme.DDS, s, ProtocolParams(1.0, 1.0), g).value_bits_s_hz
        assert val == 0.0

    def test_i2_identity(self):
        from scipy import integrate

        # the paper's I2 = int over [h^2, h^2 + lam^2] of ln(1 + mu gamma / l) dl,
        # here over t with l = h^2 + t^2, is 2 lam^2 * _log_moment; mu gamma down
        # to 1e-20 and lam down to 1e-8 m reach the regimes where split logs cancel
        rng = np.random.default_rng(34)
        draws = [(rng.uniform(1, 5), rng.uniform(2, 14), rng.uniform(1e2, 1e6))
                 for _ in range(100)]
        draws += [(rng.uniform(1, 5), 10 ** rng.uniform(-8, 1), 10 ** rng.uniform(-20, 6))
                  for _ in range(60)]
        for h, lam, mu_gamma in draws:
            # divided by mu gamma, so that quad's absolute floor stays far below it
            direct, _ = integrate.quad(
                lambda t: 2.0 * t * math.log1p(mu_gamma / (h * h + t * t)) / mu_gamma, 0.0, lam,
                epsabs=1e-300, epsrel=1e-12, limit=200,
            )
            got = 2.0 * lam * lam * _log_moment(mu_gamma, h, lam) / mu_gamma
            assert got == pytest.approx(direct, rel=1e-9, abs=0.0)


class TestQuadratureOracle:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_monotone_nonincreasing_in_height(self, scheme):
        s = SystemParams(28e9, 1e-12, 0.3)
        p = ProtocolParams(0.8, 0.8)
        prev = math.inf
        for h in np.linspace(1.0, 6.0, 12):
            g = RegionGeometry(d_x=15.0, d_y=10.0, height=h)
            val = avg_rate_quadrature(scheme, s, p, g).value_bits_s_hz
            assert val <= prev + 1e-12
            prev = val


    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("room", [(15, 10, 3), (20, 4, 1), (4, 20, 5), (8, 8, 0.5)])
    @pytest.mark.parametrize("noise_dbm", [-90, -120, -150, -170, -190])
    def test_closed_form_holds_precision_at_large_snr(self, scheme, room, noise_dbm):
        # mu * snr runs from ~1e5 to ~1e15 m^2 over these noise levels at 1 W;
        # the quadrature oracle agrees with a 40-digit reference to ~5e-16 here.
        s = SystemParams(28e9, dbm_to_watts(noise_dbm), 1.0)
        p = ProtocolParams(0.8, 0.8)
        g = RegionGeometry(*map(float, room))
        closed = avg_rate_closed(scheme, s, p, g).value_bits_s_hz
        quad = avg_rate_quadrature(scheme, s, p, g).value_bits_s_hz
        assert abs(closed - quad) <= 1e-12 * quad


class TestProtocolPrefactor:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_prefactor_identity(self, scheme):
        s = SystemParams(28e9, 1e-12, 0.3)
        g = RegionGeometry(d_x=15.0, d_y=10.0, height=3.0)
        r_mid = avg_rate_closed(scheme, s, ProtocolParams(0.5, 0.5), g).value_bits_s_hz
        r_hi = avg_rate_closed(scheme, s, ProtocolParams(0.8, 0.8), g).value_bits_s_hz
        assert r_mid / r_hi == pytest.approx((1 - 0.25) / (1 - 0.64), rel=1e-12)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_monotone_in_power(self, scheme):
        g = RegionGeometry(d_x=15.0, d_y=10.0, height=3.0)
        p = ProtocolParams(0.8, 0.8)
        prev = -1.0
        for pt in np.logspace(-2, 0, 20):
            s = SystemParams(28e9, 1e-12, pt)
            val = avg_rate_closed(scheme, s, p, g).value_bits_s_hz
            assert val > prev
            prev = val


def _rate_cuts(h, span):
    """0, h, 8h, 64h, ... below span, and span: over one [h, 500 h] piece
    tanh-sinh returned a value 1.2e-7 off with an error estimate of 1e-42."""
    points, cut = [0 * h], h
    while cut < span:
        points.append(cut)
        cut *= 8
    return points + [span]


def _rate_mpmath(scheme, system, protocol, geom):
    """(1 - alpha beta) E[log2(1 + snr(L))] as a 40-digit mpmath integral
    over the offset t (oracles.offset_mean_mpmath), with oracles.snr's
    float mu gamma and the float share 1 - alpha beta as the package
    rounds it."""
    mpmath = pytest.importorskip("mpmath")
    mean = offset_mean_mpmath(scheme, geom, lambda l: mpmath.log1p(snr(system, l)), _rate_cuts)
    with mpmath.workdps(40):
        return float((1.0 - protocol.alpha * protocol.beta) * mean / mpmath.log(2))


LOW_SNR_POWERS_W = [1e-12, 1e-15, 1e-20]  # mu gamma / h^2 from 8e-8 down to 8e-16


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("pt", LOW_SNR_POWERS_W)
def test_quadrature_holds_precision_at_low_snr(scheme, pt):
    cfg = default_config(pt)
    ref = _rate_mpmath(scheme, cfg.system, cfg.protocol, cfg.geometry)
    quad = avg_rate_quadrature(scheme, cfg.system, cfg.protocol, cfg.geometry).value_bits_s_hz
    assert abs(quad - ref) <= 1e-13 * ref


@pytest.mark.parametrize("scheme", list(Scheme))
def test_closed_form_holds_precision_at_low_snr(scheme):
    cfg = default_config(1e-20)
    ref = _rate_mpmath(scheme, cfg.system, cfg.protocol, cfg.geometry)
    closed = avg_rate_closed(scheme, cfg.system, cfg.protocol, cfg.geometry).value_bits_s_hz
    assert abs(closed - ref) <= 1e-12 * ref


@settings(max_examples=40, deadline=None)
@given(pt=log_uniform(-30, 1), d_x=log_uniform(-3, 4), d_y=log_uniform(-3, 4),
       h=log_uniform(-3, 3), noise_dbm=st.floats(-190, -60), alpha=st.floats(0, 1),
       beta=st.floats(0, 1))
def test_closed_form_holds_precision_over_the_accepted_range(pt, d_x, d_y, h, noise_dbm,
                                                             alpha, beta):
    s = SystemParams(28e9, dbm_to_watts(noise_dbm), pt)
    p = ProtocolParams(alpha, beta)
    g = RegionGeometry(d_x, d_y, h)
    for scheme in Scheme:
        ref = _rate_mpmath(scheme, s, p, g)
        closed = avg_rate_closed(scheme, s, p, g).value_bits_s_hz
        assert abs(closed - ref) <= 4e-15 * ref, scheme


@pytest.mark.parametrize("scheme, d_y, pt, want", [
    # a 1e-150 x 1 x 3 m room: the diagonal span lam ~ 1e-150 m is far below h;
    # every digit was lost at 0.3 W (9.9657780015515431), and mu gamma lam^2
    # underflowed to 0 at 1e-30 W
    pytest.param(Scheme.DDS, 1.0, 0.3, 5.2425633770235613, id="0.3-5.242563377023561"),
    pytest.param(Scheme.DDS, 1.0, 1e-30, 4.1892873024027504e-26,
                 id="1e-30-4.1892873024027504e-26"),
    # a 1e-150 x 1e-150 x 3 m room, every span ~1e-150 m: span mu gamma underflowed to 0
    *[pytest.param(scheme, 1e-150, pt, want, id=f"{scheme.value}-{pt}") for scheme in Scheme
      for pt, want in [(1e-200, 4.1892873024027494e-196), (1e-250, 4.18928730240275e-246),
                       (1e-300, 4.189287302402751e-296)]],
])
def test_narrow_diagonal_room_keeps_its_digits(scheme, d_y, pt, want):
    # want is the 40-digit mpmath rate, rounded
    cfg = default_config(pt)
    g = RegionGeometry(1e-150, d_y, 3.0)
    closed = avg_rate_closed(scheme, cfg.system, cfg.protocol, g).value_bits_s_hz
    quad = avg_rate_quadrature(scheme, cfg.system, cfg.protocol, g).value_bits_s_hz
    assert abs(closed - want) <= 4e-16 * want
    assert abs(quad - want) <= 4e-16 * want
