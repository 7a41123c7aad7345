import math

import numpy as np
import pytest
from scipy import integrate

from paswipt.config import ProtocolParams, RegionGeometry, SystemParams, dbm_to_watts
from paswipt.geometry import Scheme
from paswipt.rate import (
    _diagonal_i1,
    _diagonal_i2,
    _edge_center_integral,
    avg_rate_closed,
    avg_rate_quadrature,
)

from oracles import snr


def _random_setup(rng):
    g = RegionGeometry(d_x=rng.uniform(4, 20), d_y=rng.uniform(4, 20), height=rng.uniform(1, 5))
    s = SystemParams(28e9, 1e-12, rng.uniform(0.01, 1.0))
    p = ProtocolParams(rng.uniform(0, 1), rng.uniform(0, 1))
    return s, p, g


class TestSnr:
    def test_unit_point(self, lm_config):
        s = lm_config.system
        mu_gamma = s.path_loss_factor_m2 * s.transmit_snr
        assert snr(s, mu_gamma) == pytest.approx(1.0, rel=1e-14)

    def test_noise_scaling(self):
        a = SystemParams(28e9, 1e-12, 0.3)
        b = SystemParams(28e9, 2e-12, 0.3)
        assert snr(a, 9.0) / snr(b, 9.0) == pytest.approx(2.0, rel=1e-14)

    def test_default_magnitude(self, lm_config):
        s = lm_config.system
        mu_gamma = s.path_loss_factor_m2 * s.transmit_snr
        assert mu_gamma == pytest.approx(2.178e5, rel=1e-3)
        assert snr(s, 9.0) == pytest.approx(mu_gamma / 9.0, rel=1e-14)


class TestEdgeCenterClosedForm:
    def test_zero_snr_bracket_cancels(self):
        assert _edge_center_integral(0.0, 3.0, 10.0) == pytest.approx(0.0, abs=1e-12)

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
            assert _edge_center_integral(mu_gamma, h, span) == pytest.approx(direct, rel=1e-9)


class TestDiagonalClosedForm:
    def test_zero_snr(self):
        assert _diagonal_i1(0.0, 3.0, 5.0) == pytest.approx(0.0, abs=1e-12)
        assert _diagonal_i2(0.0, 3.0, 5.0) == pytest.approx(0.0, abs=1e-12)

    def test_all_resources_to_harvesting(self, lm_config):
        s, g = lm_config.system, lm_config.geometry
        val = avg_rate_closed(Scheme.DDS, s, ProtocolParams(1.0, 1.0), g).value_bits_s_hz
        assert val == 0.0

    def test_i1_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            h = rng.uniform(1, 5)
            lam = rng.uniform(2, 14)
            mu_gamma = rng.uniform(1e2, 1e6)
            direct, _ = integrate.quad(
                lambda t: 2.0 * math.log1p(mu_gamma / (h * h + t * t)), 0.0, lam,
                epsabs=1e-13, epsrel=1e-12, limit=200,
            )
            assert _diagonal_i1(mu_gamma, h, lam) == pytest.approx(direct, rel=1e-9)

    def test_i2_identity(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            h = rng.uniform(1, 5)
            lam = rng.uniform(2, 14)
            mu_gamma = rng.uniform(1e2, 1e6)
            direct, _ = integrate.quad(
                lambda l: math.log1p(mu_gamma / l), h * h, h * h + lam * lam,
                epsabs=1e-13, epsrel=1e-12, limit=200,
            )
            assert _diagonal_i2(mu_gamma, h, lam) == pytest.approx(direct, rel=1e-9)


class TestQuadratureOracle:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_matches_closed_form_random_draws(self, scheme):
        rng = np.random.default_rng(42)
        for _ in range(100):
            s, p, g = _random_setup(rng)
            closed = avg_rate_closed(scheme, s, p, g).value_bits_s_hz
            quad = avg_rate_quadrature(scheme, s, p, g).value_bits_s_hz
            assert quad == pytest.approx(closed, rel=1e-8)

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
