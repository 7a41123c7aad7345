import numpy as np
import pytest

from paswipt.config import (
    DEFAULT_HARVEST,
    LinearHarvest,
    ProtocolParams,
    RegionGeometry,
)
from paswipt.energy import (
    avg_energy_lm_closed,
    avg_energy_nlm_bound,
    avg_energy_quadrature,
    harvest_power,
    logistic_harvest_power,
    mean_inverse_squared_distance,
)
from paswipt.geometry import Scheme

NLM = DEFAULT_HARVEST["nlm"]


class TestLogisticTransfer:
    def test_zero_input_gives_exactly_zero(self):
        assert logistic_harvest_power(NLM, 0.0) == 0.0

    def test_midpoint(self):
        # at the turn-on power the logistic sits at 1/2
        val = logistic_harvest_power(NLM, NLM.turn_on_w)
        omega = NLM.zero_input_offset
        expected = NLM.saturation_w * (0.5 - omega) / (1.0 - omega)
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(10e-3, rel=1e-9)

    def test_saturation(self):
        assert logistic_harvest_power(NLM, 1.0) == pytest.approx(20e-3, rel=1e-12)

    def test_monotone_nondecreasing(self):
        p = np.logspace(-8, 0, 200)
        vals = logistic_harvest_power(NLM, p)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(vals <= NLM.saturation_w + 1e-18)

    def test_linear_model_dispatch(self):
        assert harvest_power(LinearHarvest(eta=0.5), 0.01) == pytest.approx(0.005)


class TestClosedFormsLM:
    def test_edge_scheme_default_value(self, lm_config):
        s, p, g = lm_config.system, lm_config.protocol, lm_config.geometry
        val = avg_energy_lm_closed(Scheme.EDS, s, p, g, lm_config.harvest)
        # pinned against the 1e6-sample Monte-Carlo oracle (see
        # test_montecarlo) and the direct formula evaluation
        assert val == pytest.approx(
            0.8 * 0.8 * 1.0 * 0.3 / (3.0 * 10.0) * np.arctan(10.0 / 3.0), rel=1e-14
        )
        assert val == pytest.approx(8.1878e-3, rel=1e-4)

    def test_zero_harvesting_time(self, lm_config):
        s, g = lm_config.system, lm_config.geometry
        p0 = ProtocolParams(alpha=0.0, beta=0.8)
        for scheme in Scheme:
            assert avg_energy_lm_closed(scheme, s, p0, g, lm_config.harvest) == 0.0

    def test_center_at_least_edge(self, lm_config):
        s, p = lm_config.system, lm_config.protocol
        for d_y in (4.0, 8.0, 12.0, 20.0):
            for h in (1.0, 3.0, 5.0):
                g = RegionGeometry(d_x=15.0, d_y=d_y, height=h)
                eds = avg_energy_lm_closed(Scheme.EDS, s, p, g, lm_config.harvest)
                cds = avg_energy_lm_closed(Scheme.CDS, s, p, g, lm_config.harvest)
                assert cds >= eds

    def test_linearity_in_each_factor(self, lm_config):
        s, p, g = lm_config.system, lm_config.protocol, lm_config.geometry

        def value(alpha, beta, eta, pt):
            from paswipt.config import SystemParams

            sys2 = SystemParams(s.carrier_frequency_hz, s.noise_power_w, pt)
            return avg_energy_lm_closed(
                Scheme.DDS, sys2, ProtocolParams(alpha, beta), g, LinearHarvest(eta)
            )

        base = value(0.4, 0.5, 0.6, 0.2)
        assert value(0.8, 0.5, 0.6, 0.2) == pytest.approx(2 * base, rel=1e-14)
        assert value(0.4, 1.0, 0.6, 0.2) == pytest.approx(2 * base, rel=1e-14)
        assert value(0.4, 0.5, 0.3, 0.2) == pytest.approx(base / 2, rel=1e-14)
        assert value(0.4, 0.5, 0.6, 0.4) == pytest.approx(2 * base, rel=1e-14)


class TestQuadratureOracle:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_matches_lm_closed_forms_random_draws(self, scheme):
        rng = np.random.default_rng(5150)
        from paswipt.config import SystemParams

        for _ in range(100):
            g = RegionGeometry(
                d_x=rng.uniform(4, 20), d_y=rng.uniform(4, 20), height=rng.uniform(1, 5)
            )
            s = SystemParams(28e9, 1e-12, rng.uniform(0.01, 1.0))
            p = ProtocolParams(rng.uniform(0, 1), rng.uniform(0, 1))
            lm = LinearHarvest(eta=rng.uniform(0.1, 1.0))
            closed = avg_energy_lm_closed(scheme, s, p, g, lm)
            quad = avg_energy_quadrature(scheme, s, p, g, lm)
            assert quad == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_nlm_default_regression(self, scheme, nlm_config):
        s, p, g = nlm_config.system, nlm_config.protocol, nlm_config.geometry
        val = avg_energy_quadrature(scheme, s, p, g, nlm_config.harvest)
        # frozen from the quadrature itself: at 0.3 W the harvester is
        # fully saturated over the whole room, so the average equals
        # alpha * saturation
        assert val == pytest.approx(0.016, rel=1e-9)


class TestJensenBound:
    def test_zero_incident_power(self, nlm_config):
        s, g = nlm_config.system, nlm_config.geometry
        p0 = ProtocolParams(alpha=0.8, beta=0.0)
        for scheme in Scheme:
            assert avg_energy_nlm_bound(scheme, s, p0, g, nlm_config.harvest) == 0.0

    def test_never_exceeds_ceiling(self, nlm_config):
        s, p, g = nlm_config.system, nlm_config.protocol, nlm_config.geometry
        for scheme in Scheme:
            bound = avg_energy_nlm_bound(scheme, s, p, g, nlm_config.harvest)
            assert bound <= p.alpha * nlm_config.harvest.saturation_w + 1e-18

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_bound_dominates_quadrature_random_draws(self, scheme):
        rng = np.random.default_rng(606)
        from paswipt.config import SystemParams

        for _ in range(100):
            g = RegionGeometry(
                d_x=rng.uniform(4, 20), d_y=rng.uniform(4, 20), height=rng.uniform(1, 5)
            )
            s = SystemParams(28e9, 1e-12, rng.uniform(1e-4, 1.0))
            p = ProtocolParams(rng.uniform(0, 1), rng.uniform(0, 1))
            bound = avg_energy_nlm_bound(scheme, s, p, g, NLM)
            quad = avg_energy_quadrature(scheme, s, p, g, NLM)
            assert bound - quad >= -1e-12


class TestSaturationBehavior:
    def test_nondecreasing_in_power_and_saturates(self, nlm_config):
        s0, p, g = nlm_config.system, nlm_config.protocol, nlm_config.geometry
        from paswipt.config import SystemParams

        prev = -1.0
        for pt in np.logspace(-3, 1, 30):
            s = SystemParams(s0.carrier_frequency_hz, s0.noise_power_w, pt)
            val = avg_energy_quadrature(Scheme.EDS, s, p, g, nlm_config.harvest)
            assert val >= prev - 1e-15
            assert val <= p.alpha * nlm_config.harvest.saturation_w + 1e-15
            prev = val
        s10 = SystemParams(s0.carrier_frequency_hz, s0.noise_power_w, 10.0)
        top = avg_energy_quadrature(Scheme.EDS, s10, p, g, nlm_config.harvest)
        assert top > 0.99 * p.alpha * nlm_config.harvest.saturation_w


def test_mean_inverse_distance_kernels():
    g = RegionGeometry(d_x=8.0, d_y=8.0, height=3.0)
    assert mean_inverse_squared_distance(Scheme.EDS, g) == pytest.approx(
        np.arctan(8.0 / 3.0) / 24.0, rel=1e-14
    )
    lam = g.diagonal_half_width
    expected = 2.0 / (lam * 3.0) * np.arctan(lam / 3.0) - np.log1p(lam**2 / 9.0) / lam**2
    assert mean_inverse_squared_distance(Scheme.DDS, g) == pytest.approx(expected, rel=1e-14)
