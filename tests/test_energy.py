import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paswipt.config import (
    DEFAULT_HARVEST,
    LinearHarvest,
    ProtocolParams,
    RegionGeometry,
    default_config,
)
from paswipt.distributions import SquaredDistanceDistribution
from paswipt.energy import (
    avg_energy_lm_closed,
    avg_energy_nlm_bound,
    avg_energy_quadrature,
    harvest_kernel,
    logistic_harvest_power,
    mean_inverse_squared_distance,
)
from paswipt.geometry import Scheme

from oracles import (assert_curve_bits, harvest_power, logistic_mpmath,
                     mean_inverse_squared_distance_varpi, offset_mean_mpmath)

NLM = DEFAULT_HARVEST["nlm"]


class TestLogisticTransfer:
    def test_zero_input_gives_exactly_zero(self):
        assert logistic_harvest_power(NLM, 0.0) == 0.0

    def test_midpoint(self):
        # at the turn-on power the logistic sits at 1/2
        val = logistic_harvest_power(NLM, NLM.turn_on_w)
        omega, _ = NLM.curve_constants
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


# float.hex of (quadrature, Jensen bound) for the logistic model in the
# default 15 x 10 m room: at 0.3 W every node is saturated, at 1e-4 W the
# incident power straddles the 2.9 uW turn-on, at 1e-5 W it stays below it.
# Recorded before the logistic curve gained its saturation shortcut; the
# 1e-5 W quadrature values again when expect's rule lost its absolute floor.
NLM_PINS = {
    (0.3, "eds"): ("0x1.0624dd2f1a9fcp-6", "0x1.0624dd2f1a9fcp-6"),
    (0.3, "cds"): ("0x1.0624dd2f1a9fcp-6", "0x1.0624dd2f1a9fcp-6"),
    (0.3, "dds"): ("0x1.0624dd2f1a9fbp-6", "0x1.0624dd2f1a9fcp-6"),
    (1e-4, "eds"): ("0x1.c41143afd0f07p-8", "0x1.0624dd2f1a9fcp-6"),
    (1e-4, "cds"): ("0x1.c41143afd0f07p-7", "0x1.0624dd2f1a9fcp-6"),
    (1e-4, "dds"): ("0x1.928e1592fb191p-7", "0x1.0624dd2f1a9fcp-6"),
    (1e-5, "eds"): ("0x1.b075266cbd278p-302", "0x1.d4484ea9027c8p-376"),
    (1e-5, "cds"): ("0x1.b075266cbd278p-301", "0x1.e9007402790bfp-346"),
    (1e-5, "dds"): ("0x1.fc5f3f06b67cdp-301", "0x1.d0ed9ee59ecadp-348"),
}


@pytest.mark.parametrize("case", sorted(NLM_PINS), ids=lambda c: f"{c[0]}-{c[1]}")
def test_nlm_quadrature_and_bound_digits(case):
    pt, scheme = case
    c = default_config(pt, model="nlm")
    args = (Scheme(scheme), c.system, c.protocol, c.geometry, c.harvest)
    assert (avg_energy_quadrature(*args).hex(), avg_energy_nlm_bound(*args).hex()) == NLM_PINS[case]


def _nlm_mpmath(scheme, cfg):
    """alpha E[Phi(beta P_t / L)] for the logistic curve Phi, to 40 digits
    (oracles.offset_mean_mpmath).  The cuts halve S toward t = 0, and one
    sits at the turn-on crossing, the t where beta P_t / L = b, where that
    lies within the span: in the 17 mm strip room below, mpmath was 8e-5
    off with the rate's cuts 0, h, 8h, ... and 2e-9 off without the
    crossing."""
    mpmath = pytest.importorskip("mpmath")
    c = cfg.protocol.beta * cfg.system.transmit_power_w

    def cuts(h, span):
        crossing2 = c / mpmath.mpf(cfg.harvest.turn_on_w) - h * h
        inner = [mpmath.sqrt(crossing2)] if 0 < crossing2 < span * span else []
        return sorted([0 * span] + [span / 2**k for k in range(30, -1, -1)] + inner)

    mean = offset_mean_mpmath(scheme, cfg.geometry,
                              lambda l: logistic_mpmath(cfg.harvest, c / l), cuts)
    with mpmath.workdps(40):
        return float(cfg.protocol.alpha * mean)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_below_turn_on_pins_match_mpmath(scheme):
    """NLM_PINS' 1e-5 W quadrature values, below the turn-on, within 1e-8
    of the 40-digit reference."""
    got = float.fromhex(NLM_PINS[1e-5, scheme.value][0])
    ref = _nlm_mpmath(scheme, default_config(1e-5, model="nlm"))
    assert abs(got - ref) <= 1e-8 * ref


@pytest.mark.parametrize("scheme", list(Scheme))
def test_quadrature_finds_the_strip_past_turn_on(scheme):
    """1e-9 W in a 15 x 400 x 0.001 m room: the harvester passes its
    turn-on only within 17 mm of the waveguide.  A rule that stopped on
    an absolute 1e-14 W missed that strip after 2 subintervals (EDS 3e-131
    W against 6.6e-7 W)."""
    cfg = default_config(1e-9, model="nlm").with_params(d_y=400.0, height=1e-3)
    args = (scheme, cfg.system, cfg.protocol, cfg.geometry, cfg.harvest)
    ref = _nlm_mpmath(scheme, cfg)
    assert abs(avg_energy_quadrature(*args) - ref) <= 1e-8 * ref


@pytest.mark.xfail(reason="harvest_kernel's scale (sigma(x) - Omega) cancels below the "
                   "turn-on, where x and -a b are both near -290; an exact form is "
                   "scale sigma(x) sigma(a b) (-expm1(-a c / l))")
def test_logistic_kernel_keeps_its_digits_below_turn_on():
    """The quadrature kernel over the default room's l in [9, 109] m^2,
    far below the 2.9 uW turn-on, within 1e-9 of the curve at 50 digits.
    Today it is 7.5e-6 off at 1e-14 W and 7.9e-2 off at 1e-18 W."""
    mpmath = pytest.importorskip("mpmath")
    for pt in (1e-14, 1e-18):
        cfg = default_config(pt, model="nlm")
        c = cfg.protocol.beta * pt
        kernel = harvest_kernel(NLM, c)
        for l in np.linspace(9.0, 109.0, 101).tolist():
            with mpmath.workdps(50):
                ref = logistic_mpmath(NLM, mpmath.mpf(c) / l)
                assert abs(kernel(l) - ref) <= 1e-9 * ref, (pt, l)


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

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_bound_side_follows_the_curvature(self, scheme, nlm_config):
        """The logistic curve is concave from its turn-on b on and convex
        below it.  With every UE's beta P_t / L at or past b the Jensen
        value is at least the average; with every one below b, at most."""
        model, beta = nlm_config.harvest, nlm_config.protocol.beta
        lo, hi = SquaredDistanceDistribution(scheme, nlm_config.geometry).support
        past_b = model.turn_on_w * hi / beta * (1.0 + 1e-9)  # the farthest UE at b
        below_b = (model.turn_on_w - 5.0 / model.slope_per_w) * lo / beta  # the nearest below b

        def bound_and_quadrature(pt_w):
            cfg = nlm_config.with_params(transmit_power_w=pt_w)
            args = (scheme, cfg.system, cfg.protocol, cfg.geometry, cfg.harvest)
            return avg_energy_nlm_bound(*args), avg_energy_quadrature(*args)

        bound, quad = bound_and_quadrature(past_b)
        assert bound >= quad
        bound, quad = bound_and_quadrature(below_b)
        assert bound <= quad and quad > 0.0


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("pt_w, side", [(0.3, 1e10), (1e-12, 1e4)])
def test_small_lm_energy_quadrature_matches_closed_form(pt_w, side, scheme):
    """Linear-model energy of order 1e-11 W and below: closed form against
    quadrature at 1e-7 relative.  Both calls return without an error."""
    cfg = default_config(pt_w).with_params(d_x=side, d_y=side)
    args = (scheme, cfg.system, cfg.protocol, cfg.geometry, cfg.harvest)
    closed = avg_energy_lm_closed(*args)
    assert avg_energy_quadrature(*args) == pytest.approx(closed, rel=1e-7, abs=0.0)


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


_NORMAL_SIDES = st.floats(min_value=1e-100, max_value=1e100, allow_subnormal=False)


@settings(max_examples=500, deadline=None)
@given(scheme=st.sampled_from([Scheme.EDS, Scheme.CDS]), d_x=_NORMAL_SIDES, d_y=_NORMAL_SIDES,
       height=_NORMAL_SIDES)
@example(scheme=Scheme.CDS, d_x=15.0, d_y=10.0, height=3.0)
@example(scheme=Scheme.CDS, d_x=1.0, d_y=3e-5, height=0.7)
def test_mean_inverse_distance_over_the_span_has_the_varpi_bits(scheme, d_x, d_y, height):
    """arctan(S / h) / (h S) over S = d_y / varpi has the bits of the
    varpi form: halving a normal float is exact."""
    g = RegionGeometry(d_x=d_x, d_y=d_y, height=height)
    assert mean_inverse_squared_distance(scheme, g).hex() == \
        mean_inverse_squared_distance_varpi(scheme, g).hex()


def _log_uniform(lo_exp, hi_exp):
    return st.floats(min_value=lo_exp, max_value=hi_exp).map(lambda e: 10.0**e)


# incident powers: zero, below the 2.9 uW turn-on, across the knee
# (|a (p - b)| <= 40 within 0.4 uW of it), and saturated
_INCIDENT_W = st.one_of(st.just(0.0), _log_uniform(-12, -5.6), st.floats(2.4e-6, 3.4e-6),
                        _log_uniform(-5.4, 1))


@pytest.mark.digits
@settings(max_examples=400, deadline=None)
@given(tag=st.sampled_from(["lm", "nlm"]), p_in=_INCIDENT_W, l=_log_uniform(-3, 4))
@example(tag="nlm", p_in=0.0, l=9.0)
@example(tag="nlm", p_in=1e-6, l=9.0)
@example(tag="nlm", p_in=2.9e-6, l=9.0)
@example(tag="nlm", p_in=3.3e-6, l=9.0)  # x = 40.0: expit still runs
@example(tag="nlm", p_in=1e-3, l=9.0)
def test_quadrature_kernel_has_the_bits_of_harvest_power(tag, p_in, l):
    """harvest_kernel(model, c)(l), the per-node integrand of
    avg_energy_quadrature, is harvest_power(model, c / l) bit for bit,
    and so is the array path (np.exp for the logistic model: bitwise
    without numpy's SIMD dispatch, see oracles.assert_curve_bits)."""
    model = DEFAULT_HARVEST[tag]
    c = p_in * l
    got = harvest_kernel(model, c)(l)
    assert type(got) is float
    assert got.hex() == harvest_power(model, c / l).hex()
    p = np.array([c / l])
    if tag == "lm":
        assert got.hex() == float(harvest_power(model, p)[0]).hex()
    else:
        assert_curve_bits(model, p, harvest_power(model, p), np.array([got]))
