import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paswipt.cli import main
from paswipt.config import (
    DEFAULT_HARVEST,
    LinearHarvest,
    ProtocolParams,
    RegionGeometry,
    default_config,
)
from paswipt.distributions import SquaredDistanceDistribution
from paswipt.energy import (
    _mean_harvest,
    avg_energy_lm_closed,
    avg_energy_nlm_bound,
    avg_energy_quadrature,
    harvest_kernel,
    logistic_harvest_power,
    mean_inverse_squared_distance,
)
from paswipt.geometry import Scheme

from oracles import (assert_curve_bits, harvest_power, incident_power, log_uniform, logistic_mpmath,
                     mean_inverse_squared_distance_varpi, offset_mean_mpmath, regime_power)

NLM = DEFAULT_HARVEST["nlm"]


class TestLogisticTransfer:
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


# float.hex of (quadrature, Jensen bound) for the logistic model in the
# default 15 x 10 m room: at 0.3 W every UE is saturated, so both are
# alpha * phi exactly; at 1e-4 W the incident power straddles the 2.9 uW
# turn-on, at 1e-5 W it stays below it.  The 1e-5 W quadrature values were
# recorded again when expect's rule lost its absolute floor.
NLM_PINS = {
    (0.3, "eds"): ("0x1.0624dd2f1a9fcp-6", "0x1.0624dd2f1a9fcp-6"),
    (0.3, "cds"): ("0x1.0624dd2f1a9fcp-6", "0x1.0624dd2f1a9fcp-6"),
    (0.3, "dds"): ("0x1.0624dd2f1a9fcp-6", "0x1.0624dd2f1a9fcp-6"),
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
    """alpha E[Phi(p(L))] for the logistic curve Phi and p = incident_power,
    to 40 digits (oracles.offset_mean_mpmath).  The cuts halve S toward
    t = 0, and one sits at the turn-on crossing l* = p(1) / b, where that
    lies within the span: in the 17 mm strip room below, mpmath was 8e-5
    off with the rate's cuts 0, h, 8h, ... and 2e-9 off without the
    crossing."""
    mpmath = pytest.importorskip("mpmath")

    def cuts(h, span):
        crossing2 = incident_power(cfg, 1.0) / mpmath.mpf(cfg.harvest.turn_on_w) - h * h
        inner = [mpmath.sqrt(crossing2)] if 0 < crossing2 < span * span else []
        return sorted([0 * span] + [span / 2**k for k in range(30, -1, -1)] + inner)

    mean = offset_mean_mpmath(scheme, cfg.geometry,
                              lambda l: logistic_mpmath(cfg.harvest, incident_power(cfg, l)), cuts)
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
    """A 15 x 400 x 0.001 m room at the power, about 1.05e-9 W, whose
    incident power reaches the turn-on 17 mm from the waveguide: the
    harvester passes its turn-on only within that strip.  A rule that
    stopped on an absolute 1e-14 W missed the strip after 2 subintervals
    (at 1e-9 W, EDS 3e-131 W against 6.6e-7 W)."""
    room = default_config(1.0, model="nlm").with_params(d_y=400.0, height=1e-3)
    strip_l = room.geometry.height ** 2 + 0.017 ** 2
    cfg = room.with_params(transmit_power_w=NLM.turn_on_w / incident_power(room, strip_l))
    args = (scheme, cfg.system, cfg.protocol, cfg.geometry, cfg.harvest)
    ref = _nlm_mpmath(scheme, cfg)
    assert abs(avg_energy_quadrature(*args) - ref) <= 1e-8 * ref


def test_logistic_kernel_keeps_its_digits_below_turn_on():
    """The quadrature kernel over the default room's l in [9, 109] m^2,
    far below the 2.9 uW turn-on, within 1e-9 of the curve at 50 digits.
    The offset form scale (sigma(x) - Omega), which cancels there, was
    7.5e-6 off at 1e-14 W and 7.9e-2 off at 1e-18 W."""
    mpmath = pytest.importorskip("mpmath")
    for pt in (1e-14, 1e-18):
        cfg = default_config(pt, model="nlm")
        kernel = harvest_kernel(NLM, incident_power(cfg, 1.0))
        for l in np.linspace(9.0, 109.0, 101).tolist():
            with mpmath.workdps(50):
                ref = logistic_mpmath(NLM, incident_power(cfg, mpmath.mpf(l)))
                assert abs(kernel(l) - ref) <= 1e-9 * ref, (pt, l)


# Configs of the seeded 1,200-config sweep (random.Random(11), CHANGES.md)
# whose logistic quadrature raised "quadrature underflowed": every node's
# incident power c / l fell below about 1e-16 b, where the offset form
# read 0.  (scheme, P_t, d_x, d_y, h, alpha, beta); true values 1e-145 to
# 1e-141 W.
FAR_BELOW_TURN_ON = [
    ("eds", 5.977519564760645e-21, 747.8747783632283, 7486.098562522928, 0.5186376370225814,
     0.031485775695172746, 0.8728290543523024),
    ("cds", 5.977519564760645e-21, 747.8747783632283, 7486.098562522928, 0.5186376370225814,
     0.031485775695172746, 0.8728290543523024),
    ("eds", 3.444598608424227e-21, 49.96226165290454, 145.7986656535089, 0.1949168295201817,
     0.8038171586642112, 0.016349160362406412),
    ("eds", 6.479714310735179e-20, 0.04219968729797521, 4457.601886624261, 0.004587198856233281,
     0.657146049609615, 0.07179031001276426),
    ("cds", 6.479714310735179e-20, 0.04219968729797521, 4457.601886624261, 0.004587198856233281,
     0.657146049609615, 0.07179031001276426),
    ("eds", 7.181266397765273e-23, 2.2541497467871072, 305.9220118720334, 0.09937997990074687,
     0.6543516562152196, 0.26024413552521697),
    ("cds", 7.181266397765273e-23, 2.2541497467871072, 305.9220118720334, 0.09937997990074687,
     0.6543516562152196, 0.26024413552521697),
    ("eds", 7.926608386638756e-22, 14.226170207840429, 155.07037191372262, 0.7163544191901179,
     0.013839349538292911, 0.49897222245411754),
]


@pytest.mark.parametrize("case", FAR_BELOW_TURN_ON,
                         ids=[f"{c[0]}-{c[1]:.3g}W" for c in FAR_BELOW_TURN_ON])
def test_quadrature_far_below_turn_on_matches_mpmath(case):
    scheme, pt, d_x, d_y, h, alpha, beta = case
    cfg = default_config(pt, model="nlm").with_params(d_x=d_x, d_y=d_y, height=h,
                                                      alpha=alpha, beta=beta)
    args = (Scheme(scheme), cfg.system, cfg.protocol, cfg.geometry, cfg.harvest)
    ref = _nlm_mpmath(Scheme(scheme), cfg)
    assert abs(avg_energy_quadrature(*args) - ref) <= 1e-9 * ref


def test_cli_energy_far_below_turn_on(capsys):
    """The rounded third case above through the CLI: it exited 2 with
    "quadrature underflowed"."""
    argv = ["--pt-w", "3.44e-21", "--dx", "50", "--dy", "146", "--height", "0.195",
            "--alpha", "0.804", "--beta", "0.0163"]
    assert main(["energy", "--scheme", "eds", "--model", "nlm", *argv]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    got = float(dict(zip(header.split(","), row.split(",")))["quadrature_w"])
    cfg = default_config(3.44e-21, model="nlm").with_params(
        d_x=50.0, d_y=146.0, height=0.195, alpha=0.804, beta=0.0163)
    ref = _nlm_mpmath(Scheme.EDS, cfg)
    assert abs(got - ref) <= 1e-9 * ref


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
    def test_bound_side_follows_the_curvature(self, scheme, nlm_config):
        """The logistic curve is concave from its turn-on b on and convex
        below it.  With every UE's beta P_t / L at or past b the Jensen
        value is at least the average; with every one below b, at most
        (oracles.regime_power's past and below powers)."""

        def bound_and_quadrature(pt_w):
            cfg = nlm_config.with_params(transmit_power_w=pt_w)
            args = (scheme, cfg.system, cfg.protocol, cfg.geometry, cfg.harvest)
            return avg_energy_nlm_bound(*args), avg_energy_quadrature(*args)

        bound, quad = bound_and_quadrature(regime_power(nlm_config, scheme, "past"))
        assert bound >= quad
        bound, quad = bound_and_quadrature(regime_power(nlm_config, scheme, "below"))
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


# incident powers: zero, below the 2.9 uW turn-on, across the knee
# (|a (p - b)| <= 40 within 0.4 uW of it), and saturated
_INCIDENT_W = st.one_of(st.just(0.0), log_uniform(-12, -5.6), st.floats(2.4e-6, 3.4e-6),
                        log_uniform(-5.4, 1))


@pytest.mark.digits
@settings(max_examples=400, deadline=None)
@given(p_in=_INCIDENT_W, l=log_uniform(-3, 4))
@example(p_in=0.0, l=9.0)
@example(p_in=1e-6, l=9.0)
@example(p_in=2.9e-6, l=9.0)
@example(p_in=3.3e-6, l=9.0)  # x = 40.0: expit still runs
@example(p_in=1e-3, l=9.0)
def test_quadrature_kernel_has_the_bits_of_harvest_power(p_in, l):
    """harvest_kernel(model, c)(l), the per-node integrand of the logistic
    avg_energy_quadrature, is logistic_harvest_power(model, c / l) bit for
    bit, and so is the array path (np.exp: bitwise without numpy's SIMD
    dispatch, see oracles.assert_curve_bits)."""
    c = p_in * l
    got = harvest_kernel(NLM, c)(l)
    assert type(got) is float
    assert got.hex() == logistic_harvest_power(NLM, c / l).hex()
    p = np.array([c / l])
    assert_curve_bits(NLM, p, logistic_harvest_power(NLM, p), np.array([got]))


# the default room's DDS knee power, where its logistic series straddles the turn-on
KNEE_W = regime_power(default_config(1.0, model="nlm"), Scheme.DDS, "knee")
# (harvest model, changes to the base config, the change made right after), by id
_CHANGED_RIGHT_AFTER = {
    "lm-eta": ("lm", {}, dict(harvest=LinearHarvest(eta=0.5))),
    "lm-beta": ("lm", {}, dict(beta=0.4)),
    "lm-pt": ("lm", {}, dict(transmit_power_w=2.0 * KNEE_W)),
    "lm-dx": ("lm", {}, dict(d_x=16.0)),
    "lm-to-nlm": ("lm", {}, dict(harvest=NLM)),
    "nlm-saturation": ("nlm", {}, dict(harvest=dataclasses.replace(NLM, saturation_w=0.01))),
    "nlm-slope": ("nlm", {}, dict(harvest=dataclasses.replace(NLM, slope_per_w=2e5))),
    "nlm-turn-on": ("nlm", {}, dict(harvest=dataclasses.replace(NLM, turn_on_w=3.3e-6))),
    "nlm-beta": ("nlm", {}, dict(beta=0.4)),
    "nlm-pt": ("nlm", {}, dict(transmit_power_w=2.0 * KNEE_W)),
    "nlm-beta-sign": ("nlm", dict(beta=0.0), dict(beta=-0.0)),  # one memo key, signed zeros
}


@pytest.mark.parametrize("tag,base,change", _CHANGED_RIGHT_AFTER.values(),
                         ids=_CHANGED_RIGHT_AFTER)
def test_quadrature_after_a_change_is_a_fresh_value(tag, base, change):
    """A quadrature right after another whose config differs in one field
    has the bits a fresh process gives (an empty memo).  At KNEE_W the
    logistic series straddles the turn-on, so every change moves the value."""
    cfg = default_config(KNEE_W, model=tag).with_params(**base)

    def energy(cfg):
        return avg_energy_quadrature(Scheme.DDS, cfg.system, cfg.protocol, cfg.geometry,
                                     cfg.harvest)

    before = energy(cfg)
    cfg = cfg.with_params(**change)
    after = energy(cfg)
    _mean_harvest.cache_clear()
    assert after.hex() == energy(cfg).hex() != before.hex()


@pytest.mark.parametrize("scheme", list(Scheme))
def test_saturated_quadrature_has_the_bits_of_its_own_kernel(scheme, monkeypatch):
    """At the past power (oracles.regime_power), the logistic quadrature is
    alpha E[harvest_kernel(model, beta P_rx)(L)] integrated with no memo, bit
    for bit.  At and past the saturated power it is alpha * phi exactly, with
    no integral, and its own kernel integrated lies within 2 ulp of that."""
    expect, calls = SquaredDistanceDistribution.expect, []
    monkeypatch.setattr(SquaredDistanceDistribution, "expect",
                        lambda dist, g: calls.append(dist) or expect(dist, g))
    base = default_config(1.0, model="nlm")
    past, saturated = (regime_power(base, scheme, name) for name in ("past", "saturated"))
    for pt_w in (past, saturated, 4.0 * saturated):
        cfg = base.with_params(transmit_power_w=pt_w)
        c = cfg.protocol.beta * cfg.system.received_power_w_m2
        kernel_mean = cfg.protocol.alpha * expect(SquaredDistanceDistribution(scheme, cfg.geometry),
                                                  harvest_kernel(cfg.harvest, c))
        got = avg_energy_quadrature(scheme, cfg.system, cfg.protocol, cfg.geometry, cfg.harvest)
        if pt_w == past:
            assert got.hex() == kernel_mean.hex()
        else:
            assert got.hex() == (cfg.protocol.alpha * cfg.harvest.saturation_w).hex(), pt_w
            assert abs(kernel_mean - got) <= 2 * math.ulp(got), pt_w
    assert len(calls) == 1
