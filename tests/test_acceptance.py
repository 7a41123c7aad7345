"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS line per
criterion.
"""

import sys

import numpy as np
import pytest

from paswipt.config import (
    DEFAULT_HARVEST,
    Config,
    LinearHarvest,
    ProtocolParams,
    RegionGeometry,
    SystemParams,
    default_config,
)
from paswipt.distributions import SquaredDistanceDistribution
from paswipt.energy import (
    avg_energy_lm_closed,
    avg_energy_nlm_bound,
    avg_energy_quadrature,
)
from paswipt.geometry import Scheme, optimal_squared_distance
from paswipt.montecarlo import CHUNK_SIZE, estimate
from paswipt.rate import avg_rate_closed, avg_rate_quadrature

from oracles import (
    UePosition,
    cdf_numpy,
    diagonal_distance_derivative,
    ground_projection_cdf,
    min_squared_distance_bruteforce,
    optimal_antenna_position,
    regime,
    regime_power,
    sample_squared_distance,
    squared_distance,
    tradeoff_rate_at_energy,
)
from paswipt.sweep import (
    SweepSpec,
    emit_outputs,
    run_power_sweep,
    run_tradeoff,
)

DEFAULT_NLM = DEFAULT_HARVEST["nlm"]

N_MC = 1_000_000


def _report(n, text):
    print(f"\nPASS criterion {n}: {text}")


def test_criterion_1_closed_form_vs_monte_carlo():
    """Lemma-style closed forms within 4 standard errors of 1e6-sample MC."""
    lm = default_config(0.3)
    for scheme in Scheme:
        s, p, g = lm.system, lm.protocol, lm.geometry
        closed_e = avg_energy_lm_closed(scheme, s, p, g, lm.harvest)
        (est_e,) = estimate("energy-lm", scheme, [lm], N_MC, seed=101)
        assert abs(est_e.mean - closed_e) <= 4 * est_e.std_error, scheme

        closed_r = avg_rate_closed(scheme, s, p, g).value_bits_s_hz
        (est_r,) = estimate("rate", scheme, [lm], N_MC, seed=101)
        assert abs(est_r.mean - closed_r) <= 4 * est_r.std_error, scheme
    _report(1, "closed forms within 4 std errors of 1e6-sample MC (all schemes, energy + rate)")


def test_criterion_2_closed_form_vs_quadrature():
    """Every scheme's energy and rate closed forms match quadrature within
    1e-8 relative on 100 draws of room, power, alpha, beta and eta."""
    rng = np.random.default_rng(202)
    for _ in range(100):
        g = RegionGeometry(
            d_x=rng.uniform(4, 20), d_y=rng.uniform(4, 20), height=rng.uniform(1, 5)
        )
        s = SystemParams(28e9, 1e-12, rng.uniform(0.01, 1.0))
        p = ProtocolParams(rng.uniform(0, 1), rng.uniform(0, 1))
        lm = LinearHarvest(eta=rng.uniform(0.1, 1.0))
        for scheme in Scheme:
            e_closed = avg_energy_lm_closed(scheme, s, p, g, lm)
            e_quad = avg_energy_quadrature(scheme, s, p, g, lm)
            assert e_quad == pytest.approx(e_closed, rel=1e-8)
            r_closed = avg_rate_closed(scheme, s, p, g).value_bits_s_hz
            r_quad = avg_rate_quadrature(scheme, s, p, g).value_bits_s_hz
            assert r_quad == pytest.approx(r_closed, rel=1e-8)
    _report(2, "energy/rate closed forms match quadrature within 1e-8 rel on 100 random draws "
               "of room, P_t, alpha, beta and eta")


def test_criterion_3_distribution_correctness():
    """CDFs pass 99% KS tests against geometric sampling; PDFs normalize."""
    from scipy import stats

    g = RegionGeometry(d_x=15.0, d_y=10.0, height=3.0)
    rng = np.random.default_rng(303)
    x_u = rng.uniform(0, g.d_x, N_MC)
    y_u = rng.uniform(0, g.d_y, N_MC)
    for scheme in Scheme:
        dist = SquaredDistanceDistribution(scheme, g)
        geometric = optimal_squared_distance(scheme, g, x_u, y_u)
        inverse = sample_squared_distance(dist, rng.uniform(1e-12, 1 - 1e-12, N_MC))
        assert stats.ks_2samp(inverse, geometric).statistic < 0.0027, scheme
        # one-sample against the analytic CDF as well, on arrays: the numpy
        # oracle has the float law's bits, checked here on 2e4 of the draws
        head = geometric[:20_000]
        assert cdf_numpy(dist, head).tobytes() == \
            np.fromiter(map(dist.cdf, head.tolist()), float, len(head)).tobytes(), scheme
        assert stats.kstest(geometric, lambda x: cdf_numpy(dist, x)).statistic < 0.0019, scheme
        assert dist.expect(lambda l: 1.0) == pytest.approx(1.0, abs=1e-9)
    k = g.aspect_ratio
    perp = np.abs(k * x_u - y_u) / np.sqrt(1 + k * k)
    assert stats.kstest(perp, lambda x: ground_projection_cdf(g, x)).statistic < 0.0019
    _report(3, "analytic CDFs pass 99% KS vs geometric sampling (n=1e6); PDFs integrate to 1")


def test_criterion_4_placement_optimality():
    """Closed-form optimum beats every grid candidate; first-order condition."""
    g = RegionGeometry(d_x=15.0, d_y=10.0, height=3.0)
    rng = np.random.default_rng(404)
    for scheme in Scheme:
        for _ in range(1000):
            ue = UePosition(rng.uniform(0, g.d_x), rng.uniform(0, g.d_y))
            pos = optimal_antenna_position(scheme, g, ue)
            closed = squared_distance(g, pos, ue)
            assert closed <= min_squared_distance_bruteforce(scheme, g, ue, 10_000) + 1e-6
            if scheme is Scheme.DDS:
                assert abs(diagonal_distance_derivative(g, ue, pos.x)) < 1e-9
    _report(4, "closed-form placement optimal vs 1e4-point grid for 1e3 UEs/scheme; "
               "diagonal first-order condition < 1e-9")


def test_criterion_5_jensen_ordering(monkeypatch):
    """The Jensen value bounds the average from above where every UE is past
    the turn-on, from below where every one is under it (oracles.regime):
    against quadrature and MC at each scheme's past, saturated and below
    powers, against quadrature on 100 seeded configs per scheme.  Where
    every UE is saturated, the bound, the quadrature and the MC mean are one
    float, alpha * phi, with a standard error of 0, no integral and no draw."""
    nlm, sides = default_config(1.0, model="nlm"), []
    for scheme in Scheme:
        cfgs = [nlm.with_params(transmit_power_w=regime_power(nlm, scheme, name))
                for name in ("past", "saturated", "below")]
        ests = estimate("energy-nlm", scheme, cfgs, N_MC, seed=505)
        rng = np.random.default_rng(606)
        for _ in range(100):
            g = RegionGeometry(rng.uniform(4, 20), rng.uniform(4, 20), rng.uniform(1, 5))
            s = SystemParams(28e9, 1e-12, rng.uniform(1e-4, 1.0))
            p = ProtocolParams(rng.uniform(0, 1), rng.uniform(0, 1))
            cfgs.append(Config(s, p, g, DEFAULT_NLM))
        for cfg, est in zip(cfgs, ests + [None] * 100):
            args = (scheme, cfg.system, cfg.protocol, cfg.geometry, cfg.harvest)
            sides.append(regime(cfg, scheme))
            with monkeypatch.context() as m:
                if sides[-1] == "saturated":  # any integral or draw raises TypeError
                    m.setattr(SquaredDistanceDistribution, "expect", None)
                    m.setattr("paswipt.montecarlo._chunk_ue", None)
                    (alone,) = estimate("energy-nlm", scheme, [cfg], N_MC, seed=505)
                    assert est in (None, alone), (scheme, cfg)
                    est = alone
                bound, quad = avg_energy_nlm_bound(*args), avg_energy_quadrature(*args)
            if sides[-1] == "saturated":
                exact = (cfg.protocol.alpha * cfg.harvest.saturation_w).hex()
                assert {bound.hex(), quad.hex(), est.mean.hex()} == {exact}, (scheme, cfg)
                assert est.std_error.hex() == "0x0.0p+0", (scheme, cfg)
            lo, hi = (quad, quad) if est is None else (est.mean - 4 * est.std_error,
                                                       est.mean + 4 * est.std_error)
            if sides[-1] in ("past", "saturated"):  # concave: an upper bound
                assert bound >= max(quad, lo) - 1e-12, (scheme, cfg)
            elif sides[-1] == "below":  # convex: a lower bound
                assert bound <= min(quad, hi), (scheme, cfg)
    _report(5, "Jensen bound >= quadrature and MC - 4 std errors where concave, <= both where "
               "convex; " + ", ".join(f"{sides.count(n)} {n}" for n in sorted(set(sides))))


def test_criterion_6_energy_vs_power_shapes():
    """Linear-model energy affine in power; the logistic average rises from
    below the turn-on to its alpha * saturation ceiling."""
    nlm = default_config(1.0, model="nlm")
    grid = np.geomspace(min(regime_power(nlm, scheme, "below") for scheme in Scheme),
                        max(regime_power(nlm, scheme, "saturated") for scheme in Scheme), 30)
    spec = SweepSpec(
        "energy", default_config(0.3), tuple(grid),
        models=(LinearHarvest(eta=1.0), DEFAULT_NLM),
        methods=("closed", "quadrature"),
    )
    rows = run_power_sweep(spec)
    for scheme in Scheme:
        lm_rows = [r for r in rows
                   if r["scheme"] == scheme.value and r["model"] == "lm" and r["method"] == "closed"]
        pt = np.array([r["pt_w"] for r in lm_rows])
        val = np.array([r["value_w"] for r in lm_rows])
        slope = val[0] / pt[0]
        assert np.max(np.abs(val - slope * pt) / np.abs(val)) < 1e-12, scheme
        nlm_rows = sorted((r for r in rows
                           if r["scheme"] == scheme.value and r["model"] == "nlm"
                           and r["method"] == "quadrature"), key=lambda r: r["pt_w"])
        assert nlm_rows[-1]["pt_w"] == grid[-1]
        val = np.array([r["value_w"] for r in nlm_rows])
        ceiling = spec.config.protocol.alpha * DEFAULT_NLM.saturation_w
        assert np.all(np.diff(val) >= -1e-15) and np.all(val <= ceiling + 1e-15), scheme
        assert abs(val[-1] - ceiling) < 0.01 * ceiling and val[0] < val[-1], scheme
    _report(6, f"LM energy affine (residual < 1e-12 rel); NLM nondecreasing from {grid[0]:.3g} to "
               f"{grid[-1]:.3g} W, not constant, within 1% of alpha*saturation at the top")


def test_criterion_7_energy_rate_region():
    """Region shapes at 0.3 W in the 8 x 8 room."""
    base = default_config(0.3).with_params(d_x=8.0, d_y=8.0)
    spec = SweepSpec(
        "region", base, tuple(np.linspace(0.0, 1.0, 41)),
        models=(LinearHarvest(eta=1.0), DEFAULT_NLM),
    )
    rows = run_tradeoff(spec)

    def pick(**match):
        sel = [r for r in rows if all(r[k] == v for k, v in match.items())]
        return sorted(sel, key=lambda r: r["control"])

    for scheme in Scheme:
        ts = pick(protocol="ts", scheme=scheme.value, model="lm")
        ps = pick(protocol="ps", scheme=scheme.value, model="lm")
        for a, b in zip(ts, ps):
            assert abs(a["energy_w"] - b["energy_w"]) < 1e-12
            assert abs(a["rate_bits_s_hz"] - b["rate_bits_s_hz"]) < 1e-12

        nlm_ts = pick(protocol="ts", scheme=scheme.value, model="nlm")
        c = np.array([r["control"] for r in nlm_ts])
        e = np.array([r["energy_w"] for r in nlm_ts])
        rate = np.array([r["rate_bits_s_hz"] for r in nlm_ts])
        chord = e[0] + (e[-1] - e[0]) * c
        assert np.max(np.abs(e - chord)) < 1e-12
        chord_r = rate[0] + (rate[-1] - rate[0]) * c
        assert np.max(np.abs(rate - chord_r)) < 1e-12 * max(1.0, rate[0])

        nlm_ps = pick(protocol="ps", scheme=scheme.value, model="nlm")
        e_ps = np.array([r["energy_w"] for r in nlm_ps])
        chord_ps = e_ps[0] + (e_ps[-1] - e_ps[0]) * c
        assert np.max(np.abs(e_ps - chord_ps)) > 0.0

    for protocol in ("ts", "ps"):
        for model_tag, model in (("lm", LinearHarvest(eta=1.0)), ("nlm", DEFAULT_NLM)):
            for scheme in (Scheme.EDS, Scheme.CDS):
                for r in pick(protocol=protocol, scheme=scheme.value, model=model_tag):
                    dds = tradeoff_rate_at_energy(Scheme.DDS, protocol, model, base, r["energy_w"])
                    assert dds >= r["rate_bits_s_hz"] - 1e-9
    _report(7, "LM TS/PS curves coincide (1e-12); NLM TS energy and rate affine, PS bent; "
               "diagonal region dominates edge/center in the square room")


def test_criterion_8_determinism(tmp_path):
    """Every MC metric on every scheme, each on a 3-power series of 11 chunks
    (the last 17 samples long), at 2, 4 and 8 workers while threads switch
    as often as the interpreter allows: each estimate is its config's
    one-worker, single-config estimate bit for bit.  CSV bytes reproducible."""
    n, nlm = 10 * CHUNK_SIZE + 17, default_config(1.0, model="nlm")
    lm = [default_config(pt) for pt in (0.01, 0.3, 1.0)]

    def bits(ests):  # float.hex of each mean and standard error
        return [tuple(v.hex() for v in est) for est in ests]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for scheme in Scheme:
            nlm_series = [nlm.with_params(transmit_power_w=regime_power(nlm, scheme, name))
                          for name in ("knee", "past", "saturated")]
            for metric, cfgs in (("energy-lm", lm), ("energy-nlm", nlm_series), ("rate", lm)):
                want = bits(estimate(metric, scheme, [cfg], n, seed=808)[0] for cfg in cfgs)
                for workers in (2, 4, 8):
                    got = bits(estimate(metric, scheme, cfgs, n, seed=808, workers=workers))
                    assert got == want, (metric, scheme, workers)
    finally:
        sys.setswitchinterval(interval)

    spec = SweepSpec("energy", default_config(0.3), (0.1, 0.2, 0.3), methods=("closed",))
    a = emit_outputs(run_power_sweep(spec), tmp_path / "a", "energy")[0]
    b = emit_outputs(run_power_sweep(spec), tmp_path / "b", "energy")[0]
    assert a.read_bytes() == b.read_bytes()
    _report(8, "lm, knee/past/saturated nlm and rate MC series bitwise their 1-worker estimates "
               "at 2/4/8 workers under thread stress (all schemes); CSV bytes reproducible")
