"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS line per
criterion.
"""

import numpy as np
import pytest
from scipy import stats

from paswipt.config import (
    DEFAULT_HARVEST,
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
from paswipt.geometry import (
    Scheme,
    UePosition,
    diagonal_distance_derivative,
    optimal_antenna_position,
    optimal_squared_distance,
    squared_distance,
)
from paswipt.montecarlo import estimate
from paswipt.rate import avg_rate_closed, avg_rate_quadrature

from oracles import (
    ground_projection_cdf,
    min_squared_distance_bruteforce,
    sample_squared_distance,
)
from paswipt.sweep import (
    SweepSpec,
    emit_outputs,
    run_power_sweep,
    run_tradeoff,
    tradeoff_rate_at_energy,
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
    """All four closed forms match quadrature within 1e-8 relative on 100 draws."""
    rng = np.random.default_rng(202)
    for _ in range(100):
        g = RegionGeometry(
            d_x=rng.uniform(4, 20), d_y=rng.uniform(4, 20), height=rng.uniform(1, 5)
        )
        s = SystemParams(28e9, 1e-12, rng.uniform(0.01, 1.0))
        p = ProtocolParams(0.8, 0.8)
        lm = LinearHarvest(eta=1.0)
        for scheme in Scheme:
            e_closed = avg_energy_lm_closed(scheme, s, p, g, lm)
            e_quad = avg_energy_quadrature(scheme, s, p, g, lm)
            assert e_quad == pytest.approx(e_closed, rel=1e-8)
            r_closed = avg_rate_closed(scheme, s, p, g).value_bits_s_hz
            r_quad = avg_rate_quadrature(scheme, s, p, g).value_bits_s_hz
            assert r_quad == pytest.approx(r_closed, rel=1e-8)
    _report(2, "energy/rate closed forms match quadrature within 1e-8 rel on 100 random draws")


def test_criterion_3_distribution_correctness():
    """CDFs pass 99% KS tests against geometric sampling; PDFs normalize."""
    g = RegionGeometry(d_x=15.0, d_y=10.0, height=3.0)
    rng = np.random.default_rng(303)
    x_u = rng.uniform(0, g.d_x, N_MC)
    y_u = rng.uniform(0, g.d_y, N_MC)
    for scheme in Scheme:
        dist = SquaredDistanceDistribution(scheme, g)
        geometric = optimal_squared_distance(scheme, g, x_u, y_u)
        inverse = sample_squared_distance(dist, rng.uniform(1e-12, 1 - 1e-12, N_MC))
        assert stats.ks_2samp(inverse, geometric).statistic < 0.0027, scheme
        # one-sample against the analytic CDF as well
        assert stats.kstest(geometric, dist.cdf).statistic < 0.0019, scheme
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


def test_criterion_5_jensen_ordering():
    """Upper bound dominates both quadrature and MC of the true average."""
    for pt in (0.05, 0.3, 1.0):
        cfg = default_config(pt, model="nlm")
        s, p, g = cfg.system, cfg.protocol, cfg.geometry
        for scheme in Scheme:
            bound = avg_energy_nlm_bound(scheme, s, p, g, cfg.harvest)
            quad = avg_energy_quadrature(scheme, s, p, g, cfg.harvest)
            assert bound >= quad - 1e-12
            (est,) = estimate("energy-nlm", scheme, [cfg], N_MC, seed=505)
            assert bound >= est.mean - 4 * est.std_error - 1e-12
    _report(5, "Jensen bound >= quadrature and >= MC - 4 std errors at 0.05/0.3/1 W, all schemes")


def test_criterion_6_energy_vs_power_shapes():
    """Linear-model energy affine in power; logistic model saturates."""
    spec = SweepSpec(
        "energy", default_config(0.3), tuple(np.linspace(0.05, 10.0, 15)),
        harvest_models=(LinearHarvest(eta=1.0), DEFAULT_NLM),
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
        nlm_rows = [r for r in rows
                    if r["scheme"] == scheme.value and r["model"] == "nlm"
                    and r["method"] == "quadrature"]
        top = max(nlm_rows, key=lambda r: r["pt_w"])
        assert top["pt_w"] == pytest.approx(10.0)
        ceiling = 0.8 * DEFAULT_NLM.saturation_w
        assert abs(top["value_w"] - ceiling) < 0.01 * ceiling, scheme
    _report(6, "LM energy affine in power (residual < 1e-12 rel); "
               "NLM within 1% of the alpha*saturation ceiling at 10 W")


def test_criterion_7_energy_rate_region():
    """Region shapes at 0.3 W in the 8 x 8 room."""
    base = default_config(0.3, d_x=8.0, d_y=8.0)
    spec = SweepSpec(
        "region", base, tuple(np.linspace(0.0, 1.0, 41)),
        harvest_models=(LinearHarvest(eta=1.0), DEFAULT_NLM),
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
        chord = e[0] + (e[-1] - e[0]) * c
        assert np.max(np.abs(e - chord)) < 1e-12

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
    _report(7, "LM TS/PS curves coincide (1e-12); NLM TS affine, PS bent; "
               "diagonal region dominates edge/center in the square room")


def test_criterion_8_determinism(tmp_path):
    """Bitwise-identical estimates across worker counts; byte-identical CSVs."""
    cfg = default_config(0.3)
    (ref,) = estimate("energy-lm", Scheme.DDS, [cfg], 200_000, seed=808, workers=1)
    for workers in (4, 8):
        (est,) = estimate("energy-lm", Scheme.DDS, [cfg], 200_000, seed=808, workers=workers)
        assert est.mean == ref.mean
        assert est.std_error == ref.std_error

    spec = SweepSpec("energy", cfg, (0.1, 0.2, 0.3), schemes=(Scheme.EDS,),
                     methods=("closed",))
    a = emit_outputs(run_power_sweep(spec), tmp_path / "a", "energy")[0]
    b = emit_outputs(run_power_sweep(spec), tmp_path / "b", "energy")[0]
    assert a.read_bytes() == b.read_bytes()
    _report(8, "estimates bitwise identical across 1/4/8 workers; CSV bytes reproducible")
