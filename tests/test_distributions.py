import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paswipt.config import DEFAULT_HARVEST, RegionGeometry, dbm_to_watts, default_config
from paswipt.distributions import (
    QuadratureError,
    SquaredDistanceDistribution,
    emit_cdf_table,
)
from paswipt.geometry import Scheme

from oracles import (VARPI, cdf_table_numpy, ground_projection_cdf, harvest_power,
                     incident_power, log_uniform, offset_mean_mpmath, sample_squared_distance,
                     snr)

GEOM = RegionGeometry(d_x=15.0, d_y=10.0, height=3.0)


@pytest.fixture(params=list(Scheme), ids=[s.value for s in Scheme])
def dist(request):
    return SquaredDistanceDistribution(request.param, GEOM)


def test_support(dist):
    lo, hi = dist.support
    assert lo == GEOM.height**2
    if dist.scheme is Scheme.DDS:
        assert hi == pytest.approx(lo + GEOM.diagonal_half_width**2, rel=1e-15)
    else:
        assert hi == pytest.approx(lo + (GEOM.d_y / VARPI[dist.scheme]) ** 2, rel=1e-15)


def test_cdf_endpoints(dist):
    lo, hi = dist.support
    assert dist.cdf(lo) == 0.0
    assert dist.cdf(lo - 1.0) == 0.0
    assert dist.cdf(hi) == pytest.approx(1.0, abs=1e-12)
    assert dist.cdf(hi + 1.0) == 1.0


def test_cdf_nondecreasing(dist):
    lo, hi = dist.support
    grid = np.linspace(lo - 1, hi + 1, 5000)
    vals = [dist.cdf(l) for l in grid.tolist()]
    assert np.all(np.diff(vals) >= -1e-15)


def test_eds_midspan_cdf():
    d = SquaredDistanceDistribution(Scheme.EDS, GEOM)
    assert d.cdf(GEOM.height**2 + (GEOM.d_y / 2) ** 2) == pytest.approx(0.5, rel=1e-14)


def test_dds_pdf_vanishes_at_upper_end():
    d = SquaredDistanceDistribution(Scheme.DDS, GEOM)
    assert d.pdf(d.support[1]) == pytest.approx(0.0, abs=1e-14)


def test_eds_pdf_point_value():
    d = SquaredDistanceDistribution(Scheme.EDS, GEOM)
    assert d.pdf(GEOM.height**2 + GEOM.d_y**2) == pytest.approx(
        1.0 / (2 * GEOM.d_y**2), rel=1e-14
    )


def test_pdf_rejects_singular_point(dist):
    with pytest.raises(ValueError, match="singular"):
        dist.pdf(dist.support[0])


def test_pdf_nonnegative_and_zero_outside(dist):
    lo, hi = dist.support
    inside = np.linspace(lo, hi, 2001)[1:]
    assert all(dist.pdf(l) >= 0.0 for l in inside.tolist())
    assert dist.pdf(lo - 0.5) == 0.0
    assert dist.pdf(hi + 0.5) == 0.0


def test_cdf_is_antiderivative_of_pdf(dist):
    from scipy import integrate

    lo, hi = dist.support
    rng = np.random.default_rng(31)
    for _ in range(50):
        l1, l2 = np.sort(rng.uniform(lo + 1e-9, hi, 2))
        quad, _ = integrate.quad(dist.pdf, l1, l2, limit=200)
        assert quad == pytest.approx(dist.cdf(l2) - dist.cdf(l1), abs=1e-8)


def test_sample_cdf_identity(dist):
    u = np.arange(1e-3, 1.0, 1e-3)
    cdf = np.array([dist.cdf(l) for l in sample_squared_distance(dist, u).tolist()])
    assert np.max(np.abs(cdf - u)) < 1e-10


def test_sample_limits(dist):
    lo, hi = dist.support
    assert sample_squared_distance(dist, 1e-12) == pytest.approx(lo, abs=1e-9)
    assert sample_squared_distance(dist, 1 - 1e-13) == pytest.approx(hi, rel=1e-6)
    with pytest.raises(ValueError):
        sample_squared_distance(dist, 0.0)
    with pytest.raises(ValueError):
        sample_squared_distance(dist, 1.0)


def test_ground_projection_cdf_values():
    lam = GEOM.diagonal_half_width
    assert ground_projection_cdf(GEOM, lam) == pytest.approx(1.0, rel=1e-14)
    assert ground_projection_cdf(GEOM, lam / 2) == pytest.approx(0.75, rel=1e-14)
    assert ground_projection_cdf(GEOM, -1.0) == 0.0
    assert ground_projection_cdf(GEOM, lam + 1.0) == 1.0


def test_dds_cdf_consistent_with_projection_law():
    d = SquaredDistanceDistribution(Scheme.DDS, GEOM)
    lo, hi = d.support
    grid = np.linspace(lo, hi, 1001)
    transformed = ground_projection_cdf(GEOM, np.sqrt(grid - lo))
    cdf = np.array([d.cdf(l) for l in grid.tolist()])
    assert np.max(np.abs(transformed - cdf)) < 1e-12


def test_center_line_stochastically_smaller_than_edge():
    eds = SquaredDistanceDistribution(Scheme.EDS, GEOM)
    cds = SquaredDistanceDistribution(Scheme.CDS, GEOM)
    lo, hi = eds.support
    grid = np.linspace(lo, hi, 2001)
    assert all(cds.cdf(l) >= eds.cdf(l) - 1e-15 for l in grid.tolist())


def test_emit_cdf_table_shape():
    d = SquaredDistanceDistribution(Scheme.DDS, GEOM)
    table = emit_cdf_table(d, 1000)
    assert len(table) == 1000 and all(len(row) == 3 for row in table)
    assert all(math.isfinite(x) for row in table for x in row)
    assert table[-1][1] == pytest.approx(1.0, abs=1e-12)



@settings(max_examples=200, deadline=None)
@given(scheme=st.sampled_from(list(Scheme)), d_x=log_uniform(-5, 3), d_y=log_uniform(-5, 3),
       height=log_uniform(-3, 3), n_points=st.integers(min_value=1, max_value=4096))
@example(scheme=Scheme.EDS, d_x=15.0, d_y=1e-5, height=1e3, n_points=1000)  # collapsed
@example(scheme=Scheme.DDS, d_x=15.0, d_y=1e-4, height=1e3, n_points=5)  # a few ulps wide
@example(scheme=Scheme.EDS, d_x=1.0, d_y=1e-161, height=1e-170, n_points=4096)  # step 0
@example(scheme=Scheme.EDS, d_x=1.0, d_y=1.0, height=26.36371034927164, n_points=2)  # h**2 != h*h
def test_emit_cdf_table_matches_numpy_oracle(scheme, d_x, d_y, height, n_points):
    """The float table has the bits of np.linspace and the array law; where
    the first grid point rounds onto h^2, both refuse."""
    dist = SquaredDistanceDistribution(scheme, RegionGeometry(d_x=d_x, d_y=d_y, height=height))
    try:
        want = cdf_table_numpy(dist, n_points)
    except ValueError:
        with pytest.raises(ValueError, match="float spacing"):
            emit_cdf_table(dist, n_points)
        return
    got = emit_cdf_table(dist, n_points)
    assert [tuple(map(float.hex, row)) for row in got] == \
        [tuple(map(float.hex, row)) for row in want.tolist()]

# --- the in-package Gauss-Kronrod quadrature against its oracles ---------


def _quadpack_expect(dist, g, rel_tol=1e-11):
    """expect()'s integral through scipy's QUADPACK (qagse), the routine
    the package used to call: (value, number of subintervals).  The
    integrand repeats expect()'s float operations."""
    from scipy import integrate

    h2, span = dist.geometry.height * dist.geometry.height, dist.scheme.span(dist.geometry)
    if dist.scheme is Scheme.DDS:
        def integrand(t):
            return g(h2 + t * t) * (2.0 / span) * (1.0 - t / span)
    else:
        def integrand(t):
            return g(h2 + t * t) / span
    value, _, info = integrate.quad(integrand, 0.0, span, epsabs=0.0, epsrel=rel_tol,
                                    limit=200, full_output=1)[:3]
    return value, info["last"]


def _integrands(cfg):
    """The energy (lm, nlm) and rate integrands of a config, as functions of l."""
    return {
        "lm": lambda l: harvest_power(DEFAULT_HARVEST["lm"], incident_power(cfg, l)),
        "nlm": lambda l: harvest_power(DEFAULT_HARVEST["nlm"], incident_power(cfg, l)),
        "rate": lambda l: math.log1p(snr(cfg.system, l)),
    }


def _random_config(rng):
    """A room with h down to 0.3 m, a power in 1e-4..10 W, noise in -80..-190 dBm."""
    return default_config(float(np.exp(rng.uniform(np.log(1e-4), np.log(10.0))))).with_params(
        d_x=float(rng.uniform(2.0, 40.0)), d_y=float(rng.uniform(2.0, 40.0)),
        height=float(np.exp(rng.uniform(np.log(0.3), np.log(10.0)))),
    ).with_params(noise_power_w=dbm_to_watts(float(rng.uniform(-190.0, -80.0))))


@pytest.mark.parametrize("case", range(12))
def test_expect_matches_quadpack(case):
    cfg = _random_config(np.random.default_rng([2025, case]))
    for scheme in Scheme:
        dist = SquaredDistanceDistribution(scheme, cfg.geometry)
        for name, g in _integrands(cfg).items():
            ours = dist.expect(g)
            ref, parts = _quadpack_expect(dist, g)
            where = f"{scheme.value} {name} {cfg.geometry} pt={cfg.system.transmit_power_w}"
            assert abs(ours - ref) <= 1e-13 * abs(ref), where
            if parts == 1:  # one qk21 application: the same sums in the same order
                assert ours == ref, where


def test_expect_constant_has_quadpack_bits(dist):
    assert dist.expect(lambda l: 1.0) == _quadpack_expect(dist, lambda l: 1.0)[0]


@pytest.mark.parametrize("mu_gamma", [1e-2, 1.0, 1e6, 1e10, 1e14])
@pytest.mark.parametrize("height", [0.3, 3.0, 30.0])
def test_expect_matches_mpmath(mu_gamma, height):
    """E[ln(1 + mu_gamma / L)] against a 40-digit mpmath integral."""
    mpmath = pytest.importorskip("mpmath")
    geom = RegionGeometry(d_x=15.0, d_y=10.0, height=height)
    for scheme in Scheme:
        dist = SquaredDistanceDistribution(scheme, geom)
        ours = dist.expect(lambda l: math.log1p(mu_gamma / l))
        ref = offset_mean_mpmath(scheme, geom, lambda l: mpmath.log1p(mu_gamma / l),
                                 lambda h, span: sorted({0 * h, min(h, span), span}))
        assert ours == pytest.approx(float(ref), rel=1e-14, abs=0.0), scheme


def test_expect_rejects_nan_integrand(dist):
    with pytest.raises(QuadratureError, match="value=nan"):
        dist.expect(lambda l: float("nan"))


def test_expect_rejects_divergent_integrand(dist):
    """1/(l - h^2) = 1/t^2 has no finite mean.  The bisection closes in on
    t = 0, where l - h^2 rounds to 0; there the integrand is +inf."""
    h2 = GEOM.height**2
    with pytest.raises(QuadratureError) as exc:
        dist.expect(lambda l: 1.0 / (l - h2) if l != h2 else math.inf)
    message = str(exc.value)
    assert dist.scheme.value in message
    assert "15 x 10 x 3 m room" in message
    for key in ("value=", "abserr=", "neval=", "subintervals="):
        assert key in message
