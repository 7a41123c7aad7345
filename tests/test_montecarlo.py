import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paswipt import montecarlo
from paswipt.config import LinearHarvest, ProtocolParams, default_config
from paswipt.energy import _linear_energy, avg_energy_quadrature, logistic_harvest_power
from paswipt.geometry import Scheme, optimal_squared_distance
from paswipt.montecarlo import (
    CHUNK_SIZE,
    _chunk_sizes,
    _chunk_ue,
    estimate,
)
from paswipt.rate import _rate

from oracles import SIMD_DISPATCH, regime_power, sample_ue_stream, without_simd_dispatch


def test_rejects_too_few_samples(lm_config):
    with pytest.raises(ValueError):
        estimate("rate", Scheme.EDS, [lm_config], n=1)


def test_rejects_unknown_metric(lm_config):
    with pytest.raises(ValueError, match="metric"):
        estimate("outage", Scheme.EDS, [lm_config], n=100)


@pytest.mark.parametrize("workers", [0, -2])
def test_rejects_workers_below_one(lm_config, workers):
    with pytest.raises(ValueError, match="workers"):
        estimate("rate", Scheme.EDS, [lm_config], n=100, workers=workers)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_rejects_seed_outside_64_bits(lm_config, seed):
    with pytest.raises(ValueError, match="seed"):
        estimate("rate", Scheme.EDS, [lm_config], n=100, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        sample_ue_stream(lm_config, seed, 100)
    estimate("rate", Scheme.EDS, [lm_config], n=100, seed=(1 << 64) - 1)  # the top seed is valid


def test_metric_model_mismatch(lm_config, nlm_config):
    with pytest.raises(ValueError, match="LogisticHarvest"):
        estimate("energy-nlm", Scheme.EDS, [lm_config], n=100)
    with pytest.raises(ValueError, match="LinearHarvest"):
        estimate("energy-lm", Scheme.EDS, [nlm_config], n=100)


@pytest.fixture
def drawn_chunks(monkeypatch):
    """The index of every chunk that estimate draws, in call order."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return _chunk_ue(*args, **kwargs)

    monkeypatch.setattr("paswipt.montecarlo._chunk_ue", counted)
    return calls


@pytest.mark.parametrize("metric, match", [("energy-nlm", "LogisticHarvest"),
                                           ("outage", "unknown metric")])
def test_bad_metric_raises_before_any_draw(lm_config, metric, match, drawn_chunks):
    with pytest.raises(ValueError, match=match):
        estimate(metric, Scheme.EDS, [lm_config], n=3 * CHUNK_SIZE, workers=2)
    assert drawn_chunks == []


def test_zero_prefactor_rate(lm_config):
    cfg = lm_config.replace(protocol=ProtocolParams(1.0, 1.0))
    (est,) = estimate("rate", Scheme.CDS, [cfg], n=1000, seed=3)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_stream_is_reproducible(lm_config):
    x1, y1 = sample_ue_stream(lm_config, seed=42, n=70_000)
    x2, y2 = sample_ue_stream(lm_config, seed=42, n=70_000)
    assert np.array_equal(x1, x2)
    assert np.array_equal(y1, y2)
    # a prefix of a longer stream is the same stream
    x3, _ = sample_ue_stream(lm_config, seed=42, n=CHUNK_SIZE + 10)
    assert np.array_equal(x3, x1[: CHUNK_SIZE + 10])


def test_stream_differs_across_seeds(lm_config):
    x1, _ = sample_ue_stream(lm_config, seed=1, n=1000)
    x2, _ = sample_ue_stream(lm_config, seed=2, n=1000)
    assert not np.array_equal(x1, x2)


def test_stream_covers_rectangle_uniformly(lm_config):
    from scipy import stats

    g = lm_config.geometry
    n = 1_000_000
    x, y = sample_ue_stream(lm_config, seed=9, n=n)
    assert np.all((x >= 0) & (x <= g.d_x) & (y >= 0) & (y <= g.d_y))
    # uniform mean within 4 sigma
    tol = 4 * g.d_x / np.sqrt(12 * n)
    assert abs(x.mean() - g.d_x / 2) < tol
    ks = stats.kstest(y, stats.uniform(loc=0, scale=g.d_y).cdf)
    assert ks.statistic < 0.0019  # 99% one-sample critical value at n=1e6


def test_batch_matches_single_config_estimates(lm_config):
    # powers, protocols and harvesters of one room share the draws; every
    # estimate of the batch is bitwise the estimate of its config alone
    configs = [lm_config.with_params(transmit_power_w=0.01), lm_config,
               lm_config.with_params(alpha=0.3, beta=0.9, harvest=LinearHarvest(eta=0.5))]
    n = 2 * CHUNK_SIZE + 5
    for metric in ("energy-lm", "rate"):
        batch = estimate(metric, Scheme.CDS, configs, n=n, seed=12)
        assert batch == [estimate(metric, Scheme.CDS, [cfg], n=n, seed=12)[0] for cfg in configs]


def test_batch_draws_each_chunk_once(lm_config, drawn_chunks):
    configs = [lm_config.with_params(transmit_power_w=p) for p in (0.1, 0.2, 0.3, 0.4)]
    estimate("rate", Scheme.EDS, configs, n=3 * CHUNK_SIZE, seed=1, workers=2)
    assert sorted(drawn_chunks) == [0, 1, 2]


def _regime_config(scheme, name):
    return default_config(regime_power(default_config(1.0, "nlm"), scheme, name), "nlm")


@pytest.fixture
def kernel_passes(monkeypatch):
    """One entry per pass a kernel of estimate makes over a chunk."""
    calls = []
    build = montecarlo._chunk_kernel

    def counted(*args):
        k, kernel, flat = build(*args)
        return k, lambda l, out: calls.append(k) or kernel(l, out), flat

    monkeypatch.setattr(montecarlo, "_chunk_kernel", counted)
    return calls


def _chunk_order_stats(scheme, cfg, kernel, n, seed):
    """(mean, std error) of kernel(l) over the stream's first n samples, reduced as estimate
    reduces with k = 0: each chunk's pairwise sums, then theirs in chunk order."""
    chunks = []
    for j, size in enumerate(_chunk_sizes(n)):
        v = kernel(optimal_squared_distance(scheme, cfg.geometry, *_chunk_ue(cfg, seed, j, size)))
        chunks.append((np.add.reduce(v), np.add.reduce(v * v)))
    total, total_sq = (np.sum(np.array(column)) for column in zip(*chunks))
    mean = float(total / n)
    return mean, math.sqrt(max(0.0, (total_sq - n * mean * mean) / (n - 1)) / n)


KERNELS = {  # metric: config -> its per-sample kernel on the squared distances
    "energy-lm": lambda cfg: lambda l: 1.0 / l,
    "energy-nlm": lambda cfg: lambda l: logistic_harvest_power(
        cfg.harvest, cfg.protocol.beta * cfg.system.received_power_w_m2 / l),
    "rate": lambda cfg: lambda l: np.log1p(cfg.system.link_snr_m2 / l),
}


FACTORS = {  # metric: (config, kernel mean m) -> the quadrature path's value at mean m
    "energy-lm": lambda cfg, m: _linear_energy(cfg.system, cfg.protocol, cfg.harvest, m),
    "energy-nlm": lambda cfg, m: cfg.protocol.alpha * m,
    "rate": lambda cfg, m: _rate(cfg.protocol, m),
}


POWERS = [10.0 ** (-2.0 + 2.0 * i / 49) for i in range(50)]
C1, C2 = (default_config(0.3).with_params(alpha=ab, beta=ab) for ab in (0.8, 0.6))
KNEE = _regime_config(Scheme.CDS, "knee")
SHARING = {  # name: (metric, series, kernel passes per chunk)
    "lm-series": ("energy-lm", [default_config(p).with_params(alpha=p / 2) for p in POWERS], 1),
    "c1-series": ("rate", [C1.with_params(transmit_power_w=p) for p in POWERS], 50),
    "c1-and-c2": ("rate", [C1, C2], 1),
    "signed-zero-link": ("rate", [C1.with_params(transmit_power_w=z) for z in (0.0, -0.0)], 2),
    "nlm-knee-alphas": ("energy-nlm", [KNEE, KNEE.with_params(alpha=0.25)], 1),
}


@pytest.mark.parametrize("case", list(SHARING))
def test_equal_kernels_share_one_sum(case, kernel_passes, drawn_chunks):
    """Each distinct kernel of a series is summed once per chunk, and each row is its
    config's factor on that kernel's chunk-order mean and standard error, bit for bit:
    the estimate of the config alone."""
    metric, series, per_chunk = SHARING[case]
    n, seed = 2 * CHUNK_SIZE + 5, 8
    rows = estimate(metric, Scheme.CDS, series, n=n, seed=seed)
    assert sorted(drawn_chunks) == [0, 1, 2]
    assert len(kernel_passes) == 3 * per_chunk and set(kernel_passes) == {0}
    for cfg, row in zip(series, rows):
        mean, se = _chunk_order_stats(Scheme.CDS, cfg, KERNELS[metric](cfg), n, seed)
        factor = FACTORS[metric]
        assert (row.mean.hex(), row.std_error.hex()) == (factor(cfg, mean).hex(),
                                                         factor(cfg, se).hex())
        assert [row] == estimate(metric, Scheme.CDS, [cfg], n=n, seed=seed)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_logistic_past_the_turn_on_draws_every_chunk(scheme, drawn_chunks):
    """Just past the turn-on at the support's far edge the samples still vary,
    so the series is not summed from a constant: each chunk is drawn once."""
    (est,) = estimate("energy-nlm", scheme, [_regime_config(scheme, "past")],
                      n=2 * CHUNK_SIZE + 5, seed=4)
    assert sorted(drawn_chunks) == [0, 1, 2]
    assert est.std_error > 0.0


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_series_mixing_a_saturated_config_draws_once(scheme, drawn_chunks):
    """A series of a past and a saturated config draws each chunk once, for
    the past one, and each row keeps the digits of its config alone."""
    cfgs = [_regime_config(scheme, name) for name in ("past", "saturated")]
    batch = estimate("energy-nlm", scheme, cfgs, n=2 * CHUNK_SIZE + 5, seed=4)
    assert sorted(drawn_chunks) == [0, 1, 2]
    assert batch == [estimate("energy-nlm", scheme, [cfg], n=2 * CHUNK_SIZE + 5, seed=4)[0]
                     for cfg in cfgs]


@pytest.mark.parametrize("metric, pt_w, model", [("rate", 0.3, "lm"), ("energy-lm", 0.3, "lm"),
                                                 ("energy-nlm", 1e-4, "nlm")])
def test_chunks_reuse_their_buffers(metric, pt_w, model):
    """A 1-worker estimate over 128 chunks takes well under 16 minor page
    faults per chunk: its buffers are made once per call, so the heap has
    no freed chunk-sized temporaries to return to the kernel and fault
    back in (a fresh 256 kB array per stage took 96-288 faults a chunk)."""
    resource = pytest.importorskip("resource")
    if resource.getrusage(resource.RUSAGE_SELF).ru_minflt == 0:
        pytest.skip("ru_minflt is not reported here")
    args = (metric, Scheme.DDS, [default_config(pt_w, model=model)], 128 * CHUNK_SIZE, 1, 1)
    estimate(*args)  # warm-up: numpy's lazy state and the allocator's thresholds settle
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    estimate(*args)
    assert (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 128 < 16


def test_mixed_geometry_batch_is_rejected(lm_config):
    other_room = lm_config.with_params(d_y=9.0)
    with pytest.raises(ValueError, match="geometry"):
        estimate("rate", Scheme.EDS, [lm_config, other_room], n=1000)
    with pytest.raises(ValueError, match="geometry"):
        estimate("rate", Scheme.EDS, [], n=1000)


# float.hex of (mean, std_error) for a fixed set of (metric, scheme, seed,
# n).  The stream is a public contract: the same seed gives the same
# digits, so any change here changes every published MC figure.  The
# logistic cases run at 1e-4 W, below saturation, so the per-sample value
# varies and the digits depend on the stream.
GOLDEN_SEED_BIG = 2**40 + 3
GOLDEN = {
    ("energy-lm", "eds", 0, 16384): ("0x1.0b1ebf782837ap-7", "0x1.98ae658b795c9p-15"),
    ("energy-lm", "eds", 0, 100003): ("0x1.0d1059f2a31dbp-7", "0x1.4c65d56f44cebp-16"),
    ("energy-lm", "eds", GOLDEN_SEED_BIG, 16384): ("0x1.0cc2fda9746b7p-7", "0x1.9a3928ada8dcap-15"),
    ("energy-lm", "eds", GOLDEN_SEED_BIG, 100003): ("0x1.0bdf9eca334eep-7", "0x1.4bf4e212d8599p-16"),
    ("energy-lm", "dds", 0, 16384): ("0x1.a281f642c0beep-7", "0x1.88ec4894f0e1cp-15"),
    ("energy-lm", "dds", 0, 100003): ("0x1.a483125ebcc3bp-7", "0x1.3dd69731511b8p-16"),
    ("energy-lm", "dds", GOLDEN_SEED_BIG, 16384): ("0x1.a5f345157db7cp-7", "0x1.882e5003a3e0bp-15"),
    ("energy-lm", "dds", GOLDEN_SEED_BIG, 100003): ("0x1.a4e2bed0012f5p-7", "0x1.3e65eaea92558p-16"),
    ("energy-nlm", "eds", 0, 16384): ("0x1.c2bc3c79a64bfp-8", "0x1.0312082dc84abp-14"),
    ("energy-nlm", "eds", 0, 100003): ("0x1.c54dccafb8417p-8", "0x1.a3a67f50fc0d2p-16"),
    ("energy-nlm", "eds", GOLDEN_SEED_BIG, 16384): ("0x1.c46bf6eaa739dp-8", "0x1.030a81a69a6afp-14"),
    ("energy-nlm", "eds", GOLDEN_SEED_BIG, 100003): ("0x1.c1bb577ff5cd5p-8", "0x1.a32508bf034f2p-16"),
    ("energy-nlm", "dds", 0, 16384): ("0x1.9162db29e77c2p-7", "0x1.ba76758e0dd9fp-15"),
    ("energy-nlm", "dds", 0, 100003): ("0x1.929846964ab58p-7", "0x1.651b5f4626148p-16"),
    ("energy-nlm", "dds", GOLDEN_SEED_BIG, 16384): ("0x1.94982348dab98p-7", "0x1.b6657786ec4fdp-15"),
    ("energy-nlm", "dds", GOLDEN_SEED_BIG, 100003): ("0x1.92f2b5cddc314p-7", "0x1.64bbadc640f08p-16"),
    ("rate", "eds", 0, 16384): ("0x1.257799f9d1da9p+2", "0x1.a4edc02b5a923p-9"),
    ("rate", "eds", 0, 100003): ("0x1.25ab836324e11p+2", "0x1.560990cd6f641p-10"),
    ("rate", "eds", GOLDEN_SEED_BIG, 16384): ("0x1.25a30bcd4dcd5p+2", "0x1.a68f1565e080cp-9"),
    ("rate", "eds", GOLDEN_SEED_BIG, 100003): ("0x1.258244166616bp+2", "0x1.55d85a1fad632p-10"),
    ("rate", "dds", 0, 16384): ("0x1.39cc28f937d56p+2", "0x1.2e7eeba558b71p-9"),
    ("rate", "dds", 0, 100003): ("0x1.39f9471de1dadp+2", "0x1.e9e9d7200fab6p-11"),
    ("rate", "dds", GOLDEN_SEED_BIG, 16384): ("0x1.3a1c3fb034348p+2", "0x1.2e2f288859017p-9"),
    ("rate", "dds", GOLDEN_SEED_BIG, 100003): ("0x1.3a0021c363176p+2", "0x1.e9e8af94482c6p-11"),
}


# sha256 of chunk j's UE x then y bytes ("ue"), and of each scheme's
# optimal squared distances on them, in the default 15 x 10 x 3 m room.
# These pin the draws under every metric: a metric change may move the
# GOLDEN digits above, never these.
GOLDEN_DRAWS = {
    (0, 0): {"ue": "517de60bb37ab569e8d42580d4e06ab91bb6463aa4b1eb56a41e2c7e6c495b90",
             "eds": "5b60ea78c6427808dbde22f87c5b52b9e2fc033597d21f99058189f457403d22",
             "cds": "4e7208f191b19826e367318c0aea6f866ceaf5a6670958e1e2d919e6efba2d8c",
             "dds": "70b00edcf383e1c24f6706dd57249d22e86d2413d36dbacb0429b2e3da12cd47"},
    (0, 1): {"ue": "27bd814c69069f00803bc172abbbf473d8c674a00fa8c7c63be94a1829ec2405",
             "eds": "8ba400a9e501d5123a1105bd1eb5a78c6f0fa06e61482fabbd50936658e236db",
             "cds": "87b8c6f53ac026dab90580f28e65e3f5648fda575f2916c19b6a2dfe200449d8",
             "dds": "93f1f6df168c30ec9a8829c1208f438ecc31b23bf6d691773fec3d04be369151"},
    (GOLDEN_SEED_BIG, 0): {
        "ue": "b47e12ae9f00a3544c86d10435e2a9f260d2d016c99c3e0b4dcf1d20f95c70f8",
        "eds": "a9fd2bb2c6281fcdf0b3854b1dcf91050411599dfc8e0a018053215442446f4d",
        "cds": "c665a3099f16d3552e2dd704d86a5e0172c12c25c82f1e39c912843ed1e7e084",
        "dds": "c3ab80718ce88346f281db8ce054274e55c4b5584f5936dba9ab8b4d5c8556c6"},
    (GOLDEN_SEED_BIG, 1): {
        "ue": "12aaf5ea267e71ad28fffd8d3d4154a4b6634bb675b9d92935ba149912459a47",
        "eds": "423a0efe1ccdc7e498cdc24c2eca327873dae2170631d60304f64809c3b67004",
        "cds": "fca64f4b3e693f43cadaf94f8acd3dbf0313f028e4740e46a4935847da456e2e",
        "dds": "b560d1d0382f7eeabbe15eb09dd3fb9903d89e1baf78a658fd149dfe51020b9e"},
}


@pytest.mark.digits
@pytest.mark.parametrize("seed, chunk", list(GOLDEN_DRAWS))
def test_draw_golden_digests(seed, chunk):
    cfg = default_config(0.3)
    x_u, y_u = _chunk_ue(cfg, seed, chunk, CHUNK_SIZE)
    got = {"ue": hashlib.sha256(x_u.tobytes() + y_u.tobytes()).hexdigest()}
    for scheme in Scheme:
        l = optimal_squared_distance(scheme, cfg.geometry, x_u, y_u)
        got[scheme.value] = hashlib.sha256(l.tobytes()).hexdigest()
    assert got == GOLDEN_DRAWS[seed, chunk]


def _golden_config(metric):
    if metric == "energy-nlm":
        return default_config(1e-4, model="nlm")
    return default_config(0.3)


@pytest.mark.digits
@pytest.mark.parametrize("case", sorted(GOLDEN, key=repr), ids=lambda c: "-".join(map(str, c)))
def test_stream_golden_digits(case):
    metric, scheme, seed, n = case
    (est,) = estimate(metric, Scheme(scheme), [_golden_config(metric)], n=n, seed=seed)
    assert (est.mean.hex(), est.std_error.hex()) == GOLDEN[case]


# The logistic metric at 0.3 W, where every sample sits on the curve's flat
# top: the estimate is that constant, alpha * saturation, bit for bit, with a
# standard error of exactly 0 and no chunk drawn, whatever the seed and n.
SATURATED_CASES = [("energy-nlm", scheme, seed, n) for scheme in ("eds", "dds")
                   for seed in (0, GOLDEN_SEED_BIG) for n in (16384, 100003)]


@pytest.mark.parametrize("case", sorted(SATURATED_CASES, key=repr),
                         ids=lambda c: "-".join(map(str, c)))
def test_saturated_logistic_golden_digits(case, drawn_chunks):
    metric, scheme, seed, n = case
    cfg = default_config(0.3, model="nlm")
    (est,) = estimate(metric, Scheme(scheme), [cfg], n=n, seed=seed)
    assert est.mean.hex() == (cfg.protocol.alpha * cfg.harvest.saturation_w).hex()
    assert est.std_error.hex() == "0x0.0p+0"
    assert drawn_chunks == []


@pytest.mark.skipif(not SIMD_DISPATCH, reason="numpy already runs at its baseline SIMD level")
def test_digits_without_simd_dispatch():
    """Every `digits` test again, in one fresh interpreter whose numpy
    dispatches no CPU feature: np.exp and np.log1p are libm's there, so
    the goldens and bitwise cases must hold at numpy's baseline level too."""
    code = ("import sys, pytest, oracles\n"
            "assert not oracles.SIMD_DISPATCH\n"
            "sys.exit(pytest.main(['-m', 'digits', '-q', '-p', 'no:cacheprovider']))\n")
    run = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parents[1],
                         env=without_simd_dispatch(), capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]


@pytest.mark.parametrize("exponent", [520, -520])
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_energy_scales_exactly_where_squares_leave_the_float_range(scheme, exponent):
    """Each sample is c / l with c linear in P_t, so at 2**±520 W, where the
    squares of the raw values over- or underflow, the estimate is the 1 W
    one times 2**±520, bit for bit: mean and standard error."""
    (ref,) = estimate("energy-lm", scheme, [default_config(1.0)], n=100_003)
    (est,) = estimate("energy-lm", scheme, [default_config(2.0**exponent)], n=100_003)
    assert (est.mean, est.std_error) == (math.ldexp(ref.mean, exponent),
                                         math.ldexp(ref.std_error, exponent))


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_rate_scales_exactly_where_squares_underflow(scheme):
    """log1p(x) is x below 2**-54, so every sample is linear in P_t at both
    2**-80 and 2**-1000 W: the estimate at 2**-1000 W, whose raw squares
    underflow, is the 2**-80 W one times 2**-920, bit for bit."""
    (ref,) = estimate("rate", scheme, [default_config(2.0**-80)], n=100_003)
    (est,) = estimate("rate", scheme, [default_config(2.0**-1000)], n=100_003)
    assert ref.std_error > 0.0
    assert (est.mean, est.std_error) == (math.ldexp(ref.mean, -920),
                                         math.ldexp(ref.std_error, -920))


def test_rate_at_a_subnormal_link_factor_keeps_its_error():
    """At 1e-320 W every mu gamma / l is subnormal: the samples are scaled
    up by at most 2**960, which keeps the leading constant finite."""
    (est,) = estimate("rate", Scheme.EDS, [default_config(1e-320)], n=20_000)
    assert 0.0 < est.std_error < est.mean < 1e-315


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_std_error_covers_the_quadrature_at_the_knee(scheme):
    """The interval mean +- 1.96 std_error holds the quadrature value in
    95% of seeded runs, within binomial 3-sigma limits: 400 seeds of 4096
    samples on the default logistic config at the scheme's knee power
    (oracles.regime_power), where its chunks straddle the turn-on."""
    cfg = default_config(regime_power(default_config(1.0, model="nlm"), scheme, "knee"), "nlm")
    exact = avg_energy_quadrature(scheme, cfg.system, cfg.protocol, cfg.geometry, cfg.harvest)
    runs = 400
    covered = sum(abs(est.mean - exact) <= 1.96 * est.std_error
                  for seed in range(runs)
                  for est in estimate("energy-nlm", scheme, [cfg], n=4096, seed=seed))
    assert abs(covered / runs - 0.95) <= 3.0 * (0.95 * 0.05 / runs) ** 0.5
