import sys

import numpy as np
import pytest
from scipy import stats

from paswipt.config import LinearHarvest, ProtocolParams, default_config
from paswipt.energy import avg_energy_lm_closed, avg_energy_nlm_bound
from paswipt.geometry import Scheme
from paswipt.montecarlo import (
    CHUNK_SIZE,
    _chunk_distance,
    estimate,
)
from paswipt.rate import avg_rate_closed

from oracles import sample_ue_stream


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
    g = lm_config.geometry
    n = 1_000_000
    x, y = sample_ue_stream(lm_config, seed=9, n=n)
    assert np.all((x >= 0) & (x <= g.d_x) & (y >= 0) & (y <= g.d_y))
    # uniform mean within 4 sigma
    tol = 4 * g.d_x / np.sqrt(12 * n)
    assert abs(x.mean() - g.d_x / 2) < tol
    ks = stats.kstest(y, stats.uniform(loc=0, scale=g.d_y).cdf)
    assert ks.statistic < 0.0019  # 99% one-sample critical value at n=1e6


def test_worker_count_invariance(lm_config):
    kwargs = dict(n=100_000, seed=123)
    (ref,) = estimate("energy-lm", Scheme.DDS, [lm_config], workers=1, **kwargs)
    for workers in (4, 8):
        (est,) = estimate("energy-lm", Scheme.DDS, [lm_config], workers=workers, **kwargs)
        assert est.mean == ref.mean  # bitwise
        assert est.std_error == ref.std_error


def test_threads_sharing_a_stream_match_serial(lm_config):
    # More threads than cores, switching as often as the interpreter allows,
    # each evaluating a whole power series on its chunks: any lost or
    # reordered chunk or config changes the digits.
    n = 10 * CHUNK_SIZE + 17
    configs = [lm_config.with_params(transmit_power_w=p) for p in (0.01, 0.3, 1.0)]
    refs = [estimate("energy-lm", Scheme.DDS, [cfg], n=n, seed=6, workers=1)[0] for cfg in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert estimate("energy-lm", Scheme.DDS, configs, n=n, seed=6, workers=8) == refs
    finally:
        sys.setswitchinterval(interval)


def test_batch_matches_single_config_estimates(lm_config):
    # powers, protocols and harvesters of one room share the draws; every
    # estimate of the batch is bitwise the estimate of its config alone
    configs = [lm_config.with_params(transmit_power_w=0.01), lm_config,
               lm_config.with_params(alpha=0.3, beta=0.9, harvest=LinearHarvest(eta=0.5))]
    n = 2 * CHUNK_SIZE + 5
    for metric in ("energy-lm", "rate"):
        batch = estimate(metric, Scheme.CDS, configs, n=n, seed=12)
        assert batch == [estimate(metric, Scheme.CDS, [cfg], n=n, seed=12)[0] for cfg in configs]


def test_batch_draws_each_chunk_once(lm_config, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[3])  # the chunk index
        return _chunk_distance(*args)

    monkeypatch.setattr("paswipt.montecarlo._chunk_distance", counted)
    configs = [lm_config.with_params(transmit_power_w=p) for p in (0.1, 0.2, 0.3, 0.4)]
    estimate("rate", Scheme.EDS, configs, n=3 * CHUNK_SIZE, seed=1, workers=2)
    assert sorted(calls) == [0, 1, 2]


def test_mixed_geometry_batch_is_rejected(lm_config):
    other_room = lm_config.with_params(d_y=9.0)
    with pytest.raises(ValueError, match="geometry"):
        estimate("rate", Scheme.EDS, [lm_config, other_room], n=1000)
    with pytest.raises(ValueError, match="geometry"):
        estimate("rate", Scheme.EDS, [], n=1000)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_agrees_with_lm_energy_closed_form(scheme, lm_config):
    s, p, g = lm_config.system, lm_config.protocol, lm_config.geometry
    closed = avg_energy_lm_closed(scheme, s, p, g, lm_config.harvest)
    (est,) = estimate("energy-lm", scheme, [lm_config], n=1_000_000, seed=8)
    assert abs(est.mean - closed) <= 4 * est.std_error


@pytest.mark.parametrize("scheme", list(Scheme))
def test_agrees_with_rate_closed_form(scheme, lm_config):
    s, p, g = lm_config.system, lm_config.protocol, lm_config.geometry
    closed = avg_rate_closed(scheme, s, p, g).value_bits_s_hz
    (est,) = estimate("rate", scheme, [lm_config], n=1_000_000, seed=8)
    assert abs(est.mean - closed) <= 4 * est.std_error


@pytest.mark.parametrize("scheme", list(Scheme))
def test_nlm_estimate_below_jensen_bound(scheme, nlm_config):
    s, p, g = nlm_config.system, nlm_config.protocol, nlm_config.geometry
    bound = avg_energy_nlm_bound(scheme, s, p, g, nlm_config.harvest)
    (est,) = estimate("energy-nlm", scheme, [nlm_config], n=1_000_000, seed=8)
    assert est.mean <= bound + 4 * est.std_error + 1e-12


def test_estimate_records_inputs(lm_config):
    (est,) = estimate("rate", Scheme.EDS, [lm_config], n=5000, seed=77)
    assert est.n_samples == 5000
    assert est.seed == 77
    assert est.std_error > 0


# float.hex of (mean, std_error) for a fixed set of (metric, scheme, seed,
# n).  The stream is a public contract: the same seed gives the same
# digits, so any change here changes every published MC figure.  The
# logistic cases run at 1e-4 W, below saturation, so the per-sample value
# varies and the digits depend on the stream.
GOLDEN_SEED_BIG = 2**40 + 3
GOLDEN = {
    ("energy-lm", "eds", 0, 16384): ("0x1.0b1ebf782837ap-7", "0x1.98ae658b795c9p-15"),
    ("energy-lm", "eds", 0, 100003): ("0x1.0d1059f2a31dbp-7", "0x1.4c65d56f44ceap-16"),
    ("energy-lm", "eds", GOLDEN_SEED_BIG, 16384): ("0x1.0cc2fda9746b7p-7", "0x1.9a3928ada8dcbp-15"),
    ("energy-lm", "eds", GOLDEN_SEED_BIG, 100003): ("0x1.0bdf9eca334eep-7", "0x1.4bf4e212d8599p-16"),
    ("energy-lm", "dds", 0, 16384): ("0x1.a281f642c0beep-7", "0x1.88ec4894f0e1cp-15"),
    ("energy-lm", "dds", 0, 100003): ("0x1.a483125ebcc3dp-7", "0x1.3dd69731511afp-16"),
    ("energy-lm", "dds", GOLDEN_SEED_BIG, 16384): ("0x1.a5f345157db7cp-7", "0x1.882e5003a3e0fp-15"),
    ("energy-lm", "dds", GOLDEN_SEED_BIG, 100003): ("0x1.a4e2bed0012f4p-7", "0x1.3e65eaea9255cp-16"),
    ("energy-nlm", "eds", 0, 16384): ("0x1.c2bc3c79a64c0p-8", "0x1.0312082dc84aap-14"),
    ("energy-nlm", "eds", 0, 100003): ("0x1.c54dccafb8417p-8", "0x1.a3a67f50fc0cfp-16"),
    ("energy-nlm", "eds", GOLDEN_SEED_BIG, 16384): ("0x1.c46bf6eaa739ep-8", "0x1.030a81a69a6aep-14"),
    ("energy-nlm", "eds", GOLDEN_SEED_BIG, 100003): ("0x1.c1bb577ff5cd5p-8", "0x1.a32508bf034f0p-16"),
    ("energy-nlm", "dds", 0, 16384): ("0x1.9162db29e77c4p-7", "0x1.ba76758e0dd93p-15"),
    ("energy-nlm", "dds", 0, 100003): ("0x1.929846964ab5ap-7", "0x1.651b5f4626140p-16"),
    ("energy-nlm", "dds", GOLDEN_SEED_BIG, 16384): ("0x1.94982348dab9bp-7", "0x1.b6657786ec4ebp-15"),
    ("energy-nlm", "dds", GOLDEN_SEED_BIG, 100003): ("0x1.92f2b5cddc316p-7", "0x1.64bbadc640efdp-16"),
    ("rate", "eds", 0, 16384): ("0x1.257799f9d1da8p+2", "0x1.a4edc02b5a9e6p-9"),
    ("rate", "eds", 0, 100003): ("0x1.25ab836324e10p+2", "0x1.560990cd6f696p-10"),
    ("rate", "eds", GOLDEN_SEED_BIG, 16384): ("0x1.25a30bcd4dcd5p+2", "0x1.a68f1565e0771p-9"),
    ("rate", "eds", GOLDEN_SEED_BIG, 100003): ("0x1.258244166616bp+2", "0x1.55d85a1fad5ffp-10"),
    ("rate", "dds", 0, 16384): ("0x1.39cc28f937d56p+2", "0x1.2e7eeba558bdap-9"),
    ("rate", "dds", 0, 100003): ("0x1.39f9471de1dadp+2", "0x1.e9e9d7200f957p-11"),
    ("rate", "dds", GOLDEN_SEED_BIG, 16384): ("0x1.3a1c3fb034348p+2", "0x1.2e2f288858f8cp-9"),
    ("rate", "dds", GOLDEN_SEED_BIG, 100003): ("0x1.3a0021c363175p+2", "0x1.e9e8af94483e6p-11"),
}


def _golden_config(metric):
    if metric == "energy-nlm":
        return default_config(1e-4, model="nlm")
    return default_config(0.3)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(GOLDEN, key=repr), ids=lambda c: "-".join(map(str, c)))
def test_stream_golden_digits(case, workers):
    metric, scheme, seed, n = case
    (est,) = estimate(metric, Scheme(scheme), [_golden_config(metric)], n=n, seed=seed,
                      workers=workers)
    assert (est.mean.hex(), est.std_error.hex()) == GOLDEN[case]


# The logistic metric at 0.3 W, where every sample sits on the curve's flat
# top: the per-sample value is the constant alpha * saturation, and these
# digits pin the saturated chunks' bits (recorded before the logistic
# curve gained its saturation shortcut).
GOLDEN_SATURATED = {
    ("energy-nlm", scheme, seed, n): ("0x1.0624dd2f1a9fep-6", "0x0.0p+0")
    for scheme in ("eds", "dds") for seed in (0, GOLDEN_SEED_BIG) for n in (16384, 100003)
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(GOLDEN_SATURATED, key=repr),
                         ids=lambda c: "-".join(map(str, c)))
def test_saturated_logistic_golden_digits(case, workers):
    metric, scheme, seed, n = case
    (est,) = estimate(metric, Scheme(scheme), [default_config(0.3, model="nlm")], n=n,
                      seed=seed, workers=workers)
    assert (est.mean.hex(), est.std_error.hex()) == GOLDEN_SATURATED[case]
