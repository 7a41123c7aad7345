"""Seeded, worker-count-invariant Monte-Carlo estimation.

Sampling is counter-based: the stream is cut into fixed-size chunks and
chunk j draws from a Philox generator keyed by (seed, j), so sample i is
a pure function of (seed, i) and workers need no shared state.  Partial
sums are reduced in chunk order with numpy's pairwise summation, which
makes the result bitwise identical for any worker count.

estimate() takes a series of configs on one room (a power sweep, say):
each chunk is drawn once and every config is evaluated on it, so the
series shares its random numbers and each config gets the same digits
as an estimate of its own.

numpy is imported inside the functions that build arrays, not with the
module, so a process that never estimates never loads it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from paswipt.config import Config, LinearHarvest, LogisticHarvest
from paswipt.energy import logistic_harvest_power
from paswipt.geometry import Scheme, optimal_squared_distance

CHUNK_SIZE = 1 << 15  # fixed; changing it changes every stream

_MASK64 = (1 << 64) - 1

METRICS = ("energy-lm", "energy-nlm", "rate")


@dataclass(frozen=True)
class EstimateWithCI:
    mean: float
    std_error: float
    n_samples: int
    seed: int


def _chunk_sizes(n: int) -> list[int]:
    return [min(CHUNK_SIZE, n - start) for start in range(0, n, CHUNK_SIZE)]


def check_mc_inputs(n: int, seed: int, workers: int) -> None:
    """Raise ValueError unless n >= 2, workers >= 1 and seed is in [0, 2**64)."""
    if n < 2:
        raise ValueError(f"n must be >= 2 samples for a variance estimate, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not 0 <= seed <= _MASK64:  # the Philox key's low 64 bits; a wider seed would alias
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def _chunk_ue(config: Config, seed: int, chunk_index: int, size: int):
    """UE positions of chunk j, drawn from a Philox generator keyed by (seed, j)."""
    import numpy as np

    g = config.geometry
    rng = np.random.Generator(np.random.Philox(key=seed | (chunk_index << 64)))
    x_u = rng.random(size) * g.d_x
    y_u = rng.random(size) * g.d_y
    assert np.all((x_u >= 0) & (x_u <= g.d_x) & (y_u >= 0) & (y_u <= g.d_y))
    return x_u, y_u


def _chunk_distance(scheme: Scheme, config: Config, seed: int, chunk_index: int, size: int):
    """Squared distances at the optimal placement for chunk j of the stream."""
    x_u, y_u = _chunk_ue(config, seed, chunk_index, size)
    return optimal_squared_distance(scheme, config.geometry, x_u, y_u)


def _metric_values(metric: str, config: Config, l):
    p = config.protocol
    s = config.system
    if metric == "energy-lm":
        model = config.harvest
        if not isinstance(model, LinearHarvest):
            raise ValueError("energy-lm requires a LinearHarvest config")
        return p.alpha * p.beta * model.eta * s.transmit_power_w / l
    if metric == "energy-nlm":
        model = config.harvest
        if not isinstance(model, LogisticHarvest):
            raise ValueError("energy-nlm requires a LogisticHarvest config")
        return p.alpha * logistic_harvest_power(model, p.beta * s.transmit_power_w / l)
    if metric == "rate":
        import numpy as np

        mu_gamma = s.path_loss_factor_m2 * s.transmit_snr
        return (1.0 - p.alpha * p.beta) * np.log1p(mu_gamma / l) / math.log(2.0)
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def estimate(
    metric: str,
    scheme: Scheme,
    configs: Sequence[Config],
    n: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> list[EstimateWithCI]:
    """Sample mean and standard error of the per-UE metric, one per config.

    Pipeline per sample: uniform UE draw -> optimal antenna placement ->
    squared distance -> metric formula.  The configs must share one room:
    each chunk's squared distances are computed once and every config's
    metric is summed over them, so memory stays at one chunk and each
    result is bitwise the estimate of that config alone.  workers > 1 runs
    the chunks on a thread pool: the Philox fills and numpy ufuncs release
    the GIL.
    """
    import numpy as np

    check_mc_inputs(n, seed, workers)
    if len({cfg.geometry for cfg in configs}) != 1:
        raise ValueError("estimate needs a non-empty series of configs sharing one geometry")
    sizes = _chunk_sizes(n)

    def chunk_stats(j: int):
        l = _chunk_distance(scheme, configs[0], seed, j, sizes[j])
        stats = []
        for cfg in configs:
            v = _metric_values(metric, cfg, l)
            stats.append((np.sum(v), np.sum(v * v)))
        return stats

    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(sizes))) as pool:
            chunks = list(pool.map(chunk_stats, range(len(sizes))))
    else:
        chunks = [chunk_stats(j) for j in range(len(sizes))]

    results = []
    for per_chunk in zip(*chunks):  # one config's (sum, sum of squares) in chunk order
        total = np.sum(np.array([s for s, _ in per_chunk]))
        total_sq = np.sum(np.array([q for _, q in per_chunk]))
        mean = total / n
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        results.append(EstimateWithCI(
            mean=float(mean),
            std_error=float(math.sqrt(var / n)),
            n_samples=n,
            seed=seed,
        ))
    return results
