"""Seeded, worker-count-invariant Monte-Carlo estimation.

Sampling is counter-based: the stream is cut into fixed-size chunks and
chunk j draws from a Philox generator keyed by (seed, j), so sample i is
a pure function of (seed, i) and workers need no shared state.  Partial
sums are reduced in chunk order with numpy's pairwise summation, which
makes the result bitwise identical for any worker count.

A sweep evaluates many metrics and powers on one scheme, room, seed and
n; distance_stream() draws that stream once and estimate(..., stream=)
reuses it, which gives every column the same digits as drawing afresh.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from paswipt.config import Config, LinearHarvest, LogisticHarvest, RegionGeometry
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


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    if not 0 <= seed <= _MASK64:  # the key's low 64 bits; a wider seed would alias
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    key = seed | (chunk_index << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_ue(config: Config, seed: int, chunk_index: int, size: int):
    g = config.geometry
    rng = _chunk_rng(seed, chunk_index)
    x_u = rng.random(size) * g.d_x
    y_u = rng.random(size) * g.d_y
    assert np.all((x_u >= 0) & (x_u <= g.d_x) & (y_u >= 0) & (y_u <= g.d_y))
    return x_u, y_u


def sample_ue_stream(config: Config, seed: int, n: int):
    """The first n UE positions of the stream, as (x, y) arrays."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xs, ys = [], []
    for j, size in enumerate(_chunk_sizes(n)):
        x_u, y_u = _chunk_ue(config, seed, j, size)
        xs.append(x_u)
        ys.append(y_u)
    return np.concatenate(xs), np.concatenate(ys)


def _chunk_distance(scheme: Scheme, config: Config, seed: int, chunk_index: int, size: int):
    """Squared distances at the optimal placement for chunk j of the stream."""
    x_u, y_u = _chunk_ue(config, seed, chunk_index, size)
    return optimal_squared_distance(scheme, config.geometry, x_u, y_u)


@dataclass(frozen=True)
class DistanceStream:
    """The squared-distance stream of one (scheme, geometry, seed, n), kept
    chunk by chunk so several metrics can be estimated on the same draws
    (common random numbers).  Holds 8 * n bytes."""

    scheme: Scheme
    geometry: RegionGeometry
    seed: int
    n: int
    chunks: tuple[np.ndarray, ...]


def distance_stream(scheme: Scheme, config: Config, n: int, seed: int = 0) -> DistanceStream:
    """Draw the stream once; pass it to estimate(..., stream=...) for every
    metric and power evaluated on the same scheme, room, seed and n."""
    chunks = []
    for j, size in enumerate(_chunk_sizes(n)):
        l = _chunk_distance(scheme, config, seed, j, size)
        l.flags.writeable = False  # shared read-only by every estimate
        chunks.append(l)
    return DistanceStream(scheme, config.geometry, seed, n, tuple(chunks))


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
        mu_gamma = s.path_loss_factor_m2 * s.transmit_snr
        return (1.0 - p.alpha * p.beta) * np.log1p(mu_gamma / l) / math.log(2.0)
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def estimate(
    metric: str,
    scheme: Scheme,
    config: Config,
    n: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
    *,
    stream: DistanceStream | None = None,
) -> EstimateWithCI:
    """Sample mean and standard error of the per-UE metric.

    Pipeline per sample: uniform UE draw -> optimal antenna placement ->
    squared distance -> metric formula.  With a stream from
    distance_stream() the first three steps are read from it instead of
    redone; the result is bitwise the same.  workers > 1 runs the chunks
    on a thread pool: the Philox fills and numpy ufuncs release the GIL.
    """
    if n < 2:
        raise ValueError("n must be >= 2 for a variance estimate")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if stream is not None and (stream.scheme, stream.geometry, stream.seed, stream.n) != (
        scheme, config.geometry, seed, n
    ):
        raise ValueError(
            f"stream was drawn for scheme={stream.scheme.value} seed={stream.seed} "
            f"n={stream.n} geometry={stream.geometry}, not scheme={scheme.value} "
            f"seed={seed} n={n} geometry={config.geometry}"
        )
    sizes = _chunk_sizes(n)

    def chunk_stats(j: int):
        if stream is not None:
            l = stream.chunks[j]
        else:
            l = _chunk_distance(scheme, config, seed, j, sizes[j])
        v = _metric_values(metric, config, l)
        return np.sum(v), np.sum(v * v)

    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(sizes))) as pool:
            stats = list(pool.map(chunk_stats, range(len(sizes))))
    else:
        stats = [chunk_stats(j) for j in range(len(sizes))]

    sums = np.array([s for s, _ in stats])
    sumsqs = np.array([q for _, q in stats])
    total = np.sum(sums)
    total_sq = np.sum(sumsqs)
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
    return EstimateWithCI(
        mean=float(mean),
        std_error=float(math.sqrt(var / n)),
        n_samples=n,
        seed=seed,
    )
