"""Seeded, worker-count-invariant Monte-Carlo estimation.

Sampling is counter-based: the stream is cut into fixed-size chunks and
chunk j draws from a Philox generator keyed by (seed, j), so sample i is
a pure function of (seed, i) and workers need no shared state.  Partial
sums are reduced in chunk order with numpy's pairwise summation, which
makes the result bitwise identical for any worker count.

estimate() takes a series of configs on one room (a power sweep, say):
each chunk is drawn once and every config is evaluated on it, so the
series shares its random numbers and each config gets the same digits
as an estimate of its own.  A config whose every sample is provably one
constant (the logistic energy saturated at the support's far edge,
alpha * phi) is that constant with a standard error of 0, and a series
of such configs draws no chunk.

Each worker thread allocates its chunk buffers once per estimate() call:
x, y and a metric row of min(n, CHUNK_SIZE) float64s.  The draw, the
squared distance (into x), each metric formula and the sum of squares
(v * v) write into them, so a chunk allocates no array and the heap
never hands its pages back to the kernel between chunks.  This moves no
bit: every element goes through the same ufuncs, on the same operands,
in the same order as with fresh arrays, and np.add.reduce over a
contiguous row is np.sum's pairwise sum.

numpy is imported inside the functions that build arrays, not with the
module, so a process that never estimates never loads it; the thread
pool's module loads only when a pool runs.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from typing import NamedTuple

from paswipt.config import Config, LinearHarvest, LogisticHarvest
from paswipt.energy import logistic_harvest_power, saturates
from paswipt.geometry import Scheme, optimal_squared_distance

CHUNK_SIZE = 1 << 15  # fixed; changing it changes every stream
DEFAULT_SAMPLES = 1_000_000  # n where no sample count is given
MAX_WORKERS = 64  # threads per estimate; a larger count is refused before any thread starts

_MASK64 = (1 << 64) - 1


class EstimateWithCI(NamedTuple):
    mean: float
    std_error: float


def _chunk_sizes(n: int) -> list[int]:
    return [min(CHUNK_SIZE, n - start) for start in range(0, n, CHUNK_SIZE)]


def check_mc_inputs(n: int, seed: int, workers: int) -> None:
    """Raise ValueError unless n >= 2, 1 <= workers <= MAX_WORKERS and seed is in [0, 2**64)."""
    if n < 2:
        raise ValueError(f"n must be >= 2 samples for a variance estimate, got {n}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be in [1, {MAX_WORKERS}], got {workers}")
    if not 0 <= seed <= _MASK64:  # the Philox key's low 64 bits; a wider seed would alias
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def _chunk_ue(config: Config, seed: int, chunk_index: int, size: int, out=(None, None)):
    """UE positions of chunk j, drawn from a Philox generator keyed by (seed, j), x before y;
    each is drawn into and scaled in its float64 array of out, or a new one."""
    import numpy as np

    g = config.geometry
    rng = np.random.Generator(np.random.Philox(key=seed | (chunk_index << 64)))
    x_u = rng.random(size, out=out[0])
    x_u *= g.d_x
    y_u = rng.random(size, out=out[1])
    y_u *= g.d_y
    return x_u, y_u


def _scaled(const: float, top: float) -> tuple[int, float]:
    """(k, const * 2**-k), k = 0 where top, a kernel's value at l = h^2, is in [2**-480, 2**480],
    else 2**-k top is in [0.5, 1): no square over- or underflows (k >= -960 keeps const finite)."""
    k = 0 if 2.0**-480 <= top <= 2.0**480 else max(math.frexp(top)[1], -960)
    return k, math.ldexp(const, -k)


def _chunk_kernel(metric: str, scheme: Scheme, config: Config):
    """(k, flat, (l, out) -> 2**-k times one config's metric on a chunk's squared distances,
    written into out, in the formula's IEEE order): the formula at l = h^2 on its unscaled
    constant picks k, and the exact 2**-k is folded into that constant by _scaled.  flat is
    alpha * phi, every sample's value, where the logistic curve `saturates`, else None."""
    import numpy as np

    p, s, model, h = config.protocol, config.system, config.harvest, config.geometry.height
    if metric == "energy-lm":
        if not isinstance(model, LinearHarvest):
            raise ValueError("energy-lm requires a LinearHarvest config")
        const = p.alpha * p.beta * model.eta * s.received_power_w_m2

        def formula(c, l, out):  # c / l
            return np.divide(c, l, out=out)
    elif metric == "energy-nlm":
        if not isinstance(model, LogisticHarvest):
            raise ValueError("energy-nlm requires a LogisticHarvest config")
        c_in, const = p.beta * s.received_power_w_m2, p.alpha

        def formula(alpha, l, out):  # alpha * logistic(c_in / l)
            p_in = np.divide(c_in, l, out=out)
            return np.multiply(alpha, logistic_harvest_power(model, p_in, out=out), out=out)
    elif metric == "rate":
        mu_gamma, const = s.link_snr_m2, 1.0 - p.alpha * p.beta

        def formula(scale, l, out):  # scale * log1p(mu_gamma / l) / ln 2
            nats = np.log1p(np.divide(mu_gamma, l, out=out), out=out)
            return np.divide(np.multiply(scale, nats, out=out), math.log(2.0), out=out)
    else:
        raise ValueError(f"unknown metric {metric!r}; expected energy-lm, energy-nlm or rate")
    k, const = _scaled(const, formula(const, h * h, out=None))
    saturated = metric == "energy-nlm" and saturates(model, c_in, scheme, config.geometry)
    flat = p.alpha * model.saturation_w if saturated else None
    return k, flat, lambda l, out: formula(const, l, out)


def estimate(
    metric: str,
    scheme: Scheme,
    configs: Sequence[Config],
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
    workers: int = 1,
) -> list[EstimateWithCI]:
    """Sample mean and standard error of the per-UE metric, one per config.

    Pipeline per sample: uniform UE draw -> optimal antenna placement -> squared
    distance -> metric formula.  The configs must share one room: each chunk's squared
    distances are computed once and every config's metric is summed over them, so memory
    stays at one chunk and each result is bitwise the estimate of that config alone.  A
    logistic config saturated at the support's far edge is its constant alpha * phi, with a
    standard error of 0; the chunks are drawn only if some config is not, and workers > 1 then
    runs them on a thread pool (the Philox fills and numpy ufuncs release the GIL).
    """
    import numpy as np

    check_mc_inputs(n, seed, workers)
    if len({cfg.geometry for cfg in configs}) != 1:
        raise ValueError("estimate needs a non-empty series of configs sharing one geometry")
    kernels = [_chunk_kernel(metric, scheme, cfg) for cfg in configs]
    geom = configs[0].geometry
    sizes = _chunk_sizes(n)
    local = threading.local()

    def sums(v):  # (sum, sum of squares) of a metric row: np.sum's pairwise sums
        return np.add.reduce(v), np.add.reduce(np.multiply(v, v, out=v))

    def chunk_stats(j: int):
        if not hasattr(local, "buffers"):  # this thread's x, y and metric rows
            local.buffers = np.empty((3, sizes[0]))
        x, y, v = (row[:sizes[j]] for row in local.buffers)  # cut to chunk j
        l = optimal_squared_distance(scheme, geom, *_chunk_ue(configs[0], seed, j, sizes[j],
                                                              out=(x, y)), out=x)
        return [sums(kernel(l, v)) for _, flat, kernel in kernels if flat is None]

    todo = range(len(sizes) if None in [flat for _, flat, _ in kernels] else 0)  # all or none
    if workers > 1 and len(todo) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(workers, len(todo))) as pool:
            chunks = list(pool.map(chunk_stats, todo))
    else:
        chunks = [chunk_stats(j) for j in todo]

    results, drawn_stats = [], zip(*chunks)
    for k, flat, _ in kernels:
        if flat is not None:
            results.append(EstimateWithCI(flat, 0.0))
            continue
        per_chunk = zip(*next(drawn_stats))  # (sums, sums of squares) in chunk order
        total, total_sq = (np.sum(np.array(column)) for column in per_chunk)
        mean = total / n
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        results.append(EstimateWithCI(math.ldexp(mean, k), math.ldexp(math.sqrt(var / n), k)))
    return results
