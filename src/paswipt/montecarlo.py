"""Seeded, worker-count-invariant Monte-Carlo estimation.

Sampling is counter-based: the stream is cut into fixed-size chunks and
chunk j draws from a Philox generator keyed by (seed, j), so sample i is
a pure function of (seed, i) and workers need no shared state.  Partial
sums are reduced in chunk order with numpy's pairwise summation, which
makes the result bitwise identical for any worker count.

estimate() takes a series of configs on one room (a power sweep, say):
each chunk is drawn once and summed under each distinct kernel of the
series, the quadrature's integrand.  A config's mean and standard error
are its factor times its kernel's, in the quadrature's expression, so it
gets the same digits as an estimate of its own.  A kernel that is phi at
every sample (`saturates`) sums nothing, and such a series draws nothing.

Each worker thread allocates its chunk buffers once per estimate() call:
x, y and a kernel row of min(n, CHUNK_SIZE) float64s.  The draw, the
squared distance (into x), each kernel and the sum of squares (v * v)
write into them, so a chunk allocates no array and the heap never hands
its pages back to the kernel between chunks; np.add.reduce over such a
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

from paswipt.config import Config, LinearHarvest, LogisticHarvest, RegionGeometry
from paswipt.energy import _linear_energy, logistic_harvest_power, saturates
from paswipt.geometry import Scheme, optimal_squared_distance
from paswipt.rate import _rate

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


def _scaled(top: float) -> int:
    """k = 0 where top, a kernel's value at l = h^2, is in [2**-480, 2**480], else 2**-k top is
    in [0.5, 1): no square over- or underflows (k >= -960 keeps 2**-k finite)."""
    return 0 if 2.0**-480 <= top <= 2.0**480 else max(math.frexp(top)[1], -960)


def _config_terms(metric: str, config: Config):
    """(key, factor): the config's kernel as its quadrature memo's arguments, and its value at m."""
    p, s, model = config.protocol, config.system, config.harvest
    if metric == "rate":
        return (s.link_snr_m2, math.copysign(1.0, s.link_snr_m2)), lambda m: _rate(p, m)
    if metric == "energy-lm":
        return (None, 1.0, 1.0), lambda m: _linear_energy(s, p, model, m)
    c = p.beta * s.received_power_w_m2
    return (model, c, math.copysign(1.0, c)), lambda m: p.alpha * m


def _chunk_kernel(metric: str, key: tuple, scheme: Scheme, geom: RegionGeometry):
    """(k, kernel, flat): kernel(l, out) writes 2**-k times log1p(mu_gamma / l), 1 / l or the
    logistic power from c / l into out, k picked by _scaled at l = h^2; flat is phi where the
    curve `saturates` (its kernel is built, for the curve call at h^2, but never run), else None."""
    import numpy as np

    model, c = (None, key[0]) if metric == "rate" else key[:2]

    def formula(l, out):
        v = np.divide(c, l, out=out)
        if metric == "rate":
            return np.log1p(v, out=out)
        return v if model is None else logistic_harvest_power(model, v, out=out)

    k = _scaled(formula(geom.height * geom.height, None))
    flat = model.saturation_w if model is not None and saturates(model, c, scheme, geom) else None
    if k:
        return k, lambda l, out: np.multiply(formula(l, out), math.ldexp(1.0, -k), out=out), flat
    return k, formula, flat


def estimate(
    metric: str,
    scheme: Scheme,
    configs: Sequence[Config],
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
    workers: int = 1,
) -> list[EstimateWithCI]:
    """Sample mean and standard error of the per-UE metric, one per config.

    Pipeline per sample: uniform UE draw -> optimal antenna placement -> squared distance
    -> kernel.  The configs must share one room; a row is its config's factor times its
    kernel's mean and standard error, bitwise the estimate of that config alone.  Chunks are
    drawn only if some kernel is not saturated, and workers > 1 runs them on a thread pool
    (the Philox fills and numpy ufuncs release the GIL).
    """
    import numpy as np

    check_mc_inputs(n, seed, workers)
    if len({cfg.geometry for cfg in configs}) != 1:
        raise ValueError("estimate needs a non-empty series of configs sharing one geometry")
    models = {"energy-lm": LinearHarvest, "energy-nlm": LogisticHarvest, "rate": object}
    if metric not in models:
        raise ValueError(f"unknown metric {metric!r}; expected energy-lm, energy-nlm or rate")
    if not all(isinstance(cfg.harvest, models[metric]) for cfg in configs):
        raise ValueError(f"{metric} requires a {models[metric].__name__} config")
    terms = [_config_terms(metric, cfg) for cfg in configs]
    geom = configs[0].geometry
    kernels = {key: _chunk_kernel(metric, key, scheme, geom) for key, _ in terms}
    drawn = [key for key, (_, _, flat) in kernels.items() if flat is None]
    sizes = _chunk_sizes(n)
    local = threading.local()

    def sums(v):  # (sum, sum of squares) of a kernel row: np.sum's pairwise sums
        return np.add.reduce(v), np.add.reduce(np.multiply(v, v, out=v))

    def chunk_stats(j: int):
        if not hasattr(local, "buffers"):  # this thread's x, y and kernel rows
            local.buffers = np.empty((3, sizes[0]))
        x, y, v = (row[:sizes[j]] for row in local.buffers)  # cut to chunk j
        l = optimal_squared_distance(scheme, geom, *_chunk_ue(configs[0], seed, j, sizes[j],
                                                              out=(x, y)), out=x)
        return [sums(kernels[key][1](l, v)) for key in drawn]

    todo = range(len(sizes) if drawn else 0)  # all or none
    if workers > 1 and len(todo) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(workers, len(todo))) as pool:
            chunks = list(pool.map(chunk_stats, todo))
    else:
        chunks = [chunk_stats(j) for j in todo]

    means = {key: (flat, 0.0) for key, (_, _, flat) in kernels.items() if flat is not None}
    for key, per_chunk in zip(drawn, zip(*chunks)):  # (sums, sums of squares) in chunk order
        total, total_sq = (np.sum(np.array(column)) for column in zip(*per_chunk))
        mean = total / n
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        means[key] = tuple(math.ldexp(x, kernels[key][0]) for x in (mean, math.sqrt(var / n)))
    # abs: a factor of -0.0 (alpha = -0.0) signs the mean, never the standard error
    return [EstimateWithCI(factor(means[key][0]), abs(factor(means[key][1])))
            for key, factor in terms]
