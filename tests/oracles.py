"""Test-only oracles on numpy arrays.

Brute-force and inverse-transform references that check the package but
that the package itself never calls, kept here so that `src/` imports
numpy only where it builds arrays of its own.
"""

import numpy as np

from paswipt.config import Config, RegionGeometry, SystemParams
from paswipt.distributions import SquaredDistanceDistribution
from paswipt.geometry import Scheme, UePosition
from paswipt.montecarlo import _chunk_sizes, _chunk_ue, check_mc_inputs


def min_squared_distance_bruteforce(
    scheme: Scheme, geom: RegionGeometry, ue: UePosition, grid_points: int = 10_000
) -> float:
    """Grid-search oracle for the closed-form optimum.

    Minimizes over grid_points uniformly spaced antenna positions along
    the waveguide; always >= the true minimum.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    xs = np.linspace(0.0, geom.d_x, grid_points)
    if scheme is Scheme.EDS:
        ys = np.zeros_like(xs)
    elif scheme is Scheme.CDS:
        ys = np.full_like(xs, geom.d_y / 2.0)
    else:
        ys = geom.aspect_ratio * xs
    d2 = (xs - ue.x) ** 2 + (ys - ue.y) ** 2 + geom.height**2
    return float(d2.min())


def ground_projection_cdf(geometry: RegionGeometry, x) -> float:
    """CDF of the perpendicular distance from a uniform UE to the room
    diagonal: (2 L x - x^2) / L^2 on [0, L], clamped outside."""
    lam = geometry.diagonal_half_width
    x = np.asarray(x, dtype=float)
    val = (2.0 * lam * x - x**2) / lam**2
    out = np.clip(np.where(x < 0.0, 0.0, np.where(x > lam, 1.0, val)), 0.0, 1.0)
    return out if out.ndim else float(out)


def sample_squared_distance(dist: SquaredDistanceDistribution, u):
    """Inverse-CDF transform of uniform(0,1) variates to dist's law."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie strictly in (0, 1)")
    h2 = dist.geometry.height**2
    if dist.scheme is Scheme.DDS:
        lam = dist.geometry.diagonal_half_width
        s = lam * (1.0 - np.sqrt(1.0 - u))
    else:
        s = u * dist.geometry.d_y / dist.scheme.line_factor
    out = h2 + s**2
    return out if out.ndim else float(out)


def sample_ue_stream(config: Config, seed: int, n: int):
    """The first n UE positions of the Monte-Carlo stream, as (x, y) arrays."""
    check_mc_inputs(n, seed, workers=1)
    xs, ys = [], []
    for j, size in enumerate(_chunk_sizes(n)):
        x_u, y_u = _chunk_ue(config, seed, j, size)
        xs.append(x_u)
        ys.append(y_u)
    return np.concatenate(xs), np.concatenate(ys)


def snr(system: SystemParams, squared_distance) -> float:
    """mu * gamma_bar / L.  The propagation phase factor has unit modulus
    and never enters the magnitude."""
    squared_distance = np.asarray(squared_distance, dtype=float)
    out = system.path_loss_factor_m2 * system.transmit_snr / squared_distance
    return out if out.ndim else float(out)
