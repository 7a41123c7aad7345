"""Waveguide deployment schemes and optimal antenna placement.

The canonical random variable everywhere downstream is the SQUARED
antenna-user distance (support starts at height^2); no API returns an
un-squared distance, to keep the distribution and rate/energy layers
unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from paswipt.config import RegionGeometry


class Scheme(str, Enum):
    EDS = "eds"  # waveguide along y = 0
    CDS = "cds"  # waveguide along y = d_y / 2
    DDS = "dds"  # waveguide along the diagonal y = k x

    @property
    def line_factor(self) -> int:
        """The 1-or-2 factor distinguishing edge from center placement."""
        if self is Scheme.EDS:
            return 1
        if self is Scheme.CDS:
            return 2
        raise ValueError("line_factor is defined only for EDS/CDS")


@dataclass(frozen=True)
class UePosition:
    x: float
    y: float


@dataclass(frozen=True)
class AntennaPosition:
    x: float
    y: float


def _check_ue(geom: RegionGeometry, ue: UePosition) -> None:
    if not (0.0 <= ue.x <= geom.d_x and 0.0 <= ue.y <= geom.d_y):
        raise ValueError(f"UE ({ue.x}, {ue.y}) outside rectangle [0,{geom.d_x}]x[0,{geom.d_y}]")


def optimal_antenna_position(scheme: Scheme, geom: RegionGeometry, ue: UePosition) -> AntennaPosition:
    """Closest waveguide point to the UE (perpendicular foot).

    EDS/CDS drop straight onto the horizontal line; for the diagonal the
    foot is x_p = (x_u + k y_u) / (1 + k^2).  For a UE inside the
    rectangle the foot provably lands in [0, d_x]; asserted rather than
    clamped so geometry bugs surface instead of being masked.
    """
    _check_ue(geom, ue)
    if scheme is Scheme.EDS:
        pos = AntennaPosition(ue.x, 0.0)
    elif scheme is Scheme.CDS:
        pos = AntennaPosition(ue.x, geom.d_y / 2.0)
    else:
        k = geom.aspect_ratio
        x_p = (ue.x + k * ue.y) / (1.0 + k * k)
        pos = AntennaPosition(x_p, k * x_p)
    assert -1e-12 <= pos.x <= geom.d_x * (1 + 1e-12), pos
    return pos


def squared_distance(geom: RegionGeometry, antenna: AntennaPosition, ue: UePosition) -> float:
    """3-D squared distance; the antenna sits at the waveguide height."""
    return (antenna.x - ue.x) ** 2 + (antenna.y - ue.y) ** 2 + geom.height**2


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


def diagonal_distance_derivative(geom: RegionGeometry, ue: UePosition, x_p: float) -> float:
    """d/dx_p of the diagonal-scheme squared distance (analytic).

    Zero at the closed-form optimum; used to verify the first-order
    condition without finite differences.
    """
    k = geom.aspect_ratio
    return 2.0 * (1.0 + k * k) * x_p - 2.0 * (ue.x + k * ue.y)


def optimal_squared_distance(scheme: Scheme, geom: RegionGeometry, x_u, y_u):
    """Vectorized squared distance at the optimal placement.

    EDS: y_u^2 + h^2; CDS: (y_u - d_y/2)^2 + h^2; DDS: perpendicular
    distance to the diagonal squared, (k x_u - y_u)^2 / (1 + k^2), plus
    h^2.  Accepts scalars or numpy arrays.
    """
    h2 = geom.height**2
    x_u = np.asarray(x_u, dtype=float)
    y_u = np.asarray(y_u, dtype=float)
    if scheme is Scheme.EDS:
        return y_u**2 + h2
    if scheme is Scheme.CDS:
        return (y_u - geom.d_y / 2.0) ** 2 + h2
    k = geom.aspect_ratio
    return (k * x_u - y_u) ** 2 / (1.0 + k * k) + h2
