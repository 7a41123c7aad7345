"""Waveguide deployment schemes and optimal antenna placement.

The canonical random variable everywhere downstream is the SQUARED
antenna-user distance (support starts at height^2); no API returns an
un-squared distance, to keep the distribution and rate/energy layers
unambiguous.
"""

from __future__ import annotations

from enum import Enum

from paswipt.config import RegionGeometry


class Scheme(str, Enum):
    EDS = "eds"  # waveguide along y = 0
    CDS = "cds"  # waveguide along y = d_y / 2
    DDS = "dds"  # waveguide along the diagonal y = k x

    def span(self, geom: RegionGeometry) -> float:
        """The offset width S: d_y, d_y / 2 or the diagonal half-width."""
        if self is Scheme.EDS:
            return geom.d_y
        if self is Scheme.CDS:
            return geom.d_y / 2.0
        return geom.diagonal_half_width


def optimal_squared_distance(scheme: Scheme, geom: RegionGeometry, x_u, y_u):
    """Vectorized squared distance at the optimal placement.

    EDS: y_u^2 + h^2; CDS: (y_u - d_y/2)^2 + h^2; DDS: perpendicular
    distance to the diagonal squared, (k x_u - y_u)^2 / (1 + k^2), plus
    h^2.  Takes floats or float64 arrays, as given.
    """
    h2 = geom.height**2
    if scheme is Scheme.EDS:
        return y_u**2 + h2
    if scheme is Scheme.CDS:
        return (y_u - geom.d_y / 2.0) ** 2 + h2
    k = geom.aspect_ratio
    return (k * x_u - y_u) ** 2 / (1.0 + k * k) + h2
