"""Waveguide deployment schemes and optimal antenna placement.

Each scheme's offset law lives here alone: the UE's offset t from the
waveguide has density (c0 + c1 t / S) / S on [0, S], with the span S and
the shape (c0, c1) = (1, 0), uniform, for EDS/CDS and (2, -2), triangular,
for DDS.  The distribution, energy and rate layers read only the law.

The canonical random variable everywhere downstream is the SQUARED
antenna-user distance (support starts at height^2); no API returns an
un-squared distance, to keep the distribution and rate/energy layers
unambiguous.
"""

from __future__ import annotations

from enum import Enum

from paswipt.config import RegionGeometry


class Scheme(str, Enum):
    """A deployment scheme, with the shape (c0, c1) of its offset law."""

    EDS = "eds", (1.0, 0.0)  # waveguide along y = 0
    CDS = "cds", (1.0, 0.0)  # waveguide along y = d_y / 2
    DDS = "dds", (2.0, -2.0)  # waveguide along the diagonal y = k x

    def __new__(cls, value: str, shape: tuple[float, float]):
        member = str.__new__(cls, value)
        member._value_, member.shape = value, shape
        return member

    def span(self, geom: RegionGeometry) -> float:
        """The offset width S: d_y, d_y / 2 or the diagonal half-width."""
        if self is Scheme.EDS:
            return geom.d_y
        if self is Scheme.CDS:
            return geom.d_y / 2.0
        return geom.diagonal_half_width


def optimal_squared_distance(scheme: Scheme, geom: RegionGeometry, x_u, y_u, out=None):
    """Vectorized squared distance at the optimal placement.

    EDS: y_u^2 + h^2; CDS: (y_u - d_y/2)^2 + h^2; DDS: perpendicular
    distance to the diagonal squared, (k x_u - y_u)^2 / (1 + k^2), plus
    h^2.  Takes float64 arrays (or floats, giving numpy floats).  Each step
    is one ufunc, written into out= where given (x_u itself allowed): same bits.
    """
    import numpy as np

    h2 = geom.height * geom.height
    if scheme is Scheme.EDS:
        return np.add(np.square(y_u, out=out), h2, out=out)
    if scheme is Scheme.CDS:
        return np.add(np.square(np.subtract(y_u, geom.d_y / 2.0, out=out), out=out), h2, out=out)
    k = geom.aspect_ratio
    offset = np.subtract(np.multiply(k, x_u, out=out), y_u, out=out)
    return np.add(np.divide(np.square(offset, out=out), 1.0 + k * k, out=out), h2, out=out)
