"""Analytical laws of the optimal squared antenna-user distance.

For the edge/center schemes the squared distance is y-offset^2 + h^2 with
a uniform offset, giving a sqrt-type CDF; for the diagonal scheme it is
(perpendicular distance)^2 + h^2 with the triangular-area law of the
perpendicular distance.  All expectations downstream are computed through
the substitution l = h^2 + t^2, which removes the inverse-sqrt density
singularity at the lower support edge analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from paswipt.config import RegionGeometry
from paswipt.geometry import Scheme


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class SquaredDistanceDistribution:
    """CDF / PDF / inverse-CDF of the optimal squared distance."""

    scheme: Scheme
    geometry: RegionGeometry

    @property
    def span(self) -> float:
        """Width of the in-plane offset: d_y / (1 or 2), or the diagonal
        half-width for the diagonal scheme."""
        if self.scheme is Scheme.DDS:
            return self.geometry.diagonal_half_width
        return self.geometry.d_y / self.scheme.line_factor

    @property
    def support(self) -> tuple[float, float]:
        h2 = self.geometry.height**2
        return h2, h2 + self.span**2

    def cdf(self, l):
        l = np.asarray(l, dtype=float)
        h2 = self.geometry.height**2
        if self.scheme is Scheme.DDS:
            lam = self.geometry.diagonal_half_width
            s = np.sqrt(np.clip(l - h2, 0.0, None))
            val = (2.0 * lam * s - (l - h2)) / lam**2
        else:
            varpi = self.scheme.line_factor
            val = varpi * np.sqrt(np.clip(l - h2, 0.0, None)) / self.geometry.d_y
        out = np.where(l < h2, 0.0, np.minimum(val, 1.0))
        out = np.where(l > self.support[1], 1.0, out)
        return out if out.ndim else float(out)

    def pdf(self, l):
        l = np.asarray(l, dtype=float)
        lo, hi = self.support
        if np.any(l == lo):
            # density diverges like 1/sqrt(l - h^2) at the lower edge
            raise ValueError("pdf is undefined at l = h^2 (integrable singularity)")
        s = np.sqrt(np.clip(l - lo, 0.0, None))
        with np.errstate(divide="ignore"):
            if self.scheme is Scheme.DDS:
                lam = self.geometry.diagonal_half_width
                val = 1.0 / (lam * s) - 1.0 / lam**2
            else:
                val = self.scheme.line_factor / (2.0 * self.geometry.d_y * s)
        out = np.where((l < lo) | (l > hi), 0.0, val)
        return out if out.ndim else float(out)

    def sample(self, u):
        """Inverse-CDF transform of uniform(0,1) variates."""
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0.0) or np.any(u >= 1.0):
            raise ValueError("u must lie strictly in (0, 1)")
        h2 = self.geometry.height**2
        if self.scheme is Scheme.DDS:
            lam = self.geometry.diagonal_half_width
            s = lam * (1.0 - np.sqrt(1.0 - u))
        else:
            s = u * self.geometry.d_y / self.scheme.line_factor
        out = h2 + s**2
        return out if out.ndim else float(out)

    def expect(self, g: Callable, rel_tol: float = 1e-11) -> float:
        """E[g(L)] by adaptive quadrature after the l = h^2 + t^2 change
        of variable (smooth integrand, open support edge removed).

        Edge/center: the offset t is uniform on [0, span].  Diagonal: t
        carries the triangular weight (2/span) (1 - t/span).
        """
        h2 = self.geometry.height**2
        span = self.span
        if self.scheme is Scheme.DDS:
            def integrand(t):
                return g(h2 + t * t) * (2.0 / span) * (1.0 - t / span)
        else:
            def integrand(t):
                return g(h2 + t * t) / span

        val, abserr = integrate.quad(integrand, 0.0, span, epsabs=1e-14, epsrel=rel_tol, limit=200)
        if abserr > 1e-7 * abs(val) + 1e-13:
            raise QuadratureError(
                f"quadrature did not converge for {self.scheme}: value={val}, abserr={abserr}"
            )
        return val


def ground_projection_cdf(geometry: RegionGeometry, x) -> float:
    """CDF of the perpendicular distance from a uniform UE to the room
    diagonal: (2 L x - x^2) / L^2 on [0, L], clamped outside."""
    lam = geometry.diagonal_half_width
    x = np.asarray(x, dtype=float)
    val = (2.0 * lam * x - x**2) / lam**2
    out = np.clip(np.where(x < 0.0, 0.0, np.where(x > lam, 1.0, val)), 0.0, 1.0)
    return out if out.ndim else float(out)


def emit_cdf_table(dist: SquaredDistanceDistribution, n_points: int = 1000) -> np.ndarray:
    """(l, cdf, pdf) rows on a uniform grid over the support interior.

    The exact lower endpoint is excluded because the density diverges
    there.
    """
    if n_points < 1:
        raise ValueError(f"points must be >= 1, got {n_points}")
    lo, hi = dist.support
    grid = np.linspace(lo, hi, n_points + 1)[1:]
    return np.column_stack([grid, dist.cdf(grid), dist.pdf(grid)])
