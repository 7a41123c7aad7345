"""Average achievable rate: closed forms and their quadrature oracle.

Logs are natural internally; the single division by ln 2 at the end
converts to bits.  At the default link budget mu * snr is around 2e5 m^2
and grows without bound as the noise floor drops, so the closed forms
are written without differences of large logs (see _diagonal_i2).  They
agree with the quadrature oracle to a few ulps (<= 5e-16 relative) for
mu * snr up to ~1e15 m^2 (1 W at -190 dBm) in 15x10x3, 20x4x1, 4x20x5
and 8x8x0.5 m rooms; no series expansion is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from paswipt.config import ProtocolParams, RegionGeometry, SystemParams
from paswipt.distributions import SquaredDistanceDistribution
from paswipt.geometry import Scheme

LN2 = math.log(2.0)


@dataclass(frozen=True)
class RateResult:
    value_bits_s_hz: float
    scheme: Scheme
    method: str  # "closed" | "quadrature" | "monte-carlo"


def _edge_center_integral(mu_gamma: float, h: float, span: float) -> float:
    """Integration-by-parts value of int_0^span ln(1 + mu_gamma/(h^2+t^2)) dt."""
    s = math.sqrt(mu_gamma + h * h)
    return (
        2.0 * s * math.atan(span / s)
        - 2.0 * h * math.atan(span / h)
        + span * math.log1p(mu_gamma / (h * h + span * span))
    )


def _diagonal_i1(mu_gamma: float, h: float, lam: float) -> float:
    """int over the support of ln(1 + mu_gamma/l) / sqrt(l - h^2) dl."""
    s = math.sqrt(mu_gamma + h * h)
    return (
        4.0 * s * math.atan(lam / s)
        - 4.0 * h * math.atan(lam / h)
        + 2.0 * lam * math.log((lam * lam + mu_gamma + h * h) / (lam * lam + h * h))
    )


def _diagonal_i2(mu_gamma: float, h: float, lam: float) -> float:
    """int over the support of ln(1 + mu_gamma/l) dl, by splitting the log.

    The two mu_gamma * ln(. + mu_gamma) terms are merged into one log1p:
    subtracted separately they cancel to ~lam^2 out of ~mu_gamma * ln(mu_gamma)
    and lose digits as mu_gamma grows (high power or low noise).
    """
    top = h * h + lam * lam
    return (
        top * math.log1p(mu_gamma / top)
        - h * h * math.log1p(mu_gamma / (h * h))
        + mu_gamma * math.log1p(lam * lam / (h * h + mu_gamma))
    )


def avg_rate_closed(
    scheme: Scheme, system: SystemParams, protocol: ProtocolParams, geom: RegionGeometry
) -> RateResult:
    """(1 - alpha beta) * E[log2(1 + mu gamma_bar / L)] in closed form.

    Edge/center: the by-parts integral over the span d_y / varpi.
    Diagonal: I1 / Lam - I2 / Lam^2 over the half-width Lam.
    """
    mu_gamma = system.path_loss_factor_m2 * system.transmit_snr
    h = geom.height
    share = 1.0 - protocol.alpha * protocol.beta
    if scheme is Scheme.DDS:
        lam = geom.diagonal_half_width
        value = share / LN2 * (
            _diagonal_i1(mu_gamma, h, lam) / lam - _diagonal_i2(mu_gamma, h, lam) / lam**2
        )
    else:
        span = geom.d_y / scheme.line_factor
        value = share / (span * LN2) * _edge_center_integral(mu_gamma, h, span)
    return RateResult(value, scheme, "closed")


def avg_rate_quadrature(
    scheme: Scheme, system: SystemParams, protocol: ProtocolParams, geom: RegionGeometry
) -> RateResult:
    """(1 - alpha beta) * E[log2(1 + mu gamma_bar / L)] against the
    scheme's distance law; independent oracle for the closed forms."""
    dist = SquaredDistanceDistribution(scheme, geom)
    mu_gamma = system.path_loss_factor_m2 * system.transmit_snr
    mean_log = dist.expect(lambda l: math.log1p(mu_gamma / l))
    value = (1.0 - protocol.alpha * protocol.beta) * mean_log / LN2
    return RateResult(value, scheme, "quadrature")
