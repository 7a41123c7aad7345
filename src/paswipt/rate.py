"""Average achievable rate: closed forms and their quadrature oracle.

Logs are natural internally; the single division by ln 2 at the end
converts to bits.  At the default link budget mu * snr is around 2e5 m^2
and grows without bound as the noise floor drops, so the closed forms
are written without differences of large logs (see _diagonal_i2).  They
agree with the quadrature oracle to <= 5e-16 relative for mu * snr up to
~1e15 m^2 in the 15x10x3, 20x4x1, 4x20x5 and 8x8x0.5 m rooms where this
was measured.  Against 50-digit mpmath they lose digits in two regimes:
- low SNR, all three forms, as mu * snr / h^2 -> 0: in the default
  15x10x3 m room 1e-10 to 3e-9 relative at 1e-12 W, 2e-6 to 1e-5 at
  1e-15 W and 8% to 33% at 1e-20 W; at 1e-30 W the diagonal rate is
  negative;
- the diagonal form where its half-width is far below h: 1.4e-6 and
  1.7e-5 relative at h = 1e3 and 1e4 m in a 0.02 x 0.02 m room at 0.3 W,
  and every digit in a 1e-150 x 1 x 3 m room (9.97 bits/s/Hz against the
  quadrature's 5.24).
The quadrature oracle stays within 3e-14 of mpmath in both.
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
    """(1 - alpha beta) * E[log2(1 + mu gamma_bar / L)] in closed form,
    over the scheme's span S: the by-parts integral over [0, S] divided
    by S for edge/center, and I1 / S - I2 / S^2 for the diagonal.
    """
    mu_gamma = system.path_loss_factor_m2 * system.transmit_snr
    h = geom.height
    share = 1.0 - protocol.alpha * protocol.beta
    span = scheme.span(geom)
    if scheme is Scheme.DDS:
        value = share / LN2 * (
            _diagonal_i1(mu_gamma, h, span) / span - _diagonal_i2(mu_gamma, h, span) / span**2
        )
    else:
        value = share / (span * LN2) * _edge_center_integral(mu_gamma, h, span)
    return RateResult(value)


def avg_rate_quadrature(
    scheme: Scheme, system: SystemParams, protocol: ProtocolParams, geom: RegionGeometry
) -> RateResult:
    """(1 - alpha beta) * E[log2(1 + mu gamma_bar / L)] against the
    scheme's distance law; independent oracle for the closed forms."""
    dist = SquaredDistanceDistribution(scheme, geom)
    mu_gamma = system.path_loss_factor_m2 * system.transmit_snr
    mean_log = dist.expect(lambda l: math.log1p(mu_gamma / l))
    value = (1.0 - protocol.alpha * protocol.beta) * mean_log / LN2
    return RateResult(value)
