"""Average harvested energy: closed forms, Jensen bound, and quadrature.

Harvested "energy" is reported in watts, i.e. average power over the
unit-normalized protocol period.
"""

from __future__ import annotations

import math

from paswipt.config import (
    HarvestModel,
    LinearHarvest,
    LogisticHarvest,
    ProtocolParams,
    RegionGeometry,
    SystemParams,
    expit_float,
)
from paswipt.distributions import SquaredDistanceDistribution
from paswipt.geometry import Scheme


def expit(x):
    """scipy.special.expit, imported on first use so that scipy loads only
    for an array the saturation shortcut does not cover (floats use
    config.expit_float).  The first call rebinds this module name to the
    ufunc itself, so later calls cost nothing extra."""
    global expit
    from scipy.special import expit
    return expit(x)


def logistic_harvest_power(model: LogisticHarvest, p_in):
    """Saturating transfer curve: phi/(1-Omega) * (sigmoid(a(p-b)) - Omega),
    clamped at zero.  Vectorized; exact 0.0 at p_in = 0.  A float or an
    int gives a Python float and imports nothing; an array (or a 0-d
    array, which gives a float) goes through numpy.

    Uses expit throughout so a*(p_in - b) in the hundreds neither
    overflows nor loses the zero-input cancellation (the offset Omega is
    the same expit evaluation at -a*b, kept per model with the scale
    phi/(1-Omega) in `LogisticHarvest.curve_constants`).  A float runs
    `config.expit_float`, scipy's formula on libm's exp with scipy's
    bits, so the scalar path loads neither numpy nor scipy; an array runs
    the scipy.special.expit ufunc.

    Saturation shortcut, bit for bit: where x = a*(p_in - b) > 40,
    expit(x) = 1/(1 + exp(-x)) is exactly 1.0, because exp(-40) < 2**-54
    rounds away against 1 (the first such x is near 36.74).  x is
    monotone in p_in under IEEE rounding (a > 0), so an array whose
    smallest x passes 40 is one constant, phi/(1-Omega) * (1 - Omega),
    and costs one min instead of the ufunc chain (and never loads scipy);
    any other array runs the whole chain.  A float skips its expit the
    same way.  The test is on the minimum, not per element: a masked
    evaluation was 2.5x slower on a partly saturated chunk, and
    expit(..., where=mask) has segfaulted on arrays of 4,096 elements.
    """
    omega, scale = model.curve_constants
    a, b = model.slope_per_w, model.turn_on_w
    if not isinstance(p_in, (float, int)):
        import numpy as np

        p_in = np.asarray(p_in, dtype=float)
        if p_in.ndim:
            if p_in.size and a > 0.0 and a * (p_in.min() - b) > 40.0:
                top = scale * (1.0 - omega)
                return np.full_like(p_in, 0.0 if top <= 0.0 else top)
            return np.maximum(scale * (expit(a * (p_in - b)) - omega), 0.0)
    x = a * (float(p_in) - b)
    raw = scale * ((1.0 if x > 40.0 else expit_float(x)) - omega)
    return 0.0 if raw <= 0.0 else raw  # np.maximum(raw, 0.0): NaN stays, -0.0 -> 0.0


def harvest_power(model: HarvestModel, p_in):
    """Harvested power for incident power p_in (a float or an array) under
    either model.  The linear model is one multiply, with no numpy round
    trip for a float: the quadrature calls this once per node."""
    if isinstance(model, LinearHarvest):
        return model.eta * p_in
    return logistic_harvest_power(model, p_in)


def mean_inverse_squared_distance(scheme: Scheme, geom: RegionGeometry) -> float:
    """E[1 / L] for the optimal squared distance L, in closed form.

    Edge/center: (varpi / (h d_y)) * arctan(d_y / (varpi h)).
    Diagonal: 2/(Lam h) * arctan(Lam / h) - ln(1 + Lam^2/h^2) / Lam^2.
    """
    h = geom.height
    if scheme is Scheme.DDS:
        lam = geom.diagonal_half_width
        return 2.0 / (lam * h) * math.atan(lam / h) - math.log1p(lam**2 / h**2) / lam**2
    varpi = scheme.line_factor
    return varpi / (h * geom.d_y) * math.atan(geom.d_y / (varpi * h))


def avg_energy_lm_closed(
    scheme: Scheme, system: SystemParams, protocol: ProtocolParams,
    geom: RegionGeometry, lm: LinearHarvest,
) -> float:
    """alpha beta eta P_t * E[1/L], with the scheme's closed-form kernel."""
    return (
        protocol.alpha * protocol.beta * lm.eta * system.transmit_power_w
        * mean_inverse_squared_distance(scheme, geom)
    )


def avg_energy_nlm_bound(
    scheme: Scheme, system: SystemParams, protocol: ProtocolParams,
    geom: RegionGeometry, nlm: LogisticHarvest,
) -> float:
    """Jensen upper bound: alpha * Phi(beta P_t E[1/L])."""
    p_in = protocol.beta * system.transmit_power_w * mean_inverse_squared_distance(scheme, geom)
    return protocol.alpha * logistic_harvest_power(nlm, p_in)


def avg_energy_quadrature(
    scheme: Scheme, system: SystemParams, protocol: ProtocolParams,
    geom: RegionGeometry, model: HarvestModel,
) -> float:
    """Exact expectation alpha * E[harvest(beta P_t / L)] by adaptive
    quadrature against the scheme's distance law."""
    dist = SquaredDistanceDistribution(scheme, geom)
    beta_pt = protocol.beta * system.transmit_power_w
    return protocol.alpha * dist.expect(lambda l: harvest_power(model, beta_pt / l))
