"""Average harvested energy: closed forms, a Jensen approximation, and quadrature.

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


def logistic_harvest_power(model: LogisticHarvest, p_in, out=None):
    """Saturating transfer curve: phi/(1-Omega) * (sigmoid(a(p-b)) - Omega),
    clamped at zero.  Vectorized; exact 0.0 at p_in = 0.  A float or an
    int gives a Python float and imports nothing; an array (or a 0-d
    array, which gives a float) goes through numpy, one ufunc per step in
    one buffer: out= where given (p_in itself allowed), with the same bits.

    The sigmoid is 1 / (1 + e^{-x}) throughout, as `config.expit_float`
    writes it, so a*(p_in - b) in the hundreds neither overflows nor
    loses the zero-input cancellation (the offset Omega is the same
    sigmoid at -a*b, kept per model with the scale phi/(1-Omega) in
    `LogisticHarvest.curve_constants`).  A float runs it on libm's exp
    and an array on np.exp, where an overflowing e^{-x} gives 0.0 like
    the float's.  np.exp is libm's bit for bit without numpy's SIMD
    dispatch and within one ulp of it under AVX-512, so only without
    dispatch do the two paths share every digit.

    Saturation shortcut, bit for bit: where x = a*(p_in - b) > 40, the
    sigmoid is exactly 1.0, because exp(-40) < 2**-54 rounds away against
    1 (the first such x is near 36.74).  x is monotone in p_in under IEEE
    rounding (a > 0), so an array whose smallest x passes 40 is one
    constant, phi/(1-Omega) * (1 - Omega), and costs one min instead of
    the exp chain; any other array runs the whole chain.  A float skips
    its exp the same way.  The test is on the minimum, not per element:
    a masked evaluation was 2.5x slower on a partly saturated chunk.
    """
    if not isinstance(p_in, (float, int)):
        import numpy as np

        omega, scale = model.curve_constants
        a, b = model.slope_per_w, model.turn_on_w

        p_in = np.asarray(p_in, dtype=float)
        if p_in.ndim:
            out = np.empty_like(p_in) if out is None else out
            if p_in.size and a > 0.0 and a * (p_in.min() - b) > 40.0:
                top = scale * (1.0 - omega)
                out.fill(0.0 if top <= 0.0 else top)
                return out
            with np.errstate(over="ignore"):
                x = np.multiply(a, np.subtract(p_in, b, out=out), out=out)
                sigma = np.divide(1.0, np.add(1.0, np.exp(np.negative(x, out=out), out=out),
                                              out=out), out=out)
            return np.maximum(np.multiply(scale, np.subtract(sigma, omega, out=out), out=out),
                              0.0, out=out)
    return harvest_kernel(model, float(p_in))(1.0)  # p / 1.0 is p: the kernel at l = 1


def harvest_kernel(model: HarvestModel, c: float):
    """l -> the power harvested from incident power c / l, on floats: the
    quadrature's integrand, one frame per node.  The float branch of
    logistic_harvest_power is the logistic kernel at l = 1."""
    if isinstance(model, LinearHarvest):
        eta = model.eta
        return lambda l: eta * (c / l)
    omega, scale = model.curve_constants
    a, b = model.slope_per_w, model.turn_on_w

    def kernel(l: float) -> float:
        x = a * (c / l - b)
        raw = scale * ((1.0 if x > 40.0 else expit_float(x)) - omega)
        return 0.0 if raw <= 0.0 else raw  # np.maximum(raw, 0.0): NaN stays, -0.0 -> 0.0

    return kernel


def mean_inverse_squared_distance(scheme: Scheme, geom: RegionGeometry) -> float:
    """E[1 / L] for the optimal squared distance L, in closed form, over
    the scheme's offset law (c0 + c1 t / S) / S on [0, S]:
    c0 / (h S) * arctan(S / h) + (c1 / 2) * ln(1 + S^2/h^2) / S^2.
    """
    h = geom.height
    span = scheme.span(geom)
    c0, c1 = scheme.shape
    mean = c0 / (h * span) * math.atan(span / h)
    return mean + c1 / 2.0 * math.log1p(span**2 / h**2) / span**2 if c1 else mean


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
    """Jensen's alpha * Phi(beta P_t E[1/L]): an upper bound on the average
    where every UE's beta P_t / L is at or past the turn-on b (Phi is
    concave there), a lower bound where every one is below b (convex)."""
    p_in = protocol.beta * system.transmit_power_w * mean_inverse_squared_distance(scheme, geom)
    return protocol.alpha * logistic_harvest_power(nlm, p_in)


def avg_energy_quadrature(
    scheme: Scheme, system: SystemParams, protocol: ProtocolParams,
    geom: RegionGeometry, model: HarvestModel,
) -> float:
    """Exact expectation alpha * E[harvest(beta P_t / L)] by adaptive
    quadrature against the scheme's distance law."""
    kernel = harvest_kernel(model, protocol.beta * system.transmit_power_w)
    return protocol.alpha * SquaredDistanceDistribution(scheme, geom).expect(kernel)
