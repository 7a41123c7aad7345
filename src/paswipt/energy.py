"""Average harvested energy: closed forms, a Jensen approximation, and quadrature.

Harvested "energy" is reported in watts, i.e. average power over the
unit-normalized protocol period.  Every formula reads the link from
SystemParams.received_power_w_m2: a UE at squared distance L receives
that / L, of which the power splitter passes beta.
"""

from __future__ import annotations

import functools
import math

from paswipt.config import (
    HarvestModel,
    LinearHarvest,
    LogisticHarvest,
    ProtocolParams,
    RegionGeometry,
    SystemParams,
)
from paswipt.distributions import SquaredDistanceDistribution
from paswipt.geometry import Scheme


def expit_float(x: float) -> float:
    """The logistic sigmoid 1 / (1 + e^{-x}) of one float, on libm's exp;
    0.0 where e^{-x} overflows (x below about -709.78), as 1 / (1 + inf)."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def logistic_harvest_power(model: LogisticHarvest, p_in, out=None):
    """Saturating transfer curve phi * sigmoid(a(p - b)) * (1 - e^{-a p}),
    for incident power p >= 0.  Vectorized; exact 0.0 at p_in = 0.  A p
    below 0 raises ValueError on both paths; an array is tested on its
    NaN-ignoring np.fmin, so -0.0 passes and a NaN element stays NaN.  A
    float or an int gives a Python float and imports nothing; an array (or
    a 0-d array, which gives a float) goes through numpy, one ufunc per
    step: in out= where given (p_in itself allowed), with the same bits.

    Boshkovska et al. write the curve with an offset, phi (sigmoid(x) -
    sigmoid(-a b)) / sigmoid(a b) at x = a(p - b); since sigmoid(x) -
    sigmoid(-a b) = sigmoid(x) sigmoid(a b) (1 - e^{-a p}), this product
    is the same curve without the subtraction, which cancels below the
    turn-on b.  The sigmoid is 1 / (1 + e^{-x}) and the second factor
    -expm1(-a p): a float runs them on libm's exp and expm1 (`expit_float`,
    `math.expm1`), an array on np.exp and np.expm1, where an overflowing
    e^{-x} gives 0.0 like the float's.  These are libm's bit for bit
    without numpy's SIMD dispatch and within one ulp of it under AVX-512,
    so only without dispatch do the two paths share every digit.

    Where x > 40 both factors are exactly 1.0, because exp(-40) < 2**-54
    rounds away against 1 (the first such x is near 36.74) and a p >= x,
    so both paths give phi there; `saturates` tests a whole support for it.
    """
    if not isinstance(p_in, (float, int)):
        import numpy as np

        phi, a, b = model.saturation_w, model.slope_per_w, model.turn_on_w
        p_in = np.asarray(p_in, dtype=float)
        if p_in.ndim:
            low = float(np.fmin.reduce(p_in, axis=None, initial=0.0))
            if low < 0.0:
                raise ValueError(f"incident power must be >= 0 W, got {low!r}")
            out = np.empty_like(p_in) if out is None else out
            with np.errstate(over="ignore"):
                m = np.multiply(-a, p_in)  # the one temporary, before out (maybe p_in) is written
                np.expm1(m, out=m)
                x = np.multiply(a, np.subtract(p_in, b, out=out), out=out)
                sigma = np.divide(1.0, np.add(1.0, np.exp(np.negative(x, out=out), out=out),
                                              out=out), out=out)
            return np.multiply(np.multiply(phi, sigma, out=out), np.negative(m, out=m), out=out)
    p_in = float(p_in)
    if p_in < 0.0:
        raise ValueError(f"incident power must be >= 0 W, got {p_in!r}")
    return harvest_kernel(model, p_in)(1.0)  # p / 1.0 is p: the kernel at l = 1


def harvest_kernel(model: LogisticHarvest, c: float):
    """l -> the logistic power harvested from incident power c / l, on
    floats: the quadrature's integrand, one frame per node.  The float
    branch of logistic_harvest_power is this kernel at l = 1."""
    phi, a, b = model.saturation_w, model.slope_per_w, model.turn_on_w

    def kernel(l: float) -> float:
        p = c / l
        return phi * expit_float(a * (p - b)) * -math.expm1(-a * p)

    return kernel


def saturates(model: LogisticHarvest, c: float, scheme: Scheme, geom: RegionGeometry) -> bool:
    """Whether a(c / l - b) > 40 at the support's far edge l = h^2 + S^2: every x of the support
    is then past 36.74, where the curve is phi bit for bit, even where l rounds past the edge."""
    a, h, span = model.slope_per_w, geom.height, scheme.span(geom)
    return a > 0.0 and a * (c / (h * h + span * span) - model.turn_on_w) > 40.0


def mean_inverse_squared_distance(scheme: Scheme, geom: RegionGeometry) -> float:
    """E[1 / L] for the optimal squared distance L, in closed form, over
    the scheme's offset law (c0 + c1 t / S) / S on [0, S]:
    c0 / (h S) * arctan(S / h) + (c1 / 2) * ln(1 + S^2/h^2) / S^2."""
    h = geom.height
    span = scheme.span(geom)
    c0, c1 = scheme.shape
    mean = c0 / (h * span) * math.atan(span / h)
    return mean + c1 / 2.0 * math.log1p(span * span / (h * h)) / (span * span) if c1 else mean


def _linear_energy(system: SystemParams, protocol: ProtocolParams, lm: LinearHarvest, m: float):
    """alpha beta eta P_t * m, for m = E[1/L] in closed form or by quadrature."""
    return protocol.alpha * protocol.beta * lm.eta * system.received_power_w_m2 * m


def avg_energy_lm_closed(
    scheme: Scheme, system: SystemParams, protocol: ProtocolParams,
    geom: RegionGeometry, lm: LinearHarvest,
) -> float:
    """alpha beta eta P_t * E[1/L], with the scheme's closed-form kernel."""
    return _linear_energy(system, protocol, lm, mean_inverse_squared_distance(scheme, geom))


def avg_energy_nlm_bound(
    scheme: Scheme, system: SystemParams, protocol: ProtocolParams,
    geom: RegionGeometry, nlm: LogisticHarvest,
) -> float:
    """Jensen's alpha * Phi(beta P_t E[1/L]): an upper bound on the average
    where every UE's beta P_t / L is at or past the turn-on b (Phi is
    concave there), a lower bound where every one is below b (convex)."""
    p_in = protocol.beta * system.received_power_w_m2 * mean_inverse_squared_distance(scheme, geom)
    return protocol.alpha * logistic_harvest_power(nlm, p_in)


@functools.lru_cache(maxsize=1)
def _mean_harvest(scheme: Scheme, geom: RegionGeometry, model: LogisticHarvest | None,
                  c: float, sign: float) -> float:
    """E[1 / L] (model None) or E[model's harvest from c / L] by quadrature, once per
    run of calls on one integral.  sign = copysign(1, c) keeps 0.0 and -0.0 apart."""
    kernel = (lambda l: 1.0 / l) if model is None else harvest_kernel(model, c)
    return SquaredDistanceDistribution(scheme, geom).expect(kernel)


def avg_energy_quadrature(
    scheme: Scheme, system: SystemParams, protocol: ProtocolParams,
    geom: RegionGeometry, model: HarvestModel,
) -> float:
    """alpha * E[harvest(beta P_t / L)] by adaptive quadrature against the scheme's distance
    law; for the linear model, the closed form with E[1/L] integrated; a logistic config that
    `saturates` harvests alpha * phi at every UE, which is its value, with no integral."""
    if isinstance(model, LinearHarvest):
        return _linear_energy(system, protocol, model, _mean_harvest(scheme, geom, None, 1.0, 1.0))
    c = protocol.beta * system.received_power_w_m2
    if saturates(model, c, scheme, geom):
        return protocol.alpha * model.saturation_w
    return protocol.alpha * _mean_harvest(scheme, geom, model, c, math.copysign(1.0, c))
