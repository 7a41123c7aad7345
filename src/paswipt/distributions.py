"""Analytical laws of the optimal squared antenna-user distance.

The squared distance is L = h^2 + t^2, with the offset t drawn from the
scheme's law (c0 + c1 t / S) / S on [0, S] (``geometry.Scheme``): the CDF
is t (c0 + c1 t / (2 S)) / S and the PDF (c0 + c1 t / S) / (2 S t).  All
expectations are computed through the substitution l = h^2 + t^2, which
removes the inverse-sqrt density singularity at l = h^2 analytically.

The expectations use QUADPACK's globally adaptive 21-point Gauss-Kronrod
rule (``qk21`` inside the ``qag`` bisection loop; Piessens et al.,
*QUADPACK*, 1983), written out here on Python floats.  The rule sums its
nodes in ``qk21``'s own order, so a single-interval integral has
QUADPACK's bits.  Settings: relative tolerance 1e-11 with no absolute
term, at most 200 subintervals; ``expect`` says which results raise.

The module runs on ``math`` alone: the laws, their CDF/PDF table and the
expectations load neither numpy nor scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from paswipt.config import RegionGeometry
from paswipt.geometry import Scheme

# QUADPACK qk21 abscissae and weights: _XGK[1], _XGK[3], ... _XGK[9] are the
# 10-point Gauss nodes (weights _WG), the even indices the Kronrod-only
# nodes, and _XGK[10] the centre.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525452284, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPS = 2.220446049250313e-16  # d1mach(4)
_TINY = 2.2250738585072014e-308  # d1mach(1)
# (index, abscissa, Kronrod weight, Gauss weight or None) in qk21's order:
# the Gauss pairs first, then the Kronrod-only pairs.
_NODES = tuple((j, _XGK[j], _WGK[j], _WG[j // 2] if j % 2 else None)
               for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8))


def _qk21(f: Callable, a: float, b: float) -> tuple[float, float, float, float]:
    """QUADPACK qk21 on [a, b]: (result, abserr, resabs, resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1, fv2 = [0.0] * 10, [0.0] * 10
    for j, x, wk, wg in _NODES:
        absc = hlgth * x
        fv1[j] = fval1 = f(centr - absc)
        fv2[j] = fval2 = f(centr + absc)
        fsum = fval1 + fval2
        if wg is not None:
            resg = resg + wg * fsum
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for wk, fval1, fval2 in zip(_WGK, fv1, fv2):
        resasc = resasc + wk * (abs(fval1 - reskh) + abs(fval2 - reskh))
    resabs = resabs * abs(hlgth)
    resasc = resasc * abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        abserr = max(_EPS * 50.0 * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _qag(f: Callable, a: float, b: float) -> tuple[float, float, int, int]:
    """QUADPACK qag with qk21: (value, abserr, neval, subintervals).

    Bisects the subinterval with the largest error estimate (ties go to
    the newest, as qpsrt orders them) until the summed error meets
    1e-11 |value| (qag's epsabs = 0 mode), 200 subintervals exist, or
    qag's roundoff or bad-integrand tests fire.  qpsrt's shortened
    ordering past 100 subintervals is not reproduced.
    """
    result, abserr, resabs, resasc = _qk21(f, a, b)
    errbnd = 1e-11 * abs(result)
    if ((abserr <= errbnd and abserr != resasc) or abserr == 0.0
            or errbnd < abserr <= 50.0 * _EPS * resabs):
        return result, abserr, 21, 1
    parts = [(a, b, result, abserr, 0)]  # (a, b, integral, error, tie-break rank)
    worst, area, errsum, iroff1, iroff2 = 0, result, abserr, 0, 0
    while len(parts) < 200:
        a1, b2, area0, errmax, _ = parts[worst]
        b1 = 0.5 * (a1 + b2)
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, b1, b2)
        area12, erro12 = area1 + area2, error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - area0
        if defab1 != error1 and defab2 != error2:
            if abs(area0 - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                iroff1 += 1
            if len(parts) >= 10 and erro12 > errmax:
                iroff2 += 1
        errbnd = 1e-11 * abs(area)
        kept, new = (a1, b1, area1, error1), (b1, b2, area2, error2)
        if error2 > error1:
            kept, new = new, kept
        rank = 2 * len(parts)
        parts[worst] = (*kept, rank + 1)
        parts.append((*new, rank))
        if not errsum > errbnd or (iroff1 >= 6 or iroff2 >= 20 or max(abs(a1), abs(b2))
                                   <= (1.0 + 100.0 * _EPS) * (abs(b1) + 1000.0 * _TINY)):
            break  # converged, NaN, roundoff or a bad integrand point
        worst = max(range(len(parts)), key=lambda k: parts[k][3:])
    value = 0.0
    for part in parts:  # plain left-to-right sum, as qag; sum() compensates from 3.12 on
        value = value + part[2]
    return value, errsum, 42 * len(parts) - 21, len(parts)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class SquaredDistanceDistribution:
    """CDF / PDF and quadrature expectations of the optimal squared distance.

    cdf(), pdf() and expect() take and return Python floats.
    """

    scheme: Scheme
    geometry: RegionGeometry

    @cached_property
    def support(self) -> tuple[float, float]:
        h, span = self.geometry.height, self.scheme.span(self.geometry)
        return h * h, h * h + span * span

    @cached_property
    def _law(self) -> tuple[float, float, float]:
        """(S, c0, c1) of the offset law, read once per distribution."""
        return (self.scheme.span(self.geometry), *self.scheme.shape)

    def cdf(self, l: float) -> float:
        """P(L <= l): 0 below h^2, 1 from the top of the support on, <= 1."""
        h2, hi = self.support
        if l < h2:
            return 0.0
        if l >= hi:
            return 1.0
        span, c0, c1 = self._law
        t = math.sqrt(l - h2)
        return min(t * (c0 + 0.5 * c1 * t / span) / span, 1.0)  # in this order a NaN stays NaN

    def pdf(self, l: float) -> float:
        """Density of L, >= 0: 0 outside the support; ValueError at l = h^2."""
        lo, hi = self.support
        if l == lo:
            # density diverges like 1/sqrt(l - h^2) at the lower edge
            raise ValueError("pdf is undefined at l = h^2 (integrable singularity)")
        if l < lo or l > hi:
            return 0.0
        span, c0, c1 = self._law
        t = math.sqrt(l - lo)
        # t, the rounded width of a support a few ulps wide, can exceed the span
        return max((c0 + c1 * t / span) / (2.0 * span * t), 0.0)  # a NaN stays NaN

    def expect(self, g: Callable) -> float:
        """E[g(L)] by adaptive quadrature after the l = h^2 + t^2 change
        of variable (smooth integrand, open support edge removed), against
        the offset density (c0 + c1 t / span) / span on [0, span].

        ``g`` is called with one float per node, under the rule and the
        tolerances of the module docstring.  Raises ``QuadratureError``,
        naming the room and the rule's state, when the value or its error
        estimate is not finite, the error estimate exceeds 1e-7 |value|,
        or both are exactly 0 while g(h^2) is not: every node's weighted
        integrand underflowed.
        """
        h2, span = self.geometry.height * self.geometry.height, self.scheme.span(self.geometry)
        c0, c1 = self.scheme.shape  # not self._law: a cached_property's first read costs ~2 us
        if c1 == 0.0:  # flat, so c0 = 1
            def integrand(t):
                return g(h2 + t * t) / span
        else:
            peak, slope = c0 / span, c1 / c0
            def integrand(t):
                return g(h2 + t * t) * peak * (1.0 + slope * t / span)

        val, abserr, neval, parts = _qag(integrand, 0.0, span)
        if (not (math.isfinite(val) and math.isfinite(abserr)) or abserr > 1e-7 * abs(val)
                or val == abserr == 0.0 and g(h2) != 0.0):
            geom = self.geometry
            raise QuadratureError(
                f"quadrature {'underflowed' if val == abserr == 0.0 else 'did not converge'} "
                f"for {self.scheme.value} in the {geom.d_x:g} x {geom.d_y:g} x {geom.height:g} m "
                f"room (d_x, d_y, h): "
                f"value={val:.17g}, abserr={abserr:.3g}, neval={neval}, subintervals={parts}"
            )
        return val


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """np.linspace(lo, hi, num)'s floats, num >= 2, where its step is not 0."""
    step = (hi - lo) / (num - 1)
    return [i * step + lo for i in range(num - 1)] + [hi]


def emit_cdf_table(dist: SquaredDistanceDistribution,
                   n_points: int) -> list[tuple[float, float, float]]:
    """(l, cdf, pdf) rows on a uniform grid over the support interior.

    The grid is _linspace(lo, hi, n_points + 1) without its first point.
    The exact lower endpoint is excluded because the density diverges
    there, so a step too small to move off it raises ValueError, before
    any of the grid is built.
    """
    if n_points < 1:
        raise ValueError(f"points must be >= 1, got {n_points}")
    if n_points > sys.float_info.max:  # the grid step (hi - lo) / n_points would overflow
        raise ValueError(f"points must be at most the largest float, got {n_points}")
    lo, hi = dist.support
    if (hi - lo) / n_points + lo == lo:  # the grid's first point, as _linspace computes it
        geom = dist.geometry
        raise ValueError(
            f"the {dist.scheme.value} support in the {geom.d_x:g} x {geom.d_y:g} x "
            f"{geom.height:g} m room (d_x, d_y, h) is [h^2, h^2 + {hi - lo:.3g}] m^2, too "
            f"narrow for {n_points} points: a grid step of {(hi - lo) / n_points:.3g} m^2 is "
            f"below the float spacing {math.ulp(lo):.3g} m^2 at h^2 = {lo:.6g} m^2, so the "
            f"first point rounds onto h^2, where the pdf is undefined"
        )
    return [(l, dist.cdf(l), dist.pdf(l)) for l in _linspace(lo, hi, n_points + 1)[1:]]
