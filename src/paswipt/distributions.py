"""Analytical laws of the optimal squared antenna-user distance.

For the edge/center schemes the squared distance is y-offset^2 + h^2 with
a uniform offset, giving a sqrt-type CDF; for the diagonal scheme it is
(perpendicular distance)^2 + h^2 with the triangular-area law of the
perpendicular distance.  All expectations downstream are computed through
the substitution l = h^2 + t^2, which removes the inverse-sqrt density
singularity at the lower support edge analytically.

The expectations use QUADPACK's globally adaptive 21-point Gauss-Kronrod
rule (``qk21`` inside the ``qag`` bisection loop; Piessens et al.,
*QUADPACK*, 1983), written out here on Python floats, so that an
expectation needs neither scipy nor numpy.  The rule sums its nodes in
``qk21``'s own order, so a single-interval integral has QUADPACK's bits.
Settings: absolute tolerance 1e-14, relative tolerance ``rel_tol``
(1e-11), at most 200 subintervals; a result whose error estimate
exceeds 1e-7 |value| + 1e-13, or that is not finite, raises
``QuadratureError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _qag(f: Callable, a: float, b: float, epsabs: float, epsrel: float,
         limit: int) -> tuple[float, float, int, int]:
    """QUADPACK qag with qk21: (value, abserr, neval, subintervals).

    Bisects the subinterval with the largest error estimate (ties go to
    the newest, as qpsrt orders them) until the summed error meets
    max(epsabs, epsrel |value|), ``limit`` subintervals exist, or qag's
    roundoff or bad-integrand tests fire.  qpsrt's shortened ordering
    past limit/2 subintervals is not reproduced.
    """
    result, abserr, resabs, resasc = _qk21(f, a, b)
    errbnd = max(epsabs, epsrel * abs(result))
    if ((abserr <= errbnd and abserr != resasc) or abserr == 0.0
            or errbnd < abserr <= 50.0 * _EPS * resabs):
        return result, abserr, 21, 1
    parts = [(a, b, result, abserr, 0)]  # (a, b, integral, error, tie-break rank)
    worst, area, errsum, iroff1, iroff2 = 0, result, abserr, 0, 0
    while len(parts) < limit:
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
        errbnd = max(epsabs, epsrel * abs(area))
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

    expect() runs on floats alone; cdf() and pdf() take arrays and load
    numpy when called.
    """

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
        import numpy as np

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
        import numpy as np

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

    def expect(self, g: Callable, rel_tol: float = 1e-11) -> float:
        """E[g(L)] by adaptive quadrature after the l = h^2 + t^2 change
        of variable (smooth integrand, open support edge removed).

        Edge/center: the offset t is uniform on [0, span].  Diagonal: t
        carries the triangular weight (2/span) (1 - t/span).

        ``g`` is called with one float per node.  The rule is QUADPACK's
        21-point Gauss-Kronrod inside the ``qag`` bisection loop, with
        absolute tolerance 1e-14, relative tolerance ``rel_tol`` and at
        most 200 subintervals.  Raises ``QuadratureError`` (naming the
        scheme, the room, the value, its error estimate, the number of
        integrand calls and of subintervals) when the value or its error
        estimate is not finite, or the error estimate exceeds
        1e-7 |value| + 1e-13.
        """
        h2 = self.geometry.height**2
        span = self.span
        if self.scheme is Scheme.DDS:
            def integrand(t):
                return g(h2 + t * t) * (2.0 / span) * (1.0 - t / span)
        else:
            def integrand(t):
                return g(h2 + t * t) / span

        val, abserr, neval, parts = _qag(integrand, 0.0, span, epsabs=1e-14, epsrel=rel_tol,
                                         limit=200)
        if not (math.isfinite(val) and math.isfinite(abserr)) or abserr > 1e-7 * abs(val) + 1e-13:
            geom = self.geometry
            raise QuadratureError(
                f"quadrature did not converge for {self.scheme.value} in the "
                f"{geom.d_x:g} x {geom.d_y:g} x {geom.height:g} m room (d_x, d_y, h): "
                f"value={val:.17g}, abserr={abserr:.3g}, neval={neval}, subintervals={parts}"
            )
        return val


def emit_cdf_table(dist: SquaredDistanceDistribution, n_points: int = 1000):
    """(l, cdf, pdf) rows on a uniform grid over the support interior, as
    an (n_points, 3) numpy array.

    The exact lower endpoint is excluded because the density diverges
    there.
    """
    import numpy as np

    if n_points < 1:
        raise ValueError(f"points must be >= 1, got {n_points}")
    lo, hi = dist.support
    grid = np.linspace(lo, hi, n_points + 1)[1:]
    return np.column_stack([grid, dist.cdf(grid), dist.pdf(grid)])
