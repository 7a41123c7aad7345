"""Test-only oracles.

Point-geometry, brute-force, inverse-transform, array, mpmath and
trade-off bisection references that check the package but that the
package itself never calls, kept here so that `src/` holds only what it
runs and imports numpy only where it builds arrays of its own.
"""

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import paswipt
from paswipt.config import (SPEED_OF_LIGHT, Config, HarvestModel, LinearHarvest, LogisticHarvest,
                            RegionGeometry, SystemParams)
from paswipt.distributions import SquaredDistanceDistribution
from paswipt.energy import logistic_harvest_power
from paswipt.geometry import Scheme
from paswipt.montecarlo import _chunk_sizes, _chunk_ue, check_mc_inputs
from paswipt.sweep import _region_energy, _tradeoff_config, evaluate

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# The edge/center factor varpi of the paper's forms: the offset spans d_y / varpi.
VARPI = {Scheme.EDS: 1, Scheme.CDS: 2}


def harvest_power(model: HarvestModel, p_in):
    """Harvested power for incident power p_in (a float or an array) under
    either model, dispatched per call: the quadrature's kernel
    (energy.harvest_kernel) must give the same bits at p_in = c / l."""
    if isinstance(model, LinearHarvest):
        return model.eta * p_in
    return logistic_harvest_power(model, p_in)


def wavelength_m(system: SystemParams) -> float:
    """Carrier wavelength c / f_c [m]."""
    return SPEED_OF_LIGHT / system.carrier_frequency_hz


@dataclass(frozen=True)
class UePosition:
    x: float
    y: float


@dataclass(frozen=True)
class AntennaPosition:
    x: float
    y: float


def _check_ue(geom: RegionGeometry, ue: UePosition) -> None:
    if not (0.0 <= ue.x <= geom.d_x and 0.0 <= ue.y <= geom.d_y):
        raise ValueError(f"UE ({ue.x}, {ue.y}) outside rectangle [0,{geom.d_x}]x[0,{geom.d_y}]")


def optimal_antenna_position(scheme: Scheme, geom: RegionGeometry, ue: UePosition) -> AntennaPosition:
    """Closest waveguide point to the UE (perpendicular foot).

    EDS/CDS drop straight onto the horizontal line; for the diagonal the
    foot is x_p = (x_u + k y_u) / (1 + k^2).  For a UE inside the
    rectangle the foot provably lands in [0, d_x]; asserted rather than
    clamped so geometry bugs surface instead of being masked.
    """
    _check_ue(geom, ue)
    if scheme is Scheme.EDS:
        pos = AntennaPosition(ue.x, 0.0)
    elif scheme is Scheme.CDS:
        pos = AntennaPosition(ue.x, geom.d_y / 2.0)
    else:
        k = geom.aspect_ratio
        x_p = (ue.x + k * ue.y) / (1.0 + k * k)
        pos = AntennaPosition(x_p, k * x_p)
    assert -1e-12 <= pos.x <= geom.d_x * (1 + 1e-12), pos
    return pos


def squared_distance(geom: RegionGeometry, antenna: AntennaPosition, ue: UePosition) -> float:
    """3-D squared distance; the antenna sits at the waveguide height."""
    return (antenna.x - ue.x) ** 2 + (antenna.y - ue.y) ** 2 + geom.height**2


def diagonal_distance_derivative(geom: RegionGeometry, ue: UePosition, x_p: float) -> float:
    """d/dx_p of the diagonal-scheme squared distance (analytic).

    Zero at the closed-form optimum; used to verify the first-order
    condition without finite differences.
    """
    k = geom.aspect_ratio
    return 2.0 * (1.0 + k * k) * x_p - 2.0 * (ue.x + k * ue.y)


def min_squared_distance_bruteforce(
    scheme: Scheme, geom: RegionGeometry, ue: UePosition, grid_points: int = 10_000
) -> float:
    """Grid-search oracle for the closed-form optimum.

    Minimizes over grid_points uniformly spaced antenna positions along
    the waveguide; always >= the true minimum.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    xs = np.linspace(0.0, geom.d_x, grid_points)
    if scheme is Scheme.EDS:
        ys = np.zeros_like(xs)
    elif scheme is Scheme.CDS:
        ys = np.full_like(xs, geom.d_y / 2.0)
    else:
        ys = geom.aspect_ratio * xs
    d2 = (xs - ue.x) ** 2 + (ys - ue.y) ** 2 + geom.height**2
    return float(d2.min())


def ground_projection_cdf(geometry: RegionGeometry, x) -> float:
    """CDF of the perpendicular distance from a uniform UE to the room
    diagonal: (2 L x - x^2) / L^2 on [0, L], clamped outside."""
    lam = geometry.diagonal_half_width
    x = np.asarray(x, dtype=float)
    val = (2.0 * lam * x - x**2) / lam**2
    out = np.clip(np.where(x < 0.0, 0.0, np.where(x > lam, 1.0, val)), 0.0, 1.0)
    return out if out.ndim else float(out)


def sample_squared_distance(dist: SquaredDistanceDistribution, u):
    """Inverse-CDF transform of uniform(0,1) variates to dist's law."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie strictly in (0, 1)")
    h2 = dist.geometry.height**2
    if dist.scheme is Scheme.DDS:
        lam = dist.geometry.diagonal_half_width
        s = lam * (1.0 - np.sqrt(1.0 - u))
    else:
        s = u * dist.geometry.d_y / VARPI[dist.scheme]
    out = h2 + s**2
    return out if out.ndim else float(out)


def sample_ue_stream(config: Config, seed: int, n: int):
    """The first n UE positions of the Monte-Carlo stream, as (x, y) arrays."""
    check_mc_inputs(n, seed, workers=1)
    xs, ys = [], []
    for j, size in enumerate(_chunk_sizes(n)):
        x_u, y_u = _chunk_ue(config, seed, j, size)
        xs.append(x_u)
        ys.append(y_u)
    return np.concatenate(xs), np.concatenate(ys)


def snr(system: SystemParams, squared_distance) -> float:
    """mu * gamma_bar / L.  The propagation phase factor has unit modulus
    and never enters the magnitude."""
    squared_distance = np.asarray(squared_distance, dtype=float)
    out = system.path_loss_factor_m2 * system.transmit_snr / squared_distance
    return out if out.ndim else float(out)



def cdf_numpy(dist: SquaredDistanceDistribution, l):
    """The distance law's CDF on a numpy array, in the float law's
    operations: t / S for edge/center, t (2 - t / Lambda) / Lambda for the
    diagonal, at t = sqrt(l - h^2)."""
    h2 = dist.geometry.height**2
    s = np.sqrt(np.clip(l - h2, 0.0, None))
    if dist.scheme is Scheme.DDS:
        lam = dist.geometry.diagonal_half_width
        val = s * (2.0 - s / lam) / lam
    else:
        val = VARPI[dist.scheme] * s / dist.geometry.d_y
    out = np.where(l < h2, 0.0, np.minimum(val, 1.0))
    return np.where(l >= dist.support[1], 1.0, out)


def pdf_numpy(dist: SquaredDistanceDistribution, l):
    """The distance law's PDF on a numpy array, in the float law's
    operations: 1 / (2 S t) for edge/center, (2 - 2 t / Lambda) / (2 Lambda t)
    clamped at 0 for the diagonal."""
    lo, hi = dist.support
    if np.any(l == lo):
        raise ValueError("pdf is undefined at l = h^2 (integrable singularity)")
    s = np.sqrt(np.clip(l - lo, 0.0, None))
    with np.errstate(divide="ignore"):
        if dist.scheme is Scheme.DDS:
            lam = dist.geometry.diagonal_half_width
            val = np.maximum((2.0 - 2.0 * s / lam) / (2.0 * lam * s), 0.0)
        else:
            val = VARPI[dist.scheme] / (2.0 * dist.geometry.d_y * s)
    return np.where((l < lo) | (l > hi), 0.0, val)


def cdf_table_numpy(dist: SquaredDistanceDistribution, n_points: int):
    """emit_cdf_table as an (n_points, 3) array: np.linspace's grid over
    the support without its lower end, and the law on arrays."""
    lo, hi = dist.support
    grid = np.linspace(lo, hi, n_points + 1)[1:]
    return np.column_stack([grid, cdf_numpy(dist, grid), pdf_numpy(dist, grid)])


def mean_inverse_squared_distance_varpi(scheme: Scheme, geom: RegionGeometry) -> float:
    """E[1 / L] for the edge/center schemes in the paper's varpi form,
    (varpi / (h d_y)) * arctan(d_y / (varpi h)), as the package computed
    it before the span moved to Scheme.span."""
    varpi = VARPI[scheme]
    return varpi / (geom.height * geom.d_y) * math.atan(geom.d_y / (varpi * geom.height))


def offset_mean_mpmath(scheme: Scheme, geom: RegionGeometry, g, cuts):
    """E[g(L)], L = h^2 + t^2, over the offset law (c0 + c1 t / S) / S on
    [0, S] (geometry.Scheme.shape), as a 40-digit mpmath integral over t.
    g maps an mpf l to an mpf; cuts(h, S), in mpf, lists the points from
    0 to S at which tanh-sinh restarts: the integrand must be smooth
    between them on the scale of each piece.  mpmath.quad stops on an
    absolute error near 1e-40, so g is integrated divided by g(h^2), its
    largest value where g falls with L.  Returns an mpf, to be rounded
    inside mpmath.workdps(40) by callers that compute on."""
    import mpmath

    with mpmath.workdps(40):
        h, span = mpmath.mpf(geom.height), mpmath.mpf(scheme.span(geom))
        c0, c1 = scheme.shape
        top = g(h * h) or 1
        return top * mpmath.quad(lambda t: g(h * h + t * t) / top * (c0 + c1 * t / span) / span,
                                 cuts(h, span))


def logistic_mpmath(model: LogisticHarvest, p_in):
    """The logistic transfer curve phi / (1 - Omega) (sigma(a (p - b)) -
    Omega), Omega = sigma(-a b), in mpmath at the caller's precision, from
    the model's float constants."""
    import mpmath

    a, b, phi = (mpmath.mpf(v) for v in (model.slope_per_w, model.turn_on_w,
                                          model.saturation_w))
    omega = 1 / (1 + mpmath.exp(a * b))
    return phi / (1 - omega) * (1 / (1 + mpmath.exp(-a * (p_in - b))) - omega)


def tradeoff_rate_at_energy(
    scheme: Scheme, protocol_tag: str, model: HarvestModel, base: Config, energy_w: float
) -> float:
    """Rate on a scheme's trade-off boundary at a given energy level.

    Inverts the monotone energy(control) map exactly (bisection on the
    closed forms / quadrature, not grid interpolation) and evaluates the
    closed-form rate there.  Saturating harvesters make energy(control)
    flat over much of the range, so the boundary point is the SMALLEST
    control reaching the requested energy (leftmost crossing).
    """
    if math.isnan(energy_w):
        raise ValueError(f"energy level must be a number, got {energy_w}")
    base = base.with_params(harvest=model)

    def energy_at(control: float) -> float:
        return _region_energy(scheme, [_tradeoff_config(protocol_tag, control, base)])[0]

    if energy_w <= 0.0:
        control = 0.0
    elif energy_w > energy_at(1.0):
        control = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if energy_at(mid) >= energy_w:
                hi = mid
            else:
                lo = mid
        control = hi
    cfg = _tradeoff_config(protocol_tag, control, base)
    return evaluate("rate", "closed", scheme, [cfg])[0][0]


# --- numpy's run-time SIMD dispatch ---
#
# Without it, np.exp and np.log1p are libm's bit for bit.  Under AVX-512,
# np.exp is within one ulp of libm's exp and np.log1p rounds differently
# on about 1% of the elements, so every test whose digits pass through
# them is marked `digits`, and test_digits_without_simd_dispatch reruns
# those tests at the baseline level, in one fresh interpreter.

# whether this numpy runs any CPU feature that it dispatches at run time
SIMD_DISPATCH = any(__cpu_features__.get(name, False) for name in __cpu_dispatch__)


def package_env(**extra: str) -> dict:
    """The environment of a fresh interpreter that imports this paswipt and
    these test modules, with `extra` variables set on top."""
    paths = (str(Path(paswipt.__file__).resolve().parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH"))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p), **extra}


def without_simd_dispatch() -> dict:
    """An environment whose numpy dispatches no CPU feature at run time.
    The list comes from numpy itself: a name it does not dispatch aborts
    its import."""
    return package_env(NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))


def _libm_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def assert_curve_bits(model, p_in, got, want):
    """`got`, the logistic curve's array path at `p_in`, against `want`,
    the same curve on libm's exp.  Without SIMD dispatch np.exp is libm's,
    so every byte must match.  Under dispatch every element must have
    want's bits or lie between the curve at libm's e^{-x} moved one ulp
    up and one ulp down, through the same 1 / (1 + e) and
    scale * (sigma - Omega): each step is monotone under IEEE rounding,
    so one ulp of np.exp can move the output no further."""
    assert isinstance(got, np.ndarray)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    if not SIMD_DISPATCH:
        assert got.tobytes() == want.tobytes()
        return
    omega, scale = model.curve_constants
    with np.errstate(over="ignore", invalid="ignore"):
        x = model.slope_per_w * (np.asarray(p_in, dtype=float) - model.turn_on_w)
        e = np.array([_libm_exp(-v) for v in x.ravel().tolist()]).reshape(x.shape)

        def curve(e):
            return np.maximum(scale * (1.0 / (1.0 + e) - omega), 0.0)

        lo, hi = curve(np.nextafter(e, np.inf)), curve(np.nextafter(e, -np.inf))
    ok = (got.view(np.int64) == want.view(np.int64)) | ((lo <= got) & (got <= hi))
    assert ok.all(), [(float(p).hex(), float(g).hex(), float(w).hex())
                      for p, g, w in zip(np.ravel(p_in)[~ok.ravel()], got[~ok], want[~ok])][:10]
