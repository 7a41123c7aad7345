"""The logistic harvester's kernel against the plain ufunc formula, bit for bit.

`logistic_harvest_power` skips its two factors on a float where both are
exactly 1.0, and runs them on np.exp and np.expm1 for an array.
`_reference` is the curve phi * expit(a (p - b)) * -expm1(-a p) written
out once more, on scipy.special.expit and libm's expm1, the float path's
functions; every case compares float.hex digits (or raw bytes for
arrays), so a changed last bit fails.  np.exp and np.expm1 equal libm's
only without numpy's SIMD dispatch: under it an array element may
instead sit within one ulp of each (`oracles.assert_curve_bits`). Every
test here is marked `digits`, so `test_digits_without_simd_dispatch`
runs it again with dispatch off, where each array must match to the last
byte.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from paswipt.config import DEFAULT_HARVEST, LogisticHarvest, default_config
from paswipt.energy import expit_float, logistic_harvest_power
from paswipt.geometry import Scheme, optimal_squared_distance
from paswipt.montecarlo import CHUNK_SIZE, _chunk_ue

from oracles import assert_curve_bits, incident_power, libm, logistic_mpmath, regime_power

pytestmark = pytest.mark.digits

NLM = DEFAULT_HARVEST["nlm"]
# slope 1, turn-on 0: the exponent a (p - b) is p itself, so a case can
# put it on any float, such as the first one past the shortcut's threshold
UNIT = LogisticHarvest(saturation_w=20e-3, slope_per_w=1.0, turn_on_w=0.0)


def _reference(model, p_in):
    p_in = np.asarray(p_in, dtype=float)
    a, b = model.slope_per_w, model.turn_on_w
    out = model.saturation_w * expit(a * (p_in - b)) * -libm(math.expm1, -a * p_in)
    return out if out.ndim else float(out)


def assert_same_bits(model, p_in):
    low = np.fmin.reduce(np.ravel(p_in), initial=0.0)  # NaN-ignoring, as the array path's test
    if low < 0.0:  # outside the curve's domain p >= 0: rejected, naming p or the minimum
        with pytest.raises(ValueError, match=re.escape(f"got {float(low)!r}")):
            logistic_harvest_power(model, p_in)
        return
    # an exponent past the float range overflows to +-inf, as it should;
    # numpy's warning about it is not what is compared here
    with np.errstate(over="ignore", invalid="ignore"):
        got = logistic_harvest_power(model, p_in)
        want = _reference(model, p_in)
    if isinstance(want, float):
        assert type(got) is float
        assert got.hex() == want.hex()
    else:
        assert_curve_bits(model, p_in, got, want)


def _x_at(model, x):
    """An incident power whose exponent a (p - b) is x, up to rounding."""
    return model.turn_on_w + x / model.slope_per_w


ARRAYS = {
    "below-turn-on": np.linspace(0.0, 2e-6, 4096),
    "straddling-knee": np.linspace(2.8e-6, 3.0e-6, 4096),
    "wide-straddle": np.logspace(-8, 0, 5000),
    "saturated": 0.24 / np.linspace(9.0, 109.0, 1 << 15),
    "saturated-with-inf": np.array([1e-3, np.inf, 0.5]),
    "saturated-with-nan": np.array([1e-3, np.nan, 0.5]),
    "one-below-threshold": np.r_[np.full(100, 1.0), _x_at(NLM, 39.0)],
    "zeros": np.zeros(7),
    "signed-zeros": np.array([-0.0, 0.0]),
    "empty": np.array([]),
    "matrix": (0.24 / np.linspace(9.0, 109.0, 24)).reshape(4, 6),
    "strided": (0.24 / np.linspace(9.0, 109.0, 64))[::3],
    "fortran-order": np.asfortranarray((0.24 / np.linspace(9.0, 109.0, 24)).reshape(4, 6)),
    "list": [0.0, 1e-6, 2.9e-6, 1.0],
}


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_arrays_match_reference(name):
    assert_same_bits(NLM, ARRAYS[name])


@pytest.mark.parametrize("name", ["saturated", "knee"])
def test_out_buffer_matches_allocating_call(name):
    """A chunk's beta P_t / L in the default room at the EDS saturated or
    knee power (oracles.regime_power), as the MC energy-nlm metric feeds
    it: out= gives the allocating call's bits, in a separate buffer and
    over p_in itself, and returns that buffer."""
    cfg = default_config(regime_power(default_config(1.0, model="nlm"), Scheme.EDS, name), "nlm")
    l = optimal_squared_distance(Scheme.EDS, cfg.geometry, *_chunk_ue(cfg, 0, 0, CHUNK_SIZE))
    p_in = incident_power(cfg, l)
    x_min = NLM.slope_per_w * (p_in.min() - NLM.turn_on_w)
    assert x_min > 40.0 if name == "saturated" else p_in.min() < NLM.turn_on_w < p_in.max()
    want = logistic_harvest_power(NLM, p_in)
    separate, over_p_in = np.empty_like(p_in), p_in.copy()
    assert logistic_harvest_power(NLM, p_in, out=separate) is separate
    assert logistic_harvest_power(NLM, over_p_in, out=over_p_in) is over_p_in
    assert separate.tobytes() == want.tobytes()
    assert over_p_in.tobytes() == want.tobytes()


@pytest.mark.parametrize("x", [
    np.nextafter(40.0, -np.inf), 40.0, np.nextafter(40.0, np.inf),
    36.73, 36.74, 0.0, -40.0, 1e6,
])
def test_threshold_neighbourhood_matches_reference(x):
    # exactly at the exponent x, as a float, an np.float64 and a 0-d array,
    # alone and as the smallest element of a saturated array
    for p in (float(x), np.float64(x), np.array(x)):
        assert_same_bits(UNIT, p)
    assert_same_bits(UNIT, np.array([x, 100.0, 1e300]))
    assert_same_bits(UNIT, np.full(4096, x))


def test_threshold_neighbourhood_default_model():
    p0 = _x_at(NLM, 40.0)
    ps = [p0]
    for _ in range(20):
        ps.append(np.nextafter(ps[-1], np.inf))
        ps.insert(0, np.nextafter(ps[0], -np.inf))
    for p in ps:
        assert_same_bits(NLM, float(p))
        assert_same_bits(NLM, np.array([p, 1.0]))


@pytest.mark.parametrize("p", [0.0, -0.0, math.inf, -math.inf, math.nan, 2.9e-6, 1.0, 1, 1e-300])
def test_special_scalars_match_reference(p):
    assert_same_bits(NLM, p)
    assert_same_bits(NLM, np.float64(p))
    assert_same_bits(NLM, np.array(p))


@pytest.mark.parametrize("p", [-1e-5, -1e-9, -5e-324, -math.inf])
def test_float_path_rejects_a_negative_power(p):
    """Below the domain p >= 0 the float path raised OverflowError at -1e-5 W
    and returned -2.16e-129 W at -1e-9 W.  A float, an np.float64 and a 0-d
    array now raise ValueError naming p."""
    for p_in in (p, np.float64(p), np.array(p)):
        with pytest.raises(ValueError, match=re.escape(f"must be >= 0 W, got {p!r}")):
            logistic_harvest_power(NLM, p_in)


def test_array_path_rejects_a_negative_power():
    """The array path returned NaN with a RuntimeWarning at -1e-5 W.  It now
    raises ValueError naming the minimum, before it writes out."""
    p_in = np.array([1e-3, -1e-9, -1e-5, 0.5])
    out = np.full_like(p_in, 7.0)
    with pytest.raises(ValueError, match=re.escape("must be >= 0 W, got -1e-05")):
        logistic_harvest_power(NLM, p_in, out=out)
    assert (out == 7.0).all()


def test_array_path_rejects_a_negative_power_beside_a_nan():
    """An array that holds a NaN has a NaN minimum, which skipped the sign
    test: [nan, -1e-9] gave [nan, -2.158e-129].  The test is now taken on
    the NaN-ignoring minimum; an all-NaN array still gives NaN, silently."""
    for p_in, low in (([np.nan, -1e-9], -1e-9), ([[np.nan, 1.0], [-2.0, 3.0]], -2.0)):
        with pytest.raises(ValueError, match=re.escape(f"must be >= 0 W, got {low!r}")):
            logistic_harvest_power(NLM, np.array(p_in))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(logistic_harvest_power(NLM, np.array([np.nan, np.nan]))).all()


_models = st.builds(
    LogisticHarvest,
    saturation_w=st.floats(1e-9, 1e3),
    slope_per_w=st.floats(1e-3, 1e12),
    turn_on_w=st.floats(0.0, 1e-2),
)
_powers = st.floats(width=64).map(abs)  # the curve's domain p >= 0, inf and NaN


@settings(max_examples=300, deadline=None)
@given(model=_models, p=_powers)
def test_scalar_matches_reference(model, p):
    assert_same_bits(model, p)


@settings(max_examples=300, deadline=None)
@given(model=_models, p=hnp.arrays(np.float64, st.integers(0, 64), elements=_powers))
def test_array_matches_reference(model, p):
    assert_same_bits(model, p)


@settings(max_examples=200, deadline=None)
@given(model=_models, scale=st.floats(0.0, 1e3), lo=st.floats(-1e3, 1e3),
       n=st.integers(1, 256))
def test_chunk_near_threshold_matches_reference(model, scale, lo, n):
    # a chunk whose smallest exponent is lo, anywhere around the threshold
    p = _x_at(model, lo + scale * np.linspace(0.0, 1.0, n))
    assert_same_bits(model, p)


def test_expit_is_one_past_threshold():
    """The shortcut's premise: the sigmoid is 1.0 exactly for every x > 40.

    scipy's expit and the array path's 1 / (1 + np.exp(-x)) are that
    formula, and exp(-40) < 2**-54, so 1 + exp(-x) rounds to 1.0; the
    numpy form is checked at this process's SIMD level.  A library change
    that broke this would fail here before it changed a digit.
    """
    first = np.nextafter(40.0, np.inf)
    next_floats = (np.array(first).view(np.int64) + np.arange(10_000)).view(np.float64)
    for x in (next_floats, np.geomspace(first, 1e6, 200_000), np.linspace(first, 1e6, 200_000),
              np.array([first, 1e6, 1e300, np.inf])):
        assert np.all(x > 40.0)
        assert np.all(expit(x) == 1.0)
        assert np.all(1.0 / (1.0 + np.exp(-x)) == 1.0)
    assert expit(np.inf) == 1.0
    assert expit(first) == 1.0 and expit(1e6) == 1.0


# --- the float path's expit: the math formula against scipy, bit for bit ---
#
# logistic_harvest_power on a float uses energy.expit_float, 1 / (1 +
# math.exp(-x)), so that the scalar path loads neither numpy nor scipy.
# That keeps every digit only while it is scipy.special.expit's own
# formula on the same libm exp; a scipy or libm change that broke this
# must fail here, before it moves a digit.

_OVERFLOW_EDGE = -math.log(np.finfo(float).max)  # about -709.7827: exp(-x) overflows below
EXPIT_INPUTS = np.concatenate([
    np.linspace(-760.0, 760.0, 1_520_001),
    np.geomspace(1e-300, 800.0, 300_000),
    -np.geomspace(1e-300, 800.0, 300_000),
    (np.array(_OVERFLOW_EDGE).view(np.int64) + np.arange(-5_000, 5_001)).view(np.float64),
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, np.finfo(float).max,
     -np.finfo(float).max],
])


def test_expit_float_matches_scipy_bitwise():
    got = np.array([expit_float(x) for x in EXPIT_INPUTS.tolist()])
    want = expit(EXPIT_INPUTS)
    mismatches = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert mismatches.size == 0, [
        (EXPIT_INPUTS[i].hex(), got[i].hex(), want[i].hex()) for i in mismatches[:10]
    ]
    # the inputs do reach the overflow branch, and scipy gives +0.0 there
    assert got[np.isneginf(EXPIT_INPUTS)].view(np.int64).tolist() == [0]
    assert np.any((EXPIT_INPUTS < _OVERFLOW_EDGE) & np.isfinite(EXPIT_INPUTS))


# The default knee, and the exponents -745 to 45 of a model with a b = 2900,
# whose e^{-x} overflows (x below about -709.78) at p >= 0: the default's
# exponent stops at -a b = -290 there
STEEP = LogisticHarvest(saturation_w=20e-3, slope_per_w=1e9, turn_on_w=2.9e-6)
KNEES = [(NLM, np.linspace(2.8e-6, 3.0e-6, 4096)),
         (STEEP, _x_at(STEEP, np.linspace(-745.0, 45.0, 4096)))]


def test_scalar_and_array_kernels_agree_on_the_knee():
    for model, knee in KNEES:
        array = logistic_harvest_power(model, knee)
        scalar = np.array([logistic_harvest_power(model, p) for p in knee.tolist()])
        assert_curve_bits(model, knee, array, scalar)


def test_curve_keeps_its_digits_from_1e_22_to_1_watt():
    """Both paths within 1e-13 of the curve at 60 digits, in its offset
    form phi / (1 - Omega) (sigma(x) - Omega) (`oracles.logistic_mpmath`),
    over 4,000 log-uniform powers: far below the 2.9 uW turn-on, across
    it and saturated.  The offset form, evaluated in floats, was 7.5e-6
    off at 1e-14 W and read 0 below about 1e-20 W."""
    mpmath = pytest.importorskip("mpmath")
    p = np.geomspace(1e-22, 1.0, 4000)
    array = logistic_harvest_power(NLM, p)
    scalar = [logistic_harvest_power(NLM, v) for v in p.tolist()]
    with mpmath.workdps(60):
        for v, got_array, got_scalar in zip(p.tolist(), array.tolist(), scalar):
            ref = logistic_mpmath(NLM, mpmath.mpf(v))
            assert abs(got_array - ref) <= 1e-13 * ref, v
            assert abs(got_scalar - ref) <= 1e-13 * ref, v


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(model=st.builds(LogisticHarvest, saturation_w=_positive, slope_per_w=_positive,
                       turn_on_w=_positive),
       p=hnp.arrays(np.float64, st.integers(1, 16), elements=st.floats(min_value=0.0)))
def test_curve_stays_within_zero_and_its_ceiling(model, p):
    """Over every model validate accepts (each field finite and > 0) and
    every power p >= 0, inf included, both paths give values in [0, phi]."""
    for got in (logistic_harvest_power(model, p), [logistic_harvest_power(model, v)
                                                    for v in p.tolist()]):
        assert all(0.0 <= v <= model.saturation_w for v in np.ravel(got).tolist())
