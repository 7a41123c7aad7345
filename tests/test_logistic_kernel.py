"""The logistic harvester's kernel against the plain ufunc formula, bit for bit.

`logistic_harvest_power` skips `expit` where it is exactly 1.0 and keeps
the curve's constants on the model.  `_reference` is the formula it
replaced, written out once more; every case compares float.hex digits (or
raw bytes for arrays), so a changed last bit fails.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from paswipt.config import DEFAULT_HARVEST, LogisticHarvest, expit_float
from paswipt.energy import logistic_harvest_power

NLM = DEFAULT_HARVEST["nlm"]
# slope 1, turn-on 0: the exponent a (p - b) is p itself, so a case can
# put it on any float, such as the first one past the shortcut's threshold
UNIT = LogisticHarvest(saturation_w=20e-3, slope_per_w=1.0, turn_on_w=0.0)


def _reference(model, p_in):
    p_in = np.asarray(p_in, dtype=float)
    omega = expit(-model.slope_per_w * model.turn_on_w)
    raw = model.saturation_w / (1.0 - omega) * (
        expit(model.slope_per_w * (p_in - model.turn_on_w)) - omega
    )
    out = np.maximum(raw, 0.0)
    return out if out.ndim else float(out)


def assert_same_bits(model, p_in):
    # an exponent past the float range overflows to +-inf, as it should;
    # numpy's warning about it is not what is compared here
    with np.errstate(over="ignore", invalid="ignore"):
        got = logistic_harvest_power(model, p_in)
        want = _reference(model, p_in)
    if isinstance(want, float):
        assert type(got) is float
        assert got.hex() == want.hex()
    else:
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


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


_models = st.builds(
    LogisticHarvest,
    saturation_w=st.floats(1e-9, 1e3),
    slope_per_w=st.floats(1e-3, 1e12),
    turn_on_w=st.floats(0.0, 1e-2),
)
_powers = st.floats(allow_nan=True, allow_infinity=True, width=64)


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
    """The shortcut's premise: expit(x) == 1.0 exactly for every x > 40.

    scipy's expit is 1 / (1 + exp(-x)), and exp(-40) < 2**-54, so
    1 + exp(-x) rounds to 1.0.  A library change that broke this would
    fail here before it changed a digit.
    """
    first = np.nextafter(40.0, np.inf)
    next_floats = (np.array(first).view(np.int64) + np.arange(10_000)).view(np.float64)
    for x in (next_floats, np.geomspace(first, 1e6, 200_000), np.linspace(first, 1e6, 200_000)):
        assert np.all(x > 40.0)
        assert np.all(expit(x) == 1.0)
    assert expit(np.inf) == 1.0
    assert expit(first) == 1.0 and expit(1e6) == 1.0


# --- the float path's expit: the math formula against scipy, bit for bit ---
#
# logistic_harvest_power on a float and LogisticHarvest.curve_constants
# use config.expit_float, 1 / (1 + math.exp(-x)), so that the scalar path
# loads neither numpy nor scipy.  That keeps every digit only while it is
# scipy.special.expit's own formula on the same libm exp; a scipy or libm
# change that broke this must fail here, before it moves a digit.

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


@settings(max_examples=500, deadline=None)
@given(a=st.floats(1e-3, 1e12), b=st.floats(0.0, 1e-2), phi=st.floats(1e-9, 1e3))
def test_curve_constants_match_scipy_bitwise(a, b, phi):
    omega, scale = LogisticHarvest(saturation_w=phi, slope_per_w=a, turn_on_w=b).curve_constants
    want = expit(-a * b)
    assert type(omega) is float and type(scale) is float
    assert omega.hex() == float(want).hex()
    assert scale.hex() == float(phi / (1.0 - want)).hex()


KNEE = np.concatenate([
    np.linspace(2.8e-6, 3.0e-6, 4096),
    _x_at(NLM, np.linspace(-745.0, 45.0, 4096)),
])


def test_scalar_and_array_kernels_agree_on_the_knee():
    array = logistic_harvest_power(NLM, KNEE)
    scalar = np.array([logistic_harvest_power(NLM, p) for p in KNEE.tolist()])
    assert array.tobytes() == scalar.tobytes()

