import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paswipt.config import RegionGeometry
from paswipt.geometry import (
    AntennaPosition,
    Scheme,
    UePosition,
    diagonal_distance_derivative,
    optimal_antenna_position,
    optimal_squared_distance,
    squared_distance,
)

from oracles import min_squared_distance_bruteforce

GEOM = RegionGeometry(d_x=15.0, d_y=10.0, height=3.0)
SQUARE = RegionGeometry(d_x=8.0, d_y=8.0, height=3.0)


def test_eds_projects_onto_edge():
    pos = optimal_antenna_position(Scheme.EDS, GEOM, UePosition(5.0, 7.0))
    assert (pos.x, pos.y) == (5.0, 0.0)


def test_cds_projects_onto_center_line():
    pos = optimal_antenna_position(Scheme.CDS, GEOM, UePosition(5.0, 7.0))
    assert (pos.x, pos.y) == (5.0, 5.0)


def test_dds_square_room_corner():
    # k = 1, corner (d_x, 0) projects to the diagonal midpoint
    pos = optimal_antenna_position(Scheme.DDS, SQUARE, UePosition(8.0, 0.0))
    assert pos.x == pytest.approx(4.0, rel=1e-14)
    assert pos.y == pytest.approx(4.0, rel=1e-14)
    assert squared_distance(SQUARE, pos, UePosition(8.0, 0.0)) == pytest.approx(41.0, rel=1e-14)


def test_dds_on_diagonal_is_fixed_point():
    k = GEOM.aspect_ratio
    ue = UePosition(6.0, k * 6.0)
    pos = optimal_antenna_position(Scheme.DDS, GEOM, ue)
    assert pos.x == pytest.approx(6.0, rel=1e-12)
    assert pos.y == pytest.approx(k * 6.0, rel=1e-12)
    assert squared_distance(GEOM, pos, ue) == pytest.approx(GEOM.height**2, rel=1e-12)


def test_dds_antenna_on_waveguide_line():
    pos = optimal_antenna_position(Scheme.DDS, GEOM, UePosition(12.0, 1.0))
    assert pos.y == pytest.approx(GEOM.aspect_ratio * pos.x, rel=1e-12)


def test_rejects_ue_outside_rectangle():
    with pytest.raises(ValueError, match="outside"):
        optimal_antenna_position(Scheme.EDS, GEOM, UePosition(-1.0, 5.0))


def test_squared_distance_floor():
    assert squared_distance(GEOM, AntennaPosition(4.0, 2.0), UePosition(4.0, 2.0)) == GEOM.height**2


def test_eds_optimum_formula():
    ue = UePosition(3.0, 7.5)
    pos = optimal_antenna_position(Scheme.EDS, GEOM, ue)
    assert squared_distance(GEOM, pos, ue) == pytest.approx(7.5**2 + 9.0, rel=1e-14)


def test_bruteforce_rejects_tiny_grid():
    with pytest.raises(ValueError):
        min_squared_distance_bruteforce(Scheme.EDS, GEOM, UePosition(1.0, 1.0), grid_points=1)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_closed_form_beats_grid_for_random_ues(scheme):
    rng = np.random.default_rng(2024)
    for _ in range(100):
        ue = UePosition(rng.uniform(0, GEOM.d_x), rng.uniform(0, GEOM.d_y))
        pos = optimal_antenna_position(scheme, GEOM, ue)
        closed = squared_distance(GEOM, pos, ue)
        grid = min_squared_distance_bruteforce(scheme, GEOM, ue, 10_000)
        assert closed <= grid + 1e-6


@settings(max_examples=200, deadline=None)
@given(
    scheme=st.sampled_from(list(Scheme)),
    x=st.floats(min_value=0.0, max_value=15.0),
    y=st.floats(min_value=0.0, max_value=10.0),
)
def test_optimality_property(scheme, x, y):
    ue = UePosition(x, y)
    pos = optimal_antenna_position(scheme, GEOM, ue)
    closed = squared_distance(GEOM, pos, ue)
    grid = min_squared_distance_bruteforce(scheme, GEOM, ue, 2_000)
    assert closed <= grid + 1e-9
    assert closed >= GEOM.height**2 - 1e-12


def test_dds_first_order_condition():
    rng = np.random.default_rng(7)
    for _ in range(50):
        ue = UePosition(rng.uniform(0, GEOM.d_x), rng.uniform(0, GEOM.d_y))
        pos = optimal_antenna_position(Scheme.DDS, GEOM, ue)
        assert abs(diagonal_distance_derivative(GEOM, ue, pos.x)) < 1e-9


@pytest.mark.parametrize("scheme", list(Scheme))
def test_projection_idempotence(scheme):
    ue = UePosition(11.0, 4.0)
    pos = optimal_antenna_position(scheme, GEOM, ue)
    again = optimal_antenna_position(scheme, GEOM, UePosition(pos.x, pos.y))
    assert again.x == pytest.approx(pos.x, abs=1e-12)
    assert again.y == pytest.approx(pos.y, abs=1e-12)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_vectorized_matches_scalar_path(scheme):
    rng = np.random.default_rng(99)
    xs = rng.uniform(0, GEOM.d_x, 200)
    ys = rng.uniform(0, GEOM.d_y, 200)
    vec = optimal_squared_distance(scheme, GEOM, xs, ys)
    for i in range(200):
        ue = UePosition(xs[i], ys[i])
        pos = optimal_antenna_position(scheme, GEOM, ue)
        assert vec[i] == pytest.approx(squared_distance(GEOM, pos, ue), rel=1e-12)
