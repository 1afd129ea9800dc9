"""Lattice construction, fill distance, and validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from rfl import (
    ArgumentError,
    PointSet,
    ResourceLimitError,
    fill_distance,
    halton_points,
    uniform_grid,
)


def test_grid_layout_d1():
    ps = uniform_grid(4, 1)
    assert len(ps) == 5
    assert ps.dim == 1
    assert ps.grid_m == 4
    assert np.array_equal(ps.points[:, 0], np.array([0.0, 0.25, 0.5, 0.75, 1.0]))


def test_grid_layout_d2_row_major():
    ps = uniform_grid(2, 2)
    assert len(ps) == 9
    expected = np.array(
        [
            [0.0, 0.0],
            [0.0, 0.5],
            [0.0, 1.0],
            [0.5, 0.0],
            [0.5, 0.5],
            [0.5, 1.0],
            [1.0, 0.0],
            [1.0, 0.5],
            [1.0, 1.0],
        ]
    )
    assert np.array_equal(ps.points, expected)


def test_grid_cap():
    assert len(uniform_grid(4094, 1)) == 4095
    with pytest.raises(ResourceLimitError):
        uniform_grid(4096, 1)
    assert len(uniform_grid(62, 2)) == 3969
    with pytest.raises(ResourceLimitError):
        uniform_grid(64, 2)


def test_grid_validation():
    with pytest.raises(ArgumentError):
        uniform_grid(0, 1)
    with pytest.raises(ArgumentError):
        uniform_grid(2, 0)
    with pytest.raises(ArgumentError):
        uniform_grid(2.5, 1)


@pytest.mark.parametrize("m, d", [(True, 1), (False, 1), (2, True)])
def test_grid_rejects_bool_sizes(m, d):
    # uniform_grid(True, 1) used to build the 2-node grid of m = 1
    with pytest.raises(ArgumentError, match="positive integer"):
        uniform_grid(m, d)


def test_fill_distance_grid_exact():
    assert fill_distance(uniform_grid(2, 1)) == pytest.approx(0.25, rel=1e-15)
    assert fill_distance(uniform_grid(2, 2)) == pytest.approx(
        0.3535533905932738, rel=1e-14
    )
    assert fill_distance(uniform_grid(10, 3)) == pytest.approx(
        math.sqrt(3.0) / 20.0, rel=1e-14
    )


def test_fill_distance_probe_route_matches_closed_form():
    # endpoints {0, 1} in d=1 have true fill distance 0.5; the probe route
    # must land just below it
    ps = PointSet(dim=1, points=np.array([[0.0], [1.0]]))
    est = fill_distance(ps)
    assert 0.49 <= est <= 0.5


def test_fill_distance_probe_route_value_frozen():
    # the nearest-node distances of the 2048 Halton probes, to the bit
    assert fill_distance(halton_points(300, 2)) == 0.06850520981060412


def test_pointset_validation():
    with pytest.raises(ArgumentError):
        PointSet(dim=1, points=np.empty((0, 1)))
    with pytest.raises(ArgumentError):
        PointSet(dim=2, points=np.zeros((3, 1)))
    with pytest.raises(ArgumentError):
        PointSet(dim=1, points=np.array([[0.5], [1.5]]))
    with pytest.raises(ArgumentError):
        PointSet(dim=1, points=np.array([[-0.1]]))
    with pytest.raises(ArgumentError):
        PointSet(dim=1, points=np.array([[0.2], [0.2]]))
    with pytest.raises(ArgumentError, match="duplicate"):
        PointSet(dim=2, points=np.array([[0.1, 0.2], [0.1, 0.3], [0.0, 0.2], [0.1, 0.2]]))
    with pytest.raises(ArgumentError, match="duplicate"):
        PointSet(dim=1, points=np.array([[0.0], [-0.0]]))
    with pytest.raises(ArgumentError):
        PointSet(dim=1, points=np.array([[np.nan]]))
    with pytest.raises(ArgumentError):
        PointSet(dim=0, points=np.zeros((1, 0)))
    with pytest.raises(ArgumentError):
        PointSet(dim=1, points=np.array([[0.0], [1.0]]), grid_m=4)
    # True was accepted as a dimension
    with pytest.raises(ArgumentError, match="positive integer"):
        PointSet(dim=True, points=np.array([[0.5]]))


def test_pointset_immutable():
    for ps in (uniform_grid(2, 1), halton_points(5, 2)):
        with pytest.raises(ValueError):
            ps.points[0] = 0.7


@pytest.mark.parametrize("n, d", [(0, 1), (-1, 1), (True, 1), (2.0, 1), (4, 0), (4, True)])
def test_halton_validation(n, d):
    # (0, 1) was an empty set, (4, 0) four 0-dimensional points, and (-1, 1)
    # and (True, 1) failed inside scipy with a bare ValueError or TypeError
    with pytest.raises(ArgumentError, match="positive integer"):
        halton_points(n, d)


def test_one_dim_input_promoted():
    ps = PointSet(dim=1, points=np.array([0.1, 0.9]))
    assert ps.points.shape == (2, 1)


def test_halton_deterministic_and_in_cube():
    a = halton_points(128, 3)
    b = halton_points(128, 3)
    assert np.array_equal(a.points, b.points)
    assert a.points.shape == (128, 3)
    assert a.points.min() >= 0.0 and a.points.max() <= 1.0
    assert a.grid_m is None
