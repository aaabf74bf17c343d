import math

import numpy as np
import pytest

from concavelab import ball, box, interval, make_grid
from concavelab.grid import Domain


def test_interval_nodes_and_spacing():
    g = make_grid(interval(1.0), 5)
    assert np.allclose(g.axes[0], [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert g.spacing == (0.5,)


def test_box_node_and_interior_counts():
    g = make_grid(box(1.0, 1.0), 3)
    assert g.num_nodes == 9
    assert g.num_interior == 1


def test_radial_nodes():
    g = make_grid(ball(2.0, 2), 101)
    assert np.allclose(g.axes[0], 0.02 * np.arange(101))
    assert g.spacing == (2.0 / 100,)
    # only r = R is a boundary node; the center is interior
    assert g.interior_mask[0]
    assert not g.interior_mask[-1]


def test_make_grid_rejects_bad_resolution():
    with pytest.raises(ValueError):
        make_grid(interval(1.0), 2)
    with pytest.raises(ValueError):
        make_grid(box(1.0, 1.0), (3, 2))


def test_domain_rejects_bad_sizes():
    with pytest.raises(ValueError):
        interval(0.0)
    with pytest.raises(ValueError):
        box(1.0, -2.0)
    with pytest.raises(ValueError):
        ball(1.0, 0)
    with pytest.raises(ValueError):
        Domain("box", halfwidths=(1.0,) * 4)


def test_boundary_distance():
    g = make_grid(box(1.0, 0.5), 21)
    d = g.boundary_distance()
    assert d[0, 5] == 0.0
    assert math.isclose(float(d[10, 10]), 0.5)
    gr = make_grid(ball(2.0, 3), 11)
    assert math.isclose(float(gr.boundary_distance()[0]), 2.0)


@pytest.mark.parametrize("halfwidths, resolution", [
    ((1.3,), 41), ((1.0, 0.5), 21), ((1.0, 0.5), (21, 30)), ((1.0, 1.5, 0.7), (11, 15, 9))])
def test_boundary_distance_equals_the_meshgrid_form(halfwidths, resolution):
    g = make_grid(box(*halfwidths), resolution)
    dist = np.full(g.shape, np.inf)
    for b, x in zip(halfwidths, g.coordinate_arrays()):
        dist = np.minimum(dist, b - np.abs(x))
    assert np.array_equal(g.boundary_distance(), dist)


def test_quadrature_weights_measure():
    g = make_grid(box(1.0, 0.5), 41)
    assert math.isclose(float(np.sum(g.quadrature_weights())), 2.0 * 1.0, rel_tol=1e-12)
    gr = make_grid(ball(1.0, 2), 1001)
    # area of the unit disk
    assert math.isclose(float(np.sum(gr.quadrature_weights())), math.pi, rel_tol=1e-5)
