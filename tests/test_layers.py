"""The grid's one rule for its inside, ``Grid.layer_region``, against the
boolean mask and the check-set formulas it replaced, and Newton's Nehari
residual against the full-grid formula, bit for bit."""

import numpy as np
import pytest

from concavelab import (
    ScalarField,
    apply_laplacian,
    ball,
    box,
    interval,
    lane_emden,
    log_schrodinger,
    make_grid,
    nehari_residual,
    newton_solve,
    reactions,
    solver,
)
from concavelab.concavity import _check_region

GRIDS = {
    "interval-3": (interval(1.0), 3),
    "interval": (interval(1.3), 17),
    "box1-3": (box(0.8), 3),
    "box1": (box(0.8), 12),
    "square-3": (box(1.0, 1.0), 3),
    "rectangle": (box(1.0, 1.4), (13, 8)),
    "cube-3": (box(1.0, 1.0, 1.0), 3),
    "box3": (box(0.9, 1.1, 1.2), (9, 4, 13)),
    **{f"ball{d}-3": (ball(1.5, d), 3) for d in (1, 2, 3)},
    **{f"ball{d}": (ball(1.5, d), 21) for d in (1, 2, 3)},
}


def _grid(name):
    return make_grid(*GRIDS[name])


def _selected(grid, region):
    mask = np.zeros(grid.shape, dtype=bool)
    mask[region] = True
    return mask


def _bits(*arrays):
    return [np.asarray(a, dtype=float).view(np.uint64) for a in arrays]


@pytest.mark.parametrize("name", list(GRIDS))
def test_layer_region_one_is_the_interior_mask(name):
    g = _grid(name)
    assert np.array_equal(_selected(g, g.layer_region(1)), g.interior_mask)
    extent = np.ptp(np.nonzero(g.interior_mask), axis=1) + 1
    assert g.interior_shape == tuple(int(n) for n in extent)
    assert g.num_interior == np.count_nonzero(g.interior_mask)


@pytest.mark.parametrize("name", list(GRIDS))
def test_interior_is_the_mask_gather_and_a_copy(name):
    g = _grid(name)
    values = np.random.default_rng(3).standard_normal(g.shape)
    field = ScalarField(g, values.copy(), validate=False)
    inner = field.interior()
    ref, got = _bits(values[g.interior_mask], inner)
    assert np.array_equal(ref, got)
    inner[:] = 7.0
    assert np.array_equal(*_bits(field.values, values))


@pytest.mark.parametrize("name", list(GRIDS))
def test_from_interior_round_trips(name):
    g = _grid(name)
    values = np.where(g.interior_mask, np.random.default_rng(4).standard_normal(g.shape), 0.0)
    field = ScalarField(g, values)
    assert np.array_equal(*_bits(ScalarField.from_interior(g, field.interior()).values, values))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("name", list(GRIDS))
def test_check_region_selects_the_nodes_of_the_formulas_it_replaced(name, k):
    g = _grid(name)
    if g.is_radial:
        old = (slice(0, max(g.shape[0] - k, 0)),)
    else:
        old = tuple(slice(k, n - k) for n in g.shape)
    region = _check_region(g, k)
    assert all(s.start <= s.stop for s in region)
    assert np.array_equal(_selected(g, region), _selected(g, old))


SOLVES = {
    "interval-log": (interval(1.0), 41, log_schrodinger()),
    "ball2-lane-emden": (ball(1.0, 2), 41, lane_emden(2.0, 4.0)),
    "ball3-dispersive": (ball(1.0, 3), 41, reactions.dispersive_lane_emden(2.0, 40.0)),
    "square-dispersive-log": (box(1.0, 1.0), 21, reactions.dispersive_log()),
    "box3-lane-emden": (box(1.0, 1.2, 0.8), (11, 13, 9), lane_emden(2.0, 4.0)),
    "square-log": (box(1.0, 1.5), (21, 25), log_schrodinger()),
}


def _assert_nehari_bits(grid, reaction, result):
    u = result.field.values
    full_grid = solver._quadrature(
        grid, u * (-apply_laplacian(result.field).values - reactions.f(reaction, u)))
    public = nehari_residual(grid, reaction, result.field)
    assert np.array_equal(*_bits(result.nehari_residual, public))
    assert np.array_equal(*_bits(result.nehari_residual, full_grid))


@pytest.mark.parametrize("name", list(SOLVES))
def test_newton_nehari_residual_is_the_full_grid_formula(name):
    domain, n, reaction = SOLVES[name]
    g = make_grid(domain, n)
    result = newton_solve(g, reaction, solver.newton_guess(g, reaction))
    assert result.converged
    _assert_nehari_bits(g, reaction, result)


@pytest.mark.parametrize("name", ["ball2-lane-emden", "box3-lane-emden", "interval-log"])
def test_unconverged_nehari_residual_is_the_full_grid_formula(name, monkeypatch):
    monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 1)
    domain, n, reaction = SOLVES[name]
    g = make_grid(domain, n)
    result = newton_solve(g, reaction, solver.initial_guess(g, reaction))
    assert result.status == "max_iterations"
    _assert_nehari_bits(g, reaction, result)
