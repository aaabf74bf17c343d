"""Each finite-difference formula is written once in the package.  The
pointwise Hessian, the radial gradient, the radial trapezoid weights and
the mirrored verdict of decreasing transforms are kept here as references,
and the merged code must reproduce them bit for bit."""

import itertools
import math

import numpy as np
import pytest

from concavelab import (
    ScalarField,
    ball,
    box,
    check_transform_concavity,
    hessian_at,
    dispersive_lane_emden,
    dispersive_log,
    initial_guess,
    make_grid,
    newton_solve,
)
from concavelab import concavity, reactions
from concavelab.concavity import chain_rule_hessian_eigenvalues
from concavelab.linops import gradient_components

BOXES = [
    ((0.7,), (13,)),
    ((1.0, 0.6), (11, 14)),
    ((0.8, 1.3, 0.5), (7, 9, 8)),
]
BALL_DIMS = [1, 2, 3]


def _random_field(g, seed):
    return ScalarField(g, np.random.default_rng(seed).uniform(0.1, 1.4, g.shape), validate=False)


def _reference_hessian_at(field, idx):
    """The pointwise second differences ``hessian_at`` used to carry."""
    grid, u = field.grid, field.values
    if grid.is_radial:
        h = grid.spacing[0]
        k = idx[0]
        upp = (u[k + 1] - 2.0 * u[k] + u[k - 1]) / h**2
        mat = np.eye(grid.ambient_dim)
        if k == 0:
            return 2.0 * (u[1] - u[0]) / h**2 * mat
        up = (u[k + 1] - u[k - 1]) / (2.0 * h)
        mat *= up / grid.axes[0][k]
        mat[0, 0] = upp
        return mat
    d = grid.ndim
    mat = np.empty((d, d))
    for a in range(d):
        ha = grid.spacing[a]
        ip, im = list(idx), list(idx)
        ip[a] += 1
        im[a] -= 1
        mat[a, a] = (u[tuple(ip)] - 2.0 * u[idx] + u[tuple(im)]) / ha**2
        for b_ax in range(a + 1, d):
            hb = grid.spacing[b_ax]
            pp = list(idx); pp[a] += 1; pp[b_ax] += 1
            pm = list(idx); pm[a] += 1; pm[b_ax] -= 1
            mp = list(idx); mp[a] -= 1; mp[b_ax] += 1
            mm = list(idx); mm[a] -= 1; mm[b_ax] -= 1
            val = (u[tuple(pp)] - u[tuple(pm)] - u[tuple(mp)] + u[tuple(mm)]) / (4.0 * ha * hb)
            mat[a, b_ax] = mat[b_ax, a] = val
    return mat


def _deep_nodes(g):
    """Every node at least two layers from the boundary (on balls: from r = R)."""
    if g.is_radial:
        return [(k,) for k in range(g.shape[0] - 2)]
    return list(itertools.product(*(range(2, n - 2) for n in g.shape)))


@pytest.mark.parametrize("halfwidths,shape", BOXES)
@pytest.mark.parametrize("seed", [0, 1])
def test_box_hessian_matches_pointwise_reference(halfwidths, shape, seed):
    g = make_grid(box(*halfwidths), shape)
    fld = _random_field(g, seed)
    for idx in _deep_nodes(g):
        assert np.array_equal(hessian_at(fld, idx), _reference_hessian_at(fld, idx)), idx


@pytest.mark.parametrize("dim", BALL_DIMS)
@pytest.mark.parametrize("seed", [0, 1])
def test_radial_hessian_matches_pointwise_reference(dim, seed):
    g = make_grid(ball(1.3, dim), 17)
    fld = _random_field(g, seed)
    for idx in _deep_nodes(g):
        assert np.array_equal(hessian_at(fld, idx), _reference_hessian_at(fld, idx)), idx


@pytest.mark.parametrize("node", [0, 1])
def test_radial_hessian_at_the_center(node):
    # r = 0 is interior: only the distance to r = R limits the stencil
    g = make_grid(ball(1.0, 3), 5)
    r = g.axes[0]
    h = hessian_at(ScalarField(g, 1.0 - r * r), node)
    assert np.array_equal(h, -2.0 * np.eye(3))


def test_radial_hessian_rejects_nodes_near_the_sphere():
    g = make_grid(ball(1.0, 2), 9)
    with pytest.raises(ValueError):
        hessian_at(ScalarField.zeros(g), 7)


@pytest.mark.parametrize("dim", BALL_DIMS)
@pytest.mark.parametrize("seed", [0, 1])
def test_radial_gradient_matches_reference(dim, seed):
    g = make_grid(ball(0.9, dim), 15)
    fld = _random_field(g, seed)
    u, h = fld.values, g.spacing[0]
    ref = np.empty_like(u)
    ref[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    ref[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    ref[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    (grad,) = gradient_components(fld)
    assert np.array_equal(grad, ref)


@pytest.mark.parametrize("dim", BALL_DIMS)
@pytest.mark.parametrize("n", [3, 8, 101])
def test_radial_trapezoid_weights_match_reference(dim, n):
    g = make_grid(ball(1.7, dim), n)
    h = g.spacing[0]
    w1 = np.full(n, h)
    w1[0] = w1[-1] = h / 2.0
    surface = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    assert np.array_equal(g.quadrature_weights(), surface * w1 * g.axes[0] ** (dim - 1))


# ---------------------------------------------------------------------------
# one verdict path for increasing and decreasing transforms


def _reference_report(field, transform, layer_k=3):
    """``(verdict, extreme, witness)`` of a decreasing transform as computed
    with the mirrored ``min``/``argmin`` branch, on a field whose check set
    keeps away from the endpoints of the transform's validity interval."""
    grid, u = field.grid, field.values
    eps = 1e-3 * field.sup_norm()
    mask = concavity._check_mask(grid, u, eps, layer_k)
    for end in filter(math.isfinite, transform.validity):
        assert np.all(np.abs(u[mask] - end) > concavity.ENDPOINT_TOL * max(1.0, abs(end)))
    eigs = chain_rule_hessian_eigenvalues(field, transform, eps, layer_k)
    finite_rows = np.all(np.isfinite(eigs), axis=1)
    eigs = eigs[finite_rows]
    flat = np.flatnonzero(mask.ravel())[finite_rows]
    margin = concavity.STRICT_MARGIN_FACTOR * max(float(np.max(np.abs(eigs))), 1e-300)
    node_ext = np.min(eigs, axis=1)
    pos = int(np.argmin(node_ext))
    extreme = float(node_ext[pos])
    if extreme > margin:
        verdict = "holds strictly"
    elif extreme >= -margin:
        verdict = "holds weakly"
    else:
        verdict = "fails"
    return verdict, extreme, grid.node_coordinates(np.unravel_index(flat[pos], grid.shape))


def _solved(domain, n, reaction):
    g = make_grid(domain, n)
    res = newton_solve(g, reaction, initial_guess(g, reaction), 1e-10)
    assert res.converged
    return res.field


def _tied_field():
    """Constant along y: every column of nodes ties bit for bit."""
    g = make_grid(box(1.0, 0.8), (15, 11))
    x = g.coordinate_arrays()[0]
    return ScalarField(g, 0.5 * (1.0 - x * x) + 0.25, validate=False)


@pytest.mark.parametrize("transform", [reactions.neg_log(), reactions.atanh_poly(2.0)],
                         ids=["neg_log", "atanh_poly"])
def test_decreasing_verdict_matches_min_argmin_reference(transform, log_solve_box,
                                                         dispersive_log_solve_box,
                                                         dispersive_poly_solve_box):
    fields = [
        log_solve_box.field,
        dispersive_log_solve_box.field,
        dispersive_poly_solve_box.field,
        _solved(ball(1.5, 2), 61, dispersive_log()),
        _solved(ball(1.5, 3), 61, dispersive_lane_emden(2.0, 6.0)),
        _random_field(make_grid(box(1.0, 0.7), (12, 10)), 3),
        _tied_field(),
    ]
    for fld in fields:
        if fld.sup_norm() > transform.validity[1]:
            continue
        report = check_transform_concavity(fld, transform)
        assert report.check_mode == "convexity"
        verdict, extreme, witness = _reference_report(fld, transform)
        assert (report.verdict, report.witness) == (verdict, witness)
        assert report.extreme_eigenvalue == extreme
        assert math.copysign(1.0, report.extreme_eigenvalue) == math.copysign(1.0, extreme)


# ---------------------------------------------------------------------------
# hessian_at and the verdicts share one check set


@pytest.mark.parametrize("domain,shape", [(ball(1.0, 3), 21), (box(1.0, 0.8), (11, 9))],
                         ids=["ball3", "box2"])
def test_hessian_at_refuses_exactly_the_nodes_outside_the_check_mask(domain, shape):
    g = make_grid(domain, shape)
    fld = _random_field(g, 4)
    mask = concavity._check_mask(g, np.zeros(g.shape), 0.0, 2)
    center = tuple(n // 2 for n in g.shape)
    for axis, n in enumerate(g.shape):
        for k in (-1, -2, n):
            with pytest.raises(ValueError):
                hessian_at(fld, center[:axis] + (k,) + center[axis + 1:])
    for idx in np.ndindex(g.shape):
        if mask[idx]:
            assert np.array_equal(hessian_at(fld, idx), _reference_hessian_at(fld, idx)), idx
        else:
            with pytest.raises(ValueError):
                hessian_at(fld, idx)


@pytest.mark.parametrize("domain,shape", [
    (box(0.8, 1.3, 0.5), (9, 11, 8)),
    (box(1.0, 0.6), (11, 14)),
    (box(0.7), 13),
    (ball(1.3, 1), 17),
    (ball(1.3, 3), 17),
], ids=["box3", "box2", "interval", "ball1", "ball3"])
@pytest.mark.parametrize("transform", [reactions.log_transform(), reactions.power(0.3)],
                         ids=["log", "power"])
def test_chain_rule_eigenvalues_match_hessian_at(domain, shape, transform):
    # at every check node: the eigenvalues of phi''(u) grad u grad u^T + phi'(u) H
    g = make_grid(domain, shape)
    fld = _random_field(g, 5)
    eigs = chain_rule_hessian_eigenvalues(fld, transform, 0.0, 2)
    mask = concavity._check_mask(g, fld.values, 0.0, 2)
    grads = gradient_components(fld)
    assert len(eigs) == np.count_nonzero(mask)
    for row, idx in zip(eigs, zip(*np.nonzero(mask))):
        u = fld.values[idx]
        grad = np.zeros(g.ambient_dim)  # radial frame: the radial axis first
        grad[: g.ndim] = [c[idx] for c in grads]
        d1, d2 = (float(fn(transform, np.array([u]))[0])
                  for fn in (reactions.transform_d1, reactions.transform_d2))
        expected = np.linalg.eigvalsh(d2 * np.outer(grad, grad) + d1 * hessian_at(fld, idx))
        if g.is_radial:  # one radial and one tangential column, the latter N - 1 fold
            row = np.sort(np.concatenate([row[:1], np.repeat(row[1:], g.ambient_dim - 1)]))
        assert np.allclose(row, expected, rtol=0.0, atol=1e-12 * np.max(np.abs(expected))), idx
