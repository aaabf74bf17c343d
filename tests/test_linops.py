import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.special
from hypothesis import given, settings, strategies as st

from concavelab import (
    ScalarField,
    apply_laplacian,
    ball,
    box,
    interval,
    make_grid,
    principal_eigenpair,
    solve_poisson,
)
from concavelab import linops
from concavelab.linops import LinearSolveError, neg_laplacian_matrix, solve_shifted
from concavelab.oned import gausson_field
from concavelab.reactions import f, log_schrodinger


def _sine_field(grid):
    return ScalarField(grid, np.sin(np.pi * (grid.axes[0] + 1.0) / 2.0) * 0.0)


def test_laplacian_of_interval_eigenfunction():
    errs = []
    for n in (101, 201):
        g = make_grid(interval(1.0), n)
        u = np.cos(np.pi * g.axes[0] / 2.0)
        fld = ScalarField(g, u, validate=False)
        lap = apply_laplacian(fld).values
        resid = -lap - (np.pi**2 / 4.0) * u
        errs.append(float(np.max(np.abs(resid[g.interior_mask]))))
    assert errs[0] < 1e-3
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_laplacian_of_constant_harness_field_is_zero():
    g = make_grid(box(1.0, 1.0), 11)
    fld = ScalarField(g, np.ones(g.shape), validate=False)
    lap = apply_laplacian(fld).values
    assert np.max(np.abs(lap[g.interior_mask])) == 0.0


def test_gausson_residual_contracts_like_h_squared():
    res = []
    for n in (41, 81):
        g = make_grid(box(1.0, 1.0), n)
        u = gausson_field(g)
        r = -apply_laplacian(u).values - f(log_schrodinger(), u.values)
        res.append(float(np.max(np.abs(r[g.interior_mask]))))
    assert 3.5 <= res[0] / res[1] <= 4.5


def test_radial_laplacian_center_limit():
    # u = R^2 - r^2 has exact Laplacian -2N everywhere including r = 0
    g = make_grid(ball(1.0, 3), 51)
    r = g.axes[0]
    fld = ScalarField(g, 1.0 - r * r)
    lap = apply_laplacian(fld).values
    assert np.allclose(lap[g.interior_mask], -6.0, atol=1e-9)


def test_poisson_manufactured_solution():
    sup_errs = []
    for n in (101, 201):
        g = make_grid(interval(1.0), n)
        exact = np.cos(np.pi * g.axes[0] / 2.0)
        exact[0] = exact[-1] = 0.0
        rhs = ScalarField(g, (np.pi**2 / 4.0) * exact, validate=False)
        v = solve_poisson(rhs, 1e-12)
        sup_errs.append(float(np.max(np.abs(v.values - exact))))
    assert sup_errs[0] < 1e-3
    assert 3.5 < sup_errs[0] / sup_errs[1] < 4.5


def test_poisson_zero_rhs():
    g = make_grid(box(1.0, 1.0), 21)
    v = solve_poisson(ScalarField.zeros(g), 1e-12)
    assert np.all(v.values == 0.0)


def test_poisson_reproduces_eigenfunction():
    g = make_grid(interval(1.0), 201)
    pair = principal_eigenpair(g, 1e-12)
    rhs = ScalarField(g, pair.lambda1 * pair.phi1.values)
    v = solve_poisson(rhs, 1e-12)
    assert np.max(np.abs(v.values - pair.phi1.values)) < 1e-7


def test_poisson_rejects_bad_tol():
    g = make_grid(interval(1.0), 11)
    with pytest.raises(ValueError):
        solve_poisson(ScalarField.zeros(g), 0.0)


def test_eigenpair_interval():
    g = make_grid(interval(1.0), 2001)
    pair = principal_eigenpair(g, 1e-12)
    assert abs(pair.lambda1 - math.pi**2 / 4.0) < 1e-4
    assert pair.phi1.sup_norm() == 1.0
    assert np.all(pair.phi1.interior() > 0.0)
    assert pair.residual_sup < 1e-6


def test_eigenpair_square():
    g = make_grid(box(1.0, 1.0), 101)
    pair = principal_eigenpair(g, 1e-12)
    assert abs(pair.lambda1 - math.pi**2 / 2.0) < 1e-3


def test_eigenpair_cube():
    # seven-point stencil: eigenvalues add across the axes
    g = make_grid(box(1.0, 1.0, 1.0), 21)
    pair = principal_eigenpair(g, 1e-12)
    assert abs(pair.lambda1 - 3.0 * math.pi**2 / 4.0) < 0.02


def _first_bessel_j0_zero_by_bisection():
    lo, hi = 2.0, 3.0
    assert scipy.special.j0(lo) > 0 > scipy.special.j0(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if scipy.special.j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_eigenpair_disk_matches_bessel_zero():
    j01 = _first_bessel_j0_zero_by_bisection()
    assert abs(j01 - 2.404825557695773) < 1e-12  # frozen from the bisection oracle
    g = make_grid(ball(1.0, 2), 401)
    pair = principal_eigenpair(g, 1e-12)
    assert abs(pair.lambda1 - j01**2) < 1e-3


def test_eigenvalue_mesh_convergence():
    errs = [
        abs(principal_eigenpair(make_grid(interval(1.0), n), 1e-12).lambda1 - math.pi**2 / 4)
        for n in (101, 201)
    ]
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_discrete_self_adjointness():
    g = make_grid(box(1.0, 1.0), 17)
    rng = np.random.default_rng(42)
    a_mat = neg_laplacian_matrix(g)
    for _ in range(5):
        u = rng.normal(size=g.num_interior)
        v = rng.normal(size=g.num_interior)
        assert math.isclose(float((a_mat @ u) @ v), float(u @ (a_mat @ v)), rel_tol=1e-12)


def test_poisson_positivity():
    # discrete maximum principle: nonnegative data gives a nonnegative solution
    g = make_grid(box(1.0, 1.0), 21)
    rng = np.random.default_rng(7)
    vals = np.zeros(g.shape)
    vals[g.interior_mask] = rng.uniform(0.0, 1.0, g.num_interior)
    v = solve_poisson(ScalarField(g, vals), 1e-12)
    assert np.all(v.values >= -1e-13)


def test_scalar_field_validation():
    g = make_grid(interval(1.0), 11)
    bad = np.ones(g.shape)
    with pytest.raises(ValueError):
        ScalarField(g, bad)  # nonzero trace
    nanvals = np.zeros(g.shape)
    nanvals[5] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g, nanvals)
    # harness escape hatch
    ScalarField(g, bad, validate=False)


# ---------------------------------------------------------------------------
# the DST-I box backend against sparse LU


def _lu_eigenpair(a_mat, lu):
    """Reference principal pair: block inverse iteration on the sparse LU
    ``lu`` of ``a_mat`` with Rayleigh-Ritz, run until the sup-norm
    eigen-residual is below 1e-10 lambda.  The first Ritz vector converges
    like ``(lambda_1/lambda_9)^k``, fast even on very anisotropic boxes,
    whose lambda_2 is within 2% of lambda_1."""
    block = np.random.default_rng(0).standard_normal((a_mat.shape[0], min(8, a_mat.shape[0])))
    for _ in range(1000):
        block = lu.solve(block)
        ritz, vecs = scipy.linalg.eigh(block.T @ (a_mat @ block), block.T @ block)
        block = block @ vecs
        v = block[:, 0]
        if np.max(np.abs(a_mat @ v - ritz[0] * v)) <= 1e-10 * ritz[0] * np.max(np.abs(v)):
            return ritz[0], v * np.sign(v.sum()) / np.max(np.abs(v))
    raise AssertionError("reference inverse iteration did not converge")


@st.composite
def box_cases(draw):
    """2D and 3D boxes of 3-33 nodes per axis and halfwidths 0.3-3; the last
    3D axis is shortened to keep at most 15^3 unknowns, because the 3D
    reference factorization grows like unknowns^2 (9 s at 31^3)."""
    dim = draw(st.sampled_from((2, 3)))
    shape = [draw(st.integers(3, 33)) for _ in range(dim - 1)]
    room = 15**3 // math.prod(n - 2 for n in shape) + 2
    shape.append(draw(st.integers(3, min(33, room) if dim == 3 else 33)))
    halfwidths = [draw(st.floats(0.3, 3.0)) for _ in range(dim)]
    return tuple(shape), halfwidths, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 3))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(box_cases())
def test_dst_backend_matches_sparse_lu(case):
    shape, halfwidths, seed, n_floor = case
    g = make_grid(box(*halfwidths), shape)
    a_mat = neg_laplacian_matrix(g)
    lu = spla.splu(a_mat.tocsc())
    lam, phi = _lu_eigenpair(a_mat, lu)
    pair = principal_eigenpair(g)
    assert pair.iterations == 0
    assert abs(pair.lambda1 - lam) <= 1e-10 * lam
    assert np.max(np.abs(pair.phi1.interior() - phi)) <= 1e-6

    rng = np.random.default_rng(seed)
    b = rng.standard_normal(g.num_interior)
    x = solve_poisson(ScalarField.from_interior(g, b), 1e-12).interior()
    ref = lu.solve(b)
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    # Newton Jacobians: indefinite shifts, a few nodes at the floor -1e6
    shift = rng.uniform(-10.0, 10.0, g.num_interior)
    shift[rng.choice(g.num_interior, min(n_floor, g.num_interior), replace=False)] = -1e6
    x = solve_shifted(g, shift, b)
    assert np.linalg.norm((a_mat - sp.diags(shift)) @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_minres_non_convergence_raises(monkeypatch):
    g = make_grid(box(1.0, 2.0), 21)
    shift = np.random.default_rng(1).uniform(-10.0, 10.0, g.num_interior)
    monkeypatch.setattr(linops, "MINRES_MAXITER", 2)
    with pytest.raises(LinearSolveError) as exc:
        solve_shifted(g, shift, np.ones(g.num_interior))
    assert exc.value.residual > 0.0


def test_backend_choice_follows_the_grid():
    # LU on intervals and radial grids: inverse iteration reports its steps
    assert principal_eigenpair(make_grid(interval(1.0), 41)).iterations > 0
    assert principal_eigenpair(make_grid(ball(1.0, 3), 41)).iterations > 0
    assert principal_eigenpair(make_grid(box(1.0), 41)).iterations > 0
    assert principal_eigenpair(make_grid(box(1.0, 1.0), 41)).iterations == 0
