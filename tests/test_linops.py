import math

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.special
from hypothesis import example, given, settings, strategies as st

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
from concavelab import linops, oned
from concavelab.linops import LinearSolveError, neg_laplacian_matrix, solve_shifted
from concavelab.oned import gausson_field
from concavelab.reactions import f, log_schrodinger
from concavelab.solver import initial_guess, newton_solve


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


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radial_laplacian_reads_the_boundary_value(dim):
    # cos r is 0.54 at r = R, so the last row needs its boundary neighbour;
    # Laplacian cos r = -cos r - (N-1) sin r / r, which is -N at the origin
    errs = []
    for n in (41, 81):
        g = make_grid(ball(1.0, dim), n)
        r = g.axes[0]
        lap = apply_laplacian(ScalarField(g, np.cos(r), validate=False)).values
        exact = -np.cos(r) - (dim - 1) * np.sinc(r / np.pi)
        errs.append(float(np.max(np.abs(lap - exact)[g.interior_mask])))
    assert errs[0] < 1e-3
    assert 3.5 <= errs[0] / errs[1] <= 4.5


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


@pytest.mark.parametrize("domain", [interval(1.0), box(1.0, 1.3), ball(1.5, 3)],
                         ids=["interval", "box", "ball"])
def test_principal_eigenpair_is_the_held_pair(domain):
    g = make_grid(domain, 41)
    for tol in (1e-12, 1e-6):
        assert principal_eigenpair(g, tol) is g.operator.eigenpair
    with pytest.raises(ValueError, match="EIGEN_TOL"):
        principal_eigenpair(g, 1e-13)


@pytest.mark.parametrize("domain, n", [(interval(1.0), 4001), (ball(1.0, 3), 2001)],
                         ids=["interval", "ball3"])
def test_poisson_check_passes_a_backward_stable_solve(domain, n):
    # a standard-normal right-hand side leaves a relative residual of 1e-12
    # to 4e-12 here, above the default tol: rounding, not a bad solve
    g = make_grid(domain, n)
    b = np.random.default_rng(0).standard_normal(g.num_interior)
    x = solve_poisson(ScalarField.from_interior(g, b)).interior()
    assert np.array_equal(x, g.operator.inverse(b))


def _lambda1_error(domain, exact):
    return lambda n: abs(principal_eigenpair(make_grid(domain, n)).lambda1 - exact)


def _tensor_sum(*halfwidths):
    return sum((math.pi / (2.0 * b)) ** 2 for b in halfwidths)


def _log_solve_error(n):
    g = make_grid(box(1.0, 1.3), n)
    result = newton_solve(g, log_schrodinger(), initial_guess(g, log_schrodinger()), 1e-10)
    return float(np.max(np.abs(result.field.values - oned.tensor_solution([1.0, 1.3], n).values)))


ORDER_CASES = {
    "interval": (_lambda1_error(interval(1.0), _tensor_sum(1.0)), (101, 201, 401)),
    "box2": (_lambda1_error(box(1.0, 1.3), _tensor_sum(1.0, 1.3)), (41, 81, 161)),
    "box3": (_lambda1_error(box(1.0, 1.3, 0.8), _tensor_sum(1.0, 1.3, 0.8)), (21, 41, 81)),
    "ball2": (_lambda1_error(ball(1.5, 2), (_first_bessel_j0_zero_by_bisection() / 1.5) ** 2),
              (101, 201, 401)),
    "ball3": (_lambda1_error(ball(1.5, 3), (math.pi / 1.5) ** 2), (101, 201, 401)),
    "log-solve-box2": (_log_solve_error, (21, 41, 81)),
}


@pytest.mark.parametrize("case", list(ORDER_CASES))
def test_observed_order_is_two(case):
    # each refinement halves h, so the observed order is log2 of the error ratio
    error, resolutions = ORDER_CASES[case]
    errors = [error(n) for n in resolutions]
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert all(1.9 <= order <= 2.1 for order in orders), orders


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
# the drawn boxes all take the dense sine matrices; these sit at the cutoff
# and one node past it, on scipy.fft.dstn
@example(((linops.DENSE_SINE_MAX + 2, 7), [1.0, 0.4], 7, 2))
@example(((linops.DENSE_SINE_MAX + 3, 7), [2.5, 0.6], 11, 1))
@example(((5, linops.DENSE_SINE_MAX + 3, 4), [0.5, 2.0, 0.3], 13, 3))
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


def _symmetric(rng, eigenvalues):
    q, _ = np.linalg.qr(rng.standard_normal((eigenvalues.size, eigenvalues.size)))
    a = (q * eigenvalues) @ q.T
    return (a + a.T) / 2.0


@st.composite
def krylov_systems(draw):
    """Seeded symmetric systems of 2-30 unknowns, either indefinite with
    eigenvalues of modulus 0.1-10, or with moduli spread log-uniformly
    over 3-6 decades and random signs, and a random right-hand side."""
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(("indefinite", "ill-conditioned"))) == "indefinite":
        moduli = rng.uniform(0.1, 10.0, n)
    else:
        moduli = np.logspace(0.0, -rng.uniform(3.0, 6.0), n)
    a = _symmetric(rng, moduli * rng.choice([-1.0, 1.0], n))
    return a, rng.standard_normal(n), draw(st.sampled_from((1e-4, 1e-8, 1e-10)))


def _scipy_minres(a, b, rtol, **kwargs):
    """scipy's MINRES from 0 at the package's cap: its solution and iterations."""
    count = [0]
    x, info = spla.minres(a, b, rtol=rtol, maxiter=linops.MINRES_MAXITER,
                          callback=lambda xk: count.__setitem__(0, count[0] + 1), **kwargs)
    assert info == 0
    return x, count[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(krylov_systems())
def test_minres_matches_scipy(system):
    a, b, rtol = system
    ref, ref_iterations = _scipy_minres(a, b, rtol)
    x, info, iterations = linops.minres(lambda v: a @ v, b, rtol, np.ones_like(b))
    assert info == 0
    assert abs(iterations - ref_iterations) <= 1
    norm = np.linalg.norm(a) * np.linalg.norm(ref)
    assert np.linalg.norm(a @ (x - ref)) <= rtol * norm


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from((1e-4, 1e-8, 1e-10)))
def test_minres_on_a_symmetric_preconditioning_matches_scipy(seed, rtol):
    # MINRES on D^-1/2 A D^-1/2 with the solution norm taken of D^-1/2 y is
    # scipy's MINRES on A preconditioned by D, as in the box Newton steps
    rng = np.random.default_rng(seed)
    n = 120
    root_d = np.sqrt(rng.uniform(0.5, 5.0, n))
    a = root_d[:, None] * _symmetric(rng, rng.uniform(1.0, 4.0, n) * rng.choice([-1.0, 1.0], n)) \
        * root_d[None, :]
    b = rng.standard_normal(n)
    ref, ref_iterations = _scipy_minres(a, b, rtol, M=np.diag(root_d**-2))
    scale = 1.0 / root_d
    preconditioned = scale[:, None] * a * scale[None, :]
    y, info, iterations = linops.minres(lambda v: preconditioned @ v, scale * b, rtol, scale)
    assert info == 0
    assert abs(iterations - ref_iterations) <= 1
    assert np.linalg.norm(a @ (scale * y - ref)) <= rtol * np.linalg.norm(a) * np.linalg.norm(ref)


def test_minres_zero_rhs_takes_no_iteration():
    def refuse(v):
        raise AssertionError("a zero right-hand side needs no product")

    y, info, iterations = linops.minres(refuse, np.zeros((4, 5)), 1e-10, np.ones((4, 5)))
    assert (info, iterations) == (0, 0)
    assert y.shape == (4, 5) and not np.any(y)


@pytest.mark.parametrize("rtol", [1e-10, 0.0])
def test_minres_stops_on_an_invariant_krylov_space(rtol):
    # b along an eigenvector: the first Lanczos beta is exactly 0, and the
    # loop stops there rather than divide by it (warnings are errors here)
    eigenvalues = np.array([3.0, -2.0, 0.5, -7.0])
    b = np.array([0.0, 4.0, 0.0, 0.0])
    y, info, iterations = linops.minres(lambda v: eigenvalues * v, b, rtol, np.ones(4))
    assert (info, iterations) == (0, 1)
    assert np.array_equal(y, b / eigenvalues[1])


def test_minres_cap_returns_nonzero_info(monkeypatch):
    rng = np.random.default_rng(3)
    a = _symmetric(rng, np.logspace(0.0, -5.0, 30) * rng.choice([-1.0, 1.0], 30))
    monkeypatch.setattr(linops, "MINRES_MAXITER", 4)
    _, info, iterations = linops.minres(lambda v: a @ v, rng.standard_normal(30), 1e-10,
                                        np.ones(30))
    assert info != 0 and iterations == 4


def test_backend_choice_follows_the_grid():
    # LU on intervals and radial grids: inverse iteration reports its steps
    assert principal_eigenpair(make_grid(interval(1.0), 41)).iterations > 0
    assert principal_eigenpair(make_grid(ball(1.0, 3), 41)).iterations > 0
    assert principal_eigenpair(make_grid(box(1.0), 41)).iterations > 0
    assert principal_eigenpair(make_grid(box(1.0, 1.0), 41)).iterations == 0


@pytest.mark.parametrize("shape", [
    (1, 1), (1, 6), (7, 1), (linops.DENSE_SINE_MAX - 1, 3), (2, linops.DENSE_SINE_MAX),
    (linops.DENSE_SINE_MAX + 1, 5), (1, 4, 6), (5, 1, 9), (3, 8, 1),
    (linops.DENSE_SINE_MAX, 2, 3), (2, 3, linops.DENSE_SINE_MAX + 1),
])
def test_dense_sine_transform_is_the_orthonormal_dst_i(shape):
    x = np.random.default_rng(math.prod(shape)).standard_normal(shape)
    sines = tuple(linops._sine_matrix(n) for n in shape)
    bound = 1e-14 * np.max(np.abs(x)) * max(shape)
    y = linops._dst(x, sines)
    assert np.max(np.abs(y - scipy.fft.dstn(x, type=1, norm="ortho"))) <= bound
    assert np.max(np.abs(linops._dst(y, sines) - x)) <= bound


def test_dense_sine_matrices_up_to_the_cutoff():
    # the path follows the longest interior axis; equal lengths share a matrix
    at_cutoff = make_grid(box(1.0, 1.0), (linops.DENSE_SINE_MAX + 2, 9)).operator
    assert [s.shape for s in at_cutoff.sines] == [(linops.DENSE_SINE_MAX,) * 2, (7, 7)]
    cube = make_grid(box(1.0, 1.0, 1.0), 9).operator
    assert cube.sines[0] is cube.sines[1] is cube.sines[2]
    assert make_grid(box(1.0, 1.0), (9, linops.DENSE_SINE_MAX + 3)).operator.sines is None


def _dgttrs_reference(grid, b):
    """The LAPACK ``dgttrf``/``dgttrs`` pair on the diagonals of
    ``neg_laplacian_matrix``, padded with decoupled identity rows to order 3,
    below which scipy's wrapper of ``dgttrf`` refuses a system."""
    a_mat = neg_laplacian_matrix(grid)
    dl, d, du = a_mat.diagonal(-1), a_mat.diagonal(), a_mat.diagonal(1)
    k = max(0, 3 - d.size)
    dl, du = np.concatenate([dl, np.zeros(k)]), np.concatenate([du, np.zeros(k)])
    *factors, info = scipy.linalg.lapack.dgttrf(dl, np.concatenate([d, np.ones(k)]), du)
    assert info == 0
    x, info = scipy.linalg.lapack.dgttrs(*factors, np.concatenate([b, np.zeros(k)]))
    assert info == 0
    return x[:b.size]


@pytest.mark.parametrize(
    "domain, n",
    [pytest.param(domain, n, id=f"{name}-{n}")
     for name, domain, ns in (("interval", interval(1.0), (3, 4, 41, 2001)),
                              *((f"ball{dim}", ball(1.0, dim), (3, 401)) for dim in (1, 2, 3)),
                              ("box1d", box(1.5), (41,)))
     for n in ns],
)
def test_tridiagonal_solves_match_dgttrf_factors(domain, n):
    # Poisson solves and inverse iteration run dgtsv at zero shift; it
    # reproduces the stored-factor dgttrs solve bit for bit
    g = make_grid(domain, n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        b = rng.standard_normal(g.num_interior)
        ref = _dgttrs_reference(g, b)
        assert np.array_equal(g.operator.inverse(b), ref)
        # the default tol of 1e-12 is below rounding at cond ~ 1.6e6 (n = 2001)
        x = solve_poisson(ScalarField.from_interior(g, b), 1e-9).interior()
        assert np.array_equal(x, ref)
