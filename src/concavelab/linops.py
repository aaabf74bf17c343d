"""Discrete Dirichlet Laplacian, linear solves and the principal eigenpair.

Second-order central stencils throughout: 3/5/7-point Laplacians on
interval/box grids and ``u'' + (N-1)/r u'`` on radial grids, with the
origin handled through the symmetric limit ``N u''(0)``.  The negated
Laplacian restricted to interior nodes is assembled as a sparse matrix.

Two backends solve with it, chosen by the grid alone (:func:`_uses_dst`):

* 2D and 3D box grids: the type-I discrete sine transform diagonalizes
  the 5- and 7-point Laplacian exactly (Buzbee, Golub & Nielsen 1970).
  Poisson solves are a forward and an inverse DST-I, the principal
  eigenpair is the closed-form product of sines, and the shifted solves
  of Newton steps run MINRES (Paige & Saunders 1975) preconditioned by
  the DST Poisson solve.
* intervals and radial grids: sparse LU, factorized once per grid for
  Poisson solves and inverse power iteration; in 1D it is faster than
  the transform, and radial operators are not symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.fft
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid

__all__ = [
    "ScalarField",
    "Eigenpair",
    "LinearSolveError",
    "EigenSolveError",
    "apply_laplacian",
    "neg_laplacian_matrix",
    "solve_poisson",
    "solve_shifted",
    "principal_eigenpair",
    "gradient_components",
]


# Shifted solves on box grids: MINRES's own relative tolerance and iteration
# cap per sweep (Newton steps take 9-17 iterations; Jacobians with 1% of their
# diagonal at the Newton floor of -1e6 take up to about 75), and the true
# relative residual that the sweeps must reach.
MINRES_RTOL = 1e-12
MINRES_MAXITER = 500
MINRES_SWEEPS = 3
SHIFTED_RESIDUAL = 1e-9


class LinearSolveError(RuntimeError):
    """Linear solve did not meet the requested residual tolerance."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class EigenSolveError(RuntimeError):
    pass


class ScalarField:
    """Nodal values of a function on a grid with zero Dirichlet trace.

    ``validate=False`` skips the trace check; it is intended for test
    harness fields (manufactured samples that do not vanish on the
    boundary, e.g. Gaussian profiles restricted to a box).
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values, validate: bool = True):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if validate:
            if not np.all(np.isfinite(values)):
                raise ValueError("field values must be finite")
            boundary = ~grid.interior_mask
            if np.any(values[boundary] != 0.0):
                raise ValueError("boundary trace must be exactly zero")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_interior(cls, grid: Grid, interior_values) -> "ScalarField":
        values = np.zeros(grid.shape)
        values[grid.interior_mask] = interior_values
        return cls(grid, values)

    def interior(self) -> np.ndarray:
        return self.values[self.grid.interior_mask]

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy(), validate=False)

    def integrate(self) -> float:
        return float(np.sum(self.grid.quadrature_weights() * self.values))

    def __repr__(self):
        return f"ScalarField({self.grid!r}, sup={self.sup_norm():.6g})"


@dataclass(frozen=True)
class Eigenpair:
    """Principal Dirichlet eigenpair: ``phi1`` sup-normalized and positive."""

    lambda1: float
    phi1: ScalarField
    residual_sup: float
    iterations: int


def apply_laplacian(field: ScalarField) -> ScalarField:
    """Discrete Laplacian of ``field``, defined at interior nodes.

    Boundary nodes of the result are set to zero.  The stencil reads the
    actual nodal values, so fields built with ``validate=False`` can be
    used to probe consistency on manufactured data.
    """
    grid = field.grid
    u = field.values
    out = np.zeros_like(u)
    if grid.is_radial:
        n_amb = grid.ambient_dim
        h = grid.spacing[0]
        r = grid.axes[0]
        # interior radial nodes 1..n-2
        upp = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
        up = (u[2:] - u[:-2]) / (2.0 * h)
        out[1:-1] = upp + (n_amb - 1) / r[1:-1] * up
        # symmetric limit at the origin
        out[0] = n_amb * 2.0 * (u[1] - u[0]) / h**2
    else:
        for axis, h in enumerate(grid.spacing):
            center = [slice(None)] * grid.ndim
            plus = [slice(None)] * grid.ndim
            minus = [slice(None)] * grid.ndim
            center[axis] = slice(1, -1)
            plus[axis] = slice(2, None)
            minus[axis] = slice(None, -2)
            out[tuple(center)] += (
                u[tuple(plus)] - 2.0 * u[tuple(center)] + u[tuple(minus)]
            ) / h**2
        out[~grid.interior_mask] = 0.0
    return ScalarField(grid, out, validate=False)


def _tridiag_1d(n_interior: int, h: float) -> sp.csr_matrix:
    main = np.full(n_interior, 2.0 / h**2)
    off = np.full(n_interior - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def neg_laplacian_matrix(grid: Grid) -> sp.csr_matrix:
    """Matrix of ``-Laplacian`` on interior unknowns (C-order flattening)."""
    mat = grid._cache.get("neg_lap")
    if mat is not None:
        return mat
    if grid.is_radial:
        n = grid.shape[0]
        m = n - 1  # unknowns r_0 .. r_{n-2}
        h = grid.spacing[0]
        n_amb = grid.ambient_dim
        r = grid.axes[0]
        rows, cols, vals = [], [], []
        # origin: -N * 2 (u1 - u0) / h^2
        rows += [0, 0]
        cols += [0, 1]
        vals += [2.0 * n_amb / h**2, -2.0 * n_amb / h**2]
        for k in range(1, m):
            c = 1.0 / h**2
            d = (n_amb - 1) / (2.0 * h * r[k])
            rows += [k, k]
            cols += [k, k - 1]
            vals += [2.0 * c, -(c - d)]
            if k + 1 < m:  # neighbor r_{k+1} is an unknown unless it is the boundary
                rows.append(k)
                cols.append(k + 1)
                vals.append(-(c + d))
        mat = sp.csr_matrix((vals, (rows, cols)), shape=(m, m))
    else:
        blocks = [
            _tridiag_1d(n - 2, h) for n, h in zip(grid.shape, grid.spacing)
        ]
        eyes = [sp.identity(n - 2, format="csr") for n in grid.shape]
        mat = None
        for axis in range(grid.ndim):
            factors = [blocks[a] if a == axis else eyes[a] for a in range(grid.ndim)]
            term = factors[0]
            for f in factors[1:]:
                term = sp.kron(term, f, format="csr")
            mat = term if mat is None else mat + term
        mat = mat.tocsr()
    grid._cache["neg_lap"] = mat
    return mat


def _uses_dst(grid: Grid) -> bool:
    """The one backend choice: the DST-I on 2D and 3D box grids, sparse LU
    on intervals and radial grids."""
    return not grid.is_radial and grid.ndim >= 2


def _sine_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues ``(2 - 2cos(pi k/(n-1)))/h^2``, k = 1..n-2, of the 1-D
    Dirichlet ``-D_hh``, written as ``4 sin^2`` to avoid cancellation."""
    return (2.0 * np.sin(0.5 * np.pi * np.arange(1, n - 1) / (n - 1)) / h) ** 2


def _neg_laplacian_lu(grid: Grid):
    lu = grid._cache.get("neg_lap_lu")
    if lu is None:
        lu = spla.splu(neg_laplacian_matrix(grid).tocsc())
        grid._cache["neg_lap_lu"] = lu
    return lu


def _inverse_laplacian(grid: Grid):
    """``b -> (-Laplacian_h)^-1 b`` on interior unknowns: DST-I, symbol
    division and inverse DST-I on box grids, the cached LU otherwise."""
    if not _uses_dst(grid):
        return _neg_laplacian_lu(grid).solve
    # eigenvalues of -Laplacian_h in DST-I coefficient order: an outer sum
    symbol = reduce(
        np.add.outer, [_sine_eigenvalues(n, h) for n, h in zip(grid.shape, grid.spacing)]
    )

    def solve(b):
        coef = scipy.fft.dstn(np.reshape(b, symbol.shape), type=1, norm="ortho")
        return scipy.fft.idstn(coef / symbol, type=1, norm="ortho").ravel()

    return solve


def solve_poisson(rhs: ScalarField, tol: float = 1e-12) -> ScalarField:
    """Solve ``-Laplacian v = rhs`` with zero Dirichlet data.

    DST-I on box grids, sparse LU otherwise; the relative residual in the
    discrete 2-norm is verified against ``tol`` and a failure raises
    :class:`LinearSolveError` carrying the achieved residual.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = rhs.grid
    b = rhs.interior()
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return ScalarField.zeros(grid)
    x = _inverse_laplacian(grid)(b)
    res = float(np.linalg.norm(neg_laplacian_matrix(grid) @ x - b))
    if res > tol * nb:
        raise LinearSolveError(
            f"poisson solve residual {res:.3e} exceeds {tol:.1e} * ||rhs||", res
        )
    return ScalarField.from_interior(grid, x)


def solve_shifted(grid: Grid, shift, rhs) -> np.ndarray:
    """Solve ``(-Laplacian_h - diag(shift)) x = rhs`` on interior unknowns.

    Sparse LU of the shifted matrix on interval and radial grids.  On box
    grids the matrix is symmetric but may be indefinite: MINRES,
    preconditioned by the DST-I Poisson solve.  MINRES stops on its own
    recurrence residual, which drifts from the true one when floor shifts
    of -1e6 make the matrix ill-conditioned, so each sweep restarts it on
    the true residual until that is below ``SHIFTED_RESIDUAL * ||rhs||``.
    A sweep that hits ``MINRES_MAXITER``, or ``MINRES_SWEEPS`` sweeps that
    fall short, raise :class:`LinearSolveError` with the residual reached.
    """
    mat = neg_laplacian_matrix(grid) - sp.diags(shift)
    if not _uses_dst(grid):
        return spla.splu(mat.tocsc()).solve(rhs)
    precond = spla.LinearOperator(mat.shape, matvec=_inverse_laplacian(grid), dtype=float)
    goal = SHIFTED_RESIDUAL * float(np.linalg.norm(rhs))
    x = np.zeros(mat.shape[0])
    res = rhs
    for _ in range(MINRES_SWEEPS):
        dx, info = spla.minres(mat, res, rtol=MINRES_RTOL, maxiter=MINRES_MAXITER, M=precond)
        x += dx
        res = rhs - mat @ x
        res_norm = float(np.linalg.norm(res))
        if info != 0 or res_norm <= goal:
            break
    if info != 0 or res_norm > goal:
        raise LinearSolveError(
            f"MINRES stopped at residual {res_norm:.3e} against {SHIFTED_RESIDUAL:.0e} * ||rhs|| "
            f"(info {info}, cap {MINRES_MAXITER} iterations per sweep)", res_norm
        )
    return x


def _inverse_power_iteration(grid: Grid, tol: float, max_iter: int):
    a_mat = neg_laplacian_matrix(grid)
    lu = _neg_laplacian_lu(grid)
    v = np.ones(grid.num_interior)
    v /= np.linalg.norm(v)
    lam_prev = np.inf
    lam = np.inf
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        v = lu.solve(v)
        v /= np.linalg.norm(v)
        av = a_mat @ v
        lam = float(v @ av)
        residual = float(np.max(np.abs(av - lam * v))) / float(np.max(np.abs(v)))
        if abs(lam - lam_prev) < tol * max(1.0, abs(lam)) and residual <= 1e-8 * lam:
            return lam, v, iteration
        lam_prev = lam
    raise EigenSolveError(
        f"inverse power iteration did not converge in {max_iter} iterations "
        f"(last residual {residual:.3e})"
    )


def principal_eigenpair(grid: Grid, tol: float = 1e-12, max_iter: int = 1000) -> Eigenpair:
    """Principal Dirichlet eigenpair.

    On box grids it is the closed form: ``lambda_1 = sum_i (2 -
    2cos(pi/(n_i-1)))/h_i^2`` and the product of ``sin(pi k/(n_i-1))``,
    reported with 0 iterations.  Elsewhere it is inverse power iteration
    on the cached factorization: successive eigenvalue estimates must
    differ by less than ``tol`` (relative) and the sup-norm
    eigen-residual must fall below ``1e-8 * lambda``, so the extra
    polishing steps are cheap.  Either way ``residual_sup`` is measured
    on the assembled operator.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    cache_key = ("eigenpair", tol)
    cached = grid._cache.get(cache_key)
    if cached is not None:
        return cached

    if _uses_dst(grid):
        lam = float(sum(_sine_eigenvalues(n, h)[0] for n, h in zip(grid.shape, grid.spacing)))
        sines = [np.sin(np.pi * np.arange(1, n - 1) / (n - 1)) for n in grid.shape]
        v = reduce(np.multiply.outer, sines).ravel()
        iteration = 0
    else:
        lam, v, iteration = _inverse_power_iteration(grid, tol, max_iter)

    if np.sum(v) < 0:
        v = -v
    if np.any(v <= 0):
        raise EigenSolveError("principal eigenvector is not strictly positive")
    v /= np.max(v)
    phi = ScalarField.from_interior(grid, v)
    res_sup = float(np.max(np.abs(neg_laplacian_matrix(grid) @ v - lam * v)))
    pair = Eigenpair(lam, phi, res_sup, iteration)
    grid._cache[cache_key] = pair
    return pair


def gradient_components(field: ScalarField) -> list[np.ndarray]:
    """Per-axis first derivatives: central differences at interior nodes,
    second-order one-sided stencils on the boundary faces."""
    grid = field.grid
    u = field.values
    comps = []
    if grid.is_radial:
        h = grid.spacing[0]
        g = np.empty_like(u)
        g[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
        g[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
        g[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
        return [g]
    for axis, h in enumerate(grid.spacing):
        g = np.empty_like(u)

        def sl(s):
            idx = [slice(None)] * grid.ndim
            idx[axis] = s
            return tuple(idx)

        g[sl(slice(1, -1))] = (u[sl(slice(2, None))] - u[sl(slice(None, -2))]) / (2.0 * h)
        g[sl(0)] = (-3.0 * u[sl(0)] + 4.0 * u[sl(1)] - u[sl(2)]) / (2.0 * h)
        g[sl(-1)] = (3.0 * u[sl(-1)] - 4.0 * u[sl(-2)] + u[sl(-3)]) / (2.0 * h)
        comps.append(g)
    return comps
