"""Discrete Dirichlet Laplacian, linear solves and the principal eigenpair.

Second-order central stencils throughout: 3/5/7-point Laplacians on
interval/box grids and ``u'' + (N-1)/r u'`` on radial grids, with the
origin handled through the symmetric limit ``N u''(0)``.

Each grid carries one :class:`GridOperator` (``grid.operator``): the
negated Laplacian on interior unknowns with its Poisson and shifted
solves, its principal eigenpair and the trapezoidal quadrature weights,
built once and immutable.  The grid alone picks its backend
(:func:`_uses_dst`):

* intervals, 1-D boxes and radial grids (:class:`TridiagonalOperator`):
  the three diagonals and their LAPACK ``dgttrf`` factors, LU with
  partial pivoting (LAPACK Users' Guide, 3rd ed., SIAM 1999).  Poisson
  solves and inverse power iteration run ``dgttrs`` on the factors, and
  the shifted solve of a Newton step is one ``dgtsv`` on
  ``(dl, d - shift, du)``.  Radial operators are not symmetric, and the
  pivoted routines do not need them to be.
* 2D and 3D box grids (:class:`SineOperator`): the type-I discrete sine
  transform diagonalizes the 5- and 7-point Laplacian exactly (Buzbee,
  Golub & Nielsen 1970).  Poisson solves are a forward and an inverse
  DST-I, the principal eigenpair is the closed-form product of sines, and
  the shifted solves of Newton steps run MINRES (Paige & Saunders 1975)
  preconditioned by the DST Poisson solve, on the assembled sparse matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.fft
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .grid import Grid

__all__ = [
    "ScalarField",
    "Eigenpair",
    "GridOperator",
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

# The principal eigenpair each grid's operator holds: inverse iteration's
# relative tolerance on successive eigenvalues and its iteration cap.
EIGEN_TOL = 1e-12
EIGEN_MAX_ITER = 1000


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


def _kron_laplacian(grid: Grid) -> sp.csr_matrix:
    """Sparse ``-Laplacian_h`` of a box grid: a Kronecker sum of 1-D stencils."""
    blocks = []
    for n, h in zip(grid.shape, grid.spacing):
        main = np.full(n - 2, 2.0 / h**2)
        off = np.full(n - 3, -1.0 / h**2)
        blocks.append(sp.diags([off, main, off], [-1, 0, 1], format="csr"))
    eyes = [sp.identity(n - 2, format="csr") for n in grid.shape]
    mat = None
    for axis in range(grid.ndim):
        factors = [blocks[a] if a == axis else eyes[a] for a in range(grid.ndim)]
        term = factors[0]
        for f in factors[1:]:
            term = sp.kron(term, f, format="csr")
        mat = term if mat is None else mat + term
    return mat.tocsr()


def _tridiagonal(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sub-, main and super-diagonal of ``-Laplacian_h`` on a 1-D grid.

    Radial unknowns are ``r_0 .. r_{n-2}``.  The origin row is
    ``-N * 2 (u_1 - u_0) / h^2``; row ``k`` weighs its neighbours by
    ``c -+ (N-1)/(2 h r_k)`` with ``c = 1/h^2``, so the matrix is not
    symmetric."""
    h = grid.spacing[0]
    m = grid.num_interior
    if not grid.is_radial:
        off = np.full(m - 1, -1.0 / h**2)
        return off, np.full(m, 2.0 / h**2), off.copy()
    n_amb = grid.ambient_dim
    c = 1.0 / h**2
    drift = (n_amb - 1) / (2.0 * h * grid.axes[0][1:m])
    d = np.full(m, 2.0 * c)
    d[0] = 2.0 * n_amb / h**2
    du = np.empty(m - 1)
    du[0] = -2.0 * n_amb / h**2
    du[1:] = -(c + drift[:-1])  # the last row's neighbour r_{n-1} is the boundary
    return -(c - drift), d, du


def _uses_dst(grid: Grid) -> bool:
    """The one backend choice: the DST-I on 2D and 3D box grids, LAPACK
    tridiagonal solves on intervals, 1-D boxes and radial grids."""
    return not grid.is_radial and grid.ndim >= 2


def _sine_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues ``(2 - 2cos(pi k/(n-1)))/h^2``, k = 1..n-2, of the 1-D
    Dirichlet ``-D_hh``, written as ``4 sin^2`` to avoid cancellation."""
    return (2.0 * np.sin(0.5 * np.pi * np.arange(1, n - 1) / (n - 1)) / h) ** 2


def _trapezoid_weights(grid: Grid) -> np.ndarray:
    """Trapezoid rule per axis; on balls times ``|S^(N-1)| r^(N-1)``."""
    w = np.ones(grid.shape)
    for axis, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        w1 = np.full(n, h)
        w1[0] = w1[-1] = h / 2.0
        shape = [1] * grid.ndim
        shape[axis] = n
        w = w * w1.reshape(shape)
    if grid.is_radial:
        n_amb = grid.ambient_dim
        surface = 2.0 * math.pi ** (n_amb / 2.0) / math.gamma(n_amb / 2.0)
        w = surface * w * grid.axes[0] ** (n_amb - 1)
    return w


# scipy's wrappers of ?gtsv and ?gttrf take the order of the system from
# len(dl) and reject orders below 3; smaller systems get decoupled identity rows.
LAPACK_MIN_ORDER = 3


def _lapack_sized(dl, d, du):
    """The diagonals extended by identity rows to at least ``LAPACK_MIN_ORDER``
    unknowns.  The rows are decoupled: the first ``len(d)`` unknowns of a
    solution solve the original system, and its zero pivots are still found."""
    k = LAPACK_MIN_ORDER - d.size
    if k <= 0:
        return dl, d, du
    zeros = np.zeros(k)
    return (np.concatenate([dl, zeros]), np.concatenate([d, np.ones(k)]),
            np.concatenate([du, zeros]))


def _rhs_sized(b, order: int):
    return b if b.size == order else np.concatenate([b, np.zeros(order - b.size)])


def _check_info(info: int, routine: str) -> None:
    """Raise on a zero pivot; the arguments are well formed by construction,
    so ``info < 0`` does not occur."""
    if info > 0:
        raise LinearSolveError(
            f"singular tridiagonal matrix: LAPACK {routine} found a zero pivot at "
            f"unknown {info}", math.inf
        )


def _gtsv(dl, d, du, b) -> np.ndarray:
    """``x`` with ``(dl, d, du) x = b``: one LAPACK ``dgtsv``, LU with partial
    pivoting; ``d`` is overwritten, ``dl``, ``du`` and ``b`` are not."""
    m = d.size
    dl, d, du = _lapack_sized(dl, d, du)
    *_, x, info = lapack.dgtsv(dl, d, du, _rhs_sized(b, d.size), overwrite_d=1)
    _check_info(info, "dgtsv")
    return x[:m]


class GridOperator:
    """``-Laplacian_h`` on the interior unknowns of one grid (C-order
    flattening), with the solves, the principal eigenpair and the
    trapezoidal quadrature weights that go with it.

    ``grid.operator`` builds one per grid, through :meth:`for_grid`, which
    picks the backend; everything is computed in the constructor and
    nothing changes afterwards, so concurrent solves may share it.
    ``eigenpair`` is the principal pair at ``EIGEN_TOL``.  Each backend
    provides ``apply`` (the matrix-vector product), ``matrix``,
    ``inverse`` (the Poisson solve), ``solve_shifted`` and ``_principal``.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.weights = _trapezoid_weights(grid)
        self.weights.setflags(write=False)
        self._build()
        self.eigenpair = self.compute_eigenpair(EIGEN_TOL, EIGEN_MAX_ITER)

    @staticmethod
    def for_grid(grid: Grid) -> "GridOperator":
        return SineOperator(grid) if _uses_dst(grid) else TridiagonalOperator(grid)

    def compute_eigenpair(self, tol: float, max_iter: int) -> Eigenpair:
        """Principal pair, ``phi1`` positive and sup-normalized, with its
        sup-norm eigen-residual on this operator."""
        lam, v, iterations = self._principal(tol, max_iter)
        if np.sum(v) < 0:
            v = -v
        if np.any(v <= 0):
            raise EigenSolveError("principal eigenvector is not strictly positive")
        v /= np.max(v)
        res_sup = float(np.max(np.abs(self.apply(v) - lam * v)))
        return Eigenpair(lam, ScalarField.from_interior(self.grid, v), res_sup, iterations)


class TridiagonalOperator(GridOperator):
    """Intervals, 1-D boxes and radial grids: the three diagonals and their
    LAPACK ``dgttrf`` factors.  Poisson solves and inverse power iteration
    run ``dgttrs`` on the factors; a shifted solve is one ``dgtsv``."""

    def _build(self):
        self.dl, self.d, self.du = _tridiagonal(self.grid)
        *factors, info = lapack.dgttrf(*_lapack_sized(self.dl, self.d, self.du))
        _check_info(info, "dgttrf")
        self._factors = factors
        for array in (self.dl, self.d, self.du, *factors):
            array.setflags(write=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        # summed in the column order of ``matrix()``, so both agree bit for bit
        y = self.d * x
        y[1:] += self.dl * x[:-1]
        y[:-1] += self.du * x[1:]
        return y

    def matrix(self) -> sp.csr_matrix:
        """The assembled matrix, built anew on each call; no solve uses it."""
        return sp.diags([self.dl, self.d, self.du], [-1, 0, 1], format="csr")

    def inverse(self, b: np.ndarray) -> np.ndarray:
        x, info = lapack.dgttrs(*self._factors, _rhs_sized(b, self._factors[1].size))
        _check_info(info, "dgttrs")
        return x[:b.size]

    def solve_shifted(self, shift, rhs) -> np.ndarray:
        return _gtsv(self.dl, self.d - shift, self.du, rhs)

    def _principal(self, tol: float, max_iter: int):
        """Inverse power iteration on the factors; :func:`principal_eigenpair`
        states the stopping rule."""
        v = np.ones(self.d.size)
        v /= np.linalg.norm(v)
        lam_prev = np.inf
        residual = np.inf
        for iteration in range(1, max_iter + 1):
            v = self.inverse(v)
            v /= np.linalg.norm(v)
            av = self.apply(v)
            lam = float(v @ av)
            residual = float(np.max(np.abs(av - lam * v))) / float(np.max(np.abs(v)))
            if abs(lam - lam_prev) < tol * max(1.0, abs(lam)) and residual <= 1e-8 * lam:
                return lam, v, iteration
            lam_prev = lam
        raise EigenSolveError(
            f"inverse power iteration did not converge in {max_iter} iterations "
            f"(last residual {residual:.3e})"
        )


class SineOperator(GridOperator):
    """2D and 3D boxes: the assembled sparse matrix and the DST-I symbol,
    the eigenvalues of ``-Laplacian_h`` in DST-I coefficient order."""

    def _build(self):
        self._matrix = _kron_laplacian(self.grid)
        pairs = zip(self.grid.shape, self.grid.spacing)
        self.symbol = reduce(np.add.outer, [_sine_eigenvalues(n, h) for n, h in pairs])
        self.symbol.setflags(write=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._matrix @ x

    def matrix(self) -> sp.csr_matrix:
        return self._matrix

    def inverse(self, b: np.ndarray) -> np.ndarray:
        """DST-I, division by the symbol, inverse DST-I."""
        coef = scipy.fft.dstn(np.reshape(b, self.symbol.shape), type=1, norm="ortho")
        return scipy.fft.idstn(coef / self.symbol, type=1, norm="ortho").ravel()

    def solve_shifted(self, shift, rhs) -> np.ndarray:
        """The matrix is symmetric but may be indefinite: MINRES,
        preconditioned by the DST-I Poisson solve.  MINRES stops on its own
        recurrence residual, which drifts from the true one when floor
        shifts of -1e6 make the matrix ill-conditioned, so each sweep
        restarts it on the true residual until that is below
        ``SHIFTED_RESIDUAL * ||rhs||``."""
        mat = self._matrix - sp.diags(shift)
        precond = spla.LinearOperator(mat.shape, matvec=self.inverse, dtype=float)
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
                f"MINRES stopped at residual {res_norm:.3e} against {SHIFTED_RESIDUAL:.0e} "
                f"* ||rhs|| (info {info}, cap {MINRES_MAXITER} iterations per sweep)", res_norm
            )
        return x

    def _principal(self, tol: float, max_iter: int):
        """The closed form: ``lambda_1 = sum_i (2 - 2cos(pi/(n_i-1)))/h_i^2``
        and the product of ``sin(pi k/(n_i-1))``, with 0 iterations."""
        pairs = zip(self.grid.shape, self.grid.spacing)
        lam = float(sum(_sine_eigenvalues(n, h)[0] for n, h in pairs))
        sines = [np.sin(np.pi * np.arange(1, n - 1) / (n - 1)) for n in self.grid.shape]
        return lam, reduce(np.multiply.outer, sines).ravel(), 0


def neg_laplacian_matrix(grid: Grid) -> sp.csr_matrix:
    """Sparse matrix of ``-Laplacian`` on interior unknowns (C-order
    flattening): the operator's own on box grids, assembled from the three
    diagonals on each call elsewhere."""
    return grid.operator.matrix()


def solve_poisson(rhs: ScalarField, tol: float = 1e-12) -> ScalarField:
    """Solve ``-Laplacian v = rhs`` with zero Dirichlet data.

    DST-I on box grids, the stored tridiagonal LU factors otherwise; the
    relative residual in the discrete 2-norm is verified against ``tol``
    and a failure raises :class:`LinearSolveError` carrying the achieved
    residual.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = rhs.grid
    b = rhs.interior()
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return ScalarField.zeros(grid)
    op = grid.operator
    x = op.inverse(b)
    res = float(np.linalg.norm(op.apply(x) - b))
    if res > tol * nb:
        raise LinearSolveError(
            f"poisson solve residual {res:.3e} exceeds {tol:.1e} * ||rhs||", res
        )
    return ScalarField.from_interior(grid, x)


def solve_shifted(grid: Grid, shift, rhs) -> np.ndarray:
    """Solve ``(-Laplacian_h - diag(shift)) x = rhs`` on interior unknowns.

    One LAPACK ``dgtsv`` on ``(dl, d - shift, du)`` on interval and radial
    grids, with no matrix assembled; a singular matrix raises
    :class:`LinearSolveError`.  On box grids, DST-preconditioned MINRES
    (:meth:`SineOperator.solve_shifted`): a sweep that hits
    ``MINRES_MAXITER``, or ``MINRES_SWEEPS`` sweeps that fall short, raise
    :class:`LinearSolveError` with the residual reached.
    """
    return grid.operator.solve_shifted(shift, rhs)


def principal_eigenpair(
    grid: Grid, tol: float = EIGEN_TOL, max_iter: int = EIGEN_MAX_ITER
) -> Eigenpair:
    """Principal Dirichlet eigenpair.

    On box grids it is the closed form, reported with 0 iterations.
    Elsewhere it is inverse power iteration on the stored tridiagonal
    factors: successive eigenvalue estimates must differ by less than
    ``tol`` (relative) and the sup-norm eigen-residual must fall below
    ``1e-8 * lambda``, so the extra polishing steps are cheap.  Either way
    ``residual_sup`` is measured on the operator.  The pair at the default
    ``tol`` and ``max_iter`` is the one the grid's operator holds; other
    settings compute a new one on each call.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    op = grid.operator
    if tol == EIGEN_TOL and max_iter == EIGEN_MAX_ITER:
        return op.eigenpair
    return op.compute_eigenpair(tol, max_iter)


def gradient_components(field: ScalarField) -> list[np.ndarray]:
    """Per-axis first derivatives: central differences at interior nodes,
    second-order one-sided stencils on the faces of each axis (on balls,
    the origin and ``r = R``)."""
    grid = field.grid
    u = field.values
    comps = []
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
