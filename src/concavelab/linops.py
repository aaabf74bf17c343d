"""Discrete Dirichlet Laplacian, linear solves and the principal eigenpair.

Second-order central stencils throughout: 3/5/7-point Laplacians on
interval/box grids and ``u'' + (N-1)/r u'`` on radial grids, with the
origin handled through the symmetric limit ``N u''(0)``.  Their rows are
written once per grid kind (:func:`_stencil_rows`) and applied by one
routine (:func:`_apply_rows`): by solves to interior vectors, and by
:func:`apply_laplacian` to whole fields, boundary values included, for
fields with a nonzero trace and the references; no solve assembles a matrix.

Each grid carries one :class:`GridOperator` (``grid.operator``): the
negated Laplacian on the interior unknowns, ``grid.layer_region(1)`` in C
order, with its Poisson and shifted solves, its principal eigenpair and
the trapezoidal quadrature weights, built once and immutable.  The grid
alone picks its backend (:meth:`GridOperator.for_grid`):

* intervals, 1-D boxes and radial grids (:class:`TridiagonalOperator`):
  the rows as three diagonals.  Every solve is one LAPACK ``dgtsv``, LU
  with partial pivoting (LAPACK Users' Guide, 3rd ed., SIAM 1999), on
  ``(dl, d - shift, du)``: a Newton step at the Jacobian's shift, a Poisson
  solve and each step of inverse power iteration at shift 0.  Radial rows
  are not symmetric, and the pivoted routine does not need them to be.
  ``scipy.linalg`` is imported where ``dgtsv`` is called, so a run that
  solves no tridiagonal system never loads it.
* 2D and 3D box grids (:class:`SineOperator`): the type-I discrete sine
  transform diagonalizes the 5- and 7-point Laplacian exactly (Buzbee,
  Golub & Nielsen 1970).  Poisson solves are a forward and an inverse
  DST-I, the principal eigenpair is the closed-form product of sines, and
  a Newton step is MINRES (Paige & Saunders 1975, :func:`minres`) run in
  DST-I coefficients: the Jacobian preconditioned on both sides by the
  square root of a DST solve whose symbol is moved by a weighted mean of
  the shift, so each iteration is two DST-I transforms and diagonal
  scalings, and the stencil rows give only the true residual of each
  sweep.  While every interior axis has at most ``DENSE_SINE_MAX``
  unknowns, a transform is one product with the dense orthonormal sine
  matrix per axis (the matrix decomposition of Lynch, Rice & Thomas 1964);
  longer axes use ``scipy.fft.dstn``, and only they import ``scipy.fft``,
  where it is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

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


# Shifted solves on box grids: MINRES's own relative tolerance as a fraction
# of the goal, its iteration cap per sweep (Jacobians with 1% of their
# diagonal at the Newton floor of -1e6 take 40-80 iterations up to 161^2
# and 41^3 nodes), the number of sweeps, and the true relative residual the
# sweeps must reach: SHIFTED_RESIDUAL unless the caller asks for less.
# Newton asks for its forcing term, the rms of its residual capped at
# FORCING_CAP.
MINRES_MARGIN = 1e-3
MINRES_MAXITER = 500
MINRES_SWEEPS = 3
SHIFTED_RESIDUAL = 1e-9
FORCING_CAP = 1e-2

# Box grids whose interior axes all have at most this many unknowns apply
# the DST-I as dense sine-matrix products, one BLAS product per axis; longer
# axes use scipy.fft.dstn.  tools/sine_crossover.py times both on one BLAS
# thread: the products win on each 2D length timed up to 128 but 119 (a tie) and
# 127 (n + 1 = 128 suits the FFT best), and on 3D boxes up to 71^3.  Beyond
# that range, on a 2-core Xeon, the products take 1.09 of dstn's time on 79^3,
# which takes them, and 0.80 on 139^2, which does not.
DENSE_SINE_MAX = 128

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
            if not np.isfinite(values).all():
                raise ValueError("field values must be finite")
            if _nonzero_trace(grid, values):
                raise ValueError("boundary trace must be exactly zero")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_interior(cls, grid: Grid, interior_values) -> "ScalarField":
        values = np.zeros(grid.shape)
        values[grid.layer_region(1)] = np.reshape(interior_values, grid.interior_shape)
        return cls(grid, values)

    def interior(self) -> np.ndarray:
        return self.values[self.grid.layer_region(1)].flatten()  # a copy; ravel may alias

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __repr__(self):
        return f"ScalarField({self.grid!r}, sup={self.sup_norm():.6g})"


def _nonzero_trace(grid: Grid, values: np.ndarray) -> bool:
    """Whether a boundary node of the finite ``values`` is nonzero: the node
    ``r = R`` on radial grids, the first and last node along each axis of a
    box, read as scalars on one axis and as faces on more."""
    if grid.is_radial:
        return bool(values[-1])
    if grid.ndim == 1:
        return bool(values[0] or values[-1])
    return any(values[_along(grid.ndim, axis, end)].any()
               for axis in range(grid.ndim) for end in (0, -1))


@dataclass(frozen=True)
class Eigenpair:
    """Principal Dirichlet eigenpair: ``phi1`` sup-normalized and positive."""

    lambda1: float
    phi1: ScalarField
    residual_sup: float
    iterations: int


class StencilRows(NamedTuple):
    """Per axis the coefficients of the lower and upper neighbours, and the
    centre: scalars (constant rows) or arrays over the interior rows."""

    lower: tuple
    centre: float | np.ndarray
    upper: tuple

    def in_column_order(self) -> tuple:
        return (*self.lower, self.centre, *reversed(self.upper))


def _stencil_rows(grid: Grid) -> StencilRows:
    """The rows of ``-Laplacian_h``, written once per grid kind.

    Box and interval axes: ``(-1/h^2, 2/h^2, -1/h^2)``, the centre
    ``sum_a 2/h_a^2`` summed in axis order.  Radial unknowns are
    ``r_0 .. r_{n-2}``: row ``k`` weighs its neighbours by
    ``-(c -+ (N-1)/(2 h r_k))`` with ``c = 1/h^2``, so the rows are not
    symmetric; the origin row is the symmetric limit ``N * 2 (u_0 - u_1)/h^2``
    with no lower neighbour, and the upper neighbour of the last row is the
    boundary node ``r = R``."""
    if not grid.is_radial:
        lower = tuple(-1.0 / h**2 for h in grid.spacing)
        return StencilRows(lower, sum(2.0 / h**2 for h in grid.spacing), lower)
    n_amb, m, h = grid.ambient_dim, grid.num_interior, grid.spacing[0]
    c = 1.0 / h**2
    drift = np.zeros(m)
    drift[1:] = (n_amb - 1) / (2.0 * h * grid.axes[0][1:m])
    lower, centre, upper = -(c - drift), np.full(m, 2.0 * c), -(c + drift)
    lower[0], centre[0], upper[0] = 0.0, 2.0 * n_amb / h**2, -2.0 * n_amb / h**2
    for array in (lower, centre, upper):
        array.setflags(write=False)
    return StencilRows((lower,), centre, (upper,))


def _along(ndim: int, axis: int, index, rest=slice(None)) -> tuple:
    """An index of an ``ndim``-array: ``index`` on ``axis``, ``rest`` elsewhere."""
    return (rest,) * axis + (index,) + (rest,) * (ndim - axis - 1)


def _column_order(ndim: int) -> tuple[tuple[slice, ...], ...]:
    """Views of a padded array (one node beyond the interior on each side of
    each axis) in the column order of the assembled matrix: lower neighbours
    from axis 0 inward, the node itself, upper neighbours outward."""
    inner = slice(1, -1)
    return (*(_along(ndim, a, slice(None, -2), inner) for a in range(ndim)), (inner,) * ndim,
            *(_along(ndim, a, slice(2, None), inner) for a in reversed(range(ndim))))


_COLUMN_ORDER = {ndim: _column_order(ndim) for ndim in (1, 2, 3)}


def _apply_rows(rows: StencilRows, padded: np.ndarray) -> np.ndarray:
    """``-Laplacian_h`` at the interior nodes of ``padded``, shaped like the
    interior.  The terms are summed in ``_COLUMN_ORDER``, so the result
    equals ``neg_laplacian_matrix(grid) @ x`` bit for bit."""
    coefficients = rows.in_column_order()
    views = _COLUMN_ORDER[padded.ndim]
    out = coefficients[0] * padded[views[0]]
    for coefficient, view in zip(coefficients[1:], views[1:]):
        out += coefficient * padded[view]
    return out


def neg_laplacian_on(field: ScalarField, region: tuple[slice, ...]) -> np.ndarray:
    """``-Laplacian_h`` of ``field`` at the interior nodes ``values[region]``,
    shaped like them; ``region`` is one slice of node indices per axis, as
    :meth:`Grid.interior_region` gives.  Only the region widened by one node
    is read, boundary values included."""
    grid, values = field.grid, field.values
    rows = _stencil_rows(grid)
    if grid.is_radial:  # the region's rows; a ghost node before the origin, with coefficient 0
        (nodes,) = region
        rows = StencilRows((rows.lower[0][nodes],), rows.centre[nodes], (rows.upper[0][nodes],))
        values = np.concatenate((np.zeros(1), values[:nodes.stop + 1]))
        region = (slice(nodes.start + 1, nodes.stop + 1),)
    return _apply_rows(rows, values[tuple(slice(s.start - 1, s.stop + 1) for s in region)])


def apply_laplacian(field: ScalarField) -> ScalarField:
    """Discrete Laplacian of ``field`` at interior nodes, 0 on the boundary.

    The solver's stencil rows read the actual nodal values, boundary values
    included, so fields built with ``validate=False`` can probe consistency
    on manufactured data.
    """
    grid = field.grid
    region = grid.interior_region()
    out = np.zeros(grid.shape)
    out[region] = -neg_laplacian_on(field, region)
    return ScalarField(grid, out, validate=False)


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
        w = w * w1[_along(grid.ndim, axis, slice(None), np.newaxis)]
    if grid.is_radial:
        n_amb = grid.ambient_dim
        surface = 2.0 * math.pi ** (n_amb / 2.0) / math.gamma(n_amb / 2.0)
        w = surface * w * grid.axes[0] ** (n_amb - 1)
    return w


class GridOperator:
    """``-Laplacian_h`` on the interior unknowns of one grid (C-order
    flattening), with the solves, the principal eigenpair and the
    trapezoidal quadrature weights that go with it.

    ``grid.operator`` builds one per grid, through :meth:`for_grid`, which
    picks the backend; everything is computed in the constructor and
    nothing changes afterwards, so concurrent solves may share it.
    ``apply`` applies the stencil ``rows``; ``eigenpair`` is the principal
    pair at ``EIGEN_TOL``.  Each backend provides ``inverse`` (the Poisson
    solve), ``solve_shifted`` and ``_principal``.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.rows = _stencil_rows(grid)
        self._shape = grid.interior_shape
        self._padded_shape = tuple(n + 2 for n in self._shape)
        self._inner = (slice(1, -1),) * len(self._shape)
        self.weights = _trapezoid_weights(grid)
        self.weights.setflags(write=False)
        self._build()
        lam, v, iterations = self._principal()
        if np.sum(v) < 0:
            v = -v
        if np.any(v <= 0):
            raise EigenSolveError("principal eigenvector is not strictly positive")
        v /= np.max(v)
        res_sup = float(np.max(np.abs(self.apply(v) - lam * v)))
        self.eigenpair = Eigenpair(lam, ScalarField.from_interior(grid, v), res_sup, iterations)

    @staticmethod
    def for_grid(grid: Grid) -> "GridOperator":
        """The one backend choice: the DST-I on 2D and 3D boxes."""
        box = not grid.is_radial and grid.ndim >= 2
        return SineOperator(grid) if box else TridiagonalOperator(grid)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``-Laplacian_h x`` on the interior vector ``x`` extended by zeros."""
        return self._apply(self.rows, x)

    def _apply(self, rows: StencilRows, x: np.ndarray) -> np.ndarray:
        padded = np.zeros(self._padded_shape)
        padded[self._inner] = x.reshape(self._shape)
        return _apply_rows(rows, padded).ravel()


class TridiagonalOperator(GridOperator):
    """Intervals, 1-D boxes and radial grids: the rows as three diagonals,
    which every solve hands to LAPACK ``dgtsv``, imported from ``scipy.linalg``
    at the first solve."""

    def _build(self):
        lower, centre, upper = (np.broadcast_to(c, self._shape).copy() for c in
                                (*self.rows.lower, self.rows.centre, *self.rows.upper))
        self.dl, self.d, self.du = lower[1:], centre, upper[:-1]
        for array in (self.dl, self.d, self.du):
            array.setflags(write=False)

    def inverse(self, b: np.ndarray) -> np.ndarray:
        """The Poisson solve: :meth:`solve_shifted` at zero shift."""
        return self.solve_shifted(0.0, b)

    def solve_shifted(self, shift, rhs, rtol=SHIFTED_RESIDUAL) -> np.ndarray:
        """One LAPACK ``dgtsv``, LU with partial pivoting, on ``(dl, d - shift, du)``;
        a direct solve, so ``rtol`` asks for nothing.  scipy's wrapper refuses
        order 1, where ``dgtsv`` is the one division ``b / d``."""
        d = self.d - shift
        if d.size > 1:
            from scipy.linalg import lapack

            *_, x, info = lapack.dgtsv(self.dl, d, self.du, rhs, overwrite_d=1)
        else:
            x, info = (None, 1) if d[0] == 0.0 else (rhs / d, 0)
        if info > 0:  # the arguments are well formed by construction, so info >= 0
            raise LinearSolveError(
                f"singular tridiagonal matrix: LAPACK dgtsv found a zero pivot at unknown {info}",
                math.inf)
        return x

    def _principal(self):
        """Inverse power iteration, one ``dgtsv`` a step, at most ``EIGEN_MAX_ITER``
        steps; :func:`principal_eigenpair` states the stopping rule."""
        v = np.ones(self.d.size)
        v /= np.linalg.norm(v)
        lam_prev = np.inf
        residual = np.inf
        for iteration in range(1, EIGEN_MAX_ITER + 1):
            v = self.inverse(v)
            v /= np.linalg.norm(v)
            av = self.apply(v)
            lam = float(v @ av)
            residual = float(np.max(np.abs(av - lam * v))) / float(np.max(np.abs(v)))
            if abs(lam - lam_prev) < EIGEN_TOL * max(1.0, abs(lam)) and residual <= 1e-8 * lam:
                return lam, v, iteration
            lam_prev = lam
        raise EigenSolveError(
            f"inverse power iteration did not converge in {EIGEN_MAX_ITER} iterations "
            f"(last residual {residual:.3e})"
        )


def minres(matvec, b: np.ndarray, rtol: float, scale: np.ndarray) -> tuple[np.ndarray, int, int]:
    """MINRES (Paige & Saunders 1975) on ``matvec(y) = b``, ``matvec``
    symmetric and possibly indefinite, from ``y = 0``: the Lanczos
    recurrence with Givens rotations, on vectors shaped like ``b``, step for
    step as scipy's ``minres`` without a preconditioner.

    It stops on scipy's two tests on the recurrence residual ``r``:
    ``||r|| <= rtol ||A||_est ||scale * y||`` or ``||A r|| <= rtol ||A||_est
    ||r||``, with ``||A||_est`` scipy's running estimate from the Lanczos
    alphas and betas (``||b||`` is the first beta) and ``scale`` mapping
    ``y`` to the unknowns whose norm counts (ones for ``y`` itself); a
    ``rtol`` below machine epsilon stops at epsilon.  A zero Lanczos
    ``beta`` means the Krylov space is invariant and ``y`` exact, and stops
    it too.  Returns ``(y, info, iterations)``: ``info`` is 0 on a stop and
    ``MINRES_MAXITER`` when that many iterations met none."""
    eps = np.finfo(float).eps
    tol = max(rtol, eps)
    y = np.zeros_like(b)
    beta1 = float(np.linalg.norm(b))
    if beta1 == 0.0:
        return y, 0, 0
    r1, r2 = b, b  # the last two Lanczos vectors, scaled by their beta
    v, w_old, w, tmp = np.empty_like(b), np.zeros_like(b), np.zeros_like(b), np.empty_like(b)
    oldb, beta, tnorm2 = 0.0, beta1, 0.0
    cs, sn, dbar, epsln, phibar = -1.0, 0.0, 0.0, 0.0, beta1
    for iteration in range(1, MINRES_MAXITER + 1):
        np.multiply(r2, 1.0 / beta, out=v)
        p = matvec(v)
        if iteration > 1:
            p -= np.multiply(r1, beta / oldb, out=tmp)
        alfa = float(np.vdot(v, p))
        p -= np.multiply(r2, alfa / beta, out=tmp)
        r1, r2 = r2, p
        oldb, beta = beta, float(np.linalg.norm(p))
        tnorm2 += alfa**2 + oldb**2 + beta**2
        # the Givens rotation that brings the new column of the Lanczos
        # matrix to upper triangular form, then the next search direction
        oldeps, delta = epsln, cs * dbar + sn * alfa
        gbar, epsln, dbar = sn * dbar - cs * alfa, sn * beta, -cs * beta
        root = math.hypot(gbar, dbar)
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        np.multiply(w_old, oldeps, out=w_old)
        np.subtract(v, w_old, out=w_old)
        w_old -= np.multiply(w, delta, out=tmp)
        w_old *= 1.0 / gamma
        w_old, w = w, w_old
        y += np.multiply(w, phi, out=tmp)
        a_norm = math.sqrt(tnorm2)
        y_norm = float(np.linalg.norm(np.multiply(scale, y, out=tmp)))
        test1 = phibar / (a_norm * y_norm) if y_norm > 0.0 else math.inf
        if beta == 0.0 or test1 <= tol or root / a_norm <= tol:
            return y, 0, iteration
    return y, MINRES_MAXITER, MINRES_MAXITER


def _sine_matrix(n: int) -> np.ndarray:
    """The orthonormal DST-I matrix ``S[j, k] = sqrt(2/(n+1)) sin(pi jk/(n+1))``,
    ``j, k = 1..n``: symmetric and its own inverse.  ``jk`` is reduced modulo
    ``2n + 2``, the period of the sine, so its argument stays below ``2 pi``."""
    k = np.arange(1, n + 1)
    jk = np.outer(k, k) % (2 * n + 2)
    s = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * jk / (n + 1))
    s.setflags(write=False)
    return s


def _dst(x: np.ndarray, sines: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """The orthonormal DST-I over every axis of a 2D or 3D ``x``, which is
    its own inverse.  With ``sines``, the :func:`_sine_matrix` of each axis,
    it is ``S0 @ x @ S1`` in 2D, and in 3D ``S0`` on ``x`` flattened after
    axis 0, ``S1`` batched over axis 0, then ``@ S2``; without, it is
    ``scipy.fft.dstn``, imported where it is called."""
    if sines is None:
        import scipy.fft

        return scipy.fft.dstn(x, type=1, norm="ortho")
    if x.ndim == 2:
        return sines[0] @ x @ sines[1]
    y = (sines[0] @ x.reshape(x.shape[0], -1)).reshape(x.shape)
    return np.matmul(sines[1], y) @ sines[2]


class SineOperator(GridOperator):
    """2D and 3D boxes: the DST-I symbol, the eigenvalues of
    ``-Laplacian_h`` in DST-I coefficient order; no stencil matrix is
    stored.  While every interior axis has at most ``DENSE_SINE_MAX``
    unknowns it holds the dense sine matrix of each axis length, and every
    transform is products with them; otherwise ``sines`` is ``None`` and
    every transform is ``scipy.fft.dstn`` (:func:`_dst`)."""

    def _build(self):
        pairs = zip(self.grid.shape, self.grid.spacing)
        self.symbol = reduce(np.add.outer, [_sine_eigenvalues(n, h) for n, h in pairs])
        self.symbol.setflags(write=False)
        modes = [np.sin(np.pi * np.arange(1, n - 1) / (n - 1)) for n in self.grid.shape]
        self._phi = reduce(np.multiply.outer, modes).ravel()
        self._phi.setflags(write=False)
        self._phi_weights = self._phi**2 / np.sum(self._phi**2)
        self.sines = None
        if max(self._shape) <= DENSE_SINE_MAX:
            by_length = {n: _sine_matrix(n) for n in set(self._shape)}
            self.sines = tuple(by_length[n] for n in self._shape)

    def inverse(self, b: np.ndarray) -> np.ndarray:
        """The Poisson solve: a DST-I, division by the symbol, inverse DST-I."""
        return _dst(_dst(np.reshape(b, self._shape), self.sines) / self.symbol, self.sines).ravel()

    def solve_shifted(self, shift, rhs, rtol=SHIFTED_RESIDUAL) -> np.ndarray:
        """The matrix ``A - diag(shift)`` is symmetric but may be indefinite:
        MINRES preconditioned by ``M = S D S``, run in DST-I coefficients, to
        the true residual ``rtol * ||rhs||``.

        ``S`` is the orthonormal DST-I (``S = S^T = S^-1``) and ``D`` the
        symbol moved to ``max(|symbol - c|, symbol_min / 2)``, positive
        definite as MINRES needs.  ``c`` is the ``phi_1^2``-weighted mean of
        the shift clipped below at ``-symbol_min``: ``c >= -symbol_min`` keeps
        the divisor within a factor 2 of the plain symbol where shifts are
        negative, so a few nodes at the Newton floor of -1e6 cannot drag the
        preconditioner far below the spectrum.  With ``A = S symbol S``,
        ``M^-1/2 (A - diag(shift)) M^-1/2`` is ``S B S`` with
        ``B = D^-1/2 (symbol - S diag(shift) S) D^-1/2``, so :func:`minres`
        runs on ``B y = D^-1/2 S r`` and the step is ``S D^-1/2 y``: the same
        Krylov space as MINRES on the stencil rows preconditioned by ``M``,
        each iteration two DST-I transforms (:func:`_dst`) and diagonal
        scalings.

        MINRES stops on its own tests on the recurrence residual in the
        preconditioner's norm, which can lie far below the true relative
        residual when the matrix is ill-conditioned or nearly singular.  So
        each sweep restarts it on the true residual, from the stencil rows
        with centre ``centre - shift``, its tolerance ``MINRES_MARGIN * rtol``
        tightened by the shortfall of the sweep before, until that is below
        ``rtol * ||rhs||``."""
        shift = np.reshape(shift, self._shape)
        rows = self.rows._replace(centre=self.rows.centre - shift)
        symbol_min = self.symbol.flat[0]
        c = float(np.dot(np.maximum(shift.ravel(), -symbol_min), self._phi_weights))
        divisor = np.maximum(np.abs(self.symbol - c), 0.5 * symbol_min)
        scale, diagonal = 1.0 / np.sqrt(divisor), self.symbol / divisor

        def preconditioned(y):
            return diagonal * y - scale * _dst(shift * _dst(scale * y, self.sines), self.sines)

        goal = rtol * float(np.linalg.norm(rhs))
        x = np.zeros(rhs.size)
        res = rhs
        minres_rtol = MINRES_MARGIN * rtol
        for _ in range(MINRES_SWEEPS):
            y, info, _ = minres(preconditioned,
                                scale * _dst(np.reshape(res, self._shape), self.sines),
                                minres_rtol, scale)
            x += _dst(scale * y, self.sines).ravel()
            res = rhs - self._apply(rows, x)
            res_norm = float(np.linalg.norm(res))
            if info != 0 or res_norm <= goal:
                break
            minres_rtol *= goal / res_norm
        if info != 0 or res_norm > goal:
            raise LinearSolveError(
                f"MINRES stopped at residual {res_norm:.3e} against {rtol:.1e} "
                f"* ||rhs|| (info {info}, cap {MINRES_MAXITER} iterations per sweep)", res_norm
            )
        return x

    def _principal(self):
        """The symbol's first entry ``sum_i (2 - 2cos(pi/(n_i-1)))/h_i^2`` and the
        product of ``sin(pi k/(n_i-1))``, with 0 iterations."""
        return float(self.symbol.flat[0]), self._phi.copy(), 0


def neg_laplacian_matrix(grid: Grid) -> scipy.sparse.csr_matrix:
    """Sparse matrix of ``-Laplacian_h`` on interior unknowns (C-order flattening), built from the
    grid's stencil rows on each call.  No solve uses it, and only it imports ``scipy.sparse``; its
    products equal ``grid.operator.apply`` bit for bit."""
    import scipy.sparse
    shape = grid.interior_shape
    size = math.prod(shape)
    column = np.full(tuple(n + 2 for n in shape), -1)  # -1: a boundary or ghost node
    column[(slice(1, -1),) * len(shape)] = np.arange(size).reshape(shape)
    coefficients = _stencil_rows(grid).in_column_order()
    cols = np.concatenate([column[view].ravel() for view in _COLUMN_ORDER[len(shape)]])
    vals = np.concatenate([np.broadcast_to(c, shape).ravel() for c in coefficients])
    rows = np.tile(np.arange(size), len(coefficients))
    keep = (cols >= 0) & (vals != 0.0)
    return scipy.sparse.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(size, size))


def solve_poisson(rhs: ScalarField, tol: float = 1e-12) -> ScalarField:
    """Solve ``-Laplacian v = rhs`` with zero Dirichlet data.

    A forward and an inverse DST-I on box grids (dense sine-matrix products
    while every interior axis has at most ``DENSE_SINE_MAX`` unknowns,
    ``scipy.fft.dstn`` beyond), one tridiagonal ``dgtsv`` otherwise.  The normwise
    backward error ``||rhs - A v|| / (||A||_inf ||v|| + ||rhs||)`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 7), in
    the discrete 2-norm with ``||A||_inf`` the largest absolute row sum of
    the stencil rows, is verified against ``tol``; unlike the relative
    residual it stays at rounding level on fine grids.  A failure raises
    :class:`LinearSolveError` carrying the achieved residual.
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
    norm_a = float(np.max(sum(np.abs(c) for c in op.rows.in_column_order())))
    backward_error = res / (norm_a * float(np.linalg.norm(x)) + nb)
    if backward_error > tol:
        raise LinearSolveError(
            f"poisson solve backward error {backward_error:.3e} exceeds {tol:.1e}", res
        )
    return ScalarField.from_interior(grid, x)


def solve_shifted(grid: Grid, shift, rhs, rtol: float = SHIFTED_RESIDUAL) -> np.ndarray:
    """Solve ``(-Laplacian_h - diag(shift)) x = rhs`` on interior unknowns.

    One LAPACK ``dgtsv`` on interval and radial grids; a singular matrix
    raises :class:`LinearSolveError`.  On box grids, :func:`minres` in DST-I
    coefficients, preconditioned on both sides by a shifted DST solve
    (:meth:`SineOperator.solve_shifted`), in sweeps restarted on the true
    residual until that is at most ``rtol * ||rhs||``: the default
    ``SHIFTED_RESIDUAL`` for a full solve, and Newton's forcing term for an
    inexact Newton step.  A sweep that hits ``MINRES_MAXITER``, or
    ``MINRES_SWEEPS`` sweeps that fall short, raise :class:`LinearSolveError`
    with the residual reached; its message names ``rtol``.
    """
    return grid.operator.solve_shifted(shift, rhs, rtol)


def principal_eigenpair(grid: Grid, tol: float = EIGEN_TOL) -> Eigenpair:
    """Principal Dirichlet eigenpair: the one the grid's operator holds.

    On box grids it is the closed form, reported with 0 iterations.
    Elsewhere it is inverse power iteration, one tridiagonal ``dgtsv`` a
    step: successive eigenvalue estimates must differ by less than
    ``EIGEN_TOL`` (relative) and the sup-norm eigen-residual must fall
    below ``1e-8 * lambda``, so the extra polishing steps are cheap.  Either
    way ``residual_sup`` is measured on the operator.  The held pair meets
    any ``tol >= EIGEN_TOL``; a smaller ``tol`` raises ``ValueError``.
    """
    if not tol >= EIGEN_TOL:
        raise ValueError(
            f"tol = {tol:g} is below the held eigenpair's tolerance EIGEN_TOL = {EIGEN_TOL:g}"
        )
    return grid.operator.eigenpair


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
            return _along(grid.ndim, axis, s)

        g[sl(slice(1, -1))] = (u[sl(slice(2, None))] - u[sl(slice(None, -2))]) / (2.0 * h)
        g[sl(0)] = (-3.0 * u[sl(0)] + 4.0 * u[sl(1)] - u[sl(2)]) / (2.0 * h)
        g[sl(-1)] = (3.0 * u[sl(-1)] - 4.0 * u[sl(-2)] + u[sl(-3)]) / (2.0 * h)
        comps.append(g)
    return comps
