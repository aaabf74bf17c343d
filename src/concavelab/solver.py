"""Damped Newton solves of ``-Delta u = f(u)`` with zero Dirichlet data.

The Newton step solves ``(-Delta_h - diag f'(u)) delta = -(Au - f(u))``
with :func:`linops.solve_shifted`: one LAPACK tridiagonal ``dgtsv`` on
intervals and balls, and on boxes MINRES run in DST-I coefficients, where
the Jacobian preconditioned by a shifted DST-I solve is two DSTs and
diagonal scalings; no matrix is assembled.  Box steps are inexact
Newton steps (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982):
step k is solved to the relative residual ``eta_k = max(SHIFTED_RESIDUAL,
min(FORCING_CAP, rms G(u_k)))``, loose while the residual is large and
tight near the solution; the stop is still the true residual.  Residuals
are applied by the grid's operator; the step backtracks on the residual
2-norm and projects the iterates onto ``u >= 0``.  The Jacobian diagonal
is ``f'(u)`` clamped below at ``JAC_FLOOR``, in the step only; the
reported residual is always the exact unclamped one.  Where the family's ``f'`` is singular at 0
(the log family), nodes at ``u = 0`` take the floor itself.

Initial guesses scale the principal eigenfunction onto the Nehari set of
the reaction.  Branches in the exponent ``q`` warm-start each solve from
its predecessor, either at fixed ``sigma`` or along ``sigma = 2/(q-1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .grid import Domain, Grid
from .linops import (
    FORCING_CAP,
    SHIFTED_RESIDUAL,
    Eigenpair,
    ScalarField,
    apply_laplacian,
    gradient_components,
    neg_laplacian_on,
    principal_eigenpair,
    solve_shifted,
)
from . import reactions
from .reactions import Reaction, validate_exponent

__all__ = [
    "SolveResult",
    "Branch",
    "BranchEntry",
    "PohozaevReport",
    "InitialGuessError",
    "EnergyBoundError",
    "initial_guess",
    "nehari_rescale",
    "newton_solve",
    "energy",
    "nehari_residual",
    "log_residual_sup",
    "continuation_branch",
    "geometric_q_schedule",
    "pohozaev_check",
    "energy_upper_bound",
    "log_path_energy_upper_bound",
]

TRIVIAL_SUP = 1e-6
# Newton's default tolerance: converged when sup |G| <= NEWTON_TOL * max(1, sup u)
NEWTON_TOL = 1e-10

# Newton's iteration cap, step halvings per iteration and Jacobian floor
NEWTON_MAX_ITER = 100
MAX_BACKTRACKS = 30
JAC_FLOOR = -1e6
# the largest |log c| of a logarithmic guess's Nehari scale c: c in [1e-8, 1e8]
LOG_SCALE_MAX = 8.0 * math.log(10.0)


class InitialGuessError(RuntimeError):
    pass


class EnergyBoundError(ValueError):
    pass


@dataclass
class SolveResult:
    field: ScalarField
    residual_sup: float
    newton_iters: int
    sup_norm: float
    energy: float
    nehari_residual: float
    status: str  # "converged" | "max_iterations" | "line_search_failed" | "trivial"

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _quadrature(grid: Grid, values: np.ndarray) -> float:
    return float(np.sum(grid.quadrature_weights() * values))


def _norm_sq(grid: Grid, field: ScalarField) -> float:
    return _quadrature(grid, field.values**2)


def _lp_integral(grid: Grid, field: ScalarField, p: float) -> float:
    return _quadrature(grid, np.abs(field.values) ** p)


def _dirichlet_energy(grid: Grid, field: ScalarField) -> float:
    grads = gradient_components(field)
    g2 = np.zeros(grid.shape)
    for g in grads:
        g2 += g * g
    return _quadrature(grid, g2)


def _entropy_integral(grid: Grid, field: ScalarField) -> float:
    """integral of u^2 log u^2 with the continuous extension at 0."""
    u = field.values
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = u[pos] ** 2 * reactions.log_square(u[pos])
    return _quadrature(grid, out)


def energy(grid: Grid, reaction: Reaction, field: ScalarField) -> float:
    """Free energy ``integral |Du|^2/2 - F(u)``: trapezoidal quadrature with
    central/one-sided difference gradients."""
    return 0.5 * _dirichlet_energy(grid, field) - _quadrature(
        grid, reactions.F(reaction, field.values)
    )


def nehari_residual(grid: Grid, reaction: Reaction, field: ScalarField) -> float:
    """``<J'(u), u>`` evaluated with exactly the solver's stencil rows:
    ``integral u (-Delta_h u - f(u))``, which vanishes to solver tolerance
    on any converged solution."""
    neg_lap = -apply_laplacian(field).values
    integrand = field.values * (neg_lap - reactions.f(reaction, field.values))
    return _quadrature(grid, integrand)


def log_residual_sup(field: ScalarField, boundary_margin: float = 0.0) -> float:
    """Sup norm of ``-Delta_h u - u log u^2`` over the interior nodes at
    boundary distance ``>= boundary_margin`` (every interior node unless the
    margin is positive), NaN nodes left out.

    Those nodes are one range of indices per axis
    (:meth:`Grid.interior_region`), and only that region, widened by one node
    for the stencil, is read, except that negativity is checked on the whole
    field first: a negative node anywhere, boundary included, raises
    ``ReactionDomainError``.  The residual at a NaN node's neighbours stays
    NaN.  A region with no node left raises ``ValueError``.

    The reaction is not Lipschitz at 0, so stencil consistency degrades
    to O(h) in a shrinking collar around the boundary where the field
    vanishes; ``boundary_margin`` (a fixed metric distance) restricts the
    measurement to the region where the O(h^2) claim applies.
    """
    reactions.require_nonnegative(field.values)
    region = field.grid.interior_region(boundary_margin)
    u = field.values[region]
    residual = np.abs(neg_laplacian_on(field, region) - reactions.f(reactions.log_schrodinger(), u))
    sup = residual.max(initial=-1.0)
    if not sup >= 0.0:  # an empty region, or NaN nodes to leave out
        residual = residual[u >= 0.0]
        if not residual.size:
            raise ValueError("no nodes satisfy the residual mask")
        sup = residual.max()
    return float(sup)


# ---------------------------------------------------------------------------
# initial guesses


def _nehari_scaling_lane_emden(
    grid: Grid, reaction: Reaction, pair: Eigenpair
) -> float:
    lam, phi = pair.lambda1, pair.phi1
    q, sigma = reaction.q, reaction.sigma
    norm2 = _norm_sq(grid, phi)
    norm_qp1 = _lp_integral(grid, phi, q + 1.0)
    factor = 1.0 + reaction.sign * lam / sigma
    if factor <= 0.0:
        raise InitialGuessError(
            f"no positive Nehari scaling: sigma = {sigma:g} does not exceed "
            f"lambda1 = {lam:.6g}, so the problem admits no positive solution"
        )
    return (factor * norm2 / norm_qp1) ** (1.0 / (q - 1.0))


def _nehari_scaling_log(grid: Grid, reaction: Reaction, pair: Eigenpair) -> float:
    """The ``c`` with ``c phi1`` on the Nehari set of the logarithmic
    reaction: ``<J'(c phi1), c phi1> / c^2 = D - s (||phi1||^2 log c^2 + E)``
    is affine in ``log c``, so ``c = exp((s D - E) / (2 ||phi1||^2))`` with
    ``D`` the Dirichlet energy of ``phi1``, ``E = integral phi1^2 log phi1^2``
    and ``s`` the sign of the reaction.  Scales outside ``[1e-8, 1e8]`` are
    refused."""
    phi = pair.phi1
    log_c = (reaction.sign * _dirichlet_energy(grid, phi) - _entropy_integral(grid, phi)) / (
        2.0 * _norm_sq(grid, phi))
    if abs(log_c) > LOG_SCALE_MAX:
        raise InitialGuessError(
            f"no Nehari scale in [1e-8, 1e8]: the logarithmic guess needs "
            f"c = exp({log_c:.6g})"
        )
    return math.exp(log_c)


def initial_guess(grid: Grid, reaction: Reaction) -> ScalarField:
    """Scaled principal eigenfunction lying on the Nehari set of the
    reaction; the scale is a closed form for every family."""
    validate_exponent(reaction, grid.ambient_dim)
    pair = principal_eigenpair(grid)
    power = reaction.family is reactions.POWER
    scale = (_nehari_scaling_lane_emden if power else _nehari_scaling_log)(grid, reaction, pair)
    return ScalarField(grid, scale * pair.phi1.values)


def nehari_rescale(grid: Grid, reaction: Reaction, field: ScalarField) -> ScalarField:
    """Multiple of ``field`` lying on the Nehari set of ``reaction``.

    Warm starts need this along branches at fixed sigma: the solution sup
    norm grows like ``(1 + lambda1/sigma)^(1/(q-1))`` as ``q`` decreases,
    so the previous field has the right shape but a badly wrong scale and
    plain reuse slides Newton into the basin of the zero solution.
    """
    if reaction.family is not reactions.POWER or reaction.sign < 0:
        raise ValueError("rescaling is defined for the lane_emden family")
    q, sigma = reaction.q, reaction.sigma
    dir_energy = _dirichlet_energy(grid, field)
    norm2 = _norm_sq(grid, field)
    norm_qp1 = _lp_integral(grid, field, q + 1.0)
    if norm_qp1 <= 0:
        raise ValueError("cannot rescale the zero field")
    scale = ((dir_energy + sigma * norm2) / (sigma * norm_qp1)) ** (1.0 / (q - 1.0))
    return ScalarField(grid, scale * field.values)


# ---------------------------------------------------------------------------
# Newton


def _jacobian_diagonal(reaction: Reaction, u: np.ndarray, floor: float) -> np.ndarray:
    """``max(f'(u), floor)``, and ``floor`` where ``u = 0`` if ``f'`` is singular there."""
    if not reaction.family.singular_at_zero:
        return np.maximum(reactions.f_prime(reaction, u), floor)
    out = np.full_like(u, floor)
    pos = u > 0.0
    out[pos] = reactions.f_prime(reaction, u[pos])
    return np.maximum(out, floor)


def newton_solve(grid: Grid, reaction: Reaction, guess: ScalarField,
                 tol: float = NEWTON_TOL) -> SolveResult:
    """Damped Newton iteration on ``G(u) = -Delta_h u - f(u)``.

    Success means ``sup |G| <= tol * max(1, sup u)`` within
    ``NEWTON_MAX_ITER`` iterations, tested on the true residual whatever
    forcing term the steps were solved to.  Collapse onto the zero field
    (sup below 1e-6) is reported as the distinct status ``"trivial"``
    since the equations always admit it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if np.any(guess.values < 0):
        raise ValueError("initial guess must be nonnegative")
    validate_exponent(reaction, grid.ambient_dim)

    neg_laplacian = grid.operator.apply
    u = guess.interior().copy()

    def residual(vec):
        return neg_laplacian(vec) - reactions.f(reaction, vec)

    g_vec = residual(u)
    status = "max_iterations"
    for iters in range(1, NEWTON_MAX_ITER + 1):
        sup_u = float(np.max(np.abs(u)))
        res_sup = float(np.max(np.abs(g_vec)))
        if sup_u < TRIVIAL_SUP:
            status = "trivial"
            break
        if res_sup <= tol * max(1.0, sup_u):
            status = "converged"
            break
        g_norm = float(np.linalg.norm(g_vec))
        forcing = max(SHIFTED_RESIDUAL, min(FORCING_CAP, g_norm / math.sqrt(g_vec.size)))
        delta = solve_shifted(grid, _jacobian_diagonal(reaction, u, JAC_FLOOR), -g_vec, forcing)
        step = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
            u_try = np.maximum(u + step * delta, 0.0)
            g_try = residual(u_try)
            if float(np.linalg.norm(g_try)) < g_norm:
                u, g_vec = u_try, g_try
                accepted = True
                break
            step *= 0.5
        if not accepted:
            status = "line_search_failed"
            break

    field = ScalarField.from_interior(grid, u)
    sup_u = field.sup_norm()
    res_sup = float(np.max(np.abs(g_vec)))
    return SolveResult(
        field=field,
        residual_sup=res_sup,
        newton_iters=iters,
        sup_norm=sup_u,
        energy=energy(grid, reaction, field),
        nehari_residual=nehari_residual(grid, reaction, field),
        status=status,
    )


# ---------------------------------------------------------------------------
# continuation


@dataclass(frozen=True)
class BranchEntry:
    q: float
    sigma: float
    result: SolveResult


@dataclass
class Branch:
    entries: list[BranchEntry] = dataclass_field(default_factory=list)
    complete: bool = True


def geometric_q_schedule(q_hi: float, q_lo: float, steps: int | None = None) -> list[float]:
    """Exponents with ``q - 1`` geometrically spaced from ``q_hi - 1`` down
    to ``q_lo - 1`` (both included); defaults to 12 steps per decade of
    ``q - 1``."""
    if not 1.0 < q_lo < q_hi:
        raise ValueError("need 1 < q_lo < q_hi")
    if steps is None:
        decades = math.log10((q_hi - 1.0) / (q_lo - 1.0))
        steps = max(2, int(round(12.0 * decades)) + 1)
    if steps < 2:
        raise ValueError("need at least two steps")
    ratios = np.linspace(0.0, 1.0, steps)
    return [1.0 + (q_hi - 1.0) * ((q_lo - 1.0) / (q_hi - 1.0)) ** r for r in ratios]


def _sigma_for(sigma_rule: str, sigma: float | None, q: float) -> float:
    if sigma_rule == "fixed":
        if sigma is None:
            raise ValueError("fixed sigma rule needs a sigma value")
        return float(sigma)
    if sigma_rule == "log_path":
        if not q > 1.0:
            raise ValueError(f"the log path needs q > 1, got q = {q:g}")
        return 2.0 / (q - 1.0)
    raise ValueError(f"unknown sigma rule {sigma_rule!r}")


def check_q_schedule(qs, sigma_rule: str, sigma: float | None) -> None:
    """Raise ``ValueError`` unless there are exponents, they are strictly
    monotone and each gives a Lane-Emden reaction under the sigma rule."""
    if len(qs) == 0:
        raise ValueError("q schedule is empty")
    diffs = np.diff(qs)
    if len(qs) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("q schedule must be strictly monotone")
    for q in qs:
        reactions.Reaction("lane_emden", q=q, sigma=_sigma_for(sigma_rule, sigma, q))


def continuation_branch(
    grid: Grid,
    qs,
    sigma_rule: str = "fixed",
    sigma: float | None = None,
    tol: float = NEWTON_TOL,
) -> Branch:
    """Warm-started solves along the monotone exponents ``qs``
    (:func:`geometric_q_schedule` builds a geometric one).

    The first solve starts from the Nehari scaling of the eigenfunction;
    each later solve starts from its predecessor's field.  The branch is
    cut at the first failed solve and marked incomplete, with the partial
    entries retained.
    """
    qs = [float(q) for q in qs]
    check_q_schedule(qs, sigma_rule, sigma)

    branch = Branch()
    guess = None
    for q in qs:
        sig = _sigma_for(sigma_rule, sigma, q)
        reaction = reactions.lane_emden(q, sig)
        if guess is None:
            guess = initial_guess(grid, reaction)
        else:
            guess = nehari_rescale(grid, reaction, guess)
        result = newton_solve(grid, reaction, guess, tol=tol)
        branch.entries.append(BranchEntry(q, sig, result))
        if not result.converged:
            branch.complete = False
            break
        guess = result.field
    return branch


# ---------------------------------------------------------------------------
# bound checks


@dataclass(frozen=True)
class PohozaevReport:
    sup_norm: float
    threshold: float
    passed: bool
    ambient_dim: int


def pohozaev_check(result: SolveResult, domain: Domain) -> PohozaevReport:
    """Sup-norm lower bound ``e^(N/4)`` valid for solutions of the
    logarithmic problem on star-shaped domains."""
    n_dim = domain.dim
    threshold = math.exp(n_dim / 4.0)
    return PohozaevReport(
        sup_norm=result.sup_norm,
        threshold=threshold,
        passed=result.sup_norm > threshold,
        ambient_dim=n_dim,
    )


def energy_upper_bound(grid: Grid, q: float, sigma: float, test_field: ScalarField) -> float:
    """Upper bound on the minimal Nehari energy produced by scaling the
    test field onto the Nehari set and estimating its norm ratio through
    the entropy integral.

    Requires ``||phi||_2^2 > (1-q)/2 integral phi^2 log phi^2`` so the
    bracket below stays positive; violations are domain errors.
    """
    if not q > 1 or not sigma > 0:
        raise ValueError("need q > 1 and sigma > 0")
    norm2 = _norm_sq(grid, test_field)
    if norm2 <= 0:
        raise EnergyBoundError("test field must be nonzero")
    dir_energy = _dirichlet_energy(grid, test_field)
    entropy = _entropy_integral(grid, test_field)
    bracket = 1.0 + (q - 1.0) / 2.0 * entropy / norm2
    if bracket <= 0.0:
        raise EnergyBoundError(
            "admissibility violated: ||phi||^2 must exceed (1-q)/2 * entropy"
        )
    lam = dir_energy / norm2
    expo = 2.0 / (q - 1.0)
    return (
        (q - 1.0)
        / (2.0 * q + 2.0)
        * (dir_energy + sigma * norm2)
        * (1.0 + lam / sigma) ** expo
        * bracket ** (-expo)
    )


def log_path_energy_upper_bound(grid: Grid, test_field: ScalarField) -> float:
    """Limit of :func:`energy_upper_bound` along ``sigma = 2/(q-1)``,
    ``q -> 1``: ``||phi||^2/2 exp(lambda) exp(-entropy/||phi||^2)``."""
    norm2 = _norm_sq(grid, test_field)
    if norm2 <= 0:
        raise EnergyBoundError("test field must be nonzero")
    lam = _dirichlet_energy(grid, test_field) / norm2
    entropy = _entropy_integral(grid, test_field)
    return 0.5 * norm2 * math.exp(lam) * math.exp(-entropy / norm2)
