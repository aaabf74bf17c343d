"""concavelab: a finite-difference laboratory for the Dirichlet problems

    -Delta u = u log u^2        and        -Delta u = sigma (u^q - u)

on convex domains (intervals, boxes, balls), with Newton continuation in
the exponent q, Nehari energies, one-dimensional phase-plane analysis,
and numerical verification of concavity properties of transformed
solutions.
"""

__version__ = "0.1.0"

from .grid import Domain, Grid, ball, box, interval, make_grid
from .linops import (
    Eigenpair,
    ScalarField,
    apply_laplacian,
    principal_eigenpair,
    solve_poisson,
)
from .reactions import (
    Reaction,
    Transform,
    atanh_poly,
    dispersive_lane_emden,
    dispersive_log,
    lane_emden,
    log_schrodinger,
    log_transform,
    neg_log,
    power,
    sqrt_log,
    sqrt_one_minus_log,
)
from .solver import (
    Branch,
    SolveResult,
    continuation_branch,
    energy,
    energy_upper_bound,
    initial_guess,
    nehari_residual,
    newton_solve,
    pohozaev_check,
)
from .concavity import (
    ConcavityReport,
    alpha_sweep,
    check_transform_concavity,
    hessian_at,
    quasiconcavity_check,
)
from .oned import (
    OneDimSolution,
    alpha_star,
    boundary_slope,
    gausson,
    shoot_profile,
    solve_interval,
    solve_m_of_b,
    tensor_solution,
    time_map,
)

__all__ = [name for name in dir() if not name.startswith("_")]
