import math

import numpy as np
import pytest

from concavelab import (
    ScalarField,
    apply_laplacian,
    ball,
    box,
    continuation_branch,
    energy,
    energy_upper_bound,
    initial_guess,
    interval,
    lane_emden,
    log_schrodinger,
    make_grid,
    nehari_residual,
    newton_solve,
    pohozaev_check,
    principal_eigenpair,
)
from concavelab import oned, reactions, solver
from concavelab.linops import gradient_components
from concavelab.solver import (
    EnergyBoundError,
    InitialGuessError,
    geometric_q_schedule,
    log_path_energy_upper_bound,
    log_residual_sup,
    nehari_rescale,
)

SQRT_E = math.sqrt(math.e)


# ---------------------------------------------------------------------------
# Newton Jacobian


@pytest.mark.parametrize(
    "reaction, prime, defined_at_zero",
    [
        (lane_emden(2.0, 3.0), lambda u: 3.0 * (2.0 * u ** (2.0 - 1.0) - 1.0), True),
        (reactions.dispersive_lane_emden(1.5, 2.0),
         lambda u: -(2.0 * (1.5 * u ** (1.5 - 1.0) - 1.0)), True),
        (log_schrodinger(), lambda u: 1.0 * (np.log(u**2) + 2.0), False),
        (reactions.dispersive_log(), lambda u: -1.0 * (np.log(u**2) + 2.0), False),
    ],
    ids=["lane_emden", "dispersive_lane_emden", "log_schrodinger", "dispersive_log"],
)
@pytest.mark.parametrize("floor", [-1e6, -2.0])
def test_jacobian_diagonal_is_f_prime_floored(reaction, prime, defined_at_zero, floor):
    # f' written out by hand: max(f'(u), floor) at u > 0; at u = 0 the power
    # family keeps max(f'(0), floor) and the log family, whose f' diverges
    # there, takes the floor
    u = np.array([0.0, 1e-150, 1e-12, 0.3, 1.0, 2.5, 0.0, 40.0])
    expected = np.full_like(u, floor)
    nodes = (u >= 0.0) if defined_at_zero else (u > 0.0)
    expected[nodes] = prime(u[nodes])
    expected = np.maximum(expected, floor)
    got = solver._jacobian_diagonal(reaction, u, floor)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# initial guesses


def test_lane_emden_guess_matches_nehari_scaling(interval201, eigen_interval201):
    grid, pair = interval201, eigen_interval201
    guess = initial_guess(grid, lane_emden(2.0, 1.0))
    w = grid.quadrature_weights()
    phi = pair.phi1.values
    t_bar = (1.0 + pair.lambda1 / 1.0) * float(np.sum(w * phi**2)) / float(
        np.sum(w * phi**3)
    )
    assert math.isclose(guess.sup_norm(), t_bar, rel_tol=1e-12)


def test_lane_emden_guess_large_sigma_limit(interval201, eigen_interval201):
    grid, pair = interval201, eigen_interval201
    w = grid.quadrature_weights()
    phi = pair.phi1.values
    q = 2.0
    limit = float(np.sum(w * phi**2)) / float(np.sum(w * phi ** (q + 1.0)))
    sup = initial_guess(grid, lane_emden(q, 1e9)).sup_norm()
    assert math.isclose(sup, limit, rel_tol=1e-6)


def test_log_guess_exceeds_sqrt_e(interval201):
    guess = initial_guess(interval201, log_schrodinger())
    assert guess.sup_norm() > SQRT_E
    # closed-form cross-check: log c^2 = (dirichlet - entropy) / l2
    grid = interval201
    pair = principal_eigenpair(grid, 1e-12)
    w = grid.quadrature_weights()
    phi = pair.phi1.values
    ent = np.zeros_like(phi)
    pos = phi > 0
    ent[pos] = phi[pos] ** 2 * np.log(phi[pos] ** 2)
    lam = pair.lambda1  # Rayleigh quotient of phi1
    log_c2 = (lam * np.sum(w * phi**2) - np.sum(w * ent)) / np.sum(w * phi**2)
    c_closed = math.exp(0.5 * float(log_c2))
    assert math.isclose(guess.sup_norm(), c_closed, rel_tol=1e-3)


def _log_nehari_gap(guess: ScalarField, sign: float) -> float:
    """``|<J'(u), u>| / integral |Du|^2`` for the logarithmic family of sign ``sign``."""
    w = guess.grid.quadrature_weights()
    u = guess.values
    dirichlet = sum(float(np.sum(w * g * g)) for g in gradient_components(guess))
    pos = u > 0
    entropy = float(np.sum(w[pos] * u[pos] ** 2 * np.log(u[pos] ** 2)))
    return abs(dirichlet - sign * entropy) / dirichlet


@pytest.mark.parametrize("domain, n", [(interval(1.0), 201), (box(1.0, 1.0), 41),
                                        (ball(1.0, 2), 201), (ball(1.0, 3), 201)],
                         ids=["interval", "box2", "ball2", "ball3"])
@pytest.mark.parametrize("reaction", [log_schrodinger(), reactions.dispersive_log()],
                         ids=["log_schrodinger", "dispersive_log"])
def test_log_guess_lands_on_nehari_set(domain, n, reaction):
    # c phi1 with c = exp((s D - E) / (2 ||phi1||^2)): D - s(||phi1||^2 log c^2 + E)
    # is the guess's own integral |Du|^2 - s integral u^2 log u^2 over c^2
    guess = initial_guess(make_grid(domain, n), reaction)
    assert _log_nehari_gap(guess, reaction.sign) <= 1e-12


@pytest.mark.parametrize("halfwidth", [0.1, 0.02])
def test_log_guess_refuses_a_scale_beyond_1e8(halfwidth):
    # the scale is about e^124 at halfwidth 0.1 and e^3084, past a float, at 0.02
    with pytest.raises(InitialGuessError, match="Nehari scale"):
        initial_guess(make_grid(interval(halfwidth), 201), log_schrodinger())


def test_dispersive_log_guess_refuses_a_scale_below_1e_minus_8():
    # on a ball of radius 0.2 the scale is about e^-123
    with pytest.raises(InitialGuessError, match="Nehari scale"):
        initial_guess(make_grid(ball(0.2, 3), 201), reactions.dispersive_log())


def test_dispersive_guess_requires_supercritical_sigma(box81):
    with pytest.raises(InitialGuessError):
        initial_guess(box81, reactions.dispersive_lane_emden(2.0, 4.0))


# ---------------------------------------------------------------------------
# Newton solves


def test_interval_log_solution_exceeds_sqrt_e(interval201):
    res = newton_solve(
        interval201, log_schrodinger(), initial_guess(interval201, log_schrodinger()), 1e-10
    )
    assert res.converged
    assert res.sup_norm > SQRT_E


def test_lane_emden_sup_above_one(box81, lane_emden_solve_box):
    assert lane_emden_solve_box.sup_norm > 1.0


def test_residual_reported_exactly(box81, log_solve_box):
    # an independent stencil evaluation (no Jacobian clamping involved)
    # confirms the reported residual up to the roundoff floor of the
    # stencil itself and re-establishes the success criterion
    g = -apply_laplacian(log_solve_box.field).values - reactions.f(
        log_schrodinger(), log_solve_box.field.values
    )
    recomputed = float(np.max(np.abs(g[box81.interior_mask])))
    fp_floor = (
        64.0
        * np.finfo(float).eps
        * log_solve_box.sup_norm
        * 4.0
        / box81.spacing[0] ** 2
    )
    assert abs(recomputed - log_solve_box.residual_sup) <= fp_floor
    assert recomputed <= 1e-10 * max(1.0, log_solve_box.sup_norm)


def test_solution_nonnegative(log_solve_box):
    assert np.all(log_solve_box.field.values >= 0.0)


def test_nehari_residual_small_on_solutions(box81, log_solve_box, lane_emden_solve_box):
    for res, reaction in (
        (log_solve_box, log_schrodinger()),
        (lane_emden_solve_box, lane_emden(2.0, 1.0)),
    ):
        bound = 10.0 * 1e-10 * res.sup_norm**2
        assert abs(nehari_residual(box81, reaction, res.field)) <= bound


def test_zero_field_energy_and_nehari(box81):
    z = ScalarField.zeros(box81)
    assert energy(box81, log_schrodinger(), z) == 0.0
    assert nehari_residual(box81, log_schrodinger(), z) == 0.0


def test_trivial_solution_detected(interval201):
    tiny = ScalarField(interval201, 1e-8 * principal_eigenpair(interval201, 1e-12).phi1.values)
    res = newton_solve(interval201, lane_emden(2.0, 1.0), tiny, 1e-10)
    assert res.status == "trivial"
    assert not res.converged


def test_newton_rejects_bad_input(interval201):
    guess = initial_guess(interval201, log_schrodinger())
    with pytest.raises(ValueError):
        newton_solve(interval201, log_schrodinger(), guess, tol=0.0)
    neg = ScalarField(interval201, -guess.values)
    with pytest.raises(ValueError):
        newton_solve(interval201, log_schrodinger(), neg, 1e-10)


def test_box_solution_matches_tensor_oracle():
    # the product of one-dimensional profiles solves the same equation on
    # the square, so the Newton field must approach it at O(h^2)
    diffs = []
    for n in (41, 81):
        g = make_grid(box(1.0, 1.0), n)
        res = newton_solve(g, log_schrodinger(), initial_guess(g, log_schrodinger()), 1e-10)
        tens = oned.tensor_solution([1.0, 1.0], n)
        diffs.append(float(np.max(np.abs(res.field.values - tens.values))))
    assert 3.0 <= diffs[0] / diffs[1] <= 5.0


def test_three_dimensional_solve_matches_tensor_oracle():
    g = make_grid(box(1.0, 1.0, 1.0), 21)
    res = newton_solve(g, log_schrodinger(), initial_guess(g, log_schrodinger()), 1e-10)
    tens = oned.tensor_solution([1.0, 1.0, 1.0], 21)
    assert res.converged
    assert math.isclose(tens.sup_norm(), oned.solve_m_of_b(1.0) ** 3, rel_tol=1e-9)
    rel_gap = float(np.max(np.abs(res.field.values - tens.values))) / res.sup_norm
    assert rel_gap < 0.01  # O(h^2) at h = 0.1


@pytest.mark.parametrize("halfwidths,n,reaction", [
    ((0.8, 1.3), 81, log_schrodinger()),
    ((1.0, 1.2, 0.9), 25, log_schrodinger()),
    ((0.8, 1.3), 81, reactions.dispersive_log()),
    ((1.0, 1.2, 0.9), 25, reactions.dispersive_log()),
], ids=["box2", "box3", "dispersive-box2", "dispersive-box3"])
def test_box_log_solve_matches_the_product_of_axis_solves(halfwidths, n, reaction):
    # the discrete problem separates for either sign, so the box's own Newton
    # solve (MINRES steps from the Nehari guess) lands on the product to rounding
    g = make_grid(box(*halfwidths), n)
    res = newton_solve(g, reaction, initial_guess(g, reaction))
    product = solver.newton_guess(g, reaction)
    assert res.converged and res.newton_iters > 1
    assert np.max(np.abs(res.field.values - product.values)) <= 1e-10 * res.sup_norm
    assert newton_solve(g, reaction, product).newton_iters == 1


@pytest.mark.parametrize("halfwidths,solves", [((1.0, 1.0), 1), ((0.8, 1.3), 2)],
                         ids=["square", "box2"])
def test_box_log_guess_solves_each_distinct_axis_once(halfwidths, solves, monkeypatch):
    g = make_grid(box(*halfwidths), 41)
    reaction = log_schrodinger()
    axes = [newton_solve(a, reaction, initial_guess(a, reaction)).field.values
            for a in (make_grid(interval(b), 41) for b in halfwidths)]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", counted)
    guess = solver.newton_guess(g, reaction)
    assert len(calls) == solves
    assert np.array_equal(guess.values, np.multiply.outer(*axes))


def test_radial_solve_on_disk():
    g = make_grid(ball(2.0, 2), 401)
    res = newton_solve(g, log_schrodinger(), initial_guess(g, log_schrodinger()), 1e-10)
    assert res.converged
    # radially decreasing and above the star-shaped-domain lower bound
    assert np.all(np.diff(res.field.values) < 1e-10)
    assert res.sup_norm > math.exp(0.5)


# ---------------------------------------------------------------------------
# energies


def test_energy_matches_nehari_identity(box81, lane_emden_solve_box):
    q, sigma = 2.0, 1.0
    u = lane_emden_solve_box.field.values
    w = box81.quadrature_weights()
    target = sigma * (0.5 - 1.0 / (q + 1.0)) * float(np.sum(w * u ** (q + 1.0)))
    h = box81.spacing[0]
    assert abs(lane_emden_solve_box.energy - target) <= 5.0 * h**2 * abs(target)


def test_log_energy_matches_half_l2(box81, log_solve_box):
    u = log_solve_box.field.values
    w = box81.quadrature_weights()
    half_l2 = 0.5 * float(np.sum(w * u * u))
    h = box81.spacing[0]
    assert abs(log_solve_box.energy - half_l2) <= 5.0 * h**2 * half_l2


# ---------------------------------------------------------------------------
# continuation


def test_geometric_schedule_properties():
    qs = geometric_q_schedule(2.0, 1.01, 7)
    assert qs[0] == 2.0 and math.isclose(qs[-1], 1.01)
    gaps = np.diff(np.log(np.array(qs) - 1.0))
    assert np.allclose(gaps, gaps[0])
    with pytest.raises(ValueError):
        geometric_q_schedule(1.01, 2.0, 5)
    # default density: 12 steps per decade of q - 1
    assert len(geometric_q_schedule(2.0, 1.1, None)) == 13
    assert len(geometric_q_schedule(2.0, 1.01, None)) == 25


def test_fixed_sigma_branch_approaches_eigen_limit(interval201, eigen_interval201):
    target = 1.0 + eigen_interval201.lambda1
    branch = continuation_branch(
        interval201, sigma_rule="fixed", sigma=1.0, qs=[1.5, 1.25, 1.1, 1.05]
    )
    assert branch.complete
    errs = [abs(e.result.sup_norm ** (e.q - 1.0) - target) for e in branch.entries]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    phi = eigen_interval201.phi1.values
    last = branch.entries[-1].result
    assert np.max(np.abs(last.field.values / last.sup_norm - phi)) < 0.01


def test_log_path_residual_decreases(interval201):
    branch = continuation_branch(
        interval201, sigma_rule="log_path", qs=[1.1, 1.05, 1.02, 1.01]
    )
    assert branch.complete
    rels = [
        log_residual_sup(e.result.field) / max(1.0, e.result.sup_norm)
        for e in branch.entries
    ]
    assert all(a > b for a, b in zip(rels, rels[1:]))
    assert branch.entries[-1].result.sup_norm > SQRT_E


def test_branch_aborts_with_partial_results(interval201):
    # an unreachable tolerance forces a failure that cuts the branch
    branch = continuation_branch(
        interval201, sigma_rule="fixed", sigma=1.0, qs=[1.5, 1.25], tol=1e-16
    )
    assert not branch.complete
    assert 1 <= len(branch.entries) <= 2
    assert not branch.entries[-1].result.converged


def test_branch_rejects_nonmonotone_schedule(interval201):
    with pytest.raises(ValueError):
        continuation_branch(
            interval201, sigma_rule="fixed", sigma=1.0, qs=[1.5, 1.1, 1.25]
        )


def test_nehari_rescale_lands_on_nehari_set(interval201):
    reaction = lane_emden(1.7, 2.0)
    rough = initial_guess(interval201, lane_emden(2.0, 1.0))
    rescaled = nehari_rescale(interval201, reaction, rough)
    w = interval201.quadrature_weights()
    u = rescaled.values
    from concavelab.linops import gradient_components

    g = gradient_components(rescaled)[0]
    lhs = float(np.sum(w * g * g)) + 2.0 * float(np.sum(w * u * u))
    rhs = 2.0 * float(np.sum(w * np.abs(u) ** 2.7))
    assert math.isclose(lhs, rhs, rel_tol=1e-10)


# ---------------------------------------------------------------------------
# bounds


def test_pohozaev_thresholds():
    res = solver.SolveResult(
        field=None, residual_sup=0.0, newton_iters=0, sup_norm=2.0,
        energy=0.0, nehari_residual=0.0, status="converged",
    )
    assert math.isclose(pohozaev_check(res, box(1.0, 1.0)).threshold, math.exp(0.5))
    assert math.isclose(pohozaev_check(res, interval(1.0)).threshold, math.exp(0.25))
    assert pohozaev_check(res, box(1.0, 1.0)).passed


def test_pohozaev_on_disk_solution():
    g = make_grid(ball(2.0, 2), 201)
    res = newton_solve(g, log_schrodinger(), initial_guess(g, log_schrodinger()), 1e-10)
    report = pohozaev_check(res, g.domain)
    assert report.passed
    assert math.isclose(report.threshold, math.exp(0.5))


def test_energy_bound_dominates_ground_state(interval201, eigen_interval201):
    reaction = lane_emden(2.0, 2.0)
    res = newton_solve(interval201, reaction, initial_guess(interval201, reaction), 1e-10)
    bound = energy_upper_bound(interval201, 2.0, 2.0, eigen_interval201.phi1)
    assert res.converged
    assert 0.0 < res.energy <= bound


def test_energy_bound_rejects_inadmissible_field(interval201, eigen_interval201):
    tiny = ScalarField(interval201, 1e-6 * eigen_interval201.phi1.values)
    with pytest.raises(EnergyBoundError):
        energy_upper_bound(interval201, 2.0, 2.0, tiny)


def test_energy_bound_converges_to_log_path_limit(interval201, eigen_interval201):
    phi = eigen_interval201.phi1
    limit = log_path_energy_upper_bound(interval201, phi)
    vals = [
        energy_upper_bound(interval201, q, 2.0 / (q - 1.0), phi)
        for q in (1.1, 1.01, 1.001)
    ]
    gaps = [abs(v - limit) for v in vals]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2 * limit
