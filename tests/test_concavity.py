import math

import numpy as np
import pytest

from concavelab import (
    ScalarField,
    alpha_sweep,
    ball,
    box,
    check_transform_concavity,
    hessian_at,
    initial_guess,
    interval,
    level_set_curvature,
    log_schrodinger,
    make_grid,
    newton_solve,
    quasiconcavity_check,
)
from concavelab import concavity, oned, reactions
from concavelab.concavity import (
    EmptyCheckSetError,
    chain_rule_hessian_eigenvalues,
    direct_hessian_eigenvalues,
    transformed_equation_residual,
)


# ---------------------------------------------------------------------------
# finite-difference Hessians


def test_hessian_exact_on_quadratics():
    g = make_grid(box(1.0, 1.0), 21)
    x, y = g.coordinate_arrays()
    fld = ScalarField(g, x**2 + y**2, validate=False)
    h = hessian_at(fld, (10, 10))
    assert np.allclose(h, np.diag([2.0, 2.0]), atol=1e-11)


def test_hessian_cross_term_exact():
    g = make_grid(box(1.0, 1.0), 21)
    x, y = g.coordinate_arrays()
    fld = ScalarField(g, x * y, validate=False)
    h = hessian_at(fld, (7, 13))
    assert np.allclose(h, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)


def test_hessian_of_log_gausson_is_minus_identity():
    g = make_grid(box(1.0, 1.0), 41)
    u = oned.gausson_field(g)
    lg = ScalarField(g, np.log(u.values), validate=False)
    h = hessian_at(lg, (20, 20))
    assert np.allclose(h, -np.eye(2), atol=1e-10)


def test_hessian_rejects_boundary_adjacent_nodes():
    g = make_grid(box(1.0, 1.0), 21)
    fld = ScalarField.zeros(g)
    with pytest.raises(ValueError):
        hessian_at(fld, (1, 10))


def test_hessian_radial_structure():
    g = make_grid(ball(1.0, 3), 101)
    r = g.axes[0]
    fld = ScalarField(g, 1.0 - r * r)
    h = hessian_at(fld, 50)
    assert np.allclose(h, -2.0 * np.eye(3), atol=1e-9)


# ---------------------------------------------------------------------------
# verdicts on solved fields


def test_log_concavity_of_log_solution(log_solve_box):
    rep = check_transform_concavity(log_solve_box.field, reactions.log_transform())
    assert rep.verdict == "holds strictly"
    assert rep.check_mode == "concavity"
    assert rep.extreme_eigenvalue < 0.0


def test_power_convexity_of_lane_emden_solution(lane_emden_solve_box):
    rep = check_transform_concavity(lane_emden_solve_box.field, reactions.power(-0.5))
    assert rep.verdict == "holds strictly"
    assert rep.check_mode == "convexity"
    assert rep.extreme_eigenvalue > 0.0


def test_dispersive_transform_verdicts(dispersive_log_solve_box, dispersive_poly_solve_box):
    assert dispersive_log_solve_box.sup_norm < 1.0
    rep = check_transform_concavity(
        dispersive_log_solve_box.field, reactions.sqrt_one_minus_log()
    )
    assert rep.verdict == "holds strictly"
    assert dispersive_poly_solve_box.sup_norm < 1.0
    rep2 = check_transform_concavity(
        dispersive_poly_solve_box.field, reactions.atanh_poly(2.0)
    )
    assert rep2.verdict == "holds strictly"


def test_orientation_coherence(log_solve_box):
    # convexity of -phi(u) is the same statement as concavity of phi(u)
    inc = check_transform_concavity(log_solve_box.field, reactions.log_transform())
    dec = check_transform_concavity(log_solve_box.field, reactions.neg_log())
    assert inc.verdict == dec.verdict
    assert math.isclose(inc.extreme_eigenvalue, -dec.extreme_eigenvalue, rel_tol=1e-12)
    assert inc.witness == dec.witness


def test_witness_inside_check_set(log_solve_box):
    rep = check_transform_concavity(log_solve_box.field, reactions.log_transform())
    b = 1.0
    assert all(abs(c) < b for c in rep.witness)
    assert rep.check_set_size > 0
    assert rep.eps_floor == pytest.approx(1e-3 * log_solve_box.sup_norm)


def test_sqrt_log_verdict_does_not_hang_on_the_last_bits_of_the_peak(log_solve_box):
    # phi' and phi'' of sqrt_log are infinite at t = m: a field maximum equal
    # to m and one rounded just below it must give the same report
    u = log_solve_box.field
    m = u.sup_norm()
    lowered = u.values.copy()
    lowered[np.unravel_index(np.argmax(lowered), lowered.shape)] = m * (1.0 - 1e-14)
    reports = [
        check_transform_concavity(fld, reactions.sqrt_log(m))
        for fld in (u, ScalarField(u.grid, lowered))
    ]
    assert reports[0].verdict == reports[1].verdict == "holds strictly"
    assert reports[0].check_set_size == reports[1].check_set_size
    assert reports[0].margin == reports[1].margin


def test_empty_check_set_raises(box81):
    tiny = ScalarField.zeros(box81)
    with pytest.raises(EmptyCheckSetError):
        check_transform_concavity(tiny, reactions.log_transform(), eps_floor=1.0)


def test_chain_rule_against_direct_differencing():
    # two independent evaluations of the transformed Hessian agree at O(h^2):
    # their gap contracts about fourfold when the spacing halves
    gaps = []
    for n in (81, 161):
        g = make_grid(box(1.0, 1.0), n)
        res = newton_solve(g, log_schrodinger(), initial_guess(g, log_schrodinger()), 1e-10)
        floor = 0.3 * res.sup_norm
        chain = chain_rule_hessian_eigenvalues(res.field, reactions.log_transform(), floor)
        direct = direct_hessian_eigenvalues(res.field, reactions.log_transform(), floor)
        gaps.append(float(np.max(np.abs(chain - direct))))
    assert 3.0 <= gaps[0] / gaps[1] <= 5.0


def test_transformed_equation_residual_contracts():
    vals = []
    for n in (41, 81):
        g = make_grid(box(1.0, 1.0), n)
        res = newton_solve(g, log_schrodinger(), initial_guess(g, log_schrodinger()), 1e-10)
        vals.append(
            transformed_equation_residual(
                res.field, log_schrodinger(), reactions.neg_log(), 0.5 * res.sup_norm
            )
        )
    assert 3.0 <= vals[0] / vals[1] <= 5.0


# ---------------------------------------------------------------------------
# power sweeps


def test_alpha_sweep_matches_analytic_criterion_on_profile():
    # the interval profile is alpha-concave exactly below the analytic
    # critical exponent; the sweep must agree outside a 0.02 band
    b = oned.halfwidth_for_alpha(0.5)
    sol = oned.solve_interval(b, n=20_000)
    field = oned.tensor_solution([b], 10_001)
    alphas = [round(0.1 * k, 2) for k in range(1, 10)]
    sweep = alpha_sweep(field, alphas)
    assert sweep.consistent
    for a, verdict in zip(sweep.alphas, sweep.verdicts):
        if abs(a - sol.alpha_star) <= 0.02:
            continue
        analytic_pass = a <= sol.alpha_star
        assert (verdict != "fails") == analytic_pass, (a, verdict, sol.alpha_star)


def test_alpha_sweep_monotone_artifact_flagging(log_solve_box):
    sweep = alpha_sweep(log_solve_box.field, [0.05, 0.1])
    assert sweep.consistent
    assert sweep.largest_passing is None or sweep.largest_passing in sweep.alphas


def test_alpha_sweep_rejects_bad_exponents(log_solve_box):
    with pytest.raises(ValueError):
        alpha_sweep(log_solve_box.field, [0.5, 0.2])
    with pytest.raises(ValueError):
        alpha_sweep(log_solve_box.field, [0.0, 0.5])


def test_gausson_not_power_concave_on_large_box():
    # log-concave but not alpha-concave for any positive alpha once the
    # box contains |x|^2 > 1/alpha
    g = make_grid(box(3.0, 3.0), 121)
    field = ScalarField(g, oned.gausson_field(g).values, validate=False)
    sweep = alpha_sweep(field, [0.2, 0.5, 0.8])
    assert sweep.verdicts == ("fails", "fails", "fails")
    rep = check_transform_concavity(field, reactions.log_transform())
    assert rep.verdict in ("holds strictly", "holds weakly")


# ---------------------------------------------------------------------------
# quasi-concavity


def test_quasiconcavity_of_log_solution(log_solve_box):
    sup = log_solve_box.sup_norm
    rep = quasiconcavity_check(
        log_solve_box.field, [0.25 * sup, 0.5 * sup, 0.75 * sup], 200, seed=20240101
    )
    assert rep.passed


def test_quasiconcavity_radial_profile():
    g = make_grid(ball(1.0, 2), 201)
    r = g.axes[0]
    fld = ScalarField(g, 1.0 - r * r)
    rep = quasiconcavity_check(fld, [0.3, 0.6], 300, seed=7)
    assert rep.passed


def test_quasiconcavity_flags_two_bumps():
    g = make_grid(box(1.0, 1.0), 81)
    x, y = g.coordinate_arrays()
    bumps = np.exp(-40.0 * ((x - 0.55) ** 2 + y**2)) + np.exp(
        -40.0 * ((x + 0.55) ** 2 + y**2)
    )
    bumps[~g.interior_mask] = 0.0
    fld = ScalarField(g, bumps)
    rep = quasiconcavity_check(fld, [0.8], 400, seed=99)
    assert not rep.passed


def test_quasiconcavity_deterministic(log_solve_box):
    sup = log_solve_box.sup_norm
    r1 = quasiconcavity_check(log_solve_box.field, [0.5 * sup], 100, seed=5)
    r2 = quasiconcavity_check(log_solve_box.field, [0.5 * sup], 100, seed=5)
    assert r1 == r2


def test_quasiconcavity_validates_inputs(log_solve_box):
    with pytest.raises(ValueError):
        quasiconcavity_check(log_solve_box.field, [2.0 * log_solve_box.sup_norm], 10, 1)
    with pytest.raises(ValueError):
        quasiconcavity_check(log_solve_box.field, [0.5], 0, 1)


# ---------------------------------------------------------------------------
# level-set geometry


def test_level_set_curvature_of_paraboloid():
    vals = []
    for n in (41, 81):
        g = make_grid(box(2.0, 2.0), n)
        x, y = g.coordinate_arrays()
        fld = ScalarField(g, x**2 + y**2, validate=False)
        node = (3 * (n - 1) // 4, (n - 1) // 2)  # x = 1, y = 0
        rep = level_set_curvature(fld, node)
        vals.append(abs(rep.mean_curvature - 1.0))
        assert rep.identity_residual < 1e-9
    assert vals[0] < 1e-9 and vals[1] < 1e-9  # stencils exact on quadratics


def test_level_set_curvature_in_three_dimensions():
    g = make_grid(box(1.5, 1.5, 1.5), 31)
    x, y, z = g.coordinate_arrays()
    fld = ScalarField(g, x**2 + y**2 + z**2, validate=False)
    node = (22, 15, 15)  # on the positive x axis
    rep = level_set_curvature(fld, node)
    r = float(g.axes[0][22])
    assert math.isclose(rep.mean_curvature, 2.0 / r, rel_tol=1e-9)
    assert rep.ii_min > 0.0


def test_level_set_rejects_vanishing_gradient():
    g = make_grid(box(1.0, 1.0), 41)
    x, y = g.coordinate_arrays()
    fld = ScalarField(g, x**2 + y**2, validate=False)
    with pytest.raises(ValueError):
        level_set_curvature(fld, (20, 20))  # critical point at the origin


def test_level_set_rejects_one_dimensional_fields():
    g = make_grid(interval(1.0), 41)
    fld = ScalarField.zeros(g)
    with pytest.raises(ValueError):
        level_set_curvature(fld, 20)


def test_negative_log_level_sets_curve_positively(log_solve_box):
    # w = -log u has convex sublevel sets on the solved field: positive
    # mean curvature where the gradient is meaningful
    g = log_solve_box.field.grid
    w = np.zeros(g.shape)
    pos = log_solve_box.field.values > 0
    w[pos] = -np.log(log_solve_box.field.values[pos])
    fld = ScalarField(g, w, validate=False)
    n = g.shape[0]
    for node in [(n // 2 + 8, n // 2), (n // 2, n // 2 - 11), (n // 2 + 6, n // 2 + 6)]:
        rep = level_set_curvature(fld, node)
        assert rep.mean_curvature > 0.0
        assert rep.identity_residual < 1e-9


def test_identity_residual_on_smooth_synthetic_field():
    g = make_grid(box(1.0, 1.0), 81)
    x, y = g.coordinate_arrays()
    fld = ScalarField(g, np.sin(1.3 * x + 0.4) * np.cos(0.9 * y - 0.2), validate=False)
    rep = level_set_curvature(fld, (30, 47))
    # the decomposition is evaluated from one consistent Hessian, so the
    # residual sits at roundoff rather than at O(h^2)
    assert rep.identity_residual < 1e-10
