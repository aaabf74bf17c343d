"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

One check is expected to fail and is left failing on purpose; the
measured values are printed so the gap to the stated requirement is
visible:

* criterion 9, polynomial half: on the unit square the principal
  eigenvalue is about 4.934, so sigma = 4 admits no positive solution of
  the dispersive power problem (any positive solution forces
  sigma > lambda_1); the solver reports the nonexistence cleanly.

Criterion 3, first clause, checks the rate of the fixed-sigma limit
sup(u_q)^(q-1) -> 1 + lambda_1/sigma rather than an absolute bound: the
limit error is K_1 (q-1) + O((q-1)^2) with
K_1 = (1 + pi^2/4)(log 2 - 1/2) ~ 0.6697 on (-1, 1) at sigma = 1
(write u_q = c v with sup v = 1 and K = c^(q-1), expand
-Delta v = sigma v (K v^(q-1) - 1) in q - 1, and test the first-order
equation against phi_1 = cos(pi x / 2), for which
int phi_1^2 log phi_1 = 1/2 - log 2 and int phi_1^2 = 1).
"""

import math

import numpy as np
import pytest

from concavelab import (
    ScalarField,
    alpha_sweep,
    apply_laplacian,
    box,
    check_transform_concavity,
    continuation_branch,
    energy_upper_bound,
    initial_guess,
    interval,
    lane_emden,
    log_schrodinger,
    make_grid,
    newton_solve,
    pohozaev_check,
    principal_eigenpair,
)
from concavelab import cli, concavity, oned, reactions
from concavelab.solver import InitialGuessError, log_residual_sup

SQRT_E = math.sqrt(math.e)


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. eigenpair targets


def test_criterion_1_eigenpair_targets():
    lam_1d = principal_eigenpair(make_grid(interval(1.0), 2001), 1e-12).lambda1
    err_1d = abs(lam_1d - math.pi**2 / 4.0)
    lam_2d = principal_eigenpair(make_grid(box(1.0, 1.0), 401), 1e-12).lambda1
    err_2d = abs(lam_2d - math.pi**2 / 2.0)
    errs_h = [
        abs(principal_eigenpair(make_grid(interval(1.0), n), 1e-12).lambda1 - math.pi**2 / 4)
        for n in (501, 1001)
    ]
    ratio = errs_h[0] / errs_h[1]
    ok = err_1d < 1e-4 and err_2d < 1e-3 and 3.5 <= ratio <= 4.5
    _report(
        "1",
        ok,
        f"interval err {err_1d:.2e} (<1e-4), square err {err_2d:.2e} (<1e-3), "
        f"h-halving ratio {ratio:.3f}",
    )


# ---------------------------------------------------------------------------
# 2. explicit entire profile under the discrete operator


def test_criterion_2_gausson_operator_check():
    residuals = []
    for n in (41, 81):
        g = make_grid(box(1.0, 1.0), n)
        u = oned.gausson_field(g)
        r = -apply_laplacian(u).values - reactions.f(log_schrodinger(), u.values)
        residuals.append(float(np.max(np.abs(r[g.interior_mask]))))
    ratio = residuals[0] / residuals[1]
    _report(
        "2",
        3.5 <= ratio <= 4.5,
        f"residuals {residuals[0]:.3e} -> {residuals[1]:.3e}, ratio {ratio:.3f} in [3.5, 4.5]",
    )


# ---------------------------------------------------------------------------
# 3. convergence to the eigenfunction at fixed sigma


@pytest.fixture(scope="module")
def eigen_branch():
    grid = make_grid(interval(1.0), 401)
    pair = principal_eigenpair(grid, 1e-12)
    branch = continuation_branch(
        grid, sigma_rule="fixed", sigma=1.0, qs=[1.5, 1.25, 1.1, 1.05]
    )
    assert branch.complete
    return grid, pair, branch


def test_criterion_3_limit_error(eigen_branch):
    _grid, _pair, branch = eigen_branch
    target = 1.0 + math.pi**2 / 4.0
    # First-order rate of the limit error (module docstring):
    # K_1 = -K_0 int phi^2 log phi / int phi^2 with phi = cos(pi x / 2).
    k1 = target * (math.log(2.0) - 0.5)
    # Bound on the second-order remainder; measured |remainder| is at most
    # 0.037 at n = 201, 401 and 801 for these q.
    c_remainder = 0.1
    eps = [e.q - 1.0 for e in branch.entries]
    devs = [e.result.sup_norm ** (e.q - 1.0) - target for e in branch.entries]
    errs = [abs(d) for d in devs]
    remainders = [(d - k1 * x) / (x * x) for d, x in zip(devs, eps)]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    terminal = errs[-1]
    ok = decreasing and all(abs(r) <= c_remainder for r in remainders)
    _report(
        "3 (limit error)",
        ok,
        f"errors {['%.4f' % e for e in errs]} decreasing={decreasing}, "
        f"terminal {terminal:.4f} vs K_1(q-1) = {k1 * eps[-1]:.4f} "
        f"(relative form: {terminal / target:.4f}), "
        f"remainders (err - K_1(q-1))/(q-1)^2 {['%.4f' % r for r in remainders]} "
        f"within {c_remainder}",
    )


def test_criterion_3_eigenfunction_distance(eigen_branch):
    _grid, pair, branch = eigen_branch
    last = branch.entries[-1].result
    dist = float(np.max(np.abs(last.field.values / last.sup_norm - pair.phi1.values)))
    _report("3 (normalized field)", dist < 0.01, f"sup distance to phi1 {dist:.5f} < 0.01")


# ---------------------------------------------------------------------------
# 4. convergence along sigma = 2/(q-1)
#
# The residual is measured in the solver's relative sense,
# sup |...| / max(1, sup u), matching the Newton success criterion.


@pytest.mark.parametrize(
    "domain,resolution,label",
    [(interval(1.0), 41, "interval"), (box(1.0, 1.0), 21, "square")],
)
def test_criterion_4_log_path(domain, resolution, label):
    grid = make_grid(domain, resolution)
    branch = continuation_branch(
        grid, sigma_rule="log_path", qs=[1.1, 1.05, 1.02, 1.01]
    )
    assert branch.complete
    rels = [
        log_residual_sup(e.result.field) / max(1.0, e.result.sup_norm)
        for e in branch.entries
    ]
    decreasing = all(a > b for a, b in zip(rels, rels[1:]))
    h = max(grid.spacing)
    terminal_ok = rels[-1] < 10.0 * h * h
    sup_ok = branch.entries[-1].result.sup_norm > SQRT_E
    _report(
        f"4 ({label})",
        decreasing and terminal_ok and sup_ok,
        f"relative residuals {['%.4f' % r for r in rels]}, terminal {rels[-1]:.4f} "
        f"< 10h^2 = {10 * h * h:.4f}, terminal sup "
        f"{branch.entries[-1].result.sup_norm:.3f} > {SQRT_E:.4f}",
    )


# ---------------------------------------------------------------------------
# 5. one-dimensional exact relations


def test_criterion_5_exact_relations():
    worst_round = worst_shoot = worst_drift = worst_slope = 0.0
    for m in (1.7, 2.0, math.e, 5.0):
        b = oned.time_map(m)
        worst_round = max(worst_round, abs(oned.solve_m_of_b(b) - m))
        shot = oned.shoot_profile(m, 100_000)
        worst_shoot = max(worst_shoot, abs(shot.b - b))
        worst_drift = max(worst_drift, shot.energy_drift)
        worst_slope = max(worst_slope, abs(shot.boundary_slope - oned.boundary_slope(m)))

    bs = np.geomspace(0.4, 4.0, 20)
    ms = [oned.solve_m_of_b(float(b)) for b in bs]
    slopes = [oned.boundary_slope(m) for m in ms]
    alphas = [oned.alpha_star(float(b), m=m) for b, m in zip(bs, ms)]
    mono = (
        all(a > b for a, b in zip(ms, ms[1:]))
        and all(a > b for a, b in zip(slopes, slopes[1:]))
        and all(a > b for a, b in zip(alphas, alphas[1:]))
    )
    limits = (
        ms[-1] - SQRT_E < 0.01
        and ms[0] > 100.0
        and slopes[-1] < 0.2
        and slopes[0] > 10.0
        and alphas[-1] < 0.2
        and alphas[0] > 0.9
    )
    ok = (
        worst_round <= 1e-8
        and worst_shoot <= 1e-6
        and worst_drift <= 1e-8
        and worst_slope <= 1e-6
        and mono
        and limits
    )
    _report(
        "5",
        ok,
        f"round-trip {worst_round:.1e} (<=1e-8), shoot-vs-map {worst_shoot:.1e} (<=1e-6), "
        f"drift {worst_drift:.1e} (<=1e-8), slope {worst_slope:.1e} (<=1e-6), "
        f"monotone={mono}, limit trends={limits}",
    )


# ---------------------------------------------------------------------------
# 6. sharp power-concavity exponent: if and only if


@pytest.mark.parametrize("alpha0", [0.25, 0.5, 0.75])
def test_criterion_6_alpha_iff(alpha0):
    b = oned.halfwidth_for_alpha(alpha0)
    field = oned.tensor_solution([b], 12_001, n=20_000)
    sweep = alpha_sweep(field, [alpha0 - 0.02, alpha0 + 0.02])
    below, above = sweep.verdicts
    ok = below != "fails" and above == "fails"
    _report(
        f"6 (alpha*={alpha0})",
        ok,
        f"b={b:.4f}, {alpha0 - 0.02:.2f} -> {below}; {alpha0 + 0.02:.2f} -> {above}",
    )


# ---------------------------------------------------------------------------
# 7. tensorization and optimality


def test_criterion_7_tensor_residual_and_sup():
    b = 1.0
    m = oned.solve_m_of_b(b)
    sup_err = abs(oned.tensor_solution([b, b], 161).sup_norm() - m * m)
    residuals = [
        log_residual_sup(oned.tensor_solution([b, b], n), boundary_margin=0.15 * b)
        for n in (81, 161)
    ]
    ratio = residuals[0] / residuals[1]
    ok = sup_err <= 1e-6 and 3.5 <= ratio <= 4.5
    _report(
        "7 (tensor field)",
        ok,
        f"sup error {sup_err:.2e} (<=1e-6), interior residual ratio {ratio:.3f} in [3.5, 4.5]",
    )


def test_criterion_7_tensor_alpha_optimality():
    alpha = 0.3
    b = oned.halfwidth_for_alpha(2.0 * alpha)
    field = oned.tensor_solution([b, b], 321)
    sweep = alpha_sweep(field, [alpha, alpha + 0.03])
    ok = sweep.verdicts[0] != "fails" and sweep.verdicts[1] == "fails"
    _report(
        "7 (optimality)",
        ok,
        f"b(2a)={b:.4f}: alpha={alpha:.2f} -> {sweep.verdicts[0]}; "
        f"alpha={alpha + 0.03:.2f} -> {sweep.verdicts[1]}",
    )


# ---------------------------------------------------------------------------
# 8. concavity verdicts on solved fields


def test_criterion_8_verdicts(log_solve_box, lane_emden_solve_box):
    rep_log = check_transform_concavity(log_solve_box.field, reactions.log_transform())
    rep_pow = check_transform_concavity(lane_emden_solve_box.field, reactions.power(-0.5))
    grid = log_solve_box.field.grid
    h = grid.spacing[0]
    resid = concavity.transformed_equation_residual(
        log_solve_box.field,
        log_schrodinger(),
        reactions.neg_log(),
        eps_floor=0.5 * log_solve_box.sup_norm,
    )
    ok = (
        rep_log.verdict == "holds strictly"
        and rep_pow.verdict == "holds strictly"
        and resid < 10.0 * h * h
    )
    _report(
        "8",
        ok,
        f"log transform: {rep_log.verdict}; power(-1/2): {rep_pow.verdict}; "
        f"transformed-equation residual {resid:.2e} < 10h^2 = {10 * h * h:.2e} "
        f"(eps_floor 0.5 sup: the transform derivatives blow up at small u)",
    )


# ---------------------------------------------------------------------------
# 9. dispersive pair


def test_criterion_9_dispersive_log(box81, dispersive_log_solve_box):
    res = dispersive_log_solve_box
    rep = check_transform_concavity(res.field, reactions.sqrt_one_minus_log())
    ok = res.sup_norm < 1.0 - 1e-3 and rep.verdict == "holds strictly"
    _report(
        "9 (logarithmic half)",
        ok,
        f"sup {res.sup_norm:.4f} < 0.999, sqrt(1 - log u^2): {rep.verdict}",
    )


def test_criterion_9_dispersive_lane_emden(box81):
    q, sigma = 2.0, 4.0
    lam = principal_eigenpair(box81, 1e-12).lambda1
    try:
        reaction = reactions.dispersive_lane_emden(q, sigma)
        res = newton_solve(box81, reaction, initial_guess(box81, reaction), 1e-10)
        rep = check_transform_concavity(res.field, reactions.atanh_poly(q))
        ok = (
            res.converged
            and res.sup_norm < 1.0 - 1e-3
            and rep.verdict == "holds strictly"
        )
        detail = f"status {res.status}, sup {res.sup_norm:.4f}, atanh: {rep.verdict}"
    except InitialGuessError as exc:
        ok = False
        detail = (
            f"sigma = {sigma} does not exceed lambda_1 = {lam:.4f} on this square, "
            f"so no positive solution exists ({exc}); the same checks pass at sigma = 6"
        )
    _report("9 (polynomial half)", ok, detail)


# ---------------------------------------------------------------------------
# 10. energies and the variational bound


def test_criterion_10_energy_identities(box81, log_solve_box, lane_emden_solve_box):
    w = box81.quadrature_weights()
    h = box81.spacing[0]

    q, sigma = 2.0, 1.0
    u = lane_emden_solve_box.field.values
    neq = sigma * (0.5 - 1.0 / (q + 1.0)) * float(np.sum(w * u ** (q + 1.0)))
    gap_neq = abs(lane_emden_solve_box.energy - neq)

    v = log_solve_box.field.values
    half_l2 = 0.5 * float(np.sum(w * v * v))
    gap_log = abs(log_solve_box.energy - half_l2)

    g1 = make_grid(interval(1.0), 201)
    reaction = lane_emden(2.0, 2.0)
    res = newton_solve(g1, reaction, initial_guess(g1, reaction), 1e-10)
    bound = energy_upper_bound(g1, 2.0, 2.0, principal_eigenpair(g1, 1e-12).phi1)

    ok = (
        gap_neq <= 5.0 * h * h * abs(neq)
        and gap_log <= 5.0 * h * h * half_l2
        and res.energy <= bound
    )
    _report(
        "10",
        ok,
        f"Nehari identity gap {gap_neq:.3e} (<= {5 * h * h * abs(neq):.3e}), "
        f"half-l2 gap {gap_log:.3e} (<= {5 * h * h * half_l2:.3e}), "
        f"energy {res.energy:.4f} <= bound {bound:.4f}",
    )


# ---------------------------------------------------------------------------
# 11. determinism


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "domain": {"kind": "interval", "halfwidth": 1.0},
        "resolution": 101,
        "schedule": {"sigma_rule": "log_path", "qs": [1.2, 1.1, 1.05]},
        "seed": 987,
    }
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.run("converge-log", dict(cfg), out) == 0
        outs.append(out)
    identical = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("branch.csv", "converge_log.json")
    )
    _report("11", identical, "repeated runs produce byte-identical artifacts")


def test_criterion_4_pohozaev_threshold_2d():
    # companion check for the square's terminal field: the sup norm also
    # clears the star-shaped lower bound e^(N/4) reported by the checker
    grid = make_grid(box(1.0, 1.0), 21)
    branch = continuation_branch(grid, sigma_rule="log_path", qs=[1.1, 1.05, 1.02, 1.01])
    report = pohozaev_check(branch.entries[-1].result, grid.domain)
    _report(
        "4 (pohozaev companion)",
        report.passed,
        f"terminal sup {report.sup_norm:.3f} > e^(N/4) = {report.threshold:.4f}",
    )
