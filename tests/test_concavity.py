import functools
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


@pytest.mark.parametrize("dim", [2, 3])
def test_check_sets_deeper_than_a_ball_are_empty(dim):
    # the region stops layer_k nodes short of r = R and never wraps round past the origin
    g = make_grid(ball(1.0, dim), 9)
    reaction = log_schrodinger()
    res = newton_solve(g, reaction, initial_guess(g, reaction), 1e-10)
    assert res.converged
    log = reactions.log_transform()
    assert check_transform_concavity(res.field, log, layer_k=8).check_set_size == 1
    for layer_k in (9, 10, 12, 18):
        with pytest.raises(EmptyCheckSetError, match="no interior nodes"):
            check_transform_concavity(res.field, log, layer_k=layer_k)
        assert not concavity._check_mask(g, res.field.values, 0.0, layer_k).any()
        assert chain_rule_hessian_eigenvalues(res.field, log, 0.0, layer_k).shape == (0, 2)


def test_tensor_log_solution_in_3d_is_strictly_log_concave():
    # log of a tensor product is a sum of concave one-dimensional logs
    fld = oned.tensor_solution([0.9, 1.2, 1.5], 17)
    assert check_transform_concavity(fld, reactions.log_transform()).verdict == "holds strictly"


def _cosine_field(values_at):
    g = make_grid(box(1.0), 21)
    u = np.cos(0.5 * np.pi * g.axes[0])
    for k, v in values_at.items():
        u[k] = v
    return ScalarField(g, u, validate=False)


def test_nodes_with_overflowing_eigen_data_leave_the_check_set():
    log = reactions.log_transform()
    # a spike of 1e307 overflows the second differences at itself and its two
    # neighbours; a node at 1e-200 lies within ENDPOINT_TOL of the log's endpoint
    # 0 and leaves before its eigen-data are formed
    fields = [_cosine_field({}), _cosine_field({10: 1e-200}), _cosine_field({10: 1e307})]
    with np.errstate(all="ignore"):
        sizes = [check_transform_concavity(f, log, eps_floor=0.0).check_set_size for f in fields]
        eigs = chain_rule_hessian_eigenvalues(fields[2], log, 0.0)
    assert sizes == [15, 14, 12]
    assert np.flatnonzero(~np.isfinite(eigs[:, 0])).tolist() == [6, 7, 8]


def test_check_set_singular_everywhere_raises():
    # every second difference of this sawtooth overflows
    sawtooth = _cosine_field({k: 1e307 if k % 2 else 1e306 for k in range(1, 20)})
    with np.errstate(all="ignore"), pytest.raises(EmptyCheckSetError, match="singular"):
        check_transform_concavity(sawtooth, reactions.log_transform(), eps_floor=0.0)


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
# verdicts by eigenvalue columns against the row-wise path they replaced


def _reference_eigendata(field, transform, mask):
    """Eigenvalues (N, d) of D^2(phi o u) at the masked nodes, row by row."""
    grid = field.grid
    t_vals = field.values[mask]
    d1 = np.atleast_1d(reactions.transform_d1(transform, t_vals))
    d2 = np.atleast_1d(reactions.transform_d2(transform, t_vals))
    # the stencils are formed on the shallowest check region, which holds every mask
    region = concavity._check_region(grid, 2)
    inner = mask[region]
    assert np.count_nonzero(inner) == t_vals.size
    if grid.is_radial:
        g, upp, tang = concavity._radial_derivatives(field, region)
        radial_eig = d2 * g[inner] ** 2 + d1 * upp[inner]
        if grid.ambient_dim == 1:
            return radial_eig.reshape(-1, 1)
        return np.stack([radial_eig, d1 * tang[inner]], axis=1)
    grads = concavity.gradient_components(field)
    comps = concavity._hessian_component_arrays(grid, field.values, region)
    d = grid.ndim
    h = {}
    for a in range(d):
        h[(a, a)] = d2 * grads[a][mask] ** 2 + d1 * comps[(a, a)][inner]
        for b in range(a + 1, d):
            h[(a, b)] = d2 * grads[a][mask] * grads[b][mask] + d1 * comps[(a, b)][inner]
    if d == 1:
        return h[(0, 0)].reshape(-1, 1)
    if d == 2:
        mean = 0.5 * (h[(0, 0)] + h[(1, 1)])
        rad = np.sqrt(0.25 * (h[(0, 0)] - h[(1, 1)]) ** 2 + h[(0, 1)] ** 2)
        return np.stack([mean - rad, mean + rad], axis=1)
    mats = np.empty((t_vals.size, d, d))
    for a in range(d):
        mats[:, a, a] = h[(a, a)]
        for b in range(a + 1, d):
            mats[:, a, b] = mats[:, b, a] = h[(a, b)]
    return np.linalg.eigvalsh(mats)


def _reference_report(field, transform, eps_floor=None, layer_k=concavity.LAYER_K):
    grid = field.grid
    eps = 1e-3 * field.sup_norm() if eps_floor is None else float(eps_floor)
    mask = concavity._check_mask(grid, field.values, eps, layer_k)
    for end in transform.validity:
        if np.isfinite(end):
            mask &= np.abs(field.values - end) > concavity.ENDPOINT_TOL * max(1.0, abs(end))
    if not np.any(mask):
        raise EmptyCheckSetError("no interior nodes above eps_floor outside the layer")
    eigs = _reference_eigendata(field, transform, mask)
    finite_rows = np.all(np.isfinite(eigs), axis=1)
    if not np.all(finite_rows):
        mask.flat[np.flatnonzero(mask)[~finite_rows]] = False
        eigs = eigs[finite_rows]
        if eigs.size == 0:
            raise EmptyCheckSetError("transform singular on the whole check set")
    margin = concavity.STRICT_MARGIN_FACTOR * max(float(np.max(np.abs(eigs))), 1e-300)
    sign = 1.0 if transform.increasing else -1.0
    node_ext = np.max(sign * eigs, axis=1)
    pos = int(np.argmax(node_ext))
    if node_ext[pos] < -margin:
        verdict = "holds strictly"
    elif node_ext[pos] <= margin:
        verdict = "holds weakly"
    else:
        verdict = "fails"
    return concavity.ConcavityReport(
        transform=transform.label,
        check_mode="concavity" if sign > 0 else "convexity",
        check_set_size=len(eigs),
        extreme_eigenvalue=sign * float(node_ext[pos]),
        witness=grid.node_coordinates(np.unravel_index(np.flatnonzero(mask)[pos], grid.shape)),
        eps_floor=eps,
        layer_k=layer_k,
        margin=margin,
        verdict=verdict,
    )


def _assert_same_bits(got, want):
    # repr round-trips every float and tells -0.0 from 0.0
    assert repr(got) == repr(want)


def _bump(dim, kind):
    """A positive field below 1 with its peak off the centre, so the
    dispersive transforms are defined on it and the check sets lose the
    peak node to sqrt_log's finite endpoint."""
    if kind == "ball":
        g = make_grid(ball(1.0, dim), 101)
        r = g.axes[0]
        vals = 0.9 * np.cos(0.5 * np.pi * r) * (1.0 + 0.1 * r * r)
    else:
        b = (1.0, 1.3, 0.8)[:dim]
        g = make_grid(box(*b), {1: 61, 2: 41, 3: 15}[dim])
        coords = g.coordinate_arrays()
        vals = 0.9 * (1.0 + 0.1 * coords[0]) * np.prod(
            [np.cos(0.5 * np.pi * c / h) for c, h in zip(coords, b)], axis=0)
    return ScalarField(g, vals, validate=False)


BUMPS = [(1, "box"), (2, "box"), (3, "box"), (1, "ball"), (2, "ball"), (3, "ball")]
TRANSFORMS = {
    "log": lambda m: reactions.log_transform(),
    "power": lambda m: reactions.power(0.3),
    "sqrt_log": reactions.sqrt_log,
    "atanh_poly": lambda m: reactions.atanh_poly(2.0),
    "sqrt_one_minus_log": lambda m: reactions.sqrt_one_minus_log(),
}


@pytest.mark.parametrize("dim,kind", BUMPS, ids=[f"{k}{d}" for d, k in BUMPS])
@pytest.mark.parametrize("name", TRANSFORMS)
@pytest.mark.parametrize("check_set", [{}, {"eps_floor": 0.3, "layer_k": 4}],
                         ids=["default", "custom"])
def test_column_verdicts_match_the_row_wise_reference(dim, kind, name, check_set):
    fld = _bump(dim, kind)
    tr = TRANSFORMS[name](fld.sup_norm())
    got = check_transform_concavity(fld, tr, **check_set)
    _assert_same_bits(got, _reference_report(fld, tr, **check_set))
    assert got.check_mode == ("concavity" if tr.increasing else "convexity")
    # the public eigenvalues keep the nodes at a finite endpoint, where
    # sqrt_log's phi'' is infinite, so its endpoint moves off the field here
    tr = TRANSFORMS[name](2.0 * fld.sup_norm())
    mask = concavity._check_mask(fld.grid, fld.values, got.eps_floor, got.layer_k)
    eigs = chain_rule_hessian_eigenvalues(fld, tr, got.eps_floor, got.layer_k)
    want = _reference_eigendata(fld, tr, mask)
    assert eigs.shape == want.shape
    assert np.array_equal(eigs.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("values_at", [{10: 1e307}, {10: 1e-200}])
def test_column_verdicts_match_the_reference_on_spikes(values_at):
    log = reactions.log_transform()
    fields = [_cosine_field(values_at)]
    g = make_grid(box(1.0, 1.0), 21)
    x, y = g.coordinate_arrays()
    u = np.cos(0.5 * np.pi * x) * np.cos(0.5 * np.pi * y)
    for k, v in values_at.items():
        u[k, 9] = v
    fields.append(ScalarField(g, u, validate=False))
    with np.errstate(all="ignore"):
        for fld in fields:
            _assert_same_bits(check_transform_concavity(fld, log, eps_floor=0.0),
                              _reference_report(fld, log, eps_floor=0.0))


@pytest.mark.parametrize("dims,n", [((2.0,), 17), ((2.0, 2.0), 17), ((2.0, 2.0, 2.0), 9)])
def test_witness_of_tied_eigenvalues_is_the_first_check_node(dims, n):
    # on a grid of spacing 1/4 or 1/2 every difference of this quadratic is
    # exact, so all Hessians are exactly -2 I and every node ties
    g = make_grid(box(*dims), n)
    fld = ScalarField(g, 100.0 - sum(c * c for c in g.coordinate_arrays()), validate=False)
    k = concavity.LAYER_K
    first = g.node_coordinates((k,) * g.ndim)
    for tr in (reactions.power(1.0), reactions.power(1.0).negate()):
        rep = check_transform_concavity(fld, tr)
        _assert_same_bits(rep, _reference_report(fld, tr))
        assert rep.witness == first
        assert abs(rep.extreme_eigenvalue) == 2.0


def test_near_constant_eigenvalues_keep_the_reference_witness():
    # log of the Gausson has Hessian -I: the extreme eigenvalue varies by rounding
    for dim, n in ((2, 41), (3, 17)):
        g = make_grid(box(*[3.0] * dim), n)
        fld = ScalarField(g, oned.gausson_field(g).values, validate=False)
        for tr in (reactions.log_transform(), reactions.neg_log()):
            _assert_same_bits(check_transform_concavity(fld, tr), _reference_report(fld, tr))


def test_both_empty_check_set_errors_match_the_reference(box81):
    sawtooth = _cosine_field({k: 1e307 if k % 2 else 1e306 for k in range(1, 20)})
    cases = [(ScalarField.zeros(box81), 1.0, "no interior nodes"), (sawtooth, 0.0, "singular")]
    with np.errstate(all="ignore"):
        for fld, eps, match in cases:
            for check in (check_transform_concavity, _reference_report):
                with pytest.raises(EmptyCheckSetError, match=match):
                    check(fld, reactions.log_transform(), eps_floor=eps)
        with pytest.raises(EmptyCheckSetError, match="no interior nodes"):
            alpha_sweep(ScalarField.zeros(box81), [0.5])


class _NumpyWithoutAxisReductions:
    """numpy, except that ``max``/``min``/``all``/``any`` along an axis fail."""

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("max", "amax", "min", "amin", "all", "any"):
            return attr

        def reduce(*args, axis=None, **kwargs):
            assert axis is None, f"np.{name} along axis {axis}"
            return attr(*args, **kwargs)

        return reduce


@pytest.mark.parametrize("dim,kind", [(2, "box"), (2, "ball")], ids=["box2", "ball2"])
def test_verdicts_reduce_across_columns_not_along_an_axis(monkeypatch, dim, kind):
    fld = _bump(dim, kind)
    want = check_transform_concavity(fld, reactions.log_transform())
    monkeypatch.setattr(concavity, "np", _NumpyWithoutAxisReductions())
    _assert_same_bits(check_transform_concavity(fld, reactions.log_transform()), want)


SWEEP = [0.1, 0.3, 0.5, 0.7, 0.9]


@pytest.mark.parametrize("dim,kind", BUMPS, ids=[f"{k}{d}" for d, k in BUMPS])
def test_one_check_set_serves_every_transform(dim, kind):
    fld = _bump(dim, kind)
    m = fld.sup_norm()
    check_set = concavity._check_set(fld, None, concavity.LAYER_K)
    transforms = [reactions.log_transform(), reactions.sqrt_log(m), reactions.atanh_poly(2.0),
                  *(reactions.power(a) for a in SWEEP)]
    for tr in transforms:
        _assert_same_bits(concavity._report(fld, tr, check_set), check_transform_concavity(fld, tr))
    # sqrt_log's endpoint m leaves the peak out of its report only
    nodes = check_set[3].size
    assert check_transform_concavity(fld, reactions.log_transform()).check_set_size == nodes
    assert check_transform_concavity(fld, reactions.sqrt_log(m)).check_set_size == nodes - 1


@pytest.mark.parametrize("dim,kind", BUMPS, ids=[f"{k}{d}" for d, k in BUMPS])
@pytest.mark.parametrize("below_floor", [0, 1], ids=["every-node-kept", "one-node-dropped"])
def test_check_sets_keeping_every_region_node_match_the_reference(dim, kind, below_floor):
    fld = _bump(dim, kind)
    region = concavity._check_region(fld.grid, concavity.LAYER_K)
    eps = 1e-3 * fld.sup_norm()
    assert np.all(fld.values[region] >= eps)
    if below_floor:  # the region's last node in C order, away from the peak
        values = fld.values.copy()
        values[tuple(s.stop - 1 for s in region)] = 0.5 * eps
        fld = ScalarField(fld.grid, values, validate=False)
    check_set = concavity._check_set(fld, None, concavity.LAYER_K)
    assert check_set[3].size == fld.values[region].size - below_floor
    m = fld.sup_norm()
    for tr in (reactions.log_transform(), reactions.sqrt_log(m),
               *(reactions.power(a) for a in SWEEP)):
        _assert_same_bits(concavity._report(fld, tr, check_set), _reference_report(fld, tr))
    assert alpha_sweep(fld, SWEEP).verdicts == tuple(
        _reference_report(fld, reactions.power(a)).verdict for a in SWEEP)


def _depth(grid):
    """Each node's distance in layers to the boundary (on balls: to r = R)."""
    if grid.is_radial:
        return grid.shape[0] - 1 - np.arange(grid.shape[0])
    return functools.reduce(np.minimum, np.ix_(*(np.minimum(np.arange(n), n - 1 - np.arange(n))
                                                 for n in grid.shape)))


@pytest.mark.parametrize("dim,kind", [(2, "box"), (3, "box"), (3, "ball")],
                         ids=["box2", "box3", "ball3"])
@pytest.mark.parametrize("poison", [np.nan, 1e300], ids=["nan", "1e300"])
def test_check_sets_read_only_their_region_widened_by_one_node(monkeypatch, dim, kind, poison):
    fld = _bump(dim, kind)
    depth = _depth(fld.grid)

    def poisoned(layer_k):
        values = fld.values.copy()
        values[depth < layer_k - 1] = poison
        return ScalarField(fld.grid, values, validate=False)

    log = reactions.log_transform()
    eps = 1e-3 * fld.sup_norm()
    # the default floor reads the sup norm of the whole field: it stays the clean one
    monkeypatch.setattr(concavity, "_resolve_floor",
                        lambda field, eps_floor: eps if eps_floor is None else float(eps_floor))
    for layer_k in (concavity.LAYER_K, concavity.LAYER_K + 1):
        bad = poisoned(layer_k)
        _assert_same_bits(check_transform_concavity(bad, log, layer_k=layer_k),
                          check_transform_concavity(fld, log, layer_k=layer_k))
        got, want = (chain_rule_hessian_eigenvalues(f, log, eps, layer_k) for f in (bad, fld))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    _assert_same_bits(alpha_sweep(poisoned(concavity.LAYER_K), SWEEP), alpha_sweep(fld, SWEEP))
    bad = poisoned(2)
    for idx in zip(*np.nonzero(depth >= 2)):
        assert np.array_equal(hessian_at(bad, idx).view(np.uint64),
                              hessian_at(fld, idx).view(np.uint64)), idx


@pytest.mark.parametrize("dim,kind", BUMPS, ids=[f"{k}{d}" for d, k in BUMPS])
def test_alpha_sweep_verdicts_are_their_own_checks(dim, kind):
    fld = _bump(dim, kind)
    alphas = [0.1, 0.3, 0.5, 0.7, 0.9]
    sweep = alpha_sweep(fld, alphas)
    assert sweep.verdicts == tuple(
        check_transform_concavity(fld, reactions.power(a)).verdict for a in alphas)


@pytest.mark.parametrize("dim,kind", [(2, "box"), (3, "box"), (3, "ball")],
                         ids=["box2", "box3", "ball3"])
def test_alpha_sweep_gathers_derivatives_once(monkeypatch, dim, kind):
    fld = _bump(dim, kind)
    calls = {"gradient_components": 0, "_hessian_component_arrays": 0}

    def counting(name):
        inner = getattr(concavity, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(concavity, name, counting(name))
    alpha_sweep(fld, [0.1, 0.2, 0.3, 0.4, 0.5])
    assert calls == {"gradient_components": 1,
                     "_hessian_component_arrays": 0 if fld.grid.is_radial else 1}


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


# the per-pair sampler the vectorized check replaced, kept as its reference


def _nearest_node_value(grid, values, point):
    idx = []
    for a, (ax, h) in enumerate(zip(grid.axes, grid.spacing)):
        j = int(round((point[a] - ax[0]) / h))
        idx.append(min(max(j, 0), grid.shape[a] - 1))
    return float(values[tuple(idx)])


def _reference_quasiconcavity(field, levels, sample_pairs, seed):
    grid = field.grid
    levels = tuple(float(t) for t in levels)
    rng = np.random.default_rng(seed)
    grad_mag = np.sqrt(sum(g * g for g in concavity.gradient_components(field)))
    slack = 2.0 * max(grid.spacing) * float(np.max(grad_mag))
    values = field.values
    failures = []
    if grid.is_radial:
        r = grid.axes[0]
        for t in levels:
            nodes = np.flatnonzero(values >= t)
            picks = rng.integers(0, nodes.size, size=(sample_pairs, 2))
            dirs = rng.normal(size=(sample_pairs, 2, grid.ambient_dim))
            dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
            for (i1, i2), (d1v, d2v) in zip(picks, dirs):
                mid_r = float(np.linalg.norm(0.5 * (r[nodes[i1]] * d1v + r[nodes[i2]] * d2v)))
                val = _nearest_node_value(grid, values, np.array([mid_r]))
                if val < t - slack:
                    failures.append((t, (mid_r,), val))
    else:
        coords = np.stack([c.ravel() for c in grid.coordinate_arrays()], axis=1)
        flat = values.ravel()
        for t in levels:
            nodes = np.flatnonzero(flat >= t)
            picks = rng.integers(0, nodes.size, size=(sample_pairs, 2))
            mids = 0.5 * (coords[nodes[picks[:, 0]]] + coords[nodes[picks[:, 1]]])
            for mid in mids:
                val = _nearest_node_value(grid, values, mid)
                if val < t - slack:
                    failures.append((t, tuple(float(c) for c in mid), val))
    return concavity.QuasiconcavityReport(
        passed=not failures, levels=levels, sample_pairs=sample_pairs, seed=seed,
        slack=slack, failures=tuple(failures),
    )


def _radial_field(dim, bump):
    g = make_grid(ball(1.5, dim), 121)
    r = g.axes[0]
    if bump:  # superlevel sets are annuli around r = 0.8
        vals = np.exp(-20.0 * (r - 0.8) ** 2) * (1.0 - (r / 1.5) ** 2)
    else:
        vals = np.cos(0.5 * np.pi * r / 1.5)
    vals[-1] = 0.0
    return ScalarField(g, vals)


def _box_field(dim, bump):
    g = make_grid(box(*[1.0 + 0.1 * a for a in range(dim)]), 41 if dim < 3 else 21)
    coords = g.coordinate_arrays()
    if bump:  # two peaks, so the upper superlevel sets are not connected
        vals = sum(np.exp(-30.0 * ((coords[0] - s) ** 2 + sum(c**2 for c in coords[1:])))
                   for s in (-0.5, 0.5))
    else:
        vals = np.prod([np.cos(0.5 * np.pi * c / (1.0 + 0.1 * a))
                        for a, c in enumerate(coords)], axis=0)
    vals[~g.interior_mask] = 0.0
    return ScalarField(g, vals)


@pytest.mark.parametrize("make", [_radial_field, _box_field], ids=["ball", "box"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("bump", [False, True], ids=["concave", "bump"])
def test_quasiconcavity_matches_per_pair_reference(make, dim, bump):
    fld = make(dim, bump)
    sup = fld.sup_norm()
    levels = [0.3 * sup, 0.6 * sup, 0.9 * sup]
    failing = 0
    for seed in (0, 7, 2024, 99991):
        rep = quasiconcavity_check(fld, levels, 150, seed)
        assert rep == _reference_quasiconcavity(fld, levels, 150, seed)
        failing += len(rep.failures)
    # the bumps exercise the failure branch, the concave fields pass
    assert (failing > 0) == bump
