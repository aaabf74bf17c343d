"""Numerical verification of transformed concavity/convexity on fields.

Checks run over a *check set*: interior nodes at least ``layer_k`` grid
layers away from the boundary and with field values above ``eps_floor``
(default one thousandth of the sup norm).  The claims being verified are
local and the transformations are singular at 0, so the margins are part
of every report.

The Hessian of ``phi(u)`` is evaluated through the chain rule
``phi''(u) g g^T + phi'(u) H(u)`` on centrally differenced gradients
``g`` and Hessians ``H``.  The check set lies in one region, a slice per
axis, and each grid kind has one second-difference stencil, formed from
shifted slices of ``u`` at the region's nodes only (at one node for
:func:`hessian_at`): the full Hessian on interval and box grids, and
``u''`` with ``u'/r`` on radial grids.  The direct second differencing of
the nodal values of ``phi(u)`` stays as the cross-check.  An increasing
``phi`` is checked for concavity of ``phi(u)``, a decreasing one for
convexity.

The eigenvalues come as one array per eigenvalue (closed forms in one and
two dimensions and on radial grids), and a verdict reduces across those
columns elementwise.  A check set and the derivative arrays gathered on it
do not depend on ``phi``, whose report leaves out the nodes at its finite
endpoints: an :func:`alpha_sweep` gathers once for all its exponents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .linops import ScalarField, apply_laplacian, gradient_components
from . import reactions
from .reactions import Reaction, Transform, transform_d1, transform_d2, transform_value

__all__ = [
    "ConcavityReport",
    "AlphaSweepResult",
    "QuasiconcavityReport",
    "EmptyCheckSetError",
    "hessian_at",
    "check_transform_concavity",
    "chain_rule_hessian_eigenvalues",
    "direct_hessian_eigenvalues",
    "transformed_equation_residual",
    "alpha_sweep",
    "quasiconcavity_check",
]

STRICT_MARGIN_FACTOR = 1e-8
# nodes within ENDPOINT_TOL * max(1, |e|) of a finite endpoint e of a
# transform's validity interval are left out of its check set
ENDPOINT_TOL = 1e-10
# the default depth of the check set, in grid layers
LAYER_K = 3


class EmptyCheckSetError(ValueError):
    pass


# ---------------------------------------------------------------------------
# finite-difference Hessian at one node


def hessian_at(field: ScalarField, node) -> np.ndarray:
    """Second-difference Hessian at a node of the check set at ``layer_k = 2``.

    Any other node, a negative index or one past the grid raises
    ``ValueError``.

    On radial grids the matrix is expressed in an orthonormal frame whose
    first axis is radial: ``diag(u'', u'/r, ..., u'/r)`` (all entries
    ``u''(0)`` at the origin); eigenvalues are unaffected by the frame.
    """
    grid = field.grid
    idx = (int(node),) if np.isscalar(node) else tuple(int(i) for i in node)
    deep = _check_region(grid, 2)
    if not (len(idx) == grid.ndim and all(s.start <= i < s.stop for i, s in zip(idx, deep))):
        raise ValueError(f"node {idx} is not in the check set two layers inside")
    node_region = tuple(slice(i, i + 1) for i in idx)
    if grid.is_radial:
        _, upp, tang = _radial_derivatives(field, node_region)
        mat = np.eye(grid.ambient_dim) * tang[0]
        mat[0, 0] = upp[0]
        return mat
    mat = np.empty((grid.ndim, grid.ndim))
    for (a, b_ax), arr in _hessian_component_arrays(grid, field.values, node_region).items():
        mat[a, b_ax] = mat[b_ax, a] = arr.item()
    return mat


# ---------------------------------------------------------------------------
# vectorized machinery over the check set


def check_layer_k(layer_k: int) -> None:
    """Raise ``ValueError`` unless ``layer_k`` leaves room for the Hessian stencils."""
    if layer_k < 2:
        raise ValueError("layer_k must be at least 2 for the Hessian stencils")


def _check_region(grid: Grid, layer_k: int) -> tuple:
    """The nodes at least ``layer_k`` layers inside the grid (:meth:`Grid.layer_region`)."""
    check_layer_k(layer_k)
    return grid.layer_region(layer_k)


def _check_mask(grid: Grid, values: np.ndarray, eps_floor: float, layer_k: int) -> np.ndarray:
    """The check set as a full-grid mask: its region where ``values >= eps_floor``."""
    region = _check_region(grid, layer_k)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[region] = values[region] >= eps_floor
    return mask


def _hessian_component_arrays(grid: Grid, u: np.ndarray, region: tuple) -> dict:
    """Second-difference arrays at the nodes of ``region``, a box of slices
    at least one layer inside the grid."""

    def sh(*moves):
        # the region moved by the given (axis, offset) pairs
        moved = list(region)
        for a, o in moves:
            moved[a] = slice(region[a].start + o, region[a].stop + o)
        return u[tuple(moved)]

    h = grid.spacing
    comps = {}
    for a in range(grid.ndim):
        comps[(a, a)] = (sh((a, 1)) - 2.0 * u[region] + sh((a, -1))) / h[a] ** 2
        for b in range(a + 1, grid.ndim):
            comps[(a, b)] = (sh((a, 1), (b, 1)) - sh((a, 1), (b, -1)) - sh((a, -1), (b, 1))
                             + sh((a, -1), (b, -1))) / (4.0 * h[a] * h[b])
    return comps


def _radial_derivatives(field: ScalarField, region: tuple):
    """``u'``, ``u''`` and ``u'/r`` at the nodes of a radial ``region`` short
    of ``r = R``; at the origin both ``u''`` and ``u'/r`` are the symmetric
    limit ``2 (u_1 - u_0)/h^2``."""
    (nodes,) = region
    u, r, h = field.values, field.grid.axes[0], field.grid.spacing[0]
    k = np.arange(nodes.start, nodes.stop)
    g = gradient_components(field)[0][nodes]
    # the origin reads its mirror node u_1 and r_1 here, and takes the limit below
    upp = (u[k + 1] - 2.0 * u[k] + u[np.abs(k - 1)]) / h**2
    tang = g / r[np.maximum(k, 1)]
    if nodes.start == 0 < nodes.stop:
        upp[0] = tang[0] = 2.0 * (u[1] - u[0]) / h**2
    return g, upp, tang


def _sym_eig_columns(h_flat: dict, d: int) -> list:
    """Eigenvalues of symmetric matrices given by component dict, one array
    per eigenvalue in ascending order."""
    if d == 1:
        return [h_flat[(0, 0)]]
    if d == 2:
        a, c, b_val = h_flat[(0, 0)], h_flat[(1, 1)], h_flat[(0, 1)]
        mean = 0.5 * (a + c)
        rad = np.sqrt(0.25 * (a - c) ** 2 + b_val**2)
        return [mean - rad, mean + rad]
    mats = np.empty((h_flat[(0, 0)].size, d, d))
    for a in range(d):
        mats[:, a, a] = h_flat[(a, a)]
        for b_ax in range(a + 1, d):
            mats[:, a, b_ax] = mats[:, b_ax, a] = h_flat[(a, b_ax)]
    return list(np.linalg.eigvalsh(mats).T)


def _subset(data: tuple, keep: np.ndarray) -> tuple:
    """The chain-rule ``data`` at the nodes where ``keep`` is true."""
    t_vals, grads, comps = data
    return t_vals[keep], [g[keep] for g in grads], {key: arr[keep] for key, arr in comps.items()}


def _chain_rule_data(field: ScalarField, region: tuple, keep: np.ndarray) -> tuple:
    """What the chain rule takes from ``u`` where ``keep`` holds in ``region``,
    the same for every transform: the values, the gradient components and the
    second differences (``u''`` and ``u'/r`` on radial grids)."""
    grid = field.grid
    if grid.is_radial:
        g, upp, tang = _radial_derivatives(field, region)
        data = field.values[region], [g], {"upp": upp, "tang": tang}
    else:
        data = (field.values[region], [g[region] for g in gradient_components(field)],
                _hessian_component_arrays(grid, field.values, region))
    return _subset(data, keep)


def _eigen_columns(grid: Grid, transform: Transform, data: tuple) -> list:
    """Eigenvalues of D^2(phi o u) at the nodes of ``data``, via the chain
    rule: one array per eigenvalue."""
    t_vals, grads, comps = data
    d1 = np.atleast_1d(transform_d1(transform, t_vals))
    d2 = np.atleast_1d(transform_d2(transform, t_vals))
    if grid.is_radial:
        radial_eig = d2 * grads[0] ** 2 + d1 * comps["upp"]
        if grid.ambient_dim == 1:
            return [radial_eig]
        return [radial_eig, d1 * comps["tang"]]
    h_flat = {}
    for a in range(grid.ndim):
        h_flat[(a, a)] = d2 * grads[a] ** 2 + d1 * comps[(a, a)]
        for b_ax in range(a + 1, grid.ndim):
            h_flat[(a, b_ax)] = d2 * grads[a] * grads[b_ax] + d1 * comps[(a, b_ax)]
    return _sym_eig_columns(h_flat, grid.ndim)


@dataclass(frozen=True)
class ConcavityReport:
    transform: str
    check_mode: str            # "concavity" for increasing phi, "convexity" otherwise
    check_set_size: int
    extreme_eigenvalue: float  # max eigenvalue for concavity checks, min for convexity
    witness: tuple[float, ...]
    eps_floor: float
    layer_k: int
    margin: float
    verdict: str               # "holds strictly" | "holds weakly" | "fails"

    @property
    def passed(self) -> bool:
        return self.verdict != "fails"


def _resolve_floor(field: ScalarField, eps_floor) -> float:
    return 1e-3 * field.sup_norm() if eps_floor is None else float(eps_floor)


def _check_set(field: ScalarField, eps_floor: float | None, layer_k: int) -> tuple:
    """The floor, the depth and the region of a check set, the C-order
    indices of its nodes within the region, and the chain-rule data
    gathered at them; every transform's :func:`_report` reads it."""
    eps = _resolve_floor(field, eps_floor)
    region = _check_region(field.grid, layer_k)
    keep = field.values[region] >= eps
    nodes = np.flatnonzero(keep)
    if nodes.size == 0:
        raise EmptyCheckSetError("no interior nodes above eps_floor outside the layer")
    return eps, layer_k, region, nodes, _chain_rule_data(field, region, keep)


def _report(field: ScalarField, transform: Transform, check_set: tuple) -> ConcavityReport:
    """The verdict of one transform on a :func:`_check_set`, left unmodified."""
    eps, layer_k, region, nodes, data = check_set
    grid = field.grid
    # the transform is differentiable only on the open validity interval and
    # phi' or phi'' may blow up at an endpoint (sqrt_log at t = m): nodes at
    # or within rounding of one are excluded, so that a field maximum a few
    # ulps below m is treated like one equal to m
    away = np.ones(nodes.size, dtype=bool)
    for end in transform.validity:
        if np.isfinite(end):
            away &= np.abs(data[0] - end) > ENDPOINT_TOL * max(1.0, abs(end))
    if not np.all(away):
        nodes, data = nodes[away], _subset(data, away)
        if nodes.size == 0:
            raise EmptyCheckSetError("no interior nodes above eps_floor outside the layer")
    cols = _eigen_columns(grid, transform, data)
    # nodes whose eigen-data still overflow are excluded too
    finite = np.isfinite(cols[0])
    for col in cols[1:]:
        np.logical_and(finite, np.isfinite(col), out=finite)
    if not np.all(finite):
        nodes = nodes[finite]
        cols = [col[finite] for col in cols]
        if nodes.size == 0:
            raise EmptyCheckSetError("transform singular on the whole check set")
    scale = max(float(np.max(np.abs(col))) for col in cols)
    margin = STRICT_MARGIN_FACTOR * max(scale, 1e-300)
    sign = 1.0 if transform.increasing else -1.0
    node_ext = sign * cols[0]
    for col in cols[1:]:
        np.maximum(node_ext, sign * col, out=node_ext)
    # argmax returns the first of tied nodes, so the witness is the first
    # extreme node in C order for either orientation
    pos = int(np.argmax(node_ext))
    if node_ext[pos] < -margin:
        verdict = "holds strictly"
    elif node_ext[pos] <= margin:
        verdict = "holds weakly"
    else:
        verdict = "fails"
    local = np.unravel_index(nodes[pos], field.values[region].shape)
    return ConcavityReport(
        transform=transform.label,
        check_mode="concavity" if sign > 0 else "convexity",
        check_set_size=nodes.size,
        extreme_eigenvalue=sign * float(node_ext[pos]),
        witness=grid.node_coordinates(tuple(s.start + i for s, i in zip(region, local))),
        eps_floor=eps,
        layer_k=layer_k,
        margin=margin,
        verdict=verdict,
    )


def check_transform_concavity(
    field: ScalarField,
    transform: Transform,
    eps_floor: float | None = None,
    layer_k: int = LAYER_K,
) -> ConcavityReport:
    """Definiteness verdict for ``D^2(phi o u)`` over the check set.

    "holds strictly" requires the orientation-adjusted extreme eigenvalue
    to stay beyond ``1e-8`` times the spectral scale of the transformed
    Hessians on the check set; values inside the noise band give "holds
    weakly".  A decreasing ``phi`` is checked for convexity as the
    concavity of ``-phi(u)``: its eigenvalues enter with sign -1.
    """
    return _report(field, transform, _check_set(field, eps_floor, layer_k))


def chain_rule_hessian_eigenvalues(
    field: ScalarField, transform: Transform, eps_floor: float, layer_k: int = LAYER_K
) -> np.ndarray:
    region = _check_region(field.grid, layer_k)
    data = _chain_rule_data(field, region, field.values[region] >= eps_floor)
    return np.stack(_eigen_columns(field.grid, transform, data), axis=1)


def _transformed_values(transform: Transform, u: np.ndarray) -> np.ndarray:
    """``phi(u)`` where ``u > 0``, and 0 elsewhere."""
    w = np.zeros_like(u)
    pos = u > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        w[pos] = np.atleast_1d(transform_value(transform, u[pos]))
    return w


def direct_hessian_eigenvalues(
    field: ScalarField, transform: Transform, eps_floor: float, layer_k: int = LAYER_K
) -> np.ndarray:
    """Cross-validation path: second differences applied to the nodal
    values of ``phi(u)`` directly (box grids)."""
    grid = field.grid
    if grid.is_radial:
        raise ValueError("direct differencing path is for interval/box grids")
    region = _check_region(grid, layer_k)
    keep = field.values[region] >= eps_floor
    comps = _hessian_component_arrays(grid, _transformed_values(transform, field.values), region)
    h_flat = {key: arr[keep] for key, arr in comps.items()}
    return np.stack(_sym_eig_columns(h_flat, grid.ndim), axis=1)


def transformed_equation_residual(
    field: ScalarField,
    reaction: Reaction,
    transform: Transform,
    eps_floor: float,
    layer_k: int = LAYER_K,
) -> float:
    """Sup over the check set of ``Delta_h w - b(w, D_h w)`` for
    ``w = phi(u)``: the discrete residual of the transformed equation."""
    grid = field.grid
    mask = _check_mask(grid, field.values, eps_floor, layer_k)
    if not np.any(mask):
        raise EmptyCheckSetError("empty check set")
    u = field.values
    w_field = ScalarField(grid, _transformed_values(transform, u), validate=False)
    lap_w = apply_laplacian(w_field).values
    grad_sq = np.zeros_like(u)
    for g in gradient_components(w_field):
        grad_sq += g * g
    rhs = reactions.transformed_rhs(reaction, transform, u[mask], grad_sq[mask])
    return float(np.max(np.abs(lap_w[mask] - rhs)))


# ---------------------------------------------------------------------------
# power-exponent sweep


@dataclass(frozen=True)
class AlphaSweepResult:
    alphas: tuple[float, ...]
    verdicts: tuple[str, ...]
    largest_passing: float | None
    consistent: bool


def check_sweep_exponents(alphas) -> None:
    """Raise ``ValueError`` unless the exponents are sorted and lie in (0, 1)."""
    if any(not 0.0 < a < 1.0 for a in alphas):
        raise ValueError("sweep exponents must lie in (0, 1)")
    if list(alphas) != sorted(alphas):
        raise ValueError("sweep exponents must be sorted ascending")


def alpha_sweep(field: ScalarField, alphas) -> AlphaSweepResult:
    """Power-concavity verdicts over a sorted list of exponents in (0, 1),
    each on the default check set of :func:`check_transform_concavity`.

    Passing is monotone downward in the exponent for exact profiles; a
    pass above a fail in the sweep is flagged as a numerical artifact
    rather than silently reordered.
    """
    alphas = tuple(float(a) for a in alphas)
    check_sweep_exponents(alphas)
    # one check set and one gathering of its chain-rule data serve every exponent
    check_set = _check_set(field, None, LAYER_K) if alphas else None
    reports = [_report(field, reactions.power(a), check_set) for a in alphas]
    passing = [r.passed for r in reports]
    return AlphaSweepResult(
        alphas=alphas,
        verdicts=tuple(r.verdict for r in reports),
        largest_passing=max((a for a, ok in zip(alphas, passing) if ok), default=None),
        consistent=passing == sorted(passing, reverse=True),  # no pass above a fail
    )


# ---------------------------------------------------------------------------
# quasi-concavity by seeded midpoint sampling


@dataclass(frozen=True)
class QuasiconcavityReport:
    passed: bool
    levels: tuple[float, ...]
    sample_pairs: int
    seed: int
    slack: float
    failures: tuple[tuple[float, tuple[float, ...], float], ...]  # (level, midpoint, value)


def check_levels(levels, sup: float) -> None:
    """Raise ``ValueError`` unless there are levels and each lies strictly between 0 and ``sup``."""
    if len(levels) == 0:
        raise ValueError("at least one level is needed")
    if any(not 0.0 < t < sup for t in levels):
        raise ValueError("levels must lie strictly between 0 and the sup norm")


def check_sample_pairs(sample_pairs: int) -> None:
    """Raise ``ValueError`` unless ``sample_pairs`` is positive."""
    if sample_pairs <= 0:
        raise ValueError("sample_pairs must be positive")


def quasiconcavity_check(
    field: ScalarField,
    levels,
    sample_pairs: int,
    seed: int,
) -> QuasiconcavityReport:
    """Midpoint test of superlevel-set convexity.

    For every level ``t`` draw seeded pairs from ``{u >= t}``, map each
    midpoint to its nearest node and require ``u >= t - delta`` there,
    where ``delta = 2 h max|Du|`` absorbs one node snap plus the field's
    Lipschitz variation.  On radial grids each pair's radii point along
    seeded random directions and the midpoint is snapped by its norm.
    """
    grid = field.grid
    levels = tuple(float(t) for t in levels)
    check_levels(levels, field.sup_norm())
    check_sample_pairs(sample_pairs)
    rng = np.random.default_rng(seed)
    grads = gradient_components(field)
    grad_mag = np.sqrt(sum(g * g for g in grads))
    slack = 2.0 * max(grid.spacing) * float(np.max(grad_mag))
    values = field.values
    # the nodes as points, one row each: the radius on radial grids
    points = np.stack([c.ravel() for c in grid.coordinate_arrays()], axis=1)
    origin = np.array([ax[0] for ax in grid.axes])
    last = np.array(grid.shape) - 1
    failures = []
    for t in levels:
        nodes = np.flatnonzero(values.ravel() >= t)
        if nodes.size == 0:
            continue
        ends = points[nodes[rng.integers(0, nodes.size, size=(sample_pairs, 2))]]
        if grid.is_radial:
            dirs = rng.normal(size=(sample_pairs, 2, grid.ambient_dim))
            dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
            mids = 0.5 * (ends[:, 0] * dirs[:, 0] + ends[:, 1] * dirs[:, 1])
            # batched dots round as np.linalg.norm does on one vector; norm(axis=-1) may not
            mids = np.sqrt(mids[:, None, :] @ mids[:, :, None])[:, 0]
        else:
            mids = 0.5 * (ends[:, 0] + ends[:, 1])
        idx = np.clip(np.rint((mids - origin) / grid.spacing), 0, last).astype(int)
        vals = values[tuple(idx.T)]
        failures += [(t, tuple(float(c) for c in mids[k]), float(vals[k]))
                     for k in np.flatnonzero(vals < t - slack)]

    return QuasiconcavityReport(
        passed=not failures,
        levels=levels,
        sample_pairs=int(sample_pairs),
        seed=int(seed),
        slack=slack,
        failures=tuple(failures),
    )
