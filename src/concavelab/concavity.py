"""Numerical verification of transformed concavity/convexity on fields.

Checks run over a *check set*: interior nodes at least ``layer_k`` grid
layers away from the boundary and with field values above ``eps_floor``
(default one thousandth of the sup norm).  The claims being verified are
local and the transformations are singular at 0, so the margins are part
of every report.

The Hessian of ``phi(u)`` is evaluated through the chain rule
``phi''(u) g g^T + phi'(u) H(u)`` on centrally differenced gradients
``g`` and Hessians ``H``; the direct second differencing of the nodal
values of ``phi(u)`` is kept as a cross-validation path.  An increasing
``phi`` is checked for concavity of ``phi(u)``, a decreasing one for
convexity.
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
    "LevelSetCurvature",
    "EmptyCheckSetError",
    "hessian_at",
    "check_transform_concavity",
    "chain_rule_hessian_eigenvalues",
    "direct_hessian_eigenvalues",
    "transformed_equation_residual",
    "alpha_sweep",
    "quasiconcavity_check",
    "level_set_curvature",
]

STRICT_MARGIN_FACTOR = 1e-8
# nodes within ENDPOINT_TOL * max(1, |e|) of a finite endpoint e of a
# transform's validity interval are left out of its check set
ENDPOINT_TOL = 1e-10


class EmptyCheckSetError(ValueError):
    pass


# ---------------------------------------------------------------------------
# pointwise finite-difference Hessian


def _require_depth(grid: Grid, idx: tuple[int, ...], depth: int) -> None:
    for i, n in zip(idx, grid.shape):
        if min(i, n - 1 - i) < depth:
            raise ValueError(
                f"node {idx} is closer than {depth} layers to the boundary"
            )


def hessian_at(field: ScalarField, node) -> np.ndarray:
    """Second-difference Hessian at a node at least two layers inside.

    On radial grids the matrix is expressed in an orthonormal frame whose
    first axis is radial: ``diag(u'', u'/r, ..., u'/r)`` (all entries
    ``u''(0)`` at the origin); eigenvalues are unaffected by the frame.
    """
    grid = field.grid
    u = field.values
    idx = (int(node),) if np.isscalar(node) else tuple(int(i) for i in node)
    _require_depth(grid, idx, 2)
    if grid.is_radial:
        n_amb = grid.ambient_dim
        h = grid.spacing[0]
        k = idx[0]
        upp = (u[k + 1] - 2.0 * u[k] + u[k - 1]) / h**2
        mat = np.eye(n_amb)
        if k == 0:
            return 2.0 * (u[1] - u[0]) / h**2 * mat
        up = (u[k + 1] - u[k - 1]) / (2.0 * h)
        mat *= up / grid.axes[0][k]
        mat[0, 0] = upp
        return mat
    d = grid.ndim
    mat = np.empty((d, d))
    for a in range(d):
        ha = grid.spacing[a]
        ip = list(idx)
        im = list(idx)
        ip[a] += 1
        im[a] -= 1
        mat[a, a] = (u[tuple(ip)] - 2.0 * u[idx] + u[tuple(im)]) / ha**2
        for b_ax in range(a + 1, d):
            hb = grid.spacing[b_ax]
            pp = list(idx); pp[a] += 1; pp[b_ax] += 1
            pm = list(idx); pm[a] += 1; pm[b_ax] -= 1
            mp = list(idx); mp[a] -= 1; mp[b_ax] += 1
            mm = list(idx); mm[a] -= 1; mm[b_ax] -= 1
            val = (
                u[tuple(pp)] - u[tuple(pm)] - u[tuple(mp)] + u[tuple(mm)]
            ) / (4.0 * ha * hb)
            mat[a, b_ax] = mat[b_ax, a] = val
    return mat


# ---------------------------------------------------------------------------
# vectorized machinery over the check set


def _check_mask(grid: Grid, values: np.ndarray, eps_floor: float, layer_k: int) -> np.ndarray:
    if layer_k < 2:
        raise ValueError("layer_k must be at least 2 for the Hessian stencils")
    mask = values >= eps_floor
    if grid.is_radial:
        mask[grid.shape[0] - layer_k :] = False
    else:
        for axis, n in enumerate(grid.shape):
            idx = np.arange(n)
            deep = np.minimum(idx, n - 1 - idx) >= layer_k
            shape = [1] * grid.ndim
            shape[axis] = n
            mask = mask & deep.reshape(shape)
    return mask


def _hessian_component_arrays(grid: Grid, u: np.ndarray) -> dict:
    """Full-grid second-difference arrays (garbage within ``layer_k`` of the
    boundary; callers mask)."""
    comps = {}
    pad = [(1, 1)] * grid.ndim
    up = np.pad(u, pad, mode="edge")  # edge rows are masked away downstream

    def sh(*offsets):
        # full-shape view of the padded array shifted by the given offsets
        return up[tuple(slice(1 + o, up.shape[a] - 1 + o) for a, o in enumerate(offsets))]

    d = grid.ndim
    for a in range(d):
        off = [0] * d
        off[a] = 1
        plus = sh(*off)
        off[a] = -1
        minus = sh(*off)
        comps[(a, a)] = (plus - 2.0 * u + minus) / grid.spacing[a] ** 2
        for b_ax in range(a + 1, d):
            off = [0] * d
            off[a], off[b_ax] = 1, 1
            pp = sh(*off)
            off[a], off[b_ax] = 1, -1
            pm = sh(*off)
            off[a], off[b_ax] = -1, 1
            mp = sh(*off)
            off[a], off[b_ax] = -1, -1
            mm = sh(*off)
            comps[(a, b_ax)] = (pp - pm - mp + mm) / (
                4.0 * grid.spacing[a] * grid.spacing[b_ax]
            )
    return comps


def _sym_eigs(h_flat: dict, d: int, npts: int) -> np.ndarray:
    """Eigenvalues (npts, d) of symmetric matrices given by component dict."""
    if d == 1:
        return h_flat[(0, 0)].reshape(-1, 1)
    if d == 2:
        a, c, b_val = h_flat[(0, 0)], h_flat[(1, 1)], h_flat[(0, 1)]
        mean = 0.5 * (a + c)
        rad = np.sqrt(0.25 * (a - c) ** 2 + b_val**2)
        return np.stack([mean - rad, mean + rad], axis=1)
    mats = np.empty((npts, d, d))
    for a in range(d):
        mats[:, a, a] = h_flat[(a, a)]
        for b_ax in range(a + 1, d):
            mats[:, a, b_ax] = mats[:, b_ax, a] = h_flat[(a, b_ax)]
    return np.linalg.eigvalsh(mats)


def _transformed_eigendata(field: ScalarField, transform: Transform, mask: np.ndarray):
    """Eigenvalues of D^2(phi o u) at the masked nodes, via the chain rule."""
    grid = field.grid
    u = field.values
    t_vals = u[mask]
    d1 = np.atleast_1d(transform_d1(transform, t_vals))
    d2 = np.atleast_1d(transform_d2(transform, t_vals))

    if grid.is_radial:
        g = gradient_components(field)[0]
        h_spacing = grid.spacing[0]
        upp = np.zeros_like(u)
        upp[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h_spacing**2
        upp[0] = 2.0 * (u[1] - u[0]) / h_spacing**2
        r = grid.axes[0].copy()
        tang_u = np.empty_like(u)
        tang_u[1:] = g[1:] / r[1:]
        tang_u[0] = upp[0]
        gm, uppm, tangm = g[mask], upp[mask], tang_u[mask]
        radial_eig = d2 * gm**2 + d1 * uppm
        tangential_eig = d1 * tangm
        if grid.ambient_dim == 1:
            eigs = radial_eig.reshape(-1, 1)
        else:
            eigs = np.stack([radial_eig, tangential_eig], axis=1)
        return eigs, None

    grads = gradient_components(field)
    comps = _hessian_component_arrays(grid, u)
    d = grid.ndim
    npts = int(np.count_nonzero(mask))
    h_flat = {}
    for a in range(d):
        h_flat[(a, a)] = d2 * grads[a][mask] ** 2 + d1 * comps[(a, a)][mask]
        for b_ax in range(a + 1, d):
            h_flat[(a, b_ax)] = (
                d2 * grads[a][mask] * grads[b_ax][mask] + d1 * comps[(a, b_ax)][mask]
            )
    return _sym_eigs(h_flat, d, npts), h_flat


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
    scale: float
    verdict: str               # "holds strictly" | "holds weakly" | "fails"

    @property
    def passed(self) -> bool:
        return self.verdict != "fails"


def _resolve_floor(field: ScalarField, eps_floor) -> float:
    return 1e-3 * field.sup_norm() if eps_floor is None else float(eps_floor)


def check_transform_concavity(
    field: ScalarField,
    transform: Transform,
    eps_floor: float | None = None,
    layer_k: int = 3,
) -> ConcavityReport:
    """Definiteness verdict for ``D^2(phi o u)`` over the check set.

    "holds strictly" requires the orientation-adjusted extreme eigenvalue
    to stay beyond ``1e-8`` times the spectral scale of the transformed
    Hessians on the check set; values inside the noise band give "holds
    weakly".
    """
    grid = field.grid
    eps = _resolve_floor(field, eps_floor)
    mask = _check_mask(grid, field.values, eps, layer_k)
    # the transform is differentiable only on the open validity interval and
    # phi' or phi'' may blow up at an endpoint (sqrt_log at t = m): nodes at
    # or within rounding of one are excluded, so that a field maximum a few
    # ulps below m is treated like one equal to m
    for end in transform.validity:
        if np.isfinite(end):
            mask &= np.abs(field.values - end) > ENDPOINT_TOL * max(1.0, abs(end))
    npts = int(np.count_nonzero(mask))
    if npts == 0:
        raise EmptyCheckSetError("no interior nodes above eps_floor outside the layer")
    eigs, _ = _transformed_eigendata(field, transform, mask)
    # nodes whose eigen-data still overflow are excluded too
    finite_rows = np.all(np.isfinite(eigs), axis=1)
    if not np.all(finite_rows):
        eigs = eigs[finite_rows]
        flat_keep = np.flatnonzero(mask.ravel())[finite_rows]
        mask = np.zeros_like(mask.ravel())
        mask[flat_keep] = True
        mask = mask.reshape(grid.shape)
        npts = int(np.count_nonzero(mask))
        if npts == 0:
            raise EmptyCheckSetError("transform singular on the whole check set")
    scale = float(np.max(np.abs(eigs)))
    margin = STRICT_MARGIN_FACTOR * max(scale, 1e-300)
    if transform.increasing:
        node_ext = np.max(eigs, axis=1)
        pos = int(np.argmax(node_ext))
        extreme = float(node_ext[pos])
        if extreme < -margin:
            verdict = "holds strictly"
        elif extreme <= margin:
            verdict = "holds weakly"
        else:
            verdict = "fails"
        mode = "concavity"
    else:
        node_ext = np.min(eigs, axis=1)
        pos = int(np.argmin(node_ext))
        extreme = float(node_ext[pos])
        if extreme > margin:
            verdict = "holds strictly"
        elif extreme >= -margin:
            verdict = "holds weakly"
        else:
            verdict = "fails"
        mode = "convexity"
    flat_indices = np.flatnonzero(mask.ravel())
    witness_idx = np.unravel_index(flat_indices[pos], grid.shape)
    return ConcavityReport(
        transform=transform.label,
        check_mode=mode,
        check_set_size=npts,
        extreme_eigenvalue=extreme,
        witness=grid.node_coordinates(witness_idx),
        eps_floor=eps,
        layer_k=layer_k,
        margin=margin,
        scale=scale,
        verdict=verdict,
    )


def chain_rule_hessian_eigenvalues(
    field: ScalarField, transform: Transform, eps_floor: float, layer_k: int = 3
) -> np.ndarray:
    mask = _check_mask(field.grid, field.values, eps_floor, layer_k)
    eigs, _ = _transformed_eigendata(field, transform, mask)
    return eigs


def direct_hessian_eigenvalues(
    field: ScalarField, transform: Transform, eps_floor: float, layer_k: int = 3
) -> np.ndarray:
    """Cross-validation path: second differences applied to the nodal
    values of ``phi(u)`` directly (box grids)."""
    grid = field.grid
    if grid.is_radial:
        raise ValueError("direct differencing path is for interval/box grids")
    mask = _check_mask(grid, field.values, eps_floor, layer_k)
    u = field.values
    w = np.zeros_like(u)
    pos = u > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        w[pos] = np.atleast_1d(transform_value(transform, u[pos]))
    comps = _hessian_component_arrays(grid, w)
    h_flat = {key: arr[mask] for key, arr in comps.items()}
    return _sym_eigs(h_flat, grid.ndim, int(np.count_nonzero(mask)))


def transformed_equation_residual(
    field: ScalarField,
    reaction: Reaction,
    transform: Transform,
    eps_floor: float,
    layer_k: int = 3,
) -> float:
    """Sup over the check set of ``Delta_h w - b(w, D_h w)`` for
    ``w = phi(u)``: the discrete residual of the transformed equation."""
    grid = field.grid
    mask = _check_mask(grid, field.values, eps_floor, layer_k)
    if not np.any(mask):
        raise EmptyCheckSetError("empty check set")
    u = field.values
    w = np.zeros_like(u)
    pos = u > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        w[pos] = np.atleast_1d(transform_value(transform, u[pos]))
    w_field = ScalarField(grid, w, validate=False)
    lap_w = apply_laplacian(w_field).values
    grads = gradient_components(w_field)
    grad_sq = np.zeros_like(w)
    for g in grads:
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
    reports: tuple[ConcavityReport, ...]


def alpha_sweep(
    field: ScalarField,
    alphas,
    eps_floor: float | None = None,
    layer_k: int = 3,
) -> AlphaSweepResult:
    """Power-concavity verdicts over a sorted list of exponents in (0, 1).

    Passing is monotone downward in the exponent for exact profiles; a
    pass above a fail in the sweep is flagged as a numerical artifact
    rather than silently reordered.
    """
    alphas = tuple(float(a) for a in alphas)
    if any(not 0.0 < a < 1.0 for a in alphas):
        raise ValueError("sweep exponents must lie in (0, 1)")
    if list(alphas) != sorted(alphas):
        raise ValueError("sweep exponents must be sorted ascending")
    reports = tuple(
        check_transform_concavity(field, reactions.power(a), eps_floor, layer_k)
        for a in alphas
    )
    passing = [r.passed for r in reports]
    largest = None
    for a, ok in zip(alphas, passing):
        if ok:
            largest = a
    consistent = True
    seen_fail = False
    for ok in passing:
        if not ok:
            seen_fail = True
        elif seen_fail:
            consistent = False
    return AlphaSweepResult(
        alphas=alphas,
        verdicts=tuple(r.verdict for r in reports),
        largest_passing=largest,
        consistent=consistent,
        reports=reports,
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


def _nearest_node_value(grid: Grid, values: np.ndarray, point: np.ndarray) -> tuple[tuple[int, ...], float]:
    idx = []
    for a, (ax, h) in enumerate(zip(grid.axes, grid.spacing)):
        j = int(round((point[a] - ax[0]) / h))
        idx.append(min(max(j, 0), grid.shape[a] - 1))
    idx = tuple(idx)
    return idx, float(values[idx])


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
    Lipschitz variation.
    """
    grid = field.grid
    levels = tuple(float(t) for t in levels)
    sup = field.sup_norm()
    if any(not 0.0 < t < sup for t in levels):
        raise ValueError("levels must lie strictly between 0 and the sup norm")
    if sample_pairs <= 0:
        raise ValueError("sample_pairs must be positive")
    rng = np.random.default_rng(seed)
    grads = gradient_components(field)
    grad_mag = np.sqrt(sum(g * g for g in grads))
    slack = 2.0 * max(grid.spacing) * float(np.max(grad_mag))
    values = field.values
    failures = []

    if grid.is_radial:
        n_amb = grid.ambient_dim
        r = grid.axes[0]
        for t in levels:
            nodes = np.flatnonzero(values >= t)
            if nodes.size == 0:
                continue
            picks = rng.integers(0, nodes.size, size=(sample_pairs, 2))
            dirs = rng.normal(size=(sample_pairs, 2, n_amb))
            dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
            for (i1, i2), (d1v, d2v) in zip(picks, dirs):
                x1 = r[nodes[i1]] * d1v
                x2 = r[nodes[i2]] * d2v
                mid_r = float(np.linalg.norm(0.5 * (x1 + x2)))
                idx, val = _nearest_node_value(grid, values, np.array([mid_r]))
                if val < t - slack:
                    failures.append((t, (mid_r,), val))
    else:
        coords = np.stack([c.ravel() for c in grid.coordinate_arrays()], axis=1)
        flat = values.ravel()
        for t in levels:
            nodes = np.flatnonzero(flat >= t)
            if nodes.size == 0:
                continue
            picks = rng.integers(0, nodes.size, size=(sample_pairs, 2))
            mids = 0.5 * (coords[nodes[picks[:, 0]]] + coords[nodes[picks[:, 1]]])
            for mid in mids:
                idx, val = _nearest_node_value(grid, values, mid)
                if val < t - slack:
                    failures.append((t, tuple(float(c) for c in mid), val))

    return QuasiconcavityReport(
        passed=not failures,
        levels=levels,
        sample_pairs=int(sample_pairs),
        seed=int(seed),
        slack=slack,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# level-set geometry


@dataclass(frozen=True)
class LevelSetCurvature:
    ii_min: float            # smallest second-fundamental-form eigenvalue
    mean_curvature: float    # trace of the second fundamental form
    identity_residual: float # Delta_h v - (<H g, g>/|g|^2 + K |g|) at the node


def level_set_curvature(
    field: ScalarField, node, grad_floor: float = 1e-6
) -> LevelSetCurvature:
    """Second fundamental form ``<H z, z>/|Dv|`` of the level set through a
    node, its mean curvature, and the decomposition residual of the
    Laplacian along normal/tangential directions."""
    grid = field.grid
    if grid.ambient_dim < 2:
        raise ValueError("level sets of one-dimensional fields are points")
    idx = (int(node),) if np.isscalar(node) else tuple(int(i) for i in node)
    hess = hessian_at(field, idx)
    if grid.is_radial:
        g_all = gradient_components(field)[0]
        g = np.zeros(grid.ambient_dim)
        g[0] = g_all[idx[0]]
    else:
        grads = gradient_components(field)
        g = np.array([comp[idx] for comp in grads])
    gnorm = float(np.linalg.norm(g))
    if gnorm < grad_floor:
        raise ValueError(f"gradient magnitude {gnorm:.3e} below floor {grad_floor:.1e}")
    d = len(g)
    basis = np.eye(d)
    basis[:, 0] = g / gnorm
    q_mat, _ = np.linalg.qr(basis)
    # keep the first column aligned with the gradient direction
    if float(q_mat[:, 0] @ g) < 0:
        q_mat = -q_mat
    tangent = q_mat[:, 1:]
    ii_mat = tangent.T @ hess @ tangent / gnorm
    eigs = np.linalg.eigvalsh(ii_mat)
    mean_curv = float(np.trace(ii_mat))
    lap = float(np.trace(hess))
    normal_part = float(g @ hess @ g) / gnorm**2
    residual = lap - (normal_part + mean_curv * gnorm)
    return LevelSetCurvature(float(eigs[0]), mean_curv, abs(residual))
