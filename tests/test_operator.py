"""The per-grid operator: its tridiagonal LAPACK backend against a sparse-LU
reference built here, the stencil rows its products share with
``apply_laplacian`` and ``neg_laplacian_matrix``, its immutability, the
inexact box Newton steps against a Newton loop of direct sparse solves, and
guards on what left the package and on what importing it loads."""

import ast
import importlib
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import yaml
from hypothesis import example, given, settings, strategies as st

import concavelab
from concavelab import ScalarField, ball, box, interval, make_grid, principal_eigenpair, solver
from concavelab import cli, linops, reactions
from concavelab.cli import main
from concavelab.linops import (
    LinearSolveError,
    apply_laplacian,
    neg_laplacian_matrix,
    solve_poisson,
    solve_shifted,
)

PACKAGE = Path(concavelab.__file__).parent


def _reference_matrix(g):
    """``neg_laplacian_matrix(g)``, checked against the stencil of
    :func:`apply_laplacian` on a random field before it is trusted."""
    a_mat = neg_laplacian_matrix(g)
    x = np.random.default_rng(0).standard_normal(g.num_interior)
    stencil = -apply_laplacian(ScalarField.from_interior(g, x)).interior()
    assert np.max(np.abs(a_mat @ x - stencil)) <= 1e-12 * np.max(np.abs(stencil))
    return a_mat


def _lu_lambda1(a_mat):
    """Principal eigenvalue by 100 steps of inverse iteration on the sparse LU
    of ``a_mat``.  Each step shrinks the error by ``lambda_1/lambda_2``, below
    1/3 on these grids, so the iterate ends far below the rounding noise of
    the Rayleigh quotient."""
    lu = spla.splu(a_mat.tocsc())
    v = np.ones(a_mat.shape[0])
    for _ in range(100):
        v = lu.solve(v)
        v /= np.max(np.abs(v))
    av = a_mat @ v
    lam = float(v @ av) / float(v @ v)
    assert np.max(np.abs(av - lam * v)) <= 1e-8 * lam
    return lam


@st.composite
def tridiagonal_grids(draw):
    """Intervals and balls of ambient dimension 1-3 with 5-801 nodes."""
    n = draw(st.integers(5, 801))
    size = draw(st.floats(0.3, 3.0))
    dim = draw(st.integers(0, 3))  # 0: an interval
    return make_grid(interval(size) if dim == 0 else ball(size, dim), n)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tridiagonal_grids(), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_tridiagonal_backend_matches_sparse_lu(g, seed, n_floor):
    a_mat = _reference_matrix(g)
    m = g.num_interior
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(m)

    # Newton Jacobians: indefinite shifts, a few nodes at the floor -1e6
    shift = rng.uniform(-10.0, 10.0, m)
    shift[rng.choice(m, min(n_floor, m), replace=False)] = -1e6
    ref = spla.splu((a_mat - sp.diags(shift)).tocsc()).solve(b)
    x = solve_shifted(g, shift, b)
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    ref = spla.splu(a_mat.tocsc()).solve(b)
    # random data on fine grids leave a relative residual of up to about 1e-11
    x = solve_poisson(ScalarField.from_interior(g, b), 1e-9).interior()
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    pair = principal_eigenpair(g)
    assert pair.iterations > 0
    lam = _lu_lambda1(a_mat)
    assert abs(pair.lambda1 - lam) <= 1e-10 * lam


@pytest.mark.parametrize("domain", [interval(1.0), ball(1.0, 3)], ids=["interval", "ball"])
@pytest.mark.parametrize("n", [3, 4])
def test_systems_below_lapack_order(domain, n):
    # one unknown is a division, since scipy's dgtsv wrapper takes at least two
    g = make_grid(domain, n)
    a_mat = neg_laplacian_matrix(g)
    b = np.arange(1.0, g.num_interior + 1.0)
    shift = np.full(g.num_interior, 0.5)
    ref = spla.splu((a_mat - sp.diags(shift)).tocsc()).solve(b)
    assert np.allclose(solve_shifted(g, shift, b), ref, rtol=1e-13, atol=0.0)
    ref = spla.splu(a_mat.tocsc()).solve(b)
    assert np.allclose(solve_poisson(ScalarField.from_interior(g, b)).interior(), ref,
                       rtol=1e-13, atol=0.0)
    assert principal_eigenpair(g).iterations > 0


def _singular_shift(g):
    """The row sums of ``-Laplacian_h``: subtracting them leaves rows that
    sum to zero, exactly in floating point on intervals and 1-D balls."""
    return neg_laplacian_matrix(g) @ np.ones(g.num_interior)


# n = 3 leaves one unknown on intervals and 1-D boxes: one division, whose zero
# pivot is found before dividing, so no RuntimeWarning (an error here) escapes
@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(5, 801), st.floats(0.3, 3.0), st.sampled_from(["interval", "box", "ball"]))
@example(3, 1.0, "interval")
@example(3, 1.5, "box")
def test_singular_shifted_matrix_raises(n, size, kind):
    g = make_grid({"interval": interval, "box": box}.get(kind, lambda s: ball(s, 1))(size), n)
    with pytest.raises(LinearSolveError, match="zero pivot at unknown"):
        solve_shifted(g, _singular_shift(g), np.ones(g.num_interior))


def test_singular_newton_step_exits_1_with_failure_json(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "_jacobian_diagonal",
                        lambda reaction, u, floor: _singular_shift(make_grid(interval(1.0), 41)))
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({"domain": {"kind": "interval", "halfwidth": 1.0},
                                   "resolution": 41, "reaction": {"kind": "log_schrodinger"}}))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert "singular" in json.loads((out / "failure.json").read_text())["error"]


def _loop_radial_matrix(g):
    """The radial ``-Laplacian_h`` assembled entry by entry, as sparse LU was
    given it before the diagonals were vectorized."""
    m, h, n_amb, r = g.num_interior, g.spacing[0], g.ambient_dim, g.axes[0]
    rows, cols, vals = [0, 0], [0, 1], [2.0 * n_amb / h**2, -2.0 * n_amb / h**2]
    for k in range(1, m):
        c = 1.0 / h**2
        d = (n_amb - 1) / (2.0 * h * r[k])
        rows += [k, k]
        cols += [k, k - 1]
        vals += [2.0 * c, -(c - d)]
        if k + 1 < m:
            rows.append(k)
            cols.append(k + 1)
            vals.append(-(c + d))
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m))


@pytest.mark.parametrize("n", [3, 4, 41, 801])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radial_operator_equals_the_loop_assembly(n, dim):
    g = make_grid(ball(1.3, dim), n)
    ref = _loop_radial_matrix(g)
    assert abs(neg_laplacian_matrix(g) - ref).max() == 0.0
    x = np.random.default_rng(n).standard_normal(g.num_interior)
    assert np.array_equal(g.operator.apply(x), ref @ x)


STENCIL_CASES = [
    (interval(1.3), 4), (interval(0.6), 57),
    (ball(1.3, 1), 3), (ball(1.3, 1), 41), (ball(0.8, 2), 4), (ball(0.8, 2), 41),
    (ball(2.1, 3), 3), (ball(2.1, 3), 41),
    (box(0.7), 33), (box(0.6, 1.9), (9, 14)), (box(1.1, 0.3), (3, 17)),
    (box(0.4, 1.1, 2.9), (7, 9, 6)), (box(1.0, 2.0, 0.5), (3, 5, 4)),
]


@pytest.mark.parametrize("domain, shape", STENCIL_CASES,
                         ids=[f"{d.kind}{d.dim}-{n}" for d, n in STENCIL_CASES])
def test_operator_laplacian_and_matrix_share_the_stencil_rows(domain, shape):
    g = make_grid(domain, shape)
    x = np.random.default_rng(g.num_interior).standard_normal(g.num_interior)
    applied = g.operator.apply(x)
    assert np.array_equal(applied, -apply_laplacian(ScalarField.from_interior(g, x)).interior())
    assert np.array_equal(applied, neg_laplacian_matrix(g) @ x)


@pytest.mark.parametrize("domain", [interval(1.0), box(1.0, 2.0), ball(1.0, 3)],
                         ids=["interval", "box", "ball"])
def test_one_immutable_operator_per_grid(domain, monkeypatch):
    builds = []
    build = linops.GridOperator.for_grid

    def slow_build(grid):
        builds.append(grid)
        time.sleep(0.01)  # a window in which an unguarded second build would start
        return build(grid)

    monkeypatch.setattr(linops.GridOperator, "for_grid", staticmethod(slow_build))
    g = make_grid(domain, 21)
    seen = []
    start = threading.Barrier(8)

    def first_use():
        start.wait()
        seen.append(g.operator)

    threads = [threading.Thread(target=first_use) for _ in range(8)]
    interval_before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval_before)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1 and len(seen) == 8
    op = g.operator
    assert all(other is op for other in seen)
    assert principal_eigenpair(g) is op.eigenpair
    assert g.quadrature_weights() is op.weights
    for array in (op.weights, g.interior_mask, *g.axes):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_no_grid_cache_and_no_splu_in_the_package():
    for domain in (interval(1.0), box(1.0, 1.0), ball(1.0, 2)):
        g = make_grid(domain, 21)
        solver.newton_solve(g, concavelab.log_schrodinger(),
                            solver.initial_guess(g, concavelab.log_schrodinger()))
        assert not hasattr(g, "_cache")
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            assert "splu" not in names, f"{path.name}:{getattr(node, 'lineno', '?')}"


def test_no_module_of_the_package_imports_scipy_sparse_linalg():
    # box Newton steps run linops.minres in DST-I coefficients, so no module
    # needs scipy's Krylov solvers or its LinearOperator
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
            else:
                continue
            assert not [name for name in imported if name == "scipy.sparse.linalg"
                        or name.startswith("scipy.sparse.linalg.")], f"{path.name}:{node.lineno}"


def test_no_module_of_the_package_names_solve_ivp_or_imports_scipy_optimize():
    # one-dimensional shots run oned's own DOP853 step on a literal tableau
    # and locate their events by Newton's method, and W0 is oned's own
    # Newton iteration
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
            else:
                imported = []
            assert not [name for name in imported
                        for banned in ("scipy.integrate", "scipy.optimize", "scipy.special")
                        if name == banned or name.startswith(banned + ".")], \
                f"{path.name}:{node.lineno}"
            named = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                named |= {node.name.rsplit(".", 1)[-1], node.asname}
            assert not named & {"solve_ivp", "OdeSolution"}, \
                f"{path.name}:{getattr(node, 'lineno', '?')}"


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _sparse_matrix_builders(tree) -> set:
    """The top-level definitions of a module that call a ``scipy.sparse``
    function (``scipy.sparse.linalg`` solvers and operators do not count)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                bound[alias.asname or head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    builders = set()
    for top in tree.body:
        for node in ast.walk(top):
            name = _dotted(node.func) if isinstance(node, ast.Call) else None
            if name:
                head, _, rest = name.partition(".")
                full = ".".join(filter(None, [bound.get(head, head), rest]))
                if full.rpartition(".")[0] == "scipy.sparse":
                    builders.add(getattr(top, "name", "<module>"))
    return builders


def test_no_sparse_matrix_on_a_solve_path():
    # box solves in a fresh interpreter leave scipy.sparse unimported, and only
    # neg_laplacian_matrix calls it
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
             "from concavelab import box, log_schrodinger, make_grid, solver; "
             "r = log_schrodinger(); "
             "gs = [make_grid(box(*[1.0] * len(s)), s) for s in ((41, 33), (13, 15, 11))]; "
             "assert all(solver.newton_solve(g, r, solver.initial_guess(g, r)).converged "
             "for g in gs); print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"
    builders = {path.name: _sparse_matrix_builders(ast.parse(path.read_text()))
                for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in builders.items() if found} == {
        "linops.py": {"neg_laplacian_matrix"}}


KIND_NAMES = set(reactions.REACTIONS) | set(reactions.TRANSFORMS)


def _kind_names(nodes) -> set:
    """The reaction and transform kind names among the string constants in ``nodes``."""
    return {n.value for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value in KIND_NAMES}


def test_reaction_and_transform_kinds_are_dispatched_in_reactions_only():
    # outside reactions.py no module compares a ``.kind`` to a reaction or
    # transform kind name or keeps its own table of those kinds
    assert not hasattr(cli, "REACTION_KINDS") and not hasattr(cli, "TRANSFORM_KINDS")
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "reactions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(isinstance(o, ast.Attribute) and o.attr == "kind" for o in operands):
                    assert not _kind_names(operands), where
            if isinstance(node, ast.Dict):
                assert len(_kind_names(k for k in node.keys if k is not None)) < 2, where
            if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
                assert len(_kind_names(node.elts)) < 2, where


MODULES = ["concavelab", *sorted(f"concavelab.{path.stem}" for path in PACKAGE.glob("*.py")
                                 if path.stem != "__init__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a retired name left in an export list would fail ``import *`` here and
    # go unmeasured, without a word, in tracers that read ``__all__``
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []


def _direct_newton(g, reaction, u, tol):
    """The damped, projected Newton loop of ``solver.newton_solve`` with each
    step a sparse direct solve of the clamped Jacobian, built here."""
    a_mat = _reference_matrix(g)

    def residual(v):
        return a_mat @ v - reactions.f(reaction, v)

    res = residual(u)
    for _ in range(solver.NEWTON_MAX_ITER):
        if np.max(np.abs(res)) <= tol * max(1.0, np.max(u)):
            return u
        shift = solver._jacobian_diagonal(reaction, u, solver.JAC_FLOOR)
        delta = spla.spsolve((a_mat - sp.diags(shift)).tocsc(), -res)
        for k in range(solver.MAX_BACKTRACKS + 1):
            u_try = np.maximum(u + 0.5**k * delta, 0.0)
            res_try = residual(u_try)
            if np.linalg.norm(res_try) < np.linalg.norm(res):
                break
        else:
            raise AssertionError("the direct Newton line search failed")
        u, res = u_try, res_try
    raise AssertionError("the direct Newton loop did not converge")


@pytest.mark.parametrize("reaction",
                         [concavelab.log_schrodinger(), concavelab.lane_emden(2.0, 1.0)],
                         ids=["log", "lane_emden"])
@pytest.mark.parametrize("shape", [(41, 41), (13, 15, 11)], ids=["2d", "3d"])
def test_inexact_box_newton_matches_direct_newton(shape, reaction):
    # box steps are MINRES solves to Newton's forcing term; the converged
    # field must agree with exact steps to the solve tolerance
    tol = 1e-10
    g = make_grid(box(*[1.0] * len(shape)), shape)
    guess = solver.initial_guess(g, reaction)
    result = solver.newton_solve(g, reaction, guess, tol)
    assert result.converged
    ref = _direct_newton(g, reaction, guess.interior().copy(), tol)
    assert np.max(np.abs(result.field.interior() - ref)) <= tol * max(1.0, result.sup_norm)


def _counting_minres(monkeypatch):
    """Record the iterations of each MINRES sweep of ``linops`` in the list returned."""
    sweeps = []
    minres = linops.minres

    def counted(*args, **kwargs):
        out = minres(*args, **kwargs)
        sweeps.append(out[2])
        return out

    monkeypatch.setattr(linops, "minres", counted)
    return sweeps


@pytest.mark.parametrize("rtol", [None, linops.FORCING_CAP], ids=["full", "forcing-cap"])
@pytest.mark.parametrize("shape", [(81, 81), (13, 15, 11)], ids=["2d", "3d"])
def test_floor_jacobian_solves_within_minres_maxiter(shape, rtol, monkeypatch):
    # 1% of the diagonal at the Newton floor: the shifted preconditioner must
    # not follow those nodes, and a call without a goal meets SHIFTED_RESIDUAL
    g = make_grid(box(*[1.0] * len(shape)), shape)
    m = g.num_interior
    rng = np.random.default_rng(7)
    shift = rng.uniform(-10.0, 10.0, m)
    shift[rng.choice(m, m // 100, replace=False)] = solver.JAC_FLOOR
    b = rng.standard_normal(m)
    sweeps = _counting_minres(monkeypatch)
    x = solve_shifted(g, shift, b) if rtol is None else solve_shifted(g, shift, b, rtol)
    goal = linops.SHIFTED_RESIDUAL if rtol is None else rtol
    jacobian = neg_laplacian_matrix(g) - sp.diags(shift)
    assert np.linalg.norm(jacobian @ x - b) <= goal * np.linalg.norm(b)
    assert 0 < sum(sweeps) < linops.MINRES_MAXITER
    # its first sweep is no slower than one preconditioned by the plain Poisson solve
    poisson_sweep = [0]
    poisson = spla.LinearOperator(jacobian.shape, matvec=g.operator.inverse, dtype=float)
    spla.minres(jacobian, b, rtol=linops.MINRES_MARGIN * goal, M=poisson,
                callback=lambda xk: poisson_sweep.__setitem__(0, poisson_sweep[0] + 1))
    assert sweeps[0] <= 1.25 * poisson_sweep[0]


@pytest.mark.parametrize("rtol", [None, 1e-3])
def test_minres_failure_names_the_goal_it_used(rtol, monkeypatch):
    g = make_grid(box(1.0, 2.0), 21)
    shift = np.random.default_rng(1).uniform(-10.0, 10.0, g.num_interior)
    monkeypatch.setattr(linops, "MINRES_MAXITER", 2)
    args = (g, shift, np.ones(g.num_interior)) + (() if rtol is None else (rtol,))
    with pytest.raises(LinearSolveError, match="1.0e-09" if rtol is None else "1.0e-03"):
        solve_shifted(*args)


def test_importing_the_cli_loads_no_single_backend_module():
    # each scipy module is imported where the one backend that needs it is
    # called: scipy.linalg by the tridiagonal solve, scipy.fft by long box axes
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import concavelab.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_scipy_linalg_loads_with_the_first_tridiagonal_solve(tmp_path):
    # the exact 1-D experiments and a Lane-Emden solve on a box (MINRES in
    # DST-I coefficients) never reach dgtsv; an interval solve does
    configs = {
        "oned-table": {"b_grid": {"lo": 0.5, "hi": 1.5, "count": 3}, "samples_per_unit": 200},
        "tensor-check": {"halfwidths": [1.0, 1.0], "resolution": 21},
        "gausson-residual": {"domain": {"kind": "box", "halfwidths": [1.0, 1.0]},
                             "resolutions": [21, 41]},
    }
    runs = []
    for experiment, data in configs.items():
        cfg = tmp_path / f"{experiment}.yaml"
        cfg.write_text(yaml.safe_dump(data))
        runs.append(f"assert main([{experiment!r}, '--config', {str(cfg)!r}, "
                    f"'--out', {str(tmp_path / experiment)!r}]) == 0")
    probe = "; ".join([
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r})",
        "from concavelab import box, interval, lane_emden, make_grid, solver",
        "from concavelab.cli import main",
        *runs,
        "g = make_grid(box(1.0, 1.0), 21); r = lane_emden(2.0, 1.0)",
        "assert solver.newton_solve(g, r, solver.initial_guess(g, r)).converged",
        "print('scipy.linalg' in sys.modules)",
        "g = make_grid(interval(1.0), 21)",
        "assert solver.newton_solve(g, r, solver.initial_guess(g, r)).converged",
        "print('scipy.linalg' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.split()[-2:] == ["False", "True"]


def test_one_dimensional_solves_load_neither_scipy_integrate_nor_optimize():
    # the shooting pass holds DOP853's tableau as literals and W0 is a Newton
    # iteration, so a profile, a tensor product of profiles, alpha* and its
    # inverse load none of these modules
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
             "from concavelab import oned; oned.solve_interval(1.0); "
             "oned.tensor_solution([0.9, 1.1], 41); "
             "oned.alpha_star(1.0); oned.halfwidth_for_alpha(0.5); "
             "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_short_box_axes_solve_without_scipy_fft():
    # concavity_square's 81^2 grid is all dense sine matrices; one axis past
    # DENSE_SINE_MAX sends every transform, and the import, to scipy.fft
    config_path = Path(__file__).resolve().parent.parent / "configs" / "concavity_square.yaml"
    config = yaml.safe_load(config_path.read_text())
    halfwidths, n = config["domain"]["halfwidths"], config["resolution"]
    for shape, loaded in ((n, False), ((n, linops.DENSE_SINE_MAX + 3), True)):
        probe = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
                 "from concavelab import box, log_schrodinger, make_grid, solver; "
                 f"g = make_grid(box(*{halfwidths!r}), {shape!r}); r = log_schrodinger(); "
                 "assert solver.newton_solve(g, r, solver.initial_guess(g, r)).converged; "
                 "print('scipy.fft' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stdout.strip() == str(loaded)


def test_nearly_singular_box_jacobian_ends_newton_by_its_own_tests():
    # Lane-Emden q = 3 on a coarse 3D box stalls with exact steps too.  On its
    # nearly singular Jacobians MINRES's own stop lies far below the true
    # residual, so the sweeps must tighten it rather than raise
    g = make_grid(box(1.0, 1.0, 1.0), (13, 15, 11))
    reaction = concavelab.lane_emden(3.0, 2.0)
    result = solver.newton_solve(g, reaction, solver.initial_guess(g, reaction))
    assert result.status in ("converged", "line_search_failed", "max_iterations")
