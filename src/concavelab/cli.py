"""Experiment driver: the verifications as reproducible subcommands.

Configs are YAML (nested key/value); artifacts are CSV for tables, built as
``(header, columns)`` and formatted a column at a time, JSON for reports and
``field.npy`` for a solved field, written into ``--out``.  Every CSV and JSON
artifact embeds the tool version and a SHA-256 hash of the canonical config
so reruns can be diffed byte for byte; nothing time- or machine-dependent is
emitted.

A subcommand runs in two stages.  :func:`_parse` reads every value the
experiment uses through its ``SCHEMA`` entry and builds the grid, reactions
and transforms, before any directory is made or any solve starts; a key the
experiment does not read, a missing key or a malformed value is a
:class:`ConfigError`.  The runner then returns the exit code and the
artifacts, and :func:`run` writes them; the output directory is made
between the two stages.

Exit codes: 0 when every configured assertion passes, 1 on a numerical
or assertion failure (a diagnostic JSON is still written), 2 on an
invalid config or an ``--out`` that cannot be written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import yaml

from . import __version__, concavity, oned, reactions, solver
from .grid import Domain, ball, box, check_nodes, interval, make_grid
from .linops import principal_eigenpair
from .solver import (
    InitialGuessError,
    continuation_branch,
    energy_upper_bound,
    log_residual_sup,
    newton_guess,
    newton_solve,
    pohozaev_check,
)

__all__ = ["main", "run", "ConfigError", "ExperimentConfig", "load_config", "config_hash"]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# readers: each takes one config value and returns it parsed, or raises

REQUIRED = object()  # the default of a key the config must set
PARSE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)
DEFAULT_RESOLUTION = {"interval": 401, "box": 81, "ball": 401}


def _read(section, schema: dict, what: str) -> dict:
    """The values of the mapping ``section``, read by ``schema`` (key ->
    ``(reader, default)``).  An absent or null key takes its default, which
    is read like a config value; ``None`` leaves it unset and ``REQUIRED``
    makes it an error."""
    if not isinstance(section, dict):
        raise ConfigError(f"{what}: expected a mapping, got {section!r}")
    unknown = [key for key in section if key not in schema]
    if unknown:
        raise ConfigError(f"{what}: unknown key {', '.join(map(repr, unknown))}")
    values = {}
    for key, (reader, default) in schema.items():
        value = section.get(key)
        if value is None:
            if default is REQUIRED:
                raise ConfigError(f"{what}: missing key {key!r}")
            value = default
        try:
            values[key] = None if value is None else reader(value)
        except PARSE_ERRORS as exc:
            raise ConfigError(f"{what}.{key}: {exc}") from exc
    return values


def _float(value) -> float:
    """A finite number; numeric strings count (YAML 1.1 reads ``1e-30`` as one)."""
    number = float(value)
    if isinstance(value, bool) or not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _int(value) -> int:
    if isinstance(value, bool) or int(value) != _float(value):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _positive(value) -> float:
    number = _float(value)
    if not number > 0:
        raise ValueError(f"{value!r} is not positive")
    return number


def _seed(value) -> int:
    seed = _int(value)
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    return seed


def _typed(kind):
    """Reader of a value of type ``kind``, returned as it is."""
    def read(value):
        if not isinstance(value, kind):
            raise TypeError(f"{value!r} is not a {kind.__name__}")
        return value
    return read


def _list(reader):
    """Reader of a list whose items ``reader`` reads."""
    return lambda value: [reader(item) for item in _typed(list)(value)]


def _checked(reader, check):
    """Reader of a value that ``reader`` reads and the package's ``check``
    accepts, so the parse stage refuses what the run would refuse."""
    def read(value):
        value = reader(value)
        check(value)
        return value
    return read


# libyaml's safe loader where PyYAML was built with it: the same dicts, about 7x faster
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

TOLERANCES = {"newton": (_positive, solver.NEWTON_TOL)}

# keys every experiment takes
COMMON = {
    "experiment": (_typed(str), None),
    "seed": (_seed, None),
    "tolerances": (lambda section: _read(section, TOLERANCES, "tolerances"), {}),
}


class ExperimentConfig:
    """The common keys of a config (``experiment``, ``seed``, ``tolerances``),
    validated on construction; :func:`run` reads the rest."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
        _read({k: v for k, v in data.items() if k in COMMON}, COMMON, "config")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.load(fh, Loader=YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8: {exc}") from exc
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=float)
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# sections: readers that build the package's objects

DOMAIN_KEYS = {
    "interval": {"halfwidth": (_float, REQUIRED)},
    "box": {"halfwidths": (_list(_float), REQUIRED)},
    "ball": {"radius": (_float, REQUIRED), "ambient_dim": (_int, REQUIRED)},
}

# how a concavity check of one transform runs and what it must find
CHECK_KEYS = {
    "negate": (_typed(bool), False),
    "expect": (_typed(str), None),
    "eps_floor": (_float, None),
    "layer_k": (_checked(_int, concavity.check_layer_k), concavity.LAYER_K),
}


def _kind(section, kinds, what: str) -> str:
    kind = section.get("kind") if isinstance(section, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"bad {what} {section!r}: kind must be one of {', '.join(kinds)}")
    return kind


def _domain(section, kinds=tuple(DOMAIN_KEYS)) -> Domain:
    kind = _kind(section, kinds, "domain")
    d = _read(section, {"kind": (_typed(str), REQUIRED), **DOMAIN_KEYS[kind]}, "domain")
    if kind == "interval":
        return interval(d["halfwidth"])
    if kind == "box":
        return box(*d["halfwidths"])
    return ball(d["radius"], d["ambient_dim"])


def _domain_from(cfg: dict) -> Domain:
    """The domain section of a whole config."""
    return _domain(cfg.get("domain"))


def _made(make, records: dict, section, what: str, extra: dict | None = None):
    """``make(kind, **params)`` for the section's kind and parameters, and the
    section's values; ``records`` maps kinds to their records in ``reactions``."""
    kind = _kind(section, records, what)
    params = {name: (_float, REQUIRED) for name in records[kind].params}
    values = _read(section, {"kind": (_typed(str), REQUIRED), **params, **(extra or {})}, what)
    return make(kind, **{name: values[name] for name in params}), values


def _reaction_from(section) -> reactions.Reaction:
    return _made(reactions.Reaction, reactions.REACTIONS, section, "reaction")[0]


def _check(section) -> dict:
    """One entry of ``transforms``: the transform and how to check it."""
    transform, check = _made(reactions.Transform, reactions.TRANSFORMS, section, "transform",
                             CHECK_KEYS)
    check["transform"] = transform.negate() if check["negate"] else transform
    return check


SCHEDULE_KEYS = {
    "sigma_rule": (_typed(str), "fixed"),
    "sigma": (_float, None),
    "qs": (_list(_float), None),
    "q_hi": (_float, None),
    "q_lo": (_float, None),
    "steps": (_int, None),
}


def _schedule(section, rule: str | None = None):
    """``(qs, sigma_rule, sigma)`` of a schedule section; ``rule`` is the
    sigma rule the experiment requires, if it requires one."""
    s = _read(section, SCHEDULE_KEYS, "schedule")
    allowed = (rule,) if rule else ("fixed", "log_path")
    if s["sigma_rule"] not in allowed:
        raise ConfigError(f"schedule.sigma_rule must be {' or '.join(allowed)}")
    qs = s["qs"]
    if qs is None:
        if s["q_hi"] is None or s["q_lo"] is None:
            raise ConfigError("schedule needs 'qs', or 'q_hi' and 'q_lo'")
        qs = solver.geometric_q_schedule(s["q_hi"], s["q_lo"], s["steps"])
    solver.check_q_schedule(qs, s["sigma_rule"], s["sigma"])
    return qs, s["sigma_rule"], s["sigma"]


def _schedule_from(cfg: dict):
    """The schedule section of a whole config, as ``(qs, sigma_rule, sigma)``."""
    return _schedule(cfg.get("schedule"))


def _b_grid(value) -> list[float]:
    """Halfwidths in strictly ascending order, the order in which the table
    checks its rows: a list, or ``{lo, hi, count}`` spaced geometrically."""
    if isinstance(value, dict):
        g = _read(value, {"lo": (_float, REQUIRED), "hi": (_float, REQUIRED),
                          "count": (_int, REQUIRED)}, "b_grid")
        value = np.geomspace(g["lo"], g["hi"], g["count"]).tolist()
    bs = _list(_float)(value)
    if not bs:
        raise ValueError("at least one halfwidth is needed")
    if bs != sorted(set(bs)):
        raise ValueError("halfwidths must be strictly ascending")
    return bs


def _box_halfwidths(value) -> tuple[float, ...]:
    """Halfwidths of a box, checked by :class:`Domain`."""
    return Domain("box", halfwidths=tuple(_list(_float)(value))).halfwidths


def _resolution_pair(value) -> list[int]:
    pair = _list(_int)(value)
    if len(pair) != 2:
        raise ValueError("two resolutions are needed")
    return pair


# ---------------------------------------------------------------------------
# artifacts


def _json_default(obj):
    """Numpy scalars and arrays as Python values, for ``json.dumps``."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _column_strings(column):
    """One CSV column as strings: ``repr(float(x))`` for a float, ``str(x)`` otherwise."""
    return (repr(float(x)) if isinstance(x, (float, np.floating)) else str(x) for x in column)


def _write(out: Path, artifacts: dict, cfg_hash: str, experiment: str) -> None:
    """Write each artifact into ``out``: an array by ``np.save``, ``(header, columns)``
    as CSV, one value of each column a line, a payload dict as JSON; a CSV carries the
    tool version and config hash, a JSON these and the experiment."""
    out.mkdir(parents=True, exist_ok=True)
    for name, body in artifacts.items():
        if isinstance(body, np.ndarray):
            with open(out / name, "wb") as fh:
                np.save(fh, body)
            continue
        if isinstance(body, tuple):
            header, columns = body
            lines = [f"# version={__version__} config_sha256={cfg_hash}", ",".join(header),
                     *map(",".join, zip(*map(_column_strings, columns)))]
            text = "\n".join(lines)
        else:
            stamped = {"version": __version__, "config_sha256": cfg_hash,
                       "experiment": experiment, **body}
            text = json.dumps(stamped, sort_keys=True, indent=2, default=_json_default)
        (out / name).write_text(text + "\n")


def _field_block(grid, columns) -> dict:
    """The JSON ``field`` block beside ``field.npy``: the names of its rows and the
    grid axes by name, ``r`` on a ball and ``x``, ``y``, ``z`` otherwise."""
    names = ["r"] if grid.is_radial else ["x", "y", "z"][: grid.ndim]
    return {"columns": columns, "axes": dict(zip(names, grid.axes))}


def _fields(record, *names) -> dict:
    """The named fields of a result record, as a payload."""
    return {name: getattr(record, name) for name in names}


SOLVE_FIELDS = ("status", "converged", "residual_sup", "newton_iters", "sup_norm", "energy",
                "nehari_residual")


def _concavity_report_payload(rep) -> dict:
    margins = {**_fields(rep, "eps_floor", "layer_k"), "strict_margin": rep.margin}
    return {**_fields(rep, "transform", "check_mode", "verdict", "extreme_eigenvalue",
                      "witness", "check_set_size"), "margins": margins}


def _strictly_decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# runners: parsed values -> (exit code, {file name: JSON payload | (CSV header, columns) | array})


def _solve(p, reaction):
    """Newton solve of ``reaction`` from the solver's cold start (:func:`solver.newton_guess`)."""
    tol = p.tolerances["newton"]
    return newton_solve(p.grid, reaction, newton_guess(p.grid, reaction, tol), tol)


# branch.csv columns any branch experiment may name: column -> its value at a BranchEntry
BRANCH_COLUMNS = {
    "q": attrgetter("q"),
    "sigma": attrgetter("sigma"),
    "sup_norm_pow_qm1": lambda e: e.result.sup_norm ** (e.q - 1.0),
    **{name: attrgetter(f"result.{name}")
       for name in ("sup_norm", "energy", "nehari_residual", "residual_sup", "newton_iters")},
}


def _branch(p):
    """The experiment's continuation branch along its schedule."""
    qs, rule, sigma = p.schedule
    return continuation_branch(
        p.grid, sigma_rule=rule, sigma=sigma, qs=qs, tol=p.tolerances["newton"]
    )


def _branch_table(branch, header, **columns) -> dict:
    """The columns of ``branch.csv`` by name, in the order of ``header``: each the value
    that ``columns`` or ``BRANCH_COLUMNS`` defines, at every entry of ``branch``."""
    columns = {**BRANCH_COLUMNS, **columns}
    return {name: [columns[name](e) for e in branch.entries] for name in header}


def _csv(columns: dict):
    """A CSV artifact, ``(header, columns)``, from its columns by name."""
    return list(columns), list(columns.values())


def _run_solve(p):
    result = _solve(p, p.reaction)
    payload = {"reaction": p.reaction.label, **_fields(result, *SOLVE_FIELDS),
               "field": _field_block(p.grid, ["u"])}
    artifacts = {"solve.json": payload, "field.npy": result.field.values[np.newaxis]}
    return (0 if result.converged else 1), artifacts


def _run_branch(p):
    branch = _branch(p)
    table = _branch_table(branch, ["q", "sigma", "sup_norm", "sup_norm_pow_qm1", "energy",
                                   "nehari_residual", "residual_sup", "newton_iters"])
    payload = {"complete": branch.complete, "points": len(branch.entries)}
    return (0 if branch.complete else 1), {"branch.csv": _csv(table), "branch.json": payload}


def _run_converge_eigen(p):
    pair = principal_eigenpair(p.grid)
    target = 1.0 + pair.lambda1 / p.schedule[2]
    branch = _branch(p)
    table = _branch_table(
        branch,
        ["q", "sigma", "sup_norm", "sup_norm_pow_qm1", "limit_error", "phi1_sup_dist",
         "residual_sup", "newton_iters"],
        limit_error=lambda e: abs(e.result.sup_norm ** (e.q - 1.0) - target),
        phi1_sup_dist=lambda e: float(np.max(np.abs(e.result.field.values / e.result.sup_norm
                                                    - pair.phi1.values))),
    )
    decreasing = _strictly_decreasing(table["limit_error"])
    payload = {"lambda1": pair.lambda1, "target": target, "limit_errors": table["limit_error"],
               "strictly_decreasing": decreasing, "complete": branch.complete}
    artifacts = {"branch.csv": _csv(table), "converge_eigen.json": payload}
    return (0 if branch.complete and decreasing else 1), artifacts


def _run_converge_log(p):
    branch = _branch(p)
    table = _branch_table(
        branch, ["q", "sigma", "sup_norm", "log_residual_rel", "energy", "newton_iters"],
        log_residual_rel=lambda e: log_residual_sup(e.result.field) / max(1.0, e.result.sup_norm),
    )
    decreasing = _strictly_decreasing(table["log_residual_rel"])
    payload = {"log_residuals_rel": table["log_residual_rel"], "strictly_decreasing": decreasing,
               "complete": branch.complete, "terminal_sup": branch.entries[-1].result.sup_norm}
    artifacts = {"branch.csv": _csv(table), "converge_log.json": payload}
    return (0 if branch.complete and decreasing else 1), artifacts


def _run_concavity(p):
    result = _solve(p, p.reaction)
    if not result.converged:
        return 1, {"concavity.json": {"error": f"solve failed: {result.status}"}}

    failures = []
    report_payloads = []
    u_vals = result.field.values
    # field.npy: u, then each transformed field, NaN outside the transform's validity
    rows = np.empty((1 + len(p.transforms), *u_vals.shape))
    rows[0] = u_vals
    columns = ["u"]
    for row, check in zip(rows[1:], p.transforms):
        tr = check["transform"]
        rep = concavity.check_transform_concavity(
            result.field, tr, eps_floor=check["eps_floor"], layer_k=check["layer_k"]
        )
        report = _concavity_report_payload(rep)
        expect = check["expect"]
        if expect is not None:
            report["expect"] = expect
            if rep.verdict != expect:
                failures.append(f"{rep.transform}: {rep.verdict} (expected {expect})")
        report_payloads.append(report)
        lo, hi = tr.validity
        in_dom = (u_vals > lo) & (u_vals <= hi)
        row.fill(np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            row[in_dom] = np.atleast_1d(reactions.transform_value(tr, u_vals[in_dom]))
        columns.append(rep.transform)

    sweep_payload = None
    if p.alphas:
        sweep = concavity.alpha_sweep(result.field, p.alphas)
        sweep_payload = _fields(sweep, "alphas", "verdicts", "largest_passing", "consistent")
        if p.strict and not sweep.consistent:
            failures.append("alpha sweep verdicts not monotone")

    payload = {
        "reaction": p.reaction.label,
        "solve": _fields(result, *SOLVE_FIELDS),
        "reports": report_payloads,
        "alpha_sweep": sweep_payload,
        "failures": failures,
        "field": _field_block(p.grid, columns),
    }
    artifacts = {"concavity.json": payload, "field.npy": rows}
    return (0 if not failures else 1), artifacts


def _run_quasiconcavity(p):
    result = _solve(p, p.reaction)
    levels = [f * result.sup_norm for f in p.level_fractions]
    report = concavity.quasiconcavity_check(result.field, levels, p.sample_pairs, p.seed)
    payload = {**_fields(report, "passed", "levels", "sample_pairs", "seed", "slack"),
               "failures": [f[1] for f in report.failures]}  # the midpoints only
    return (0 if report.passed and result.converged else 1), {"quasiconcavity.json": payload}


def _run_pohozaev(p):
    result = _solve(p, reactions.log_schrodinger())
    report = pohozaev_check(result, p.domain)
    payload = {**_fields(report, "sup_norm", "threshold", "ambient_dim"),
               "passed": report.passed and result.converged}
    return (0 if payload["passed"] else 1), {"pohozaev.json": payload}


def _run_dispersive(p):
    failures = []
    payload = _fields(p, "q", "sigma")
    halves = [
        ("polynomial", p.reaction, reactions.atanh_poly(p.q), "atanh transform"),
        ("logarithmic", reactions.dispersive_log(), reactions.sqrt_one_minus_log(),
         "sqrt(1 - log) transform"),
    ]
    for half, reaction, transform, transform_name in halves:
        try:
            result = _solve(p, reaction)
        except InitialGuessError as exc:
            payload[half] = {"error": str(exc)}
            failures.append(f"{half}: {exc}")
            continue
        payload[half] = {"solve": _fields(result, *SOLVE_FIELDS)}
        if not result.converged:  # a trivial or stalled field has no transform to check
            failures.append(f"{half} solve: {result.status}")
            continue
        rep = concavity.check_transform_concavity(result.field, transform)
        payload[half]["transform"] = _concavity_report_payload(rep)
        if result.sup_norm >= 1.0 - 1e-3:
            failures.append(f"{half} sup norm not below 1 - 1e-3")
        elif rep.verdict != "holds strictly":
            failures.append(f"{transform_name}: {rep.verdict}")

    payload["failures"] = failures
    return (0 if not failures else 1), {"dispersive.json": payload}


def _run_oned_table(p):
    rows = []
    for b in p.b_grid:  # one profile at a time, freed before the next
        sol = oned.solve_interval(b, n=p.samples_per_unit)
        rows.append((b, sol.m, sol.slope, sol.alpha_star, sol.x_star, abs(sol.b_shoot - b),
                     sol.energy_drift / max(1.0, sol.C)))  # relative to F(m) where it passes 1
    header = ["b", "m", "slope", "alpha_star", "x_star", "b_shoot_error", "energy_drift_rel"]
    monotone = {f"{name}_decreasing": _strictly_decreasing([row[i] for row in rows])
                for i, name in ((1, "m"), (2, "slope"), (3, "alpha"))}
    payload = {"rows": len(rows), **monotone}
    artifacts = {"oned_table.csv": (header, list(zip(*rows))), "oned_table.json": payload}
    return (0 if all(monotone.values()) else 1), artifacts


def _run_tensor_check(p):
    bs = p.halfwidths
    profiles = {}  # each halfwidth is solved once, for both grids
    field = oned.tensor_solution(bs, p.resolution, solutions=profiles)
    refined = oned.tensor_solution(bs, 2 * p.resolution - 1, solutions=profiles)
    expected = math.prod(profiles[b].m for b in bs)
    del profiles  # free the dense outputs (about 60 steps of 17 floats each) before the residuals
    sup = field.sup_norm()
    margin = 0.1 * min(bs)
    residual = log_residual_sup(field, boundary_margin=margin)
    residual_half = log_residual_sup(refined, boundary_margin=margin)
    ratio = residual / residual_half
    payload = {
        "halfwidths": bs,
        "sup_norm": sup,
        "expected_sup": expected,
        "sup_error": abs(sup - expected),
        "residual": residual,
        "residual_half_h": residual_half,
        "residual_ratio": ratio,
        "boundary_margin": margin,
    }
    failures = []
    if abs(sup - expected) > 1e-6:
        failures.append("sup norm does not match the product of factor maxima")
    if not 3.0 <= ratio <= 5.0:
        failures.append("residual does not contract like h^2")
    if p.alphas:
        sweep = concavity.alpha_sweep(field, p.alphas)
        payload["alpha_sweep"] = _fields(sweep, "alphas", "verdicts", "largest_passing")
    payload["failures"] = failures
    return (0 if not failures else 1), {"tensor.json": payload}


def _run_gausson_residual(p):
    values = [log_residual_sup(oned.gausson_field(grid)) for grid in p.grids]
    ratio = values[0] / values[1]
    payload = {
        "resolutions": p.resolutions,
        "residuals": values,
        "ratio": ratio,
        "ratio_in_band": bool(3.5 <= ratio <= 4.5),
    }
    return (0 if payload["ratio_in_band"] else 1), {"gausson.json": payload}


def _run_energy_bound(p):
    result = _solve(p, p.reaction)
    pair = principal_eigenpair(p.grid)
    bound = energy_upper_bound(p.grid, p.q, p.sigma, pair.phi1)
    payload = {**_fields(p, "q", "sigma"), "energy": result.energy, "bound": bound,
               "passed": bool(result.converged and result.energy <= bound)}
    return (0 if payload["passed"] else 1), {"energy_bound.json": payload}


GRID = {"domain": (_domain, REQUIRED), "resolution": (_int, None)}
ALPHAS = (_checked(lambda value: sorted(_list(_float)(value)), concavity.check_sweep_exponents),
          None)

# experiment -> (runner, the keys it reads besides COMMON: key -> (reader, default))
SCHEMA = {
    "solve": (_run_solve, {**GRID, "reaction": (_reaction_from, REQUIRED)}),
    "branch": (_run_branch, {**GRID, "schedule": (_schedule, REQUIRED)}),
    "converge-eigen": (_run_converge_eigen,
                       {**GRID, "schedule": (lambda s: _schedule(s, "fixed"), REQUIRED)}),
    "converge-log": (_run_converge_log,
                     {**GRID, "schedule": (lambda s: _schedule(s, "log_path"), REQUIRED)}),
    "concavity": (_run_concavity, {
        **GRID,
        "reaction": (_reaction_from, REQUIRED),
        "transforms": (_list(_check), []),
        "alphas": ALPHAS,
        "strict": (_typed(bool), False),
    }),
    "quasiconcavity": (_run_quasiconcavity, {
        **GRID,
        "reaction": (_reaction_from, REQUIRED),
        "seed": (_seed, REQUIRED),
        "level_fractions": (_checked(_list(_float), lambda fs: concavity.check_levels(fs, 1.0)),
                            [0.25, 0.5, 0.75]),
        "sample_pairs": (_checked(_int, concavity.check_sample_pairs), 200),
    }),
    "pohozaev": (_run_pohozaev, GRID),
    "dispersive": (_run_dispersive, {**GRID, "q": (_float, 2.0), "sigma": (_float, 4.0)}),
    "oned-table": (_run_oned_table, {
        "b_grid": (_b_grid, {"lo": 0.4, "hi": 4.0, "count": 20}),
        "samples_per_unit": (_checked(_int, oned.check_samples_per_unit), 10_000),
    }),
    "tensor-check": (_run_tensor_check, {
        "halfwidths": (_box_halfwidths, REQUIRED),
        "resolution": (_int, 161),
        "alphas": ALPHAS,
    }),
    "gausson-residual": (_run_gausson_residual, {
        "domain": (lambda s: _domain(s, ("box",)), REQUIRED),
        "resolutions": (_resolution_pair, [41, 81]),
    }),
    "energy-bound": (_run_energy_bound,
                     {**GRID, "q": (_float, REQUIRED), "sigma": (_float, REQUIRED)}),
}

# experiment -> the reaction kind its top-level q and sigma are passed to
FLAT_REACTION = {"dispersive": "dispersive_lane_emden", "energy-bound": "lane_emden"}


def _parse(experiment: str, cfg) -> SimpleNamespace:
    """Every value ``experiment`` uses, read from ``cfg`` through its
    ``SCHEMA`` entry, with the grids and the reaction built from them."""
    if experiment not in SCHEMA:
        raise ConfigError(f"unknown experiment {experiment!r}")
    p = _read(cfg, {**COMMON, **SCHEMA[experiment][1]}, f"{experiment} config")
    if p["experiment"] not in (None, experiment):
        raise ConfigError(f"config declares experiment {p['experiment']!r}, not {experiment!r}")
    try:
        if "domain" in p and "resolution" in p:
            n, default = p["resolution"], DEFAULT_RESOLUTION[p["domain"].kind]
            p["grid"] = make_grid(p["domain"], default if n is None else n)
        if "halfwidths" in p:  # the tensor check holds grids at n and 2n - 1 in the run
            n, dim = p["resolution"], len(p["halfwidths"])
            check_nodes(n**dim + (2 * n - 1) ** dim)
            make_grid(box(*p["halfwidths"]), n)
        if "resolutions" in p:  # both grids are held through the run
            check_nodes(sum(n ** p["domain"].dim for n in p["resolutions"]))
            p["grids"] = [make_grid(p["domain"], n) for n in p["resolutions"]]
        if experiment in FLAT_REACTION:
            p["reaction"] = reactions.Reaction(FLAT_REACTION[experiment], q=p["q"],
                                               sigma=p["sigma"])
        if "grid" in p:  # q's upper bound depends on the dimension
            qs = p["schedule"][0] if "schedule" in p else []
            for reaction in [p.get("reaction"), *(reactions.lane_emden(q, 1.0) for q in qs)]:
                if reaction is not None:
                    reactions.validate_exponent(reaction, p["domain"].dim)
    except PARSE_ERRORS as exc:
        raise ConfigError(f"{experiment} config: {exc}") from exc
    return SimpleNamespace(**p)


def run(experiment: str, cfg, out_dir) -> int:
    """Execute one subcommand; returns the process exit code."""
    params = _parse(experiment, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before any solve
    runner = SCHEMA[experiment][0]
    code, artifacts = runner(params)
    _write(out, artifacts, config_hash(cfg), experiment)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concavelab",
        description="Verifications for the logarithmic and power Dirichlet problems",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (_runner, schema) in SCHEMA.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default="out")
        p.add_argument("--seed", type=int, default=None)
        if "resolution" in schema:
            p.add_argument("--resolution", type=int, default=None)
        if "strict" in schema:
            p.add_argument("--strict", action="store_true", default=None)
    return parser


# built once: parsing leaves the parser unchanged
PARSER = _build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)

    cfg = {}
    try:
        cfg = load_config(args.config) if args.config else {}
        # flags are recorded in the config, so they enter its hash
        for key in ("seed", "resolution", "strict"):
            if getattr(args, key, None) is not None:
                cfg[key] = getattr(args, key)
        code = run(args.experiment, cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write to --out {args.out!r}: {exc}", file=sys.stderr)
        return 2
    # a MemoryError past the grid cap's estimate is a numerical failure too
    except (RuntimeError, ValueError, MemoryError) as exc:
        failure = {"failure.json": {"error": str(exc)}}
        _write(Path(args.out), failure, config_hash(cfg), args.experiment)
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    if code == 0:
        print(f"{args.experiment}: ok")
    else:
        print(f"{args.experiment}: FAILED (see artifacts)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
