"""Experiment driver: the verifications as reproducible subcommands.

Configs are YAML (nested key/value); artifacts are CSV for tables and
JSON for reports, written into ``--out``.  Every artifact embeds the
tool version and a SHA-256 hash of the canonical config so reruns can be
diffed byte for byte; nothing time- or machine-dependent is emitted.

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
import copy
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import yaml

from . import __version__, concavity, oned, reactions, solver
from .grid import Domain, ball, box, interval, make_grid
from .linops import apply_laplacian, principal_eigenpair
from .reactions import Reaction
from .solver import (
    InitialGuessError,
    continuation_branch,
    energy_upper_bound,
    initial_guess,
    log_residual_sup,
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


TOLERANCES = {"newton": (_positive, 1e-10), "eigen": (_positive, 1e-12)}

# keys every experiment takes
COMMON = {
    "experiment": (_typed(str), None),
    "seed": (_seed, None),
    "tolerances": (lambda section: _read(section, TOLERANCES, "tolerances"), {}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; round-trips through YAML losslessly."""

    data: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.data, dict):
            raise ConfigError("config root must be a mapping")
        _read({k: v for k, v in self.data.items() if k in COMMON}, COMMON, "config")

    @property
    def experiment(self):
        return self.data.get("experiment")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls(load_config(path))

    def to_dict(self) -> dict:
        return copy.deepcopy(self.data)

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.data, sort_keys=True)

    @classmethod
    def from_yaml(cls, text: str) -> "ExperimentConfig":
        loaded = yaml.safe_load(text)
        return cls(loaded if loaded is not None else {})

    def hash(self) -> str:
        return config_hash(self.data)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
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

# kind -> (factory in ``reactions``, its parameter names).  The factory is
# looked up when it is called, so a rebinding of it (by a tracer) sees the call.
REACTION_KINDS = {
    "lane_emden": ("lane_emden", ("q", "sigma")),
    "log_schrodinger": ("log_schrodinger", ()),
    "dispersive_lane_emden": ("dispersive_lane_emden", ("q", "sigma")),
    "dispersive_log": ("dispersive_log", ()),
}
TRANSFORM_KINDS = {
    "power": ("power", ("alpha",)),
    "log": ("log_transform", ()),
    "neg_log": ("neg_log", ()),
    "sqrt_log": ("sqrt_log", ("m",)),
    "atanh_poly": ("atanh_poly", ("q",)),
    "sqrt_one_minus_log": ("sqrt_one_minus_log", ()),
}
# how a concavity check of one transform runs and what it must find
CHECK_KEYS = {
    "negate": (_typed(bool), False),
    "expect": (_typed(str), None),
    "eps_floor": (_float, None),
    "layer_k": (_int, 3),
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


def _made(kinds: dict, section, what: str, extra: dict | None = None):
    """The object the ``reactions`` factory for the section's kind returns,
    and the section's values."""
    kind = _kind(section, kinds, what)
    factory, names = kinds[kind]
    params = {name: (_float, REQUIRED) for name in names}
    values = _read(section, {"kind": (_typed(str), REQUIRED), **params, **(extra or {})}, what)
    return getattr(reactions, factory)(*(values[n] for n in names)), values


def _reaction_from(section) -> Reaction:
    return _made(REACTION_KINDS, section, "reaction")[0]


def _check(section) -> dict:
    """One entry of ``transforms``: the transform and how to check it."""
    transform, check = _made(TRANSFORM_KINDS, section, "transform", CHECK_KEYS)
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
    if s["sigma_rule"] == "fixed" and s["sigma"] is None:
        raise ConfigError("fixed sigma rule needs schedule.sigma")
    qs = s["qs"]
    if qs is None:
        if s["q_hi"] is None or s["q_lo"] is None:
            raise ConfigError("schedule needs 'qs', or 'q_hi' and 'q_lo'")
        qs = solver.geometric_q_schedule(s["q_hi"], s["q_lo"], s["steps"])
    return qs, s["sigma_rule"], s["sigma"]


def _schedule_from(cfg: dict):
    """The schedule section of a whole config, as ``(qs, sigma_rule, sigma)``."""
    return _schedule(cfg.get("schedule"))


def _b_grid(value) -> list[float]:
    """Halfwidths: a list, or ``{lo, hi, count}`` spaced geometrically."""
    if not isinstance(value, dict):
        return _list(_float)(value)
    g = _read(value, {"lo": (_float, REQUIRED), "hi": (_float, REQUIRED),
                      "count": (_int, REQUIRED)}, "b_grid")
    return [float(b) for b in np.geomspace(g["lo"], g["hi"], g["count"])]


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


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write(out: Path, artifacts: dict, cfg_hash: str, experiment: str) -> None:
    """Write each artifact into ``out``: ``(header, rows)`` as CSV, a payload dict as
    JSON; each carries the tool version and config hash, a JSON also the experiment."""
    out.mkdir(parents=True, exist_ok=True)
    for name, body in artifacts.items():
        if isinstance(body, tuple):
            header, rows = body
            lines = [f"# version={__version__} config_sha256={cfg_hash}", ",".join(header)]
            lines += [",".join(_fmt(v) for v in row) for row in rows]
            text = "\n".join(lines)
        else:
            stamped = {"version": __version__, "config_sha256": cfg_hash,
                       "experiment": experiment, **_jsonable(body)}
            text = json.dumps(stamped, sort_keys=True, indent=2)
        (out / name).write_text(text + "\n")


def _field_rows(field):
    grid = field.grid
    if grid.is_radial:
        return ["r", "u"], [
            (float(r), float(v)) for r, v in zip(grid.axes[0], field.values)
        ]
    names = ["x", "y", "z"][: grid.ndim]
    coords = grid.coordinate_arrays()
    flat = [c.ravel() for c in coords] + [field.values.ravel()]
    return names + ["u"], list(zip(*(map(float, col) for col in flat)))


def _solve_payload(result) -> dict:
    return {
        "status": result.status,
        "converged": result.converged,
        "residual_sup": result.residual_sup,
        "newton_iters": result.newton_iters,
        "sup_norm": result.sup_norm,
        "energy": result.energy,
        "nehari_residual": result.nehari_residual,
    }


def _concavity_report_payload(rep) -> dict:
    return {
        "transform": rep.transform,
        "check_mode": rep.check_mode,
        "verdict": rep.verdict,
        "extreme_eigenvalue": rep.extreme_eigenvalue,
        "witness": list(rep.witness),
        "margins": {"eps_floor": rep.eps_floor, "layer_k": rep.layer_k,
                    "strict_margin": rep.margin},
        "check_set_size": rep.check_set_size,
    }


# ---------------------------------------------------------------------------
# runners: parsed values -> (exit code, {file name: JSON payload | (CSV header, rows)})


def _sweep_payload(sweep) -> dict:
    return {"alphas": list(sweep.alphas), "verdicts": list(sweep.verdicts),
            "largest_passing": sweep.largest_passing}


def _solve(p, reaction):
    """Newton solve of ``reaction`` on the experiment's grid from its Nehari guess."""
    guess = initial_guess(p.grid, reaction)
    return newton_solve(p.grid, reaction, guess, p.tolerances["newton"])


def _branch(p):
    """The experiment's continuation branch along its schedule."""
    qs, rule, sigma = p.schedule
    return continuation_branch(
        p.grid, sigma_rule=rule, sigma=sigma, qs=qs, tol=p.tolerances["newton"]
    )


def _run_solve(p):
    result = _solve(p, p.reaction)
    payload = {"reaction": p.reaction.label, **_solve_payload(result)}
    artifacts = {"solve.json": payload, "field.csv": _field_rows(result.field)}
    return (0 if result.converged else 1), artifacts


def _run_branch(p):
    branch = _branch(p)
    rows = []
    for e in branch.entries:
        r = e.result
        rows.append((e.q, e.sigma, r.sup_norm, r.sup_norm ** (e.q - 1.0), r.energy,
                     r.nehari_residual, r.residual_sup, r.newton_iters))
    header = ["q", "sigma", "sup_norm", "sup_norm_pow_qm1", "energy", "nehari_residual",
              "residual_sup", "newton_iters"]
    payload = {"complete": branch.complete, "points": len(branch.entries)}
    artifacts = {"branch.csv": (header, rows), "branch.json": payload}
    return (0 if branch.complete else 1), artifacts


def _run_converge_eigen(p):
    pair = principal_eigenpair(p.grid, p.tolerances["eigen"])
    target = 1.0 + pair.lambda1 / p.schedule[2]
    branch = _branch(p)
    rows = []
    errors = []
    for e in branch.entries:
        r = e.result
        power = r.sup_norm ** (e.q - 1.0)
        err = abs(power - target)
        errors.append(err)
        dist = float(np.max(np.abs(r.field.values / r.sup_norm - pair.phi1.values)))
        rows.append((e.q, e.sigma, r.sup_norm, power, err, dist, r.residual_sup, r.newton_iters))
    header = ["q", "sigma", "sup_norm", "sup_norm_pow_qm1", "limit_error", "phi1_sup_dist",
              "residual_sup", "newton_iters"]
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    payload = {
        "lambda1": pair.lambda1,
        "target": target,
        "limit_errors": errors,
        "strictly_decreasing": decreasing,
        "complete": branch.complete,
    }
    artifacts = {"branch.csv": (header, rows), "converge_eigen.json": payload}
    return (0 if branch.complete and decreasing else 1), artifacts


def _run_converge_log(p):
    branch = _branch(p)
    rows = []
    residuals = []
    for e in branch.entries:
        r = e.result
        rel = log_residual_sup(r.field) / max(1.0, r.sup_norm)
        residuals.append(rel)
        rows.append((e.q, e.sigma, r.sup_norm, rel, r.energy, r.newton_iters))
    header = ["q", "sigma", "sup_norm", "log_residual_rel", "energy", "newton_iters"]
    decreasing = all(a > b for a, b in zip(residuals, residuals[1:]))
    payload = {
        "log_residuals_rel": residuals,
        "strictly_decreasing": decreasing,
        "complete": branch.complete,
        "terminal_sup": branch.entries[-1].result.sup_norm if branch.entries else None,
    }
    artifacts = {"branch.csv": (header, rows), "converge_log.json": payload}
    return (0 if branch.complete and decreasing else 1), artifacts


def _run_concavity(p):
    result = _solve(p, p.reaction)
    if not result.converged:
        return 1, {"concavity.json": {"error": f"solve failed: {result.status}"}}

    failures = []
    report_payloads = []
    header, rows = _field_rows(result.field)
    u_vals = result.field.values
    for check in p.transforms:
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
        # the transformed field as one more column of field.csv
        lo, hi = tr.validity
        in_dom = (u_vals > lo) & (u_vals <= hi)
        vals = np.full(u_vals.shape, float("nan"))
        with np.errstate(divide="ignore", invalid="ignore"):
            vals[in_dom] = np.atleast_1d(reactions.transform_value(tr, u_vals[in_dom]))
        header.append(rep.transform)
        flat = vals.ravel()
        rows = [row + (float(flat[i]),) for i, row in enumerate(rows)]

    sweep_payload = None
    if p.alphas:
        sweep = concavity.alpha_sweep(result.field, p.alphas)
        sweep_payload = {**_sweep_payload(sweep), "consistent": sweep.consistent}
        if p.strict and not sweep.consistent:
            failures.append("alpha sweep verdicts not monotone")

    payload = {
        "reaction": p.reaction.label,
        "solve": _solve_payload(result),
        "reports": report_payloads,
        "alpha_sweep": sweep_payload,
        "failures": failures,
    }
    artifacts = {"concavity.json": payload, "field.csv": (header, rows)}
    return (0 if not failures else 1), artifacts


def _run_quasiconcavity(p):
    result = _solve(p, p.reaction)
    report = concavity.quasiconcavity_check(
        result.field,
        [f * result.sup_norm for f in p.level_fractions],
        sample_pairs=p.sample_pairs,
        seed=p.seed,
    )
    payload = {
        "passed": report.passed,
        "levels": list(report.levels),
        "sample_pairs": report.sample_pairs,
        "seed": report.seed,
        "slack": report.slack,
        "failures": [list(f[1]) for f in report.failures],
    }
    return (0 if report.passed and result.converged else 1), {"quasiconcavity.json": payload}


def _run_pohozaev(p):
    result = _solve(p, reactions.log_schrodinger())
    report = pohozaev_check(result, p.domain)
    payload = {
        "sup_norm": report.sup_norm,
        "threshold": report.threshold,
        "ambient_dim": report.ambient_dim,
        "passed": report.passed and result.converged,
    }
    return (0 if payload["passed"] else 1), {"pohozaev.json": payload}


def _run_dispersive(p):
    failures = []
    payload = {"q": p.q, "sigma": p.sigma}
    halves = [
        ("polynomial", p.reaction, reactions.atanh_poly(p.q), "atanh transform"),
        ("logarithmic", reactions.dispersive_log(), reactions.sqrt_one_minus_log(),
         "sqrt(1 - log) transform"),
    ]
    for half, reaction, transform, transform_name in halves:
        try:
            result = _solve(p, reaction)
            rep = concavity.check_transform_concavity(result.field, transform)
        except InitialGuessError as exc:
            payload[half] = {"error": str(exc)}
            failures.append(f"{half}: {exc}")
            continue
        payload[half] = {
            "solve": _solve_payload(result),
            "transform": _concavity_report_payload(rep),
        }
        if not result.converged:
            failures.append(f"{half} solve: {result.status}")
        elif result.sup_norm >= 1.0 - 1e-3:
            failures.append(f"{half} sup norm not below 1 - 1e-3")
        elif rep.verdict != "holds strictly":
            failures.append(f"{transform_name}: {rep.verdict}")

    payload["failures"] = failures
    return (0 if not failures else 1), {"dispersive.json": payload}


def _run_oned_table(p):
    rows = []
    for b in p.b_grid:
        sol = oned.solve_interval(b, n=p.samples_per_unit)
        shot = oned.shoot_profile(sol.m, p.samples_per_unit)
        rows.append((b, sol.m, sol.slope, sol.alpha_star, sol.x_star, abs(shot.b - b),
                     shot.energy_drift))
    header = ["b", "m", "slope", "alpha_star", "x_star", "b_shoot_error", "energy_drift"]
    ms, slopes, alphas = ([r[i] for r in rows] for i in (1, 2, 3))
    monotone = {
        "m_decreasing": all(a > b for a, b in zip(ms, ms[1:])),
        "slope_decreasing": all(a > b for a, b in zip(slopes, slopes[1:])),
        "alpha_decreasing": all(a > b for a, b in zip(alphas, alphas[1:])),
    }
    payload = {"rows": len(rows), **monotone}
    artifacts = {"oned_table.csv": (header, rows), "oned_table.json": payload}
    return (0 if all(monotone.values()) else 1), artifacts


def _run_tensor_check(p):
    bs = p.halfwidths
    field = oned.tensor_solution(bs, p.resolution)
    sup = field.sup_norm()
    expected = math.prod(oned.solve_m_of_b(b) for b in bs)
    margin = 0.1 * min(bs)
    residual = log_residual_sup(field, boundary_margin=margin)
    refined = oned.tensor_solution(bs, 2 * p.resolution - 1)
    residual_half = log_residual_sup(refined, boundary_margin=margin)
    ratio = residual / residual_half
    payload = {
        "halfwidths": list(bs),
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
        payload["alpha_sweep"] = _sweep_payload(sweep)
    payload["failures"] = failures
    return (0 if not failures else 1), {"tensor.json": payload}


def _run_gausson_residual(p):
    values = []
    for grid in p.grids:
        field = oned.gausson_field(grid)
        r = -apply_laplacian(field).values - reactions.f(
            reactions.log_schrodinger(), field.values
        )
        values.append(float(np.max(np.abs(r[grid.interior_mask]))))
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
    pair = principal_eigenpair(p.grid, p.tolerances["eigen"])
    bound = energy_upper_bound(p.grid, p.q, p.sigma, pair.phi1)
    payload = {
        "q": p.q,
        "sigma": p.sigma,
        "energy": result.energy,
        "bound": bound,
        "passed": bool(result.converged and result.energy <= bound),
    }
    return (0 if payload["passed"] else 1), {"energy_bound.json": payload}


GRID = {"domain": (_domain, REQUIRED), "resolution": (_int, None)}
ALPHAS = (lambda value: sorted(_list(_float)(value)), None)

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
        "level_fractions": (_list(_float), [0.25, 0.5, 0.75]),
        "sample_pairs": (_int, 200),
    }),
    "pohozaev": (_run_pohozaev, GRID),
    "dispersive": (_run_dispersive, {**GRID, "q": (_float, 2.0), "sigma": (_float, 4.0)}),
    "oned-table": (_run_oned_table, {
        "b_grid": (_b_grid, {"lo": 0.4, "hi": 4.0, "count": 20}),
        "samples_per_unit": (_int, 10_000),
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

# experiment -> the ``reactions`` factory its top-level q and sigma are passed to
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
        if "resolutions" in p:
            p["grids"] = [make_grid(p["domain"], n) for n in p["resolutions"]]
        if experiment in FLAT_REACTION:
            p["reaction"] = getattr(reactions, FLAT_REACTION[experiment])(p["q"], p["sigma"])
    except PARSE_ERRORS as exc:
        raise ConfigError(f"{experiment} config: {exc}") from exc
    return SimpleNamespace(**p)


def run(experiment: str, cfg, out_dir) -> int:
    """Execute one subcommand; returns the process exit code."""
    if isinstance(cfg, ExperimentConfig):
        cfg = cfg.to_dict()
    params = _parse(experiment, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before any solve
    runner = SCHEMA[experiment][0]
    code, artifacts = runner(params)
    _write(out, artifacts, config_hash(cfg), experiment)
    return code


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)

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
    except (RuntimeError, ValueError) as exc:
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
