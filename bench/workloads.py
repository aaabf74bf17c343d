"""Seeded case generators for the three benchmark workloads.

A workload is a fixed *deck* of case templates.  One pass runs every
template once, in deck order; a run is a whole number of passes, so the
mix of experiments, domains and resolutions is the same in every run and
on every commit.  The seed only moves the continuous parameters
(halfwidths, radii, exponents, ``sigma``): template ``t`` in pass ``p``
takes its ``d``-th parameter from the Kronecker sequence
``frac(offset[t, d] + p * alpha_d)`` with seeded offsets, so any number of
passes covers each parameter range evenly and the share of cases that
fall on either side of a threshold hardly changes between seeds.

``radial-branch`` times only the part of its parameter box where today's
radial Newton solver converges; ``KNOWN_FAILURE_DECK`` runs the same
templates over the whole box, untimed, to record the failures outside it.

The committed ``configs/*.yaml`` run unchanged once per run, in the first
pass, in the workload that matches their experiment.

Each case carries the reference values its checks need (see
``references.py``); they are computed here, outside the program, from
closed forms and from the exact one-dimensional time-map inversion.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

WORKLOADS = ("box-verify", "radial-branch", "oned-exact")

# frac(sqrt(prime)): irrational steps of the per-dimension Kronecker sequences
_STEPS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))


@dataclass
class Case:
    """One ``concavelab`` invocation: an experiment, a config and its references."""

    case_id: str
    template: str
    experiment: str
    config: dict
    refs: dict = field(default_factory=dict)
    config_path: Path | None = None  # set for committed configs and once written


class Draw:
    """Parameter source for one template in one pass."""

    def __init__(self, workload: str, seed: int, template_index: int, pass_index: int):
        rng = random.Random(f"{workload}/{seed}/{template_index}")
        self._offsets = [rng.random() for _ in _STEPS]
        self._pass = pass_index
        self._dim = 0

    def unit(self) -> float:
        if self._dim >= len(_STEPS):
            raise IndexError("template draws more parameters than there are sequences")
        x = (self._offsets[self._dim] + self._pass * _STEPS[self._dim]) % 1.0
        self._dim += 1
        return x

    def uniform(self, lo: float, hi: float) -> float:
        return round(lo + (hi - lo) * self.unit(), 6)

    def integer(self, lo: int, hi: int) -> int:
        """Integer in ``[lo, hi]``."""
        return min(hi, lo + int(self.unit() * (hi - lo + 1)))


# ---------------------------------------------------------------------------
# closed forms


def closed_form_lambda1(halfwidths, resolution) -> float:
    """Principal eigenvalue of the discrete Dirichlet Laplacian on a box:
    ``sum_i (2 - 2 cos(pi / (n_i - 1))) / h_i^2`` with ``h_i = 2 b_i / (n_i - 1)``."""
    ns = [resolution] * len(halfwidths) if isinstance(resolution, int) else list(resolution)
    total = 0.0
    for b, n in zip(halfwidths, ns):
        h = 2.0 * b / (n - 1)
        total += (2.0 - 2.0 * math.cos(math.pi / (n - 1))) / (h * h)
    return total


def critical_exponent(dim: int) -> float:
    """``2* - 1 = (N + 2) / (N - 2)`` for N >= 3; no bound below."""
    return (dim + 2.0) / (dim - 2.0) if dim >= 3 else math.inf


# Relative sup-norm tolerance of the log problem on intervals and boxes:
# the 3/5/7-point stencil has truncation error (h^2/12) u'''' per axis and,
# near the peak of u'' = -u log u^2, u''''/u ~ (log u^2)^2.  The measured
# relative error is 0.3-0.5 of this estimate for halfwidths 0.5-3 and
# n = 17-801, so C = 2 leaves a factor of at least 4.
SUP_TOL_C = 2.0
# closed-form and inverse-power lambda1 agree to ~1e-13 relative
LAMBDA_TOL_REL = 1e-10


class References:
    """Reference values for generated cases, computed outside the program.

    ``m_of_b`` is the program's own exact one-dimensional inversion
    (time-map quadrature, not the finite-difference solver); it is cached
    per halfwidth within one generation so repeated halfwidths cost once.
    """

    def __init__(self, oned_module):
        self._oned = oned_module
        self._m = {}

    def m_of_b(self, b: float) -> float:
        if b not in self._m:
            self._m[b] = self._oned.solve_m_of_b(b)
        return self._m[b]

    def log_sup(self, halfwidths, resolution) -> dict:
        """Exact tensor-product sup norm and its ``C h^2`` relative tolerance."""
        ms = [self.m_of_b(b) for b in halfwidths]
        n = resolution
        tol = 0.0
        for b, m in zip(halfwidths, ms):
            h = 2.0 * b / (n - 1)
            tol += h * h / 12.0 * (1.0 + math.log(m * m) ** 2)
        return {"sup_exact": math.prod(ms), "sup_tol_rel": SUP_TOL_C * tol}


# ---------------------------------------------------------------------------
# domains and schedules


def _box(d: Draw, dim: int) -> dict:
    return {"kind": "box", "halfwidths": [d.uniform(0.6, 1.4) for _ in range(dim)]}


def _interval(d: Draw, lo: float = 0.5, hi: float = 3.0) -> dict:
    return {"kind": "interval", "halfwidth": d.uniform(lo, hi)}


def _ball(d: Draw, dim: int, lo: float = 0.5, hi: float = 2.0) -> dict:
    return {"kind": "ball", "radius": d.uniform(lo, hi), "ambient_dim": dim}


def _halfwidths(domain: dict) -> list[float]:
    if domain["kind"] == "interval":
        return [domain["halfwidth"]]
    return list(domain["halfwidths"])


def _dim(domain: dict) -> int:
    return domain["ambient_dim"] if domain["kind"] == "ball" else len(_halfwidths(domain))


def _lane_emden(d: Draw, dim: int, q_hi: float) -> dict:
    return {
        "kind": "lane_emden",
        "q": d.uniform(1.3, min(q_hi, critical_exponent(dim) - 0.5)),
        "sigma": d.uniform(0.5, 2.0),
    }


def _fixed_schedule(d: Draw) -> dict:
    """Fixed sigma, as an explicit ``qs`` list or as a geometric ``q_hi/q_lo/steps``
    schedule (each in about half of the passes)."""
    q_hi, q_lo, sigma = d.uniform(1.5, 2.5), d.uniform(1.03, 1.08), d.uniform(0.5, 2.0)
    steps = d.integer(4, 6)
    if d.unit() < 0.5:
        return {"sigma_rule": "fixed", "sigma": sigma, "q_hi": q_hi, "q_lo": q_lo, "steps": steps}
    ratios = [k / (steps - 1) for k in range(steps)]
    qs = [round(1.0 + (q_hi - 1.0) * ((q_lo - 1.0) / (q_hi - 1.0)) ** r, 6) for r in ratios]
    return {"sigma_rule": "fixed", "sigma": sigma, "qs": qs}


def _log_path_schedule(d: Draw) -> dict:
    q_hi, q_lo = d.uniform(1.1, 1.3), d.uniform(1.01, 1.03)
    steps = d.integer(3, 5)
    ratios = [k / (steps - 1) for k in range(steps)]
    qs = [round(1.0 + (q_hi - 1.0) * ((q_lo - 1.0) / (q_hi - 1.0)) ** r, 6) for r in ratios]
    return {"sigma_rule": "log_path", "qs": qs}


# ---------------------------------------------------------------------------
# templates: each returns (experiment, config, refs)


def _log_refs(refs: References, domain: dict, resolution: int) -> dict:
    if domain["kind"] == "ball":
        return {}
    return refs.log_sup(_halfwidths(domain), resolution)


def solve_log(domain_fn, n):
    def make(d, refs):
        domain = domain_fn(d)
        cfg = {"experiment": "solve", "domain": domain, "resolution": n,
               "reaction": {"kind": "log_schrodinger"}}
        return "solve", cfg, _log_refs(refs, domain, n)
    return make


def solve_le(domain_fn, n, q_hi=2.2):
    def make(d, refs):
        domain = domain_fn(d)
        cfg = {"experiment": "solve", "domain": domain, "resolution": n,
               "reaction": _lane_emden(d, _dim(domain), q_hi)}
        return "solve", cfg, {}
    return make


def concavity_log(domain_fn, n):
    def make(d, refs):
        domain = domain_fn(d)
        cfg = {"experiment": "concavity", "domain": domain, "resolution": n,
               "reaction": {"kind": "log_schrodinger"},
               "transforms": [{"kind": "log", "expect": "holds strictly"}],
               "alphas": [0.1, 0.2, 0.3, 0.4, 0.5]}
        return "concavity", cfg, _log_refs(refs, domain, n)
    return make


def pohozaev(domain_fn, n):
    def make(d, refs):
        domain = domain_fn(d)
        cfg = {"experiment": "pohozaev", "domain": domain, "resolution": n}
        out = _log_refs(refs, domain, n)
        out["pohozaev_threshold"] = math.exp(_dim(domain) / 4.0)
        return "pohozaev", cfg, out
    return make


def quasiconcavity(domain_fn, n, reaction):
    def make(d, refs):
        domain = domain_fn(d)
        react = ({"kind": "log_schrodinger"} if reaction == "log"
                 else _lane_emden(d, _dim(domain), 2.2))
        cfg = {"experiment": "quasiconcavity", "domain": domain, "resolution": n,
               "reaction": react, "seed": d.integer(0, 10**6)}
        return "quasiconcavity", cfg, {}
    return make


def energy_bound(domain_fn, n):
    """q near the logarithmic limit, where the bound is tightest (energy/bound
    0.8-0.9; it falls to 0.3 by q = 3).  The largest ratio of a run then does
    not hinge on how close the draws come to q = 1.2, and q <= 2 keeps the
    bound admissible on 3D boxes (||phi||^2 > (1-q)/2 entropy)."""
    def make(d, refs):
        domain = domain_fn(d)
        cfg = {"experiment": "energy-bound", "domain": domain, "resolution": n,
               "q": d.uniform(1.2, 1.6), "sigma": d.uniform(0.5, 2.0)}
        return "energy-bound", cfg, {}
    return make


def dispersive(domain_fn, n):
    """sigma above the closed-form lambda1, so the polynomial half has a solution."""
    def make(d, refs):
        domain = domain_fn(d)
        lam = closed_form_lambda1(_halfwidths(domain), n)
        cfg = {"experiment": "dispersive", "domain": domain, "resolution": n,
               "q": d.uniform(1.5, 3.0), "sigma": round(lam * d.uniform(1.3, 2.0), 6)}
        return "dispersive", cfg, {}
    return make


def branch(domain_fn, n, schedule_fn):
    def make(d, refs):
        cfg = {"experiment": "branch", "domain": domain_fn(d), "resolution": n,
               "schedule": schedule_fn(d)}
        return "branch", cfg, {}
    return make


def converge_eigen(domain_fn, n):
    def make(d, refs):
        domain = domain_fn(d)
        q_hi = d.uniform(1.4, 1.6)
        sched = {"sigma_rule": "fixed", "sigma": d.uniform(0.5, 2.0),
                 "qs": [q_hi, round((q_hi + 1.0) / 2.0, 6), 1.1, 1.05]}
        cfg = {"experiment": "converge-eigen", "domain": domain, "resolution": n,
               "schedule": sched}
        out = {}
        if domain["kind"] != "ball":
            out["lambda1_closed"] = closed_form_lambda1(_halfwidths(domain), n)
        return "converge-eigen", cfg, out
    return make


def converge_log(domain_fn, n):
    def make(d, refs):
        cfg = {"experiment": "converge-log", "domain": domain_fn(d), "resolution": n,
               "schedule": _log_path_schedule(d)}
        return "converge-log", cfg, {}
    return make


def oned_table(count):
    def make(d, refs):
        cfg = {"experiment": "oned-table",
               "b_grid": {"lo": d.uniform(0.35, 0.5), "hi": d.uniform(3.5, 4.0), "count": count},
               "samples_per_unit": 10000}
        return "oned-table", cfg, {}
    return make


def tensor_check(dim, resolution):
    def make(d, refs):
        cfg = {"experiment": "tensor-check",
               "halfwidths": [d.uniform(0.8, 1.2) for _ in range(dim)]}
        if resolution is not None:
            cfg["resolution"] = resolution
        return "tensor-check", cfg, {}
    return make


def gausson(dim, resolutions):
    """Cubes of halfwidth 3-4: the residual ratio then moves smoothly with one
    halfwidth and grows with it, so the largest reference error of a run does
    not hinge on how close the draws come to a corner of the parameter box."""
    def make(d, refs):
        b = d.uniform(3.0, 4.0)
        cfg = {"experiment": "gausson-residual",
               "domain": {"kind": "box", "halfwidths": [b] * dim},
               "resolutions": list(resolutions)}
        return "gausson-residual", cfg, {}
    return make


def _b2(d):
    return _box(d, 2)


def _b3(d):
    return _box(d, 3)


def _ball2(d):
    return _ball(d, 2)


def _ball3(d):
    return _ball(d, 3)


def _radial_deck(interval, ball2, ball3, ball_n, le_q_hi):
    """The radial templates: intervals at n = 201, 401, 801 and balls at
    n = 201, 401 and ``ball_n``, in an order that interleaves cheap and
    expensive cases."""
    return [
        ("branch-fixed-interval-401", branch(interval, 401, _fixed_schedule)),
        ("branch-fixed-ball2-401", branch(ball2, 401, _fixed_schedule)),
        ("eigen-interval-401", converge_eigen(interval, 401)),
        (f"pohozaev-ball3-{ball_n}", pohozaev(ball3, ball_n)),
        ("solve-log-interval-201", solve_log(interval, 201)),
        ("branch-logpath-ball3-201", branch(ball3, 201, _log_path_schedule)),
        ("log-interval-801", converge_log(interval, 801)),
        (f"solve-le-ball2-{ball_n}", solve_le(ball2, ball_n, q_hi=le_q_hi)),
        ("pohozaev-interval-401", pohozaev(interval, 401)),
        (f"branch-fixed-ball3-{ball_n}", branch(ball3, ball_n, _fixed_schedule)),
        ("eigen-interval-201", converge_eigen(interval, 201)),
        ("solve-log-ball3-401", solve_log(ball3, 401)),
        ("log-ball2-401", converge_log(ball2, 401)),
        ("branch-logpath-interval-801", branch(interval, 801, _log_path_schedule)),
        ("pohozaev-ball2-201", pohozaev(ball2, 201)),
        ("solve-le-interval-801", solve_le(interval, 801, q_hi=le_q_hi)),
        ("eigen-ball2-401", converge_eigen(ball2, 401)),
        ("branch-fixed-interval-201", branch(interval, 201, _fixed_schedule)),
        (f"solve-log-ball2-{ball_n}", solve_log(ball2, ball_n)),
        ("log-ball3-201", converge_log(ball3, 201)),
        ("pohozaev-interval-801", pohozaev(interval, 801)),
        ("branch-logpath-ball2-401", branch(ball2, 401, _log_path_schedule)),
        ("eigen-interval-801", converge_eigen(interval, 801)),
        ("solve-le-ball3-201", solve_le(ball3, 201, q_hi=le_q_hi)),
    ]


# The radial parameter box where today's Newton solver converges on every
# template above (none of more than 40,000 cases failed): intervals of halfwidth
# 1.2-2.5, balls of radius 1.3-2.0 with the `ball_n` templates at n = 201, and
# Lane-Emden q <= 2.6.  Outside it, radial solves stop with
# `line_search_failed` (halfwidths below about 1 at n = 801 and in a narrow
# band near 2.7 at every n; balls of radius below about 1.1 at n = 401 and
# nearly every ball at n = 801; now and then a 3D fixed-sigma branch at
# n = 401 once its sup norm nears 1e10), with `max_iterations` (3D balls at q
# near 3) or with a Nehari bracket that misses the scale (3D balls of radius
# below about 0.52).  The timed deck stays inside the box, so no timed
# operation fails; KNOWN_FAILURE_DECK covers the whole box and records those
# failures.
def _conv_interval(d):
    return _interval(d, 1.2, 2.5)


def _conv_ball2(d):
    return _ball(d, 2, 1.3, 2.0)


def _conv_ball3(d):
    return _ball(d, 3, 1.3, 2.0)


# Why each workload exists, and what it should and should not move, is
# written down in README.md.  Order within a deck interleaves cheap and
# expensive templates.  The median and the tail percentile of a run must
# fall inside a group of templates of like cost, not on the step between
# two groups, or they jump from run to run: oned-exact is 4 Gausson (ms),
# 2 oned-table (tenths of a second) and 4 tensor-check templates (about a
# second), so its median lies among the oned-tables and its p75 among the
# tensor checks.  box-verify has 8 templates (and both committed configs)
# below 0.3 s, 3 at 0.35-0.38 s and 9 above 0.45 s, so its median lies in
# the middle of the middle group and its p83 among the six 161^2 solve and
# concavity cases.
DECKS = {
    "box-verify": [
        ("solve-log-2d-201", solve_log(_b2, 201)),
        ("solve-le-2d-81", solve_le(_b2, 81)),
        ("concavity-2d-161", concavity_log(_b2, 161)),
        ("pohozaev-2d-101", pohozaev(_b2, 101)),
        ("solve-log-2d-81", solve_log(_b2, 81)),
        ("quasi-le-2d-101", quasiconcavity(_b2, 101, "lane_emden")),
        ("solve-log-3d-17", solve_log(_b3, 17)),
        ("energy-2d-121", energy_bound(_b2, 121)),
        ("dispersive-2d-81", dispersive(_b2, 81)),
        ("pohozaev-3d-21", pohozaev(_b3, 21)),
        ("concavity-2d-121", concavity_log(_b2, 121)),
        ("solve-log-3d-25", solve_log(_b3, 25)),
        ("concavity-2d-81", concavity_log(_b2, 81)),
        ("quasi-log-2d-141", quasiconcavity(_b2, 141, "log")),
        ("energy-2d-81", energy_bound(_b2, 81)),
        ("dispersive-3d-17", dispersive(_b3, 17)),
        ("energy-3d-17", energy_bound(_b3, 17)),
        ("solve-le-2d-141", solve_le(_b2, 141)),
        ("solve-log-2d-161", solve_log(_b2, 161)),
        ("pohozaev-2d-81", pohozaev(_b2, 81)),
    ],
    "radial-branch": _radial_deck(_conv_interval, _conv_ball2, _conv_ball3, 201, 2.6),
    "oned-exact": [
        ("oned-table-4", oned_table(4)),
        ("gausson-2d", gausson(2, (41, 81))),
        ("tensor-2d", tensor_check(2, None)),
        ("gausson-3d", gausson(3, (21, 41))),
        ("tensor-3d", tensor_check(3, 41)),
        ("oned-table-4b", oned_table(4)),
        ("gausson-2d-b", gausson(2, (41, 81))),
        ("tensor-2d-b", tensor_check(2, None)),
        ("gausson-3d-b", gausson(3, (21, 41))),
        ("tensor-3d-b", tensor_check(3, 41)),
    ],
}

# The same radial templates over the whole radial parameter box: intervals of
# halfwidth 0.5-3, balls of radius 0.5-2 up to n = 801, Lane-Emden q up to 3.
# About a quarter of these cases fail today.  They run after the timed loop of
# `radial-branch`, untimed, and their failures are recorded with their causes.
KNOWN_FAILURE_DECK = _radial_deck(_interval, _ball2, _ball3, 801, 3.0)
KNOWN_FAILURE_KEY = "radial-branch/known-failures"

COMMITTED = {
    "box-verify": ("concavity_square.yaml", "log_path_square.yaml"),
    "radial-branch": ("converge_eigen_interval.yaml",),
    "oned-exact": ("oned_table.yaml",),
}


def committed_cases(workload: str, configs_dir: Path, refs: References) -> list[Case]:
    """The committed configs of a workload, passed to the program unchanged."""
    cases = []
    for name in COMMITTED[workload]:
        path = configs_dir / name
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
        exp = cfg["experiment"]
        out = {}
        domain = cfg.get("domain", {})
        if exp == "concavity" and cfg.get("reaction", {}).get("kind") == "log_schrodinger":
            out = refs.log_sup(_halfwidths(domain), cfg["resolution"])
        elif exp == "converge-eigen" and domain.get("kind") != "ball":
            out = {"lambda1_closed": closed_form_lambda1(_halfwidths(domain), cfg["resolution"])}
        cases.append(Case(f"configs/{name}", f"configs/{name}", exp, cfg, out, path))
    return cases


def generate_pass(workload: str, seed: int, pass_index: int, refs: References) -> list[Case]:
    """Every template of the workload's deck, parameterised for one pass."""
    return _generate(DECKS[workload], workload, seed, pass_index, refs, "p")


def generate_known_failures(seed: int, pass_index: int, refs: References) -> list[Case]:
    """One pass of ``KNOWN_FAILURE_DECK``."""
    return _generate(KNOWN_FAILURE_DECK, KNOWN_FAILURE_KEY, seed, pass_index, refs, "k")


def _generate(deck, key: str, seed: int, pass_index: int, refs: References,
              prefix: str) -> list[Case]:
    cases = []
    for t, (name, make) in enumerate(deck):
        d = Draw(key, seed, t, pass_index)
        exp, cfg, case_refs = make(d, refs)
        cases.append(Case(f"{prefix}{pass_index}.{t}", name, exp, cfg, case_refs))
    return cases


def write_configs(cases: list[Case], directory: Path) -> None:
    """Write each generated config as the YAML file the program will read."""
    directory.mkdir(parents=True, exist_ok=True)
    for case in cases:
        if case.config_path is None:
            path = directory / f"{case.case_id}.yaml"
            path.write_text(yaml.safe_dump(case.config, sort_keys=True))
            case.config_path = path
