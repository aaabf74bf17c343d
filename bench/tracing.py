"""Span tracing of the concavelab layers, installed from outside the package.

The traced pass wraps every public function of each layer -- the plain
functions named in the module's ``__all__``, plus ``cli.main`` -- and
installs the wrapper at *every* binding of that function inside
``concavelab.*``, so calls from ``cli`` and calls between layers are
caught as well as calls through the module attribute.  Nothing under
``src/`` changes; uninstalling restores the original bindings.

Each span records its name, start, end, parent span and case id.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the time its child spans cover.  Counts are read from return
values at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("grid", "linops", "reactions", "solver", "concavity", "oned", "cli")


def public_functions(module) -> dict[str, object]:
    """Plain functions a layer exports: ``__all__`` names defined in the module."""
    names = list(getattr(module, "__all__", ()))
    if module.__name__.endswith(".cli") and "main" not in names:
        names.append("main")
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


def rebind(modules, replacements: dict[int, tuple[object, object]]) -> list:
    """Point every module-level binding of an original function at its
    replacement; ``replacements`` maps ``id(original)`` to
    ``(original, replacement)``.  Returns the undo list for :func:`restore`."""
    undo = []
    for module in modules:
        for name, value in list(vars(module).items()):
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, name, entry[1])
                undo.append((module, name, value))
    return undo


def restore(undo) -> None:
    for module, name, value in reversed(undo):
        setattr(module, name, value)


class StatusProbe:
    """Records the status of every Newton solve so that each case can name
    its solver status.  Wraps ``solver.newton_solve`` only: one extra
    Python call per solve, against milliseconds per solve."""

    def __init__(self, solver_module):
        self.statuses: list[str] = []
        original = getattr(solver_module, "newton_solve", None)
        self._replacements = {}
        if inspect.isfunction(original):
            statuses = self.statuses

            @functools.wraps(original)
            def probed(*args, **kwargs):
                result = original(*args, **kwargs)
                statuses.append(result.status)
                return result

            self._replacements[id(original)] = (original, probed)

    def install(self, modules) -> list:
        return rebind(modules, self._replacements)


# -- counts read from return values ----------------------------------------


def _grid_of(arg):
    return arg if hasattr(arg, "num_interior") else getattr(arg, "grid", None)


def _once(tracer, obj) -> bool:
    """True the first time ``obj`` is seen in the current case."""
    if id(obj) in tracer.seen:
        return False
    tracer.seen.add(id(obj))
    tracer.keep.append(obj)  # keeps ids unique until the case ends
    return True


def _count_nodes(tracer, out, args):
    tracer.counts["grid.nodes"] += out.num_nodes


def _count_unknowns(tracer, out, args):
    grid = _grid_of(args[0]) if args else None
    if grid is not None and _once(tracer, grid):
        tracer.counts["linops.unknowns"] += grid.num_interior


def _count_eigen(tracer, out, args):
    _count_unknowns(tracer, out, args)
    if _once(tracer, out):  # cached eigenpairs are returned again
        tracer.counts["linops.eigen_iters"] += out.iterations


def _count_newton(tracer, out, args):
    tracer.counts["solver.newton_iters"] += out.newton_iters
    tracer.counts["solver.converged"] += out.status == "converged"


def _count_branch(tracer, out, args):
    tracer.counts["solver.branch_points"] += len(out.entries)


def _count_check(tracer, out, args):
    tracer.counts["concavity.check_nodes"] += out.check_set_size


def _count_shoot(tracer, out, args):
    tracer.counts["oned.shoot_steps"] += len(out.xs)


HOOKS = {
    "grid.make_grid": _count_nodes,
    "linops.principal_eigenpair": _count_eigen,
    "solver.newton_solve": _count_newton,
    "solver.continuation_branch": _count_branch,
    "concavity.check_transform_concavity": _count_check,
    "oned.shoot_profile": _count_shoot,
}


class Tracer:
    """Spans and counts of one traced pass over a set of cases."""

    def __init__(self, layer_modules: dict):
        self.functions = {}
        for layer, module in layer_modules.items():
            for name, fn in public_functions(module).items():
                self.functions[f"{layer}.{name}"] = fn
        self.spans: list[list] = []  # [name, start, end, parent, case]
        self.counts: Counter = Counter()
        self.case = None
        self.cases = 0
        self.seen: set[int] = set()
        self.keep: list = []
        self._stack: list[int] = []

    def install(self, modules) -> list:
        replacements = {}
        for qualname, fn in self.functions.items():
            hook = HOOKS.get(qualname)
            if hook is None and qualname.startswith("linops."):
                hook = _count_unknowns
            replacements[id(fn)] = (fn, self._wrap(qualname, fn, hook))
        return rebind(modules, replacements)

    def _wrap(self, qualname, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1, self.case]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, out, args)
            return out

        return traced

    def begin_case(self, case_id: str) -> None:
        self.case = case_id

    def end_case(self) -> None:
        self.case = None
        self.cases += 1
        self.seen.clear()
        self.keep.clear()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, case."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "case": case}) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_name, start, end, _parent, _case) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


# -- per-layer metrics -------------------------------------------------------
#
# (metric, unit, better, source).  Sources: ("calls", layer), ("self", layer),
# ("incl", function), ("ncalls", function), ("count", key, function),
# ("per_iter",), ("converged_ratio",), ("bytes",), ("overhead",).
# Time and count values are per traced case; ratios are over the whole pass.

METRICS = [
    *[(f"{layer}.calls", "count", "lower", ("calls", layer)) for layer in LAYERS],
    *[(f"{layer}.self_s", "s", "lower", ("self", layer)) for layer in LAYERS],
    ("grid.nodes", "count", "higher", ("count", "grid.nodes", "grid.make_grid")),
    ("linops.unknowns", "count", "higher", ("count", "linops.unknowns", "linops.apply_laplacian")),
    ("linops.eigenpair_s", "s", "lower", ("incl", "linops.principal_eigenpair")),
    ("linops.eigen_iters", "count", "lower",
     ("count", "linops.eigen_iters", "linops.principal_eigenpair")),
    ("linops.assemble_s", "s", "lower", ("incl", "linops.neg_laplacian_matrix")),
    ("linops.apply_s", "s", "lower", ("incl", "linops.apply_laplacian")),
    ("solver.newton_s", "s", "lower", ("incl", "solver.newton_solve")),
    ("solver.newton_iters", "count", "lower",
     ("count", "solver.newton_iters", "solver.newton_solve")),
    ("solver.newton_s_per_iter", "s", "lower", ("per_iter",)),
    ("solver.solves", "count", "lower", ("ncalls", "solver.newton_solve")),
    ("solver.converged_ratio", "1", "higher", ("converged_ratio",)),
    ("solver.branch_s", "s", "lower", ("incl", "solver.continuation_branch")),
    ("solver.branch_points", "count", "higher",
     ("count", "solver.branch_points", "solver.continuation_branch")),
    ("solver.guess_s", "s", "lower", ("incl", "solver.initial_guess")),
    ("reactions.f_calls", "count", "lower", ("ncalls", "reactions.f")),
    ("concavity.check_s", "s", "lower", ("incl", "concavity.check_transform_concavity")),
    ("concavity.check_nodes", "count", "higher",
     ("count", "concavity.check_nodes", "concavity.check_transform_concavity")),
    ("concavity.sweep_s", "s", "lower", ("incl", "concavity.alpha_sweep")),
    ("concavity.quasi_s", "s", "lower", ("incl", "concavity.quasiconcavity_check")),
    ("oned.m_of_b_s", "s", "lower", ("incl", "oned.solve_m_of_b")),
    ("oned.time_map_calls", "count", "lower", ("ncalls", "oned.time_map")),
    ("oned.shoot_s", "s", "lower", ("incl", "oned.shoot_profile")),
    ("oned.shoot_calls", "count", "lower", ("ncalls", "oned.shoot_profile")),
    ("oned.shoot_steps", "count", "lower", ("count", "oned.shoot_steps", "oned.shoot_profile")),
    ("oned.tensor_s", "s", "lower", ("incl", "oned.tensor_solution")),
    ("cli.main_s", "s", "lower", ("incl", "cli.main")),
    ("cli.artifact_bytes", "B", "lower", ("bytes",)),
    ("trace.overhead_s", "s", "lower", ("overhead",)),
]

# the functions each derived source reads
_NEEDS = {
    "per_iter": ("solver.newton_solve",),
    "converged_ratio": ("solver.newton_solve",),
    "bytes": (),
    "overhead": (),
}


def layer_metrics(tracer: Tracer, artifact_bytes: float, overhead_s: float):
    """Per-layer metrics of a traced pass and the names left unmeasured.

    A metric whose function is no longer exported (renamed or removed in a
    refactor) is reported in the unmeasured list and left out of the
    metrics, never reported as 0.
    """
    n = max(tracer.cases, 1)
    selfs = self_times(tracer.spans)
    calls, self_s, incl, ncalls = Counter(), Counter(), Counter(), Counter()
    for span, own in zip(tracer.spans, selfs):
        name = span[0]
        layer = name.split(".", 1)[0]
        calls[layer] += 1
        self_s[layer] += own
        incl[name] += span[2] - span[1]
        ncalls[name] += 1
    layers_present = {q.split(".", 1)[0] for q in tracer.functions}

    metrics, unmeasured = {}, []
    for name, unit, _better, source in METRICS:
        kind = source[0]
        if kind in ("calls", "self"):
            needed = () if source[1] in layers_present else (f"{source[1]}.*",)
        elif kind in _NEEDS:
            needed = _NEEDS[kind]
        else:
            needed = (source[-1],)
        if any(fn not in tracer.functions for fn in needed):
            unmeasured.append(name)
            continue
        if kind == "calls":
            value = calls[source[1]] / n
        elif kind == "self":
            value = self_s[source[1]] / n
        elif kind == "incl":
            value = incl[source[1]] / n
        elif kind == "ncalls":
            value = ncalls[source[1]] / n
        elif kind == "count":
            value = tracer.counts[source[1]] / n
        elif kind == "per_iter":
            iters = tracer.counts["solver.newton_iters"]
            value = incl["solver.newton_solve"] / iters if iters else 0.0
        elif kind == "converged_ratio":
            solves = ncalls["solver.newton_solve"]
            value = tracer.counts["solver.converged"] / solves if solves else 0.0
        elif kind == "bytes":
            value = artifact_bytes / n
        else:
            value = overhead_s
        metrics[name] = {"value": value, "unit": unit}
    return metrics, unmeasured
