"""Self-tests of the benchmark harness: ``python -m pytest bench -q``."""

import json
import math
import types
from pathlib import Path

import pytest

from concavelab import cli, grid, linops, oned
import run
import stats
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _pass(workload, seed, p):
    return workloads.generate_pass(workload, seed, p, workloads.References(oned))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    for p in (0, 3):
        first = [(c.case_id, c.experiment, c.config, c.refs) for c in _pass(workload, 7, p)]
        again = [(c.case_id, c.experiment, c.config, c.refs) for c in _pass(workload, 7, p)]
        assert first == again
    other = [c.config for c in _pass(workload, 8, 0)]
    assert other != [c.config for c in _pass(workload, 7, 0)]
    # the deck, and so the mix of experiments, does not depend on the seed
    assert [c.template for c in _pass(workload, 8, 5)] == [n for n, _ in workloads.DECKS[workload]]


def _dim(domain):
    if domain["kind"] == "ball":
        return domain["ambient_dim"]
    return 1 if domain["kind"] == "interval" else len(domain["halfwidths"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_emits_only_valid_configs(workload):
    for p in range(6):
        for case in _pass(workload, 3, p):
            cfg = case.config
            cli.ExperimentConfig(cfg)  # tolerances and seed
            domain = cfg.get("domain")
            if domain is not None:
                cli._domain_from(cfg)
                dim = _dim(domain)
                n = cfg.get("resolution")
                if domain["kind"] == "box" and n is not None and case.experiment != "gausson-residual":
                    assert (81 <= n <= 201) if dim == 2 else (17 <= n <= 25)
                    assert all(0.6 <= b <= 1.4 for b in domain["halfwidths"])
                if workload == "radial-branch":
                    assert n in (201, 401, 801)
            reaction = cfg.get("reaction", {})
            if reaction.get("kind") == "lane_emden":
                assert 1.0 < reaction["q"] < workloads.critical_exponent(_dim(domain))
            if case.experiment == "energy-bound":
                assert 1.0 < cfg["q"] < workloads.critical_exponent(_dim(domain))
            if case.experiment == "dispersive":
                lam = workloads.closed_form_lambda1(domain["halfwidths"], cfg["resolution"])
                assert cfg["sigma"] > lam
                assert 1.0 < cfg["q"] < workloads.critical_exponent(_dim(domain))
            schedule = cfg.get("schedule")
            if schedule is not None:
                qs = cli._schedule_from(cfg)[0]
                assert all(a > b > 1.0 for a, b in zip(qs, qs[1:]))
            if case.experiment == "oned-table":
                assert 0.35 <= cfg["b_grid"]["lo"] < cfg["b_grid"]["hi"] <= 4.0


@pytest.mark.parametrize(
    "domain, resolution",
    [
        (grid.interval(0.7), 9),
        (grid.box(1.0, 0.6), (9, 7)),
        (grid.box(0.8, 1.2, 1.0), (5, 6, 7)),
    ],
)
def test_closed_form_lambda1_matches_principal_eigenpair(domain, resolution):
    lam = linops.principal_eigenpair(grid.make_grid(domain, resolution)).lambda1
    closed = workloads.closed_form_lambda1(domain.halfwidths, resolution)
    assert abs(lam - closed) <= 1e-10 * closed


def test_tail_percentile_rule():
    assert stats.tail_percentile(40) == 75
    assert stats.tail_percentile(240) == 95
    assert stats.tail_percentile(11) == 9
    with pytest.raises(ValueError):
        stats.tail_percentile(10)
    for n in range(11, 400):
        p = stats.tail_percentile(n)
        beyond = n - math.ceil(p * n / 100)
        assert beyond >= 10
        if p < 99:
            assert n - math.ceil((p + 1) * n / 100) < 10
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 75) == 75
    assert stats.nearest_rank(values[::-1], 50) == 50
    assert sum(v > stats.nearest_rank(values[:40], 75) for v in values[:40]) == 10


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] with children [1, 4] (holding [2, 3]) and [5, 6]
    spans = [
        ["cli.main", 0.0, 10.0, -1, "c"],
        ["solver.newton_solve", 1.0, 4.0, 0, "c"],
        ["reactions.f", 2.0, 3.0, 1, "c"],
        ["linops.apply_laplacian", 5.0, 6.0, 0, "c"],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    # overlapping children are covered once
    overlap = [["a.x", 0.0, 10.0, -1, "c"], ["b.y", 1.0, 4.0, 0, "c"], ["b.z", 3.0, 6.0, 0, "c"]]
    assert tracing.self_times(overlap)[0] == pytest.approx(5.0)


def _fake_layers(drop=()):
    """Modules shaped like the layers, with one function each per metric source."""
    def module(layer, names):
        mod = types.ModuleType(f"fakepkg.{layer}")
        mod.__all__ = [n for n in names if n not in drop]
        for n in mod.__all__:
            def fn(*args, **kwargs):
                return None
            fn.__module__ = mod.__name__
            setattr(mod, n, fn)
        return mod

    needed = {}
    for _name, _unit, _better, source in tracing.METRICS:
        if source[0] in ("incl", "ncalls", "count"):
            layer, fn = source[-1].split(".")
            needed.setdefault(layer, set()).add(fn)
    needed.setdefault("solver", set()).add("newton_solve")
    needed["cli"].add("main")
    return {layer: module(layer, sorted(needed.get(layer, {"helper"}))) for layer in tracing.LAYERS}


def test_renamed_function_is_reported_unmeasured_not_zero():
    full = tracing.Tracer(_fake_layers())
    metrics, unmeasured = tracing.layer_metrics(full, 0, 0.0)
    assert unmeasured == []
    assert set(metrics) == {m[0] for m in tracing.METRICS}

    tracer = tracing.Tracer(_fake_layers(drop=("principal_eigenpair",)))
    metrics, unmeasured = tracing.layer_metrics(tracer, 0, 0.0)
    assert {"linops.eigenpair_s", "linops.eigen_iters"} <= set(unmeasured)
    assert "linops.eigenpair_s" not in metrics
    assert "linops.calls" in metrics


def test_tracer_wraps_every_binding_and_restores():
    import concavelab
    from concavelab import solver
    import sys

    modules = [m for n, m in sys.modules.items() if n == "concavelab" or n.startswith("concavelab.")]
    layers = {layer: getattr(concavelab, layer) for layer in tracing.LAYERS}
    original = solver.newton_solve
    tracer = tracing.Tracer(layers)
    undo = tracer.install(modules)
    try:
        assert cli.newton_solve is not original
        assert solver.newton_solve is cli.newton_solve is concavelab.newton_solve
        g = grid.make_grid(grid.interval(1.0), 41)
        tracer.begin_case("t")
        concavelab.initial_guess(g, concavelab.log_schrodinger())
        tracer.end_case()
    finally:
        tracing.restore(undo)
    assert cli.newton_solve is original and concavelab.newton_solve is original
    names = {s[0] for s in tracer.spans}
    assert {"solver.initial_guess", "linops.principal_eigenpair", "grid.make_grid"} <= names
    assert tracer.counts["linops.eigen_iters"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracing.METRICS
    ]


def test_exception_escaping_cli_main_is_counted_not_fatal(tmp_path):
    bench = run.Bench("oned-exact", 1, tmp_path)
    try:
        class Raising:
            @staticmethod
            def main(argv):
                raise KeyError("q")

        bench.cli = Raising
        case = workloads.Case("c", "t", "energy-bound", {}, {}, tmp_path / "c.yaml")
        result = bench.run_case(case)
    finally:
        bench.close()
    assert not result.ok and result.exit_code is None
    assert result.cause == "exception escaped cli.main: KeyError: 'q'"
    assert "KeyError" in result.traceback


def test_radial_deck_is_timed_inside_the_converging_box_and_probed_over_all_of_it():
    refs = workloads.References(oned)
    timed = [c for p in range(8) for c in _pass("radial-branch", 5, p)]
    known = [c for p in range(8) for c in workloads.generate_known_failures(5, p, refs)]

    def size(case):
        domain = case.config["domain"]
        return domain.get("halfwidth", domain.get("radius"))

    for case in timed:
        cfg = case.config
        if cfg["domain"]["kind"] == "interval":
            assert 1.2 <= size(case) <= 2.5
        else:
            assert 1.3 <= size(case) <= 2.0 and cfg["resolution"] <= 401
        assert cfg.get("reaction", {}).get("q", 0.0) <= 2.6
    for case in known:
        cli.ExperimentConfig(case.config)
        cli._domain_from(case.config)
    # the same templates over the whole box, with balls up to n = 801
    assert len(workloads.KNOWN_FAILURE_DECK) == len(workloads.DECKS["radial-branch"])
    assert [c.experiment for c in known[:24]] == [c.experiment for c in timed[:24]]
    assert min(size(c) for c in known) < 0.6 and max(size(c) for c in known) > 2.9
    assert {c.config["resolution"] for c in known if c.config["domain"]["kind"] == "ball"} == {
        201, 401, 801}
