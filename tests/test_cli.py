import dataclasses
import importlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from concavelab import cli, concavity, grid, oned, reactions, solver
from concavelab.cli import ConfigError, config_hash, load_config, main
from concavelab.linops import EigenSolveError, LinearSolveError


def _write_cfg(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


BASE_SOLVE = {
    "domain": {"kind": "interval", "halfwidth": 1.0},
    "resolution": 101,
    "reaction": {"kind": "log_schrodinger"},
}


def test_solve_subcommand_writes_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, "solve.yaml", BASE_SOLVE)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "solve.json").read_text())
    assert payload["converged"] is True
    assert payload["version"]
    assert payload["config_sha256"] == config_hash(load_config(cfg))
    assert payload["field"]["columns"] == ["u"]
    assert list(payload["field"]["axes"]) == ["x"]
    rows = np.load(out / "field.npy", allow_pickle=False)
    assert rows.dtype == np.dtype("<f8") and rows.shape == (1, 101)


def test_artifacts_are_deterministic(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "c.yaml",
        {
            "domain": {"kind": "interval", "halfwidth": 1.0},
            "resolution": 101,
            "schedule": {"sigma_rule": "fixed", "sigma": 1.0, "qs": [1.5, 1.25]},
        },
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["converge-eigen", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("branch.csv", "converge_eigen.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_invalid_config_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path, "bad.yaml", {"domain": {"kind": "pentagon"}})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_missing_sections_exit_2(tmp_path):
    cfg = _write_cfg(tmp_path, "empty.yaml", {})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_mismatched_experiment_rejected(tmp_path):
    data = dict(BASE_SOLVE)
    data["experiment"] = "branch"
    cfg = _write_cfg(tmp_path, "m.yaml", data)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_dispersive_failure_exits_1(tmp_path):
    # sigma below the principal eigenvalue: no positive solution exists for
    # the polynomial half, so the run reports a numerical failure
    cfg = _write_cfg(
        tmp_path,
        "d.yaml",
        {
            "domain": {"kind": "box", "halfwidths": [1.0, 1.0]},
            "resolution": 41,
            "q": 2.0,
            "sigma": 4.0,
        },
    )
    out = tmp_path / "out"
    assert main(["dispersive", "--config", str(cfg), "--out", str(out)]) == 1
    payload = json.loads((out / "dispersive.json").read_text())
    assert payload["failures"]
    assert "polynomial" in payload


def test_dispersive_success(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "d6.yaml",
        {
            "domain": {"kind": "box", "halfwidths": [1.0, 1.0]},
            "resolution": 41,
            "q": 2.0,
            "sigma": 6.0,
        },
    )
    out = tmp_path / "out"
    assert main(["dispersive", "--config", str(cfg), "--out", str(out)]) == 0


def test_concavity_subcommand_with_expectations(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "c.yaml",
        {
            "domain": {"kind": "box", "halfwidths": [1.0, 1.0]},
            "resolution": 41,
            "reaction": {"kind": "log_schrodinger"},
            "transforms": [
                {"kind": "log", "expect": "holds strictly"},
                {"kind": "power", "alpha": 0.5},
            ],
            "alphas": [0.05, 0.2],
        },
    )
    out = tmp_path / "out"
    assert main(["concavity", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "concavity.json").read_text())
    assert payload["reports"][0]["verdict"] == "holds strictly"
    assert payload["alpha_sweep"] is not None
    assert payload["field"]["columns"][:2] == ["u", "log"]
    assert list(payload["field"]["axes"]) == ["x", "y"]
    assert np.load(out / "field.npy", allow_pickle=False).shape[:2] == (3, 41)


def test_quasiconcavity_requires_seed(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "q.yaml",
        {
            "domain": {"kind": "box", "halfwidths": [1.0, 1.0]},
            "resolution": 41,
            "reaction": {"kind": "log_schrodinger"},
        },
    )
    assert main(["quasiconcavity", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert (
        main(
            [
                "quasiconcavity",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "o2"),
                "--seed",
                "11",
            ]
        )
        == 0
    )


def test_pohozaev_subcommand(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "p.yaml",
        {"domain": {"kind": "ball", "radius": 2.0, "ambient_dim": 2}, "resolution": 201},
    )
    out = tmp_path / "out"
    assert main(["pohozaev", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "pohozaev.json").read_text())
    assert payload["passed"] is True


def test_oned_table_subcommand(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "t.yaml",
        {"b_grid": {"lo": 0.8, "hi": 2.0, "count": 4}, "samples_per_unit": 2000},
    )
    out = tmp_path / "out"
    assert main(["oned-table", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "oned_table.csv").read_text().splitlines()
    assert lines[1].split(",") == [
        "b", "m", "slope", "alpha_star", "x_star", "b_shoot_error", "energy_drift_rel",
    ]
    assert len(lines) == 2 + 4


def test_tensor_check_subcommand(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "tc.yaml",
        {"halfwidths": [1.0, 1.0], "resolution": 41, "alphas": [0.1]},
    )
    out = tmp_path / "out"
    assert main(["tensor-check", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "tensor.json").read_text())
    assert payload["sup_error"] < 1e-6
    assert 3.0 <= payload["residual_ratio"] <= 5.0


def test_gausson_residual_subcommand(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "g.yaml",
        {"domain": {"kind": "box", "halfwidths": [1.0, 1.0]}, "resolutions": [21, 41]},
    )
    out = tmp_path / "out"
    assert main(["gausson-residual", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "gausson.json").read_text())
    assert payload["ratio_in_band"] is True


def test_energy_bound_subcommand(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "e.yaml",
        {
            "domain": {"kind": "interval", "halfwidth": 1.0},
            "resolution": 101,
            "q": 2.0,
            "sigma": 2.0,
        },
    )
    out = tmp_path / "out"
    assert main(["energy-bound", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "energy_bound.json").read_text())
    assert payload["energy"] <= payload["bound"]


def test_branch_subcommand_csv_columns(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "b.yaml",
        {
            "domain": {"kind": "interval", "halfwidth": 1.0},
            "resolution": 101,
            "schedule": {"sigma_rule": "log_path", "qs": [1.2, 1.1]},
        },
    )
    out = tmp_path / "out"
    assert main(["branch", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "branch.csv").read_text().splitlines()
    assert lines[1] == "q,sigma,sup_norm,sup_norm_pow_qm1,energy,nehari_residual,residual_sup,newton_iters"


# ---------------------------------------------------------------------------
# field.npy against the solve it records

FIELD_CASES = [
    ({"kind": "interval", "halfwidth": 1.0}, 41, ["x"]),
    ({"kind": "box", "halfwidths": [1.0, 0.7]}, 21, ["x", "y"]),
    ({"kind": "box", "halfwidths": [1.0, 0.8, 0.6]}, 9, ["x", "y", "z"]),
    ({"kind": "ball", "radius": 2.0, "ambient_dim": 2}, 41, ["r"]),
]
FIELD_IDS = ["interval", "box-2d", "box-3d", "ball-2d"]


@pytest.mark.parametrize("domain,n,axes", FIELD_CASES, ids=FIELD_IDS)
def test_solve_field_npy_is_the_solved_field_with_its_axes(tmp_path, domain, n, axes):
    data = {"domain": domain, "resolution": n, "reaction": {"kind": "log_schrodinger"}}
    cfg = _write_cfg(tmp_path, "s.yaml", data)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    p = cli._parse("solve", load_config(cfg))
    result = cli._solve(p, p.reaction)
    grid = result.field.grid
    rows = np.load(out / "field.npy", allow_pickle=False)
    assert rows.dtype == np.dtype("<f8") and rows.shape == (1, *grid.shape)
    assert rows[0].tobytes() == result.field.values.tobytes()
    block = json.loads((out / "solve.json").read_text())["field"]
    assert block["columns"] == ["u"]
    assert list(block["axes"]) == axes
    for name, axis in zip(axes, grid.axes):
        assert np.array(block["axes"][name]).tobytes() == axis.tobytes()


@pytest.mark.parametrize("domain,n,axes", FIELD_CASES, ids=FIELD_IDS)
def test_concavity_field_npy_adds_one_row_per_transform(tmp_path, domain, n, axes):
    data = {"domain": domain, "resolution": n, "reaction": {"kind": "log_schrodinger"},
            "transforms": [{"kind": "log"}, {"kind": "power", "alpha": 0.5}]}
    cfg = _write_cfg(tmp_path, "c.yaml", data)
    out = tmp_path / "out"
    assert main(["concavity", "--config", str(cfg), "--out", str(out)]) == 0
    p = cli._parse("concavity", load_config(cfg))
    result = cli._solve(p, p.reaction)
    grid = result.field.grid
    u = result.field.values
    rows = np.load(out / "field.npy", allow_pickle=False)
    assert rows.dtype == np.dtype("<f8") and rows.shape == (3, *grid.shape)
    assert rows[0].tobytes() == u.tobytes()
    for row, check in zip(rows[1:], p.transforms):
        tr = check["transform"]
        lo, hi = tr.validity
        valid = (u > lo) & (u <= hi)
        assert np.array_equal(np.isnan(row), ~valid)
        assert row[valid].tobytes() == np.atleast_1d(
            reactions.transform_value(tr, u[valid])).tobytes()
    # the boundary, where u = 0, lies outside both transforms' validity
    assert np.all(rows[0][~grid.interior_mask] == 0.0)
    assert np.all(np.isnan(rows[1:][:, ~grid.interior_mask]))
    block = json.loads((out / "concavity.json").read_text())["field"]
    assert block["columns"] == ["u", "log", "power(alpha=0.5)"]
    assert list(block["axes"]) == axes
    for name, axis in zip(axes, grid.axes):
        assert np.array(block["axes"][name]).tobytes() == axis.tobytes()


def test_field_npy_is_byte_identical_across_runs(tmp_path):
    data = {"domain": {"kind": "box", "halfwidths": [1.0, 0.7]}, "resolution": 21,
            "reaction": {"kind": "log_schrodinger"},
            "transforms": [{"kind": "log"}, {"kind": "power", "alpha": 0.5}]}
    cfg = _write_cfg(tmp_path, "c.yaml", data)
    files = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["concavity", "--config", str(cfg), "--out", str(out)]) == 0
        files.append((out / "field.npy").read_bytes())
    assert files[0] == files[1]


def _csv_columns(path):
    lines = path.read_text().splitlines()
    return dict(zip(lines[1].split(","), zip(*(line.split(",") for line in lines[2:]))))


def test_table_csvs_keep_integers_and_round_trip_floats(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "e.yaml",
        {
            "domain": {"kind": "interval", "halfwidth": 1.0},
            "resolution": 101,
            "schedule": {"sigma_rule": "fixed", "sigma": 1.0, "qs": [1.5, 1.25]},
        },
    )
    out = tmp_path / "eigen"
    assert main(["converge-eigen", "--config", str(cfg), "--out", str(out)]) == 0
    branch = _csv_columns(out / "branch.csv")
    assert all(text.isdigit() and int(text) > 0 for text in branch.pop("newton_iters"))
    for texts in branch.values():
        assert all(repr(float(text)) == text for text in texts)
    errors = json.loads((out / "converge_eigen.json").read_text())["limit_errors"]
    assert [float(text) for text in branch["limit_error"]] == errors

    cfg = _write_cfg(
        tmp_path,
        "t.yaml",
        {"b_grid": [0.8, 1.2, 2.0], "samples_per_unit": 1000},
    )
    out = tmp_path / "table"
    assert main(["oned-table", "--config", str(cfg), "--out", str(out)]) == 0
    table = _csv_columns(out / "oned_table.csv")
    assert table["b"] == ("0.8", "1.2", "2.0")
    for texts in table.values():
        assert all(repr(float(text)) == text for text in texts)


BRANCH_HEADERS = {  # experiment -> (sigma rule, branch.csv header)
    "branch": ("fixed", "q,sigma,sup_norm,sup_norm_pow_qm1,energy,nehari_residual,residual_sup,"
                        "newton_iters"),
    "converge-eigen": ("fixed", "q,sigma,sup_norm,sup_norm_pow_qm1,limit_error,phi1_sup_dist,"
                                "residual_sup,newton_iters"),
    "converge-log": ("log_path", "q,sigma,sup_norm,log_residual_rel,energy,newton_iters"),
}


@pytest.mark.parametrize("experiment", sorted(BRANCH_HEADERS))
def test_branch_tables_hold_the_branch_entries(tmp_path, experiment):
    rule, header = BRANCH_HEADERS[experiment]
    schedule = {"sigma_rule": rule, "qs": [1.2, 1.1, 1.05]}
    if rule == "fixed":
        schedule["sigma"] = 1.0
    data = {"domain": {"kind": "interval", "halfwidth": 1.0}, "resolution": 41,
            "schedule": schedule}
    cfg = _write_cfg(tmp_path, "b.yaml", data)
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "branch.csv").read_text().splitlines()[1] == header
    table = _csv_columns(out / "branch.csv")
    entries = cli._branch(cli._parse(experiment, data)).entries
    assert table["q"] == tuple(repr(e.q) for e in entries)
    assert table["sup_norm"] == tuple(repr(e.result.sup_norm) for e in entries)
    assert table["newton_iters"] == tuple(str(e.result.newton_iters) for e in entries)


def test_json_artifacts_write_numpy_values_as_python_values(tmp_path):
    numpy_payload = {"x": np.float64(0.1), "n": np.int64(3), "ok": np.bool_(True),
                     "v": np.array([[1.5, np.nan], [2.0, 3.0]]), "f": np.float32(0.5)}
    python_payload = {"x": 0.1, "n": 3, "ok": True, "v": [[1.5, float("nan")], [2.0, 3.0]],
                      "f": 0.5}
    for name, payload in (("numpy", numpy_payload), ("python", python_payload)):
        cli._write(tmp_path / name, {"p.json": payload}, "0" * 64, "solve")
    written = [(tmp_path / name / "p.json").read_bytes() for name in ("numpy", "python")]
    assert written[0] == written[1]
    with pytest.raises(TypeError):
        cli._write(tmp_path / "set", {"p.json": {"s": {1, 2}}}, "0" * 64, "solve")


# ---------------------------------------------------------------------------
# config parsing, failure handling and the committed configs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_committed_configs_pass(tmp_path, path):
    experiment = load_config(path)["experiment"]
    assert main([experiment, "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def _deck_config_texts(monkeypatch):
    """The YAML of pass 0 of each benchmark deck and of the known-failure deck."""
    monkeypatch.syspath_prepend(str(CONFIGS.parent / "bench"))
    workloads = importlib.import_module("workloads")
    refs = workloads.References(oned)
    cases = workloads.generate_known_failures(801, 0, refs)
    for workload in workloads.WORKLOADS:
        cases += workloads.generate_pass(workload, 801, 0, refs)
    return [yaml.safe_dump(case.config, sort_keys=True) for case in cases]


def test_config_loaders_agree(monkeypatch):
    if yaml.__with_libyaml__:
        assert cli.YAML_LOADER is yaml.CSafeLoader
    texts = [path.read_text() for path in sorted(CONFIGS.glob("*.yaml"))]
    texts += _deck_config_texts(monkeypatch)
    for text in texts:
        assert yaml.load(text, Loader=cli.YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("loader", [yaml.SafeLoader, cli.YAML_LOADER],
                         ids=lambda loader: loader.__name__)
def test_unreadable_configs_exit_alike_under_both_loaders(tmp_path, monkeypatch, loader):
    monkeypatch.setattr(cli, "YAML_LOADER", loader)
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text("domain: {kind: interval\n")
    assert main(["solve", "--config", str(malformed), "--out", str(tmp_path / "m")]) == 2
    assert not (tmp_path / "m").exists()
    binary = tmp_path / "binary.yaml"
    binary.write_bytes(b"domain: \xff\xfe\n")
    # a file that is not UTF-8 is an invalid config under either loader
    assert main(["solve", "--config", str(binary), "--out", str(tmp_path / "b")]) == 2
    assert not (tmp_path / "b").exists()


def test_concavity_expectation_is_checked(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "c.yaml",
        {
            "domain": {"kind": "box", "halfwidths": [1.0, 1.0]},
            "resolution": 41,
            "reaction": {"kind": "log_schrodinger"},
            "transforms": [{"kind": "log", "expect": "fails"}],
        },
    )
    out = tmp_path / "out"
    assert main(["concavity", "--config", str(cfg), "--out", str(out)]) == 1
    payload = json.loads((out / "concavity.json").read_text())
    assert payload["reports"][0]["expect"] == "fails"
    assert payload["failures"] == ["log: holds strictly (expected fails)"]


def test_eigen_tolerance_is_not_a_config_key(tmp_path, capsys):
    # every experiment reads the one eigenpair each grid's operator holds
    cfg = _write_cfg(tmp_path, "c.yaml", {**BASE_SOLVE, "tolerances": {"eigen": 1e-12}})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "'eigen'" in capsys.readouterr().err


def test_neg_log_is_not_a_transform_kind(tmp_path, capsys):
    data = {**BASE_SOLVE, "transforms": [{"kind": "neg_log"}]}
    cfg = _write_cfg(tmp_path, "c.yaml", data)
    assert main(["concavity", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "neg_log" in capsys.readouterr().err


def test_negated_log_is_checked_for_convexity(tmp_path):
    data = {**BASE_SOLVE, "transforms": [{"kind": "log", "negate": True}]}
    cfg = _write_cfg(tmp_path, "c.yaml", data)
    out = tmp_path / "out"
    assert main(["concavity", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "concavity.json").read_text())["reports"][0]
    assert report["transform"] == "neg[log]" and report["check_mode"] == "convexity"


def test_strict_flag_enters_the_config_hash(tmp_path):
    data = {
        "domain": {"kind": "box", "halfwidths": [1.0, 1.0]},
        "resolution": 21,
        "reaction": {"kind": "log_schrodinger"},
        "alphas": [0.1],
    }
    cfg = _write_cfg(tmp_path, "c.yaml", data)
    out = tmp_path / "out"
    assert main(["concavity", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
    payload = json.loads((out / "concavity.json").read_text())
    assert payload["config_sha256"] == config_hash({**data, "strict": True})


def test_eigen_solve_error_exits_1_with_failure_json(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise EigenSolveError("inverse power iteration did not converge")

    monkeypatch.setattr(cli, "principal_eigenpair", failing)
    cfg = _write_cfg(
        tmp_path,
        "e.yaml",
        {
            "domain": {"kind": "interval", "halfwidth": 1.0},
            "resolution": 41,
            "schedule": {"sigma_rule": "fixed", "sigma": 1.0, "qs": [1.5, 1.25]},
        },
    )
    out = tmp_path / "out"
    assert main(["converge-eigen", "--config", str(cfg), "--out", str(out)]) == 1
    payload = json.loads((out / "failure.json").read_text())
    assert "did not converge" in payload["error"]
    assert payload["experiment"] == "converge-eigen"


def test_memory_error_exits_1_with_failure_json(tmp_path, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(cli, "newton_solve", exhausted)
    cfg = _write_cfg(tmp_path, "m.yaml", BASE_SOLVE)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert json.loads((out / "failure.json").read_text())["error"] == "cannot allocate"


# ---------------------------------------------------------------------------
# runner failures, each forced by wrapping one package call


def _wrap(monkeypatch, module, name, change):
    """Make ``module.name`` return ``change`` of what it returned."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: change(real(*args, **kwargs)))


def _exit_and_payload(tmp_path, experiment, data, name, *flags):
    cfg = _write_cfg(tmp_path, "c.yaml", data)
    out = tmp_path / "out"
    code = main([experiment, "--config", str(cfg), "--out", str(out), *flags])
    return code, json.loads((out / name).read_text())


def test_concavity_after_an_unconverged_solve_exits_1(tmp_path, monkeypatch):
    _wrap(monkeypatch, cli, "newton_solve",
          lambda r: dataclasses.replace(r, status="max_iterations"))
    code, payload = _exit_and_payload(tmp_path, "concavity", BASE_SOLVE, "concavity.json")
    assert code == 1
    assert payload["error"] == "solve failed: max_iterations"


def test_strict_concavity_with_a_non_monotone_sweep_exits_1(tmp_path, monkeypatch):
    _wrap(monkeypatch, concavity, "alpha_sweep", lambda s: dataclasses.replace(s, consistent=False))
    data = {**BASE_SOLVE, "alphas": [0.1, 0.2]}
    code, payload = _exit_and_payload(tmp_path, "concavity", data, "concavity.json", "--strict")
    assert code == 1
    assert payload["failures"] == ["alpha sweep verdicts not monotone"]


@pytest.mark.parametrize("module,name,change,failures", [
    (cli, "newton_solve", lambda r: dataclasses.replace(r, status="line_search_failed"),
     ["polynomial solve: line_search_failed", "logarithmic solve: line_search_failed"]),
    (cli, "newton_solve", lambda r: dataclasses.replace(r, sup_norm=1.0),
     ["polynomial sup norm not below 1 - 1e-3", "logarithmic sup norm not below 1 - 1e-3"]),
    (concavity, "check_transform_concavity", lambda r: dataclasses.replace(r, verdict="fails"),
     ["atanh transform: fails", "sqrt(1 - log) transform: fails"]),
], ids=["unconverged", "sup-norm", "verdict"])
def test_dispersive_failure_reasons_exit_1(tmp_path, monkeypatch, module, name, change, failures):
    _wrap(monkeypatch, module, name, change)
    data = {"domain": {"kind": "box", "halfwidths": [1.0, 1.0]}, "resolution": 41,
            "q": 2.0, "sigma": 6.0}
    code, payload = _exit_and_payload(tmp_path, "dispersive", data, "dispersive.json")
    assert code == 1
    assert payload["failures"] == failures


def test_tensor_check_sup_mismatch_exits_1(tmp_path, monkeypatch):
    # a peak off by 1e-3 moves the expected sup but not the field
    _wrap(monkeypatch, oned, "solve_interval", lambda s: dataclasses.replace(s, m=s.m * 1.001))
    data = {"halfwidths": [1.0, 1.0], "resolution": 41}
    code, payload = _exit_and_payload(tmp_path, "tensor-check", data, "tensor.json")
    assert code == 1
    assert payload["failures"] == ["sup norm does not match the product of factor maxima"]


def test_log_guess_beyond_its_scale_range_exits_1_with_failure_json(tmp_path, capsys):
    # the Nehari scale of this guess is about e^3084, which overflows a float
    data = {**BASE_SOLVE, "domain": {"kind": "interval", "halfwidth": 0.02}}
    cfg = _write_cfg(tmp_path, "narrow.yaml", data)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert "Nehari scale" in json.loads((out / "failure.json").read_text())["error"]
    assert sorted(p.name for p in out.iterdir()) == ["failure.json"]
    err = capsys.readouterr().err
    assert err.startswith("failure: ") and "Traceback" not in err


# ---------------------------------------------------------------------------
# which guess a solve starts from

LOG = {"kind": "log_schrodinger"}
BOX2_LOG = {"domain": {"kind": "box", "halfwidths": [0.8, 1.3]}, "resolution": 41, "reaction": LOG}


def _record(monkeypatch, module, name, record):
    """Call ``record`` with the arguments of each call of ``module.name``."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: record(*args) or real(*args))


def _run_files(tmp_path, experiment, data, key):
    """Exit code and the bytes of each file of one run, in its own directory ``key``."""
    cfg = _write_cfg(tmp_path, f"{key}.yaml", data)
    out = tmp_path / key
    code = main([experiment, "--config", str(cfg), "--out", str(out)])
    return code, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("experiment,data,artifact,first_check", [
    ("solve", BOX2_LOG, "solve.json", [True]),
    ("solve", {**BOX2_LOG, "domain": {"kind": "box", "halfwidths": [1.0, 1.2, 0.9]},
               "resolution": 15}, "solve.json", [True]),
    ("concavity", {**BOX2_LOG, "transforms": [{"kind": "log"}]}, "concavity.json", [True]),
    ("pohozaev", {key: BOX2_LOG[key] for key in ("domain", "resolution")}, "pohozaev.json",
     [True]),
    ("dispersive", {"domain": BOX2_LOG["domain"], "resolution": 41, "sigma": 6.0},
     "dispersive.json", [False, True]),
], ids=["solve-box2", "solve-box3", "concavity-box2", "pohozaev-box2", "dispersive-box2"])
def test_box_log_solves_start_from_the_product_and_take_no_box_step(
        tmp_path, monkeypatch, experiment, data, artifact, first_check):
    # per box solve, whether it stops at its first check and steps only on the
    # axes' own solves; the dispersive polynomial half steps on the box
    stepped, solves = [], []
    _record(monkeypatch, solver, "solve_shifted", lambda grid, *args: stepped.append(
        grid.domain.kind))

    def box_solve(result):  # with the grids stepped on since the previous box solve
        solves.append((result.newton_iters, set(stepped)))
        stepped.clear()
        return result

    _wrap(monkeypatch, cli, "newton_solve", box_solve)
    assert _exit_and_payload(tmp_path, experiment, data, artifact)[0] == 0
    assert [iters == 1 for iters, _ in solves] == first_check
    assert [kinds == {"interval"} for _, kinds in solves] == first_check


@pytest.mark.parametrize("experiment,data,kinds", [
    ("solve", {**BOX2_LOG, "reaction": {"kind": "lane_emden", "q": 2.0, "sigma": 6.0}}, ["box"]),
    ("dispersive", {key: BOX2_LOG[key] for key in ("domain", "resolution")},
     ["box", "interval", "interval"]),
    ("solve", {**BOX2_LOG, "domain": {"kind": "box", "halfwidths": [1.0]}}, ["box"]),
    ("solve", BASE_SOLVE, ["interval"]),
    ("solve", {**BASE_SOLVE, "domain": {"kind": "ball", "radius": 1.5, "ambient_dim": 2}},
     ["ball"]),
], ids=["lane-emden-box2", "dispersive-box2", "log-box1", "log-interval", "log-ball2"])
def test_other_solves_start_from_the_nehari_guess(tmp_path, monkeypatch, experiment, data, kinds):
    # the grid of each Nehari guess: the dispersive polynomial half's on the box,
    # then its log half's on the two axes whose solutions it multiplies
    calls = []
    _record(monkeypatch, solver, "initial_guess", lambda grid, reaction: calls.append(
        grid.domain.kind))
    main([experiment, "--config", str(_write_cfg(tmp_path, "c.yaml", data)),
          "--out", str(tmp_path / "out")])
    assert calls == kinds


def _fail_with(exc):
    def fail(real, *args):
        raise exc
    return fail


AXIS_FAILURES = {
    "unconverged": lambda real, *args: dataclasses.replace(real(*args), status="max_iterations"),
    "initial-guess-error": _fail_with(solver.InitialGuessError("no Nehari scale")),
    "eigen-solve-error": _fail_with(EigenSolveError("did not converge")),
    "linear-solve-error": _fail_with(LinearSolveError("singular step matrix", float("inf"))),
}


def _nehari_guess_only(monkeypatch):
    """Start every solve of ``cli._solve`` from ``initial_guess``, the product's fallback."""
    monkeypatch.setattr(cli, "newton_guess", lambda grid, reaction, tol: solver.initial_guess(
        grid, reaction))


@pytest.mark.parametrize("failure", AXIS_FAILURES)
@pytest.mark.parametrize("axis", [0, 1])
def test_a_failed_axis_solve_falls_back_to_the_nehari_guess(tmp_path, monkeypatch, failure, axis):
    real, axes = solver.newton_solve, []

    def axis_solve(*args):  # the box's own solve is cli's binding, left alone
        axes.append(args[0].domain.kind)
        return AXIS_FAILURES[failure](real, *args) if len(axes) == axis + 1 else real(*args)

    monkeypatch.setattr(solver, "newton_solve", axis_solve)
    data = {**BOX2_LOG, "transforms": [{"kind": "log"}], "alphas": [0.3, 0.6]}
    got = _run_files(tmp_path, "concavity", data, "product")
    assert axes == ["interval"] * (axis + 1)
    _nehari_guess_only(monkeypatch)
    assert got == _run_files(tmp_path, "concavity", data, "nehari")
    assert got[0] == 0 and json.loads(got[1]["concavity.json"])["solve"]["newton_iters"] > 1


def test_a_box_with_no_guess_at_all_fails_like_the_nehari_path(tmp_path, monkeypatch):
    def no_eigenpair(grid):
        raise EigenSolveError("inverse power iteration did not converge")

    monkeypatch.setattr(solver, "principal_eigenpair", no_eigenpair)
    got = _run_files(tmp_path, "solve", BOX2_LOG, "product")
    _nehari_guess_only(monkeypatch)
    assert got == _run_files(tmp_path, "solve", BOX2_LOG, "nehari")
    assert got[0] == 1 and list(got[1]) == ["failure.json"]


def test_a_box_too_small_for_a_nehari_scale_is_solved_from_the_product(tmp_path):
    # each axis's guess has a Nehari scale inside [1e-8, 1e8]; the square's, their
    # product, does not, so the eigenfunction guess is refused on the square
    data = {**BOX2_LOG, "domain": {"kind": "box", "halfwidths": [0.35, 0.35]}, "resolution": 21}
    square = grid.make_grid(grid.box(0.35, 0.35), 21)
    with pytest.raises(solver.InitialGuessError, match="Nehari scale"):
        solver.initial_guess(square, reactions.log_schrodinger())
    code, payload = _exit_and_payload(tmp_path, "solve", data, "solve.json")
    assert code == 0 and payload["newton_iters"] == 1 and payload["sup_norm"] > 1e8


INTERVAL_41 = {"domain": {"kind": "interval", "halfwidth": 1.0}, "resolution": 41}


def _first_past_cap(nodes) -> int:
    """The least resolution ``n`` whose grids hold more than ``grid.MAX_NODES``
    nodes, ``nodes(n)`` of them, found by bisection."""
    lo, hi = 3, grid.MAX_NODES + 1
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if nodes(mid) > grid.MAX_NODES else (mid + 1, hi)
    return lo


BOX_3D = {"domain": {"kind": "box", "halfwidths": [1.0, 1.0, 1.0]},
          "reaction": {"kind": "log_schrodinger"}}
# the tensor check holds its grids at n and 2n - 1, gausson-residual both of its grids
N_BOX_3D = _first_past_cap(lambda n: n**3)
N_TENSOR_2D = _first_past_cap(lambda n: n**2 + (2 * n - 1) ** 2)
N_GAUSSON_2D = _first_past_cap(lambda n: 2 * n**2)


def test_node_cap_counts_the_grids_an_experiment_holds():
    # one grid of the tensor-check and gausson-residual cases is under the cap;
    # they are refused for the grids they hold together
    assert N_TENSOR_2D**2 <= grid.MAX_NODES and N_GAUSSON_2D**2 <= grid.MAX_NODES
    assert (N_BOX_3D - 1) ** 3 <= grid.MAX_NODES < N_BOX_3D**3


@pytest.mark.parametrize(
    "experiment, text, argv, code, artifact",
    [
        pytest.param("energy-bound", yaml.safe_dump({**INTERVAL_41, "sigma": 1.0}), [], 2, None,
                     id="energy-bound-without-q"),
        pytest.param("solve", "domain: interval\nreaction: {kind: log_schrodinger}\n", [], 2,
                     None, id="domain-not-a-mapping"),
        pytest.param("solve", yaml.safe_dump({**BASE_SOLVE, "resolution": 2}), [], 2, None,
                     id="resolution-2"),
        pytest.param("oned-table", "b_grid: {lo: 0.4}\n", [], 2, None, id="b-grid-without-hi"),
        pytest.param("gausson-residual",
                     "domain: {kind: box, halfwidths: [3.0, 3.0]}\nresolutions: 41\n", [], 2,
                     None, id="resolutions-not-a-list"),
        pytest.param("solve", yaml.safe_dump(BASE_SOLVE), ["--seed", "-1"], 2, None,
                     id="negative-seed"),
        pytest.param("solve", yaml.safe_dump({**BASE_SOLVE, "seed": -1}), [], 2, None,
                     id="negative-seed-in-config"),
        pytest.param("solve", yaml.safe_dump({**BASE_SOLVE, "tolerances": {"newton": 0.0}}), [],
                     2, None, id="newton-tolerance-0"),
        pytest.param("solve", yaml.safe_dump({**BASE_SOLVE, "resolutoin": 101}), [], 2, None,
                     id="misspelled-key"),
        # YAML 1.1 reads 1e-30 (no dot) as a string
        pytest.param("solve", yaml.safe_dump(BASE_SOLVE) + "tolerances: {newton: 1e-30}\n", [],
                     1, "solve.json", id="newton-tolerance-string"),
        pytest.param("solve", yaml.safe_dump({**BASE_SOLVE, "tolerances": {"quad": 1e-10}}), [],
                     2, None, id="removed-quad-tolerance"),
        pytest.param("converge-log",
                     yaml.safe_dump({**INTERVAL_41, "schedule": {"qs": [1.2, 1.1]}}), [], 2,
                     None, id="converge-log-at-fixed-sigma"),
        pytest.param("converge-eigen",
                     yaml.safe_dump({**INTERVAL_41, "schedule": {"sigma_rule": "fixed",
                                                                 "sigma": 1.0, "qs": []}}),
                     [], 2, None, id="empty-schedule"),
        pytest.param("branch",
                     yaml.safe_dump({**INTERVAL_41, "schedule": {"sigma_rule": "fixed",
                                                                 "qs": [1.5, 1.25]}}),
                     [], 2, None, id="fixed-sigma-rule-without-sigma"),
        # an --out that names an existing file (the config itself) cannot be made
        pytest.param("converge-eigen",
                     yaml.safe_dump({**INTERVAL_41, "schedule": {"sigma_rule": "fixed",
                                                                 "sigma": 1.0, "qs": [1.5]}}),
                     ["--out", "{cfg}"], 2, None, id="out-is-a-file"),
        # values the run would refuse are refused by the parse stage
        pytest.param("concavity",
                     yaml.safe_dump({**BASE_SOLVE, "transforms": [{"kind": "log", "layer_k": 1}]}),
                     [], 2, None, id="layer-k-1"),
        pytest.param("concavity", yaml.safe_dump({**BASE_SOLVE, "alphas": [0.5, 2.0]}), [], 2,
                     None, id="alpha-outside-unit-interval"),
        pytest.param("quasiconcavity",
                     yaml.safe_dump({**BASE_SOLVE, "seed": 1, "level_fractions": [0.5, 2.0]}),
                     [], 2, None, id="level-fraction-outside-unit-interval"),
        pytest.param("quasiconcavity", yaml.safe_dump({**BASE_SOLVE, "seed": 1, "sample_pairs": 0}),
                     [], 2, None, id="sample-pairs-0"),
        pytest.param("quasiconcavity",
                     yaml.safe_dump({**BASE_SOLVE, "seed": 1, "sample_pairs": -3}), [], 2, None,
                     id="sample-pairs-negative"),
        pytest.param("branch",
                     yaml.safe_dump({**INTERVAL_41, "schedule": {"sigma_rule": "fixed",
                                                                 "sigma": 1.0,
                                                                 "qs": [1.5, 1.2, 1.3]}}),
                     [], 2, None, id="non-monotone-schedule"),
        pytest.param("converge-log",
                     yaml.safe_dump({**INTERVAL_41, "schedule": {"sigma_rule": "log_path",
                                                                 "qs": [1.5, 1.0]}}),
                     [], 2, None, id="log-path-at-q-1"),
        pytest.param("tensor-check", "halfwidths: [1.0, 1.0]\nresolution: 2\n", [], 2, None,
                     id="tensor-check-resolution-2"),
        pytest.param("oned-table", "b_grid: [1.0]\nsamples_per_unit: 50\n", [], 2, None,
                     id="samples-per-unit-50"),
        # the table checks its rows for decrease in the order of b
        pytest.param("oned-table", "b_grid: {lo: 1.2, hi: 0.8, count: 3}\n", [], 2, None,
                     id="b-grid-descending"),
        pytest.param("oned-table", "b_grid: [1.0, 1.0]\n", [], 2, None, id="b-grid-repeated"),
        # a check set deeper than a 9-node ball is empty, not wrapped round from r = R
        pytest.param("concavity",
                     yaml.safe_dump({"domain": {"kind": "ball", "radius": 1.0, "ambient_dim": 2},
                                     "resolution": 9, "reaction": {"kind": "log_schrodinger"},
                                     "transforms": [{"kind": "log", "layer_k": 10}]}),
                     [], 1, "failure.json", id="ball-layer-k-past-the-grid"),
        # the parse stage refuses it by arithmetic; a profile at the cap is never shot
        pytest.param("oned-table",
                     f"b_grid: [1.0]\nsamples_per_unit: {oned.MAX_SAMPLES_PER_UNIT + 1}\n", [],
                     2, None, id="samples-per-unit-above-cap"),
        # grids past the node cap are refused by arithmetic before any allocation
        pytest.param("solve", yaml.safe_dump({**BASE_SOLVE, "resolution": grid.MAX_NODES + 1}),
                     [], 2, None, id="interval-above-node-cap"),
        pytest.param("solve", yaml.safe_dump({**BOX_3D, "resolution": N_BOX_3D}), [], 2, None,
                     id="box-3d-above-node-cap"),
        pytest.param("solve", yaml.safe_dump(BOX_3D), ["--resolution", str(N_BOX_3D)], 2, None,
                     id="resolution-flag-above-node-cap"),
        pytest.param("solve", yaml.safe_dump({**BOX_3D, "resolution": 5000}), [], 2, None,
                     id="box-3d-resolution-5000"),
        pytest.param("pohozaev",
                     yaml.safe_dump({"domain": {"kind": "ball", "radius": 1.0, "ambient_dim": 3},
                                     "resolution": grid.MAX_NODES + 1}),
                     [], 2, None, id="ball-above-node-cap"),
        pytest.param("tensor-check", f"halfwidths: [1.0, 1.0]\nresolution: {N_TENSOR_2D}\n", [],
                     2, None, id="tensor-check-refined-grid-above-node-cap"),
        pytest.param("gausson-residual",
                     yaml.safe_dump({"domain": {"kind": "box", "halfwidths": [3.0, 3.0]},
                                     "resolutions": [N_GAUSSON_2D, N_GAUSSON_2D]}),
                     [], 2, None, id="gausson-grids-above-node-cap"),
    ],
)
def test_exit_codes(tmp_path, experiment, text, argv, code, artifact):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    argv = [arg.format(cfg=cfg) for arg in argv]
    assert main([experiment, "--config", str(cfg), "--out", str(out), *argv]) == code
    if artifact is None:  # a config error is found before any directory is made
        assert not out.exists()
    else:
        assert (out / artifact).exists()


def test_strict_belongs_to_concavity_only(tmp_path):
    cfg = _write_cfg(tmp_path, "s.yaml", BASE_SOLVE)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--strict"])
    assert exc.value.code == 2


# The fuzz: each experiment's own keys plus the common ones and sometimes an
# unknown key, each absent, valid or malformed (of the wrong type, or of the
# right type but out of range).  Grids stay at most 21 nodes per axis on boxes,
# so a key whose default is a large grid or a long table is never left unset.
MALFORMED = [True, float("nan"), float("inf"), "1e-30", "abc", [1.0, "x"], {"a": 1}, -1, 0]
DOMAINS = [{"kind": "box", "halfwidths": [1.0, 1.0]}, {"kind": "interval", "halfwidth": 1.5},
           {"kind": "ball", "radius": 2.0, "ambient_dim": 2}]
REACTIONS = [{"kind": "log_schrodinger"}, {"kind": "lane_emden", "q": 2.0, "sigma": 1.0}]
SCHEDULES = [{"sigma_rule": "fixed", "sigma": 1.0, "qs": [1.5, 1.25]},
             {"sigma_rule": "log_path", "qs": [1.2, 1.1]},
             {"sigma_rule": "fixed", "sigma": 1.0, "q_hi": 1.5, "q_lo": 1.2, "steps": 3}]
GRID_KEYS = {"domain": DOMAINS, "resolution": [11, 21]}
FUZZ = {  # experiment -> key -> valid values
    "solve": {**GRID_KEYS, "reaction": REACTIONS},
    "branch": {**GRID_KEYS, "schedule": SCHEDULES},
    "converge-eigen": {**GRID_KEYS, "schedule": SCHEDULES[::2]},
    "converge-log": {**GRID_KEYS, "schedule": SCHEDULES[1:2]},
    "concavity": {
        **GRID_KEYS,
        "reaction": REACTIONS,
        "transforms": [[{"kind": "log"}], [{"kind": "power", "alpha": 0.5, "expect": "fails"}],
                       [{"kind": "sqrt_log", "m": 20.0, "negate": True, "layer_k": 2}]],
        "alphas": [[0.1, 0.3]],
        "strict": [True, False],
    },
    "quasiconcavity": {**GRID_KEYS, "reaction": REACTIONS, "seed": [3],
                       "level_fractions": [[0.5]], "sample_pairs": [20]},
    "pohozaev": GRID_KEYS,
    "dispersive": {**GRID_KEYS, "q": [2.0], "sigma": [6.0]},
    "oned-table": {"b_grid": [{"lo": 0.8, "hi": 1.2, "count": 2}, [1.0]],
                   "samples_per_unit": [200]},
    "tensor-check": {"halfwidths": [[1.0], [1.0, 1.0]], "resolution": [11, 21],
                     "alphas": [[0.1]]},
    "gausson-residual": {"domain": [{"kind": "box", "halfwidths": [3.0, 3.0]}],
                         "resolutions": [[11, 21]]},
    "energy-bound": {**GRID_KEYS, "q": [1.5], "sigma": [1.0]},
}
COMMON_KEYS = {"seed": [3], "tolerances": [{"newton": 1e-9}]}
BAD = {  # key -> values of the right type but wrong
    "domain": [{"kind": "interval"}, {"kind": "box", "halfwidths": [1.0, -1.0]},
               {"kind": "interval", "halfwidth": 1.0, "extra": 1}, "interval"],
    "resolution": [2, [21, 21]],
    "reaction": [{"kind": "lane_emden", "q": 0.5, "sigma": 1.0}, {"kind": "lane_emden"}],
    "schedule": [{"sigma_rule": "fixed", "qs": [1.5]}, {"sigma_rule": "other", "qs": [1.5]},
                 {"qs": [1.1, 1.5]}, {"sigma_rule": "log_path", "qs": [1.5, 0.5]}],
    "transforms": [[{"kind": "log", "layer_k": 1}], [{"kind": "power"}], ["log"]],
    "alphas": [[2.0]],
    "level_fractions": [[2.0]],
    "q": [0.5],
    "b_grid": [[0.1], {"lo": 0.4}, {"lo": 1.2, "hi": 0.8, "count": 2}],
    "samples_per_unit": [50],
    "halfwidths": [[], [1.0, -1.0]],
    "resolutions": [[21], [2, 21], 41],
    "seed": [1.5, -1],
    "tolerances": [{"newton": 0.0}, {"quad": 1e-10}, {"newton": "1e-30"}, {"eigen": 1e-11}],
}
EXPENSIVE_DEFAULTS = {"resolution", "resolutions", "b_grid", "samples_per_unit"}
# a tensor check shoots each halfwidth at 10^5 samples per unit, so it is drawn
# a third as often as the other experiments
EXPERIMENT_DRAWS = [name for name in sorted(FUZZ)
                    for _ in range(1 if name == "tensor-check" else 3)]


@st.composite
def _fuzzed_config(draw):
    rnd = draw(st.randoms(use_true_random=False))
    experiment = rnd.choice(EXPERIMENT_DRAWS)
    cfg = {}
    for key, valid in {**FUZZ[experiment], **COMMON_KEYS}.items():
        expensive = key in EXPENSIVE_DEFAULTS
        how = rnd.choice(["valid"] * 6 + ["malformed"] + ["absent"] * (not expensive))
        if how == "valid":
            cfg[key] = rnd.choice(valid)
        elif how == "malformed":
            cfg[key] = rnd.choice(MALFORMED + BAD.get(key, []) + [None] * (not expensive))
    extra = rnd.choice([None] * 4 + ["resolutoin", "experiment"])
    if extra is not None:
        cfg[extra] = rnd.choice(["solve", 101])
    return experiment, cfg


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_fuzzed_config())
def test_fuzzed_configs_exit_cleanly(case):
    experiment, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = Path(tmp) / "out"
        code = main([experiment, "--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 1:
            assert list(out.glob("*.json"))
