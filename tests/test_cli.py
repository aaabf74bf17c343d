import json
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from concavelab import cli
from concavelab.cli import ConfigError, ExperimentConfig, config_hash, load_config, main, run
from concavelab.linops import EigenSolveError


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
    field_lines = (out / "field.csv").read_text().splitlines()
    assert field_lines[0].startswith("# version=")
    assert field_lines[1] == "x,u"
    assert len(field_lines) == 2 + 101


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
    header = (out / "field.csv").read_text().splitlines()[1]
    assert header.startswith("x,y,u,log")


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
        "b", "m", "slope", "alpha_star", "x_star", "b_shoot_error", "energy_drift",
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


def test_experiment_config_round_trip():
    cfg = ExperimentConfig(
        {
            "experiment": "solve",
            "domain": {"kind": "interval", "halfwidth": 1.0},
            "tolerances": {"newton": 1e-9},
            "seed": 3,
        }
    )
    again = ExperimentConfig.from_yaml(cfg.to_yaml())
    assert again == cfg
    assert again.hash() == cfg.hash()
    assert cfg.to_dict() == cfg.data and cfg.to_dict() is not cfg.data


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig({"tolerances": {"newton": 0.0}})
    with pytest.raises(ConfigError):
        ExperimentConfig({"seed": -1})


def test_run_accepts_config_object(tmp_path):
    cfg = ExperimentConfig(dict(BASE_SOLVE))
    assert run("solve", cfg, tmp_path / "o") == 0


# ---------------------------------------------------------------------------
# config parsing, failure handling and the committed configs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_committed_configs_pass(tmp_path, path):
    experiment = load_config(path)["experiment"]
    assert main([experiment, "--config", str(path), "--out", str(tmp_path / "o")]) == 0


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


INTERVAL_41 = {"domain": {"kind": "interval", "halfwidth": 1.0}, "resolution": 41}


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
        # an --out that names an existing file (the config itself) cannot be made
        pytest.param("converge-eigen",
                     yaml.safe_dump({**INTERVAL_41, "schedule": {"sigma_rule": "fixed",
                                                                 "sigma": 1.0, "qs": [1.5]}}),
                     ["--out", "{cfg}"], 2, None, id="out-is-a-file"),
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
COMMON_KEYS = {"seed": [3], "tolerances": [{"newton": 1e-9}, {"eigen": 1e-11}]}
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
    "seed": [1.5],
    "tolerances": [{"newton": 0.0}, {"quad": 1e-10}, {"newton": "1e-30"}],
}
EXPENSIVE_DEFAULTS = {"resolution", "resolutions", "b_grid", "samples_per_unit"}
# a tensor check shoots 10^5 RK4 steps twice (about half a second), so it is
# drawn a third as often as the other experiments
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
