import json
import pathlib

import pytest
from jsonschema.validators import validator_for

from gauge2.cli import _applicable, _check_simpson_steps, main, run_command
from gauge2.config import CONFIG_SCHEMA, RunConfig, load_config
from gauge2.errors import ConfigError

MINIMAL = {
    "seed": 5,
    "crossed_module": {"matrix": {"family": "u1_id"}},
    "chart": {"dim": 2},
    "connection": {"a": [["0"], ["0.9*x1"]], "b": "fake_flat"},
    "paths": {"seg": ["u", "0"]},
    "bigons": {"lens": ["v", "v + 0.25*(2*u - 1)*sin(pi*v)"]},
    "numeric": {"steps": 48, "surface_steps": 24, "sweep": 2},
}

FINITE = {"seed": 1, "crossed_module": {"finite": {"demo": "z2_z3_trivial"}}}


def _write(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError) as err:
        RunConfig({**MINIMAL, "extra_key": 1})
    assert "extra_key" in str(err.value)


def test_missing_seed_rejected():
    raw = dict(MINIMAL)
    del raw["seed"]
    with pytest.raises(ConfigError):
        RunConfig(raw)


def test_connection_requires_matrix_module():
    raw = {k: v for k, v in MINIMAL.items() if k != "crossed_module"}
    raw["crossed_module"] = {"finite": {"demo": "z2_z3_trivial"}}
    with pytest.raises(ConfigError) as err:
        RunConfig(raw)
    assert err.value.path == "crossed_module.matrix"


def test_schema_error_carries_json_path():
    raw = dict(MINIMAL)
    raw["numeric"] = {"steps": "many"}
    with pytest.raises(ConfigError) as err:
        RunConfig(raw)
    assert "numeric.steps" in err.value.path


def test_missing_config_file_exit_code(tmp_path, capsys):
    code = main(["verify", "stokes", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_config_missing_connection(tmp_path, capsys):
    raw = {"seed": 3, "crossed_module": {"matrix": {"family": "u1_id"}},
           "chart": {"dim": 2}, "paths": {"seg": ["u", "0"]}}
    path = _write(tmp_path, raw)
    code = main(["transport", "--config", path, "--out", str(tmp_path)])
    assert code == 2


def test_unknown_verify_target(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    assert main(["verify", "everything", "--config", path]) == 2


def test_torsor_selftest_cli(tmp_path, capsys):
    path = _write(tmp_path, FINITE)
    code = main(["torsor-selftest", "--config", path,
                 "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "torsor-selftest.json").read_text())
    assert report["pass"]
    assert report["cases"][0]["laws"]["interchange"] == 0.0


def test_verify_stokes_cli_and_csv(tmp_path):
    path = _write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    code = main(["verify", "stokes", "--config", path, "--out", str(out),
                 "--quiet"])
    assert code == 0
    report = json.loads((out / "verify-stokes.json").read_text())
    assert report["pass"]
    csv = (out / "stokes-lens.csv").read_text().strip().splitlines()
    assert csv[0] == "steps,defect,order"
    defects = [float(line.split(",")[1]) for line in csv[1:]]
    # convergence table is monotone up to the floating noise floor
    for a, b in zip(defects, defects[1:]):
        assert b <= a + 1e-12


def test_accuracy_failure_exit_code(tmp_path):
    raw = dict(MINIMAL)
    # a fake-flat check on a connection whose b is declared as zero while
    # the curvature is not: residual is large, exit must be 3
    raw["connection"] = {"a": [["0"], ["0.9*x1"]], "b": [["0"]]}
    path = _write(tmp_path, raw)
    code = main(["verify", "fake-flat", "--config", path,
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 3
    report = json.loads((tmp_path / "out" / "verify-fake-flat.json").read_text())
    assert not report["pass"]


def test_reports_are_deterministic(tmp_path):
    cfg = RunConfig(MINIMAL)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    run_command("verify-stokes", cfg, str(out1), quiet=True)
    run_command("verify-stokes", cfg, str(out2), quiet=True)
    assert (out1 / "verify-stokes.json").read_bytes() == \
        (out2 / "verify-stokes.json").read_bytes()
    assert (out1 / "stokes-lens.csv").read_bytes() == \
        (out2 / "stokes-lens.csv").read_bytes()


def test_report_schema_stable(tmp_path):
    cfg = RunConfig(MINIMAL)
    rep = run_command("verify-stokes", cfg, str(tmp_path / "out"), quiet=True)
    for key in ("command", "config_hash", "seed", "defects",
                "order_estimates", "cases", "pass"):
        assert key in rep


def test_finite_crossed_module_from_tables(tmp_path):
    raw = {
        "seed": 9,
        "crossed_module": {"finite": {
            "G": {"cyclic": 2}, "H": {"cyclic": 3},
            "t": [0, 0, 0],
            "alpha": [[0, 1, 2], [0, 1, 2]],
        }},
    }
    cfg = RunConfig(raw)
    cm = cfg.finite_module()
    assert cm.G.order == 2 and cm.H.order == 3
    rep = run_command("check-crossed-module", cfg, str(tmp_path / "out"),
                      quiet=True)
    assert rep["pass"]


def test_counterexample_config_fails_check(tmp_path):
    raw = {"seed": 9, "crossed_module": {
        "finite": {"demo": "z2_z4_peiffer_broken"}}}
    cfg = RunConfig(raw)
    rep = run_command("check-crossed-module", cfg, str(tmp_path / "out"),
                      quiet=True)
    assert not rep["pass"]
    assert rep["cases"][0]["witnesses"]["peiffer"] == "(1, 1)"


def test_seed_override_changes_hash(tmp_path):
    path = _write(tmp_path, MINIMAL)
    cfg = load_config(path)
    other = RunConfig({**cfg.raw, "seed": 99})
    assert cfg.hash != other.hash


def test_gauge_transform_command(tmp_path):
    raw = dict(MINIMAL)
    raw["morphism"] = {"g": ["0.5*x1*x2"], "phi": [["0.2*x2"], ["0.1*x1"]]}
    cfg = RunConfig(raw)
    rep = run_command("gauge-transform", cfg, str(tmp_path / "out"),
                      quiet=True)
    assert rep["pass"]
    case = rep["cases"][0]
    assert case["output_fake_flat"]["residual"] <= 1e-7


def test_lie2algebra_overrides_accepted_and_validated():
    good = dict(MINIMAL)
    good["lie2algebra"] = {"t_star": [[1.0]],
                           "alpha_star": [[[0.0]]]}
    fam = RunConfig(good).family()
    assert fam.l2a.name.endswith("(config)")
    bad = dict(MINIMAL)
    bad["lie2algebra"] = {"t_star": [[-1.0]]}   # contradicts d/de t(exp(e xi))
    with pytest.raises(ConfigError) as err:
        RunConfig(bad).family()
    assert "t_star" in err.value.path


def test_fd_richardson_flag_accepted(tmp_path):
    raw = dict(MINIMAL)
    raw["numeric"] = {**raw["numeric"], "fd_richardson": True}
    cfg = RunConfig(raw)
    conn = cfg.connection()
    assert conn.fd_richardson


def test_config_schema_is_a_valid_schema():
    validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


def _numeric(**numeric):
    return {**MINIMAL, "numeric": {**MINIMAL["numeric"], **numeric}}


@pytest.mark.parametrize("raw,argv,key", [
    # an odd count in the config
    (_numeric(surface_steps=49), ["surface-transport"], "surface_steps"),
    # an odd count from the command-line override
    (MINIMAL, ["verify", "stokes", "--steps", "97"], "steps"),
    # an even count whose sweep halvings reach an odd one: 20, 10, 5
    (_numeric(surface_steps=20), ["surface-transport"], "surface_steps"),
    (MINIMAL, ["verify", "stokes", "--steps", "100"], "steps"),
    (_numeric(surface_steps=25), ["report"], "surface_steps"),
], ids=["config", "override", "sweep-halving", "override-sweep-halving",
        "report"])
def test_odd_simpson_step_count_is_a_config_error(tmp_path, capsys, raw,
                                                  argv, key):
    path = _write(tmp_path, raw)
    code = main([*argv, "--config", path, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2
    assert f"numeric.{key}" in capsys.readouterr().err


def test_odd_path_steps_stay_allowed_for_path_transport(tmp_path):
    path = _write(tmp_path, _numeric(steps=49))
    assert main(["transport", "--config", path, "--out",
                 str(tmp_path / "out"), "--quiet"]) == 0


@pytest.mark.parametrize("name", ["abelian_demo", "su2_demo", "u2pu2_higher"])
def test_shipped_configs_pass_the_step_count_check(name):
    cfg = load_config(pathlib.Path(__file__).parent.parent / "configs"
                      / f"{name}.json")
    _check_simpson_steps(_applicable(cfg), cfg.numeric())
