import collections
import copy
import json
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

import gauge2.cli
from gauge2.cli import _applicable, _check_simpson_steps, main, run_command
from gauge2.config import (_KEYWORDS, _TYPES, CONFIG_SCHEMA, RunConfig,
                           _best_match, _schema_errors, load_config)
from gauge2.errors import ConfigError
from gauge2.fields import CoefficientField, GroupValuedField
from gauge2.geometry import ParamMap
from gauge2.groups import MatrixGroup
from gauge2.lie2 import LieAlgebra
from gauge2.morphisms import OneMorphism

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
CONFIGS = pathlib.Path(__file__).parent.parent / "configs"


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


VERIFY_TARGETS = [name.partition("-")[2] for name in gauge2.cli.RUNNERS
                  if name.startswith("verify-")]


@pytest.mark.parametrize("argv,words", [
    (["transport", "stokes"], ["transport takes no target", "'stokes'"]),
    (["report", "A"], ["report takes no target", "'A'"]),
    (["verify"], ["verify needs a target", *VERIFY_TARGETS]),
    (["verify", "everything"], ["'everything'", *VERIFY_TARGETS]),
    (["reconstruct"], ["reconstruct needs a target", "A | B"]),
], ids=["stray", "stray-report", "missing-verify", "unknown-verify",
        "missing-reconstruct"])
def test_a_target_is_judged_before_the_command_runs(tmp_path, capsys, argv,
                                                    words):
    """Only verify and reconstruct take a target, one of their RUNNERS: a
    stray, missing or unknown target exits 2 naming it or the valid ones,
    and leaves no --out directory."""
    out = tmp_path / "out"
    code = main([*argv, "--config", _write(tmp_path, MINIMAL), "--out",
                 str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert all(word in err for word in words), err


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


@pytest.mark.parametrize("label", ["G", "H"])
def test_out_of_range_finite_identity_is_a_config_error(tmp_path, capsys,
                                                        label):
    z2 = {"table": [[0, 1], [1, 0]]}
    finite = {"G": z2, "H": z2, "t": [0, 1], "alpha": [[0, 1], [0, 1]]}
    finite[label] = {**z2, "identity": 7}
    path = _write(tmp_path, {"seed": 1, "crossed_module": {"finite": finite}})
    code = main(["check-crossed-module", "--config", path,
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert f"crossed_module.finite.{label}.identity" in capsys.readouterr().err


def test_unknown_finite_demo_is_a_config_error(tmp_path, capsys):
    raw = {"seed": 1, "crossed_module": {"finite": {"demo": "nope"}}}
    path = _write(tmp_path, raw)
    code = main(["check-crossed-module", "--config", path,
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "crossed_module.finite.demo" in err and "s3_id_conj" in err


Z2 = {"table": [[0, 1], [1, 0]]}
Z2_MODULE = {"G": Z2, "H": Z2, "t": [0, 1], "alpha": [[0, 1], [0, 1]]}
# the smallest non-associative loop with identity, a Latin square
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def _finite(**parts):
    return {"seed": 1, "crossed_module": {"finite": {**Z2_MODULE, **parts}}}


def _matrix(**l2a):
    return {"seed": 1, "crossed_module": {"matrix": {"family": "su2_id_conj"}},
            "lie2algebra": l2a}


@pytest.mark.parametrize("raw,argv,path", [
    (_finite(G={"table": [[0, 1], [1]]}), ["check-crossed-module"],
     "crossed_module.finite.G.table"),
    (_finite(G={"table": [[0, 1], [1]]}), ["torsor-selftest"],
     "crossed_module.finite.G.table"),
    (_finite(H={"table": [[0, 1], [1, 1]]}), ["check-crossed-module"],
     "crossed_module.finite.H.table"),
    (_finite(G={"table": LOOP5}), ["torsor-selftest"],
     "crossed_module.finite.G.table"),
    (_finite(G={"table": [[1, 0], [0, 1]]}), ["check-crossed-module"],
     "crossed_module.finite.G.table"),
    (_finite(t=[0]), ["check-crossed-module"], "crossed_module.finite.t"),
    (_finite(t=[0, 2]), ["torsor-selftest"], "crossed_module.finite.t"),
    (_finite(alpha=[[0, 1], [0, 0]]), ["check-crossed-module"],
     "crossed_module.finite.alpha.1"),
    (_finite(alpha=[[0, 1], [0]]), ["check-crossed-module"],
     "crossed_module.finite.alpha"),
    ({"seed": 1, "crossed_module": {"matrix": {"family": "nope"}}},
     ["check-crossed-module"], "crossed_module.matrix.family"),
    (_matrix(t_star=[[1, 0], [0, 1]]), ["check-crossed-module"],
     "lie2algebra.t_star"),
    (_matrix(t_star=[[1, 0, 0], [0, 1], [0, 0, 1]]), ["check-crossed-module"],
     "lie2algebra.t_star"),
    (_matrix(alpha_star=[[[1.0]]]), ["check-crossed-module"],
     "lie2algebra.alpha_star"),
], ids=["ragged-table", "ragged-table-selftest", "not-latin",
        "not-associative", "not-an-identity", "t-length", "t-range",
        "alpha-not-bijective", "ragged-alpha", "unknown-family",
        "t_star-shape", "ragged-t_star", "alpha_star-shape"])
def test_malformed_module_sections_are_config_errors(tmp_path, capsys, raw,
                                                     argv, path):
    code = main([*argv, "--config", _write(tmp_path, raw),
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert f"config invalid at '{path}'" in capsys.readouterr().err


def test_uncreatable_out_directory_exits_before_the_command(tmp_path, capsys,
                                                            monkeypatch):
    ran = []
    monkeypatch.setitem(gauge2.cli.RUNNERS, "torsor-selftest",
                        lambda *args: ran.append(args))
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"
    code = main(["torsor-selftest", "--config", _write(tmp_path, FINITE),
                 "--out", str(out), "--quiet"])
    assert code == 2 and ran == []
    assert "--out" in capsys.readouterr().err


def test_config_error_in_a_command_leaves_no_out_directory(tmp_path, capsys):
    """A single command builds its config sections after it creates --out:
    a bad one exits 2 and removes the directories it created, but keeps
    one that was there before."""
    raw = json.loads((CONFIGS / "su2_demo.json").read_text())
    raw["bigons"]["bad"] = ["u", "v", "0"]
    path = _write(tmp_path, raw)
    out = tmp_path / "new" / "out"
    argv = ["verify", "stokes", "--config", path, "--quiet", "--out"]
    assert main([*argv, str(out)]) == 2
    assert "bigons.bad" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    out.mkdir(parents=True)
    (out / "kept.txt").write_text("")
    assert main([*argv, str(out)]) == 2
    assert [p.name for p in out.iterdir()] == ["kept.txt"]


def test_seed_override_changes_hash(tmp_path):
    path = _write(tmp_path, MINIMAL)
    cfg = load_config(path)
    other = RunConfig({**cfg.raw, "seed": 99})
    assert cfg.hash != other.hash


@pytest.mark.parametrize("raw,argv", [
    ({**MINIMAL, "seed": -1}, []), (MINIMAL, ["--seed", "-3"])],
    ids=["config", "command-line"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, raw, argv):
    path = _write(tmp_path, raw)
    code = main(["verify", "fake-flat", "--config", path,
                 "--out", str(tmp_path / "out"), "--quiet", *argv])
    assert code == 2
    assert "config invalid at 'seed'" in capsys.readouterr().err


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


# t_* = 0, so the infinitesimal Peiffer identity says nothing about an
# alpha_star table; the action of u1_triv is trivial, so alpha_* must be 0
ALPHA_STAR_OVERRIDE = {
    "seed": 3,
    "crossed_module": {"matrix": {"family": "u1_triv"}},
    "lie2algebra": {"alpha_star": [[[5.0]]]},
    "chart": {"dim": 3},
    "connection": {"a": [["0.3*x2"], ["0.4"], ["0.2*x1"]],
                   "b": [["x3"], ["0.2*x1"], ["0.5"]]},
    "cubes": {"slab": ["w", "0.5*v*sin(pi*w)", "u*v*(1-v)*sin(pi*w)"]},
}


def test_alpha_star_override_is_checked_against_the_action(tmp_path, capsys):
    path = _write(tmp_path, ALPHA_STAR_OVERRIDE)
    for argv in (["check-crossed-module"], ["verify", "higher-stokes"]):
        assert main([*argv, "--config", path, "--out", str(tmp_path),
                     "--quiet"]) == 2
        assert "lie2algebra.alpha_star" in capsys.readouterr().err
    with pytest.raises(ConfigError) as err:
        RunConfig(ALPHA_STAR_OVERRIDE).family()
    assert err.value.path == "lie2algebra.alpha_star"
    # the analytic table passes
    raw = {k: v for k, v in ALPHA_STAR_OVERRIDE.items() if k != "lie2algebra"}
    assert main(["verify", "higher-stokes", "--config", _write(tmp_path, raw),
                 "--out", str(tmp_path), "--quiet"]) == 0


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


@pytest.mark.parametrize("steps,surface_steps", [
    (48, 24), (24, 48), (48, 48), (49, 24), (24, 49), (48, 49), (49, 48)])
def test_verify_thin_checks_the_step_count_it_solves_with(
        tmp_path, monkeypatch, capsys, steps, surface_steps):
    """The config-time parity check and the solve read the same key."""
    solved = []

    def recording(conn, bigons, p, n):
        solved.append(n)
        return np.zeros((len(bigons), 1, 1))

    monkeypatch.setattr(gauge2.cli, "surface_values", recording)
    raw = _numeric(steps=steps, surface_steps=surface_steps)
    path = _write(tmp_path, raw)
    code = main(["verify", "thin", "--config", path, "--out",
                 str(tmp_path / "out"), "--quiet"])
    n = max(steps, surface_steps)
    if n % 2:
        key = "steps" if steps == n else "surface_steps"
        assert code == 2 and f"numeric.{key}" in capsys.readouterr().err
        assert solved == []
    else:
        assert code == 0 and solved == [n]


def test_odd_path_steps_stay_allowed_for_path_transport(tmp_path):
    path = _write(tmp_path, _numeric(steps=49))
    assert main(["transport", "--config", path, "--out",
                 str(tmp_path / "out"), "--quiet"]) == 0


# A bigon whose Jacobian is quadratic in v and whose boundary integrands
# are polynomials of degree 2: Simpson and CF4 are exact on it at any
# count, so the solver minimums are reachable within the tolerances.  The
# lens of MINIMAL needs more steps there (a FAIL, exit 3).
POLY = {**MINIMAL, "bigons": {"poly": ["v", "v + 0.25*(2*u - 1)*v*(1 - v)"]}}


def test_path_sweep_stops_at_the_path_minimum(tmp_path):
    # 96 halved 7 times reaches 0; the sweep solves 12, 24, 48, 96
    out = tmp_path / "out"
    assert main(["transport", "--sweep", "7", "--config",
                 str(CONFIGS / "su2_demo.json"), "--out", str(out),
                 "--quiet"]) == 0
    for case in json.loads((out / "transport.json").read_text())["cases"]:
        assert case["order_estimate"] >= 3.5


@pytest.mark.parametrize("argv,numeric,counts", [
    (["verify", "stokes"], {"steps": 8, "sweep": 2}, [8]),
    (["verify", "stokes"], {"steps": 32, "sweep": 2}, [8, 16, 32]),
    (["verify", "stokes"], {"steps": 32, "sweep": 0}, [8, 16, 32]),
    (["surface-transport"], {"surface_steps": 4, "sweep": 2}, [2, 4]),
    (["surface-transport"], {"surface_steps": 16, "sweep": 5}, [2, 4, 8, 16]),
    (["surface-transport"], {"surface_steps": 16, "sweep": 1}, [16]),
], ids=["stokes-at-minimum", "stokes", "stokes-sweeps-twice",
        "surface-at-minimum", "surface-long-sweep", "surface-one-halving"])
def test_sweeps_solve_the_counts_the_step_check_validated(
        tmp_path, monkeypatch, argv, numeric, counts):
    """Halving stops at the solver's minimum and repeats no count, and
    the runner solves exactly the counts the config-time check saw."""
    validated, solved = [], []
    sweep_steps = gauge2.cli.sweep_steps

    def validating(steps, sweep, floor):
        counts = sweep_steps(steps, sweep, floor)
        validated.extend(counts)
        return counts

    def recording(name, at):
        # records the step counts, the solver's argument at position ``at``
        fn = getattr(gauge2.transport, name)

        def wrapper(*args):
            solved.extend(args[at])
            return fn(*args)
        monkeypatch.setattr(gauge2.transport, name, wrapper)

    monkeypatch.setattr(gauge2.cli, "sweep_steps", validating)
    if argv == ["surface-transport"]:
        recording("_surface_sweep", 3)      # (conn, bigons, p, counts)
    else:
        recording("_surface_generator", 2)  # (conn, bigons, counts, ...)
    raw = {**POLY, "numeric": {**MINIMAL["numeric"], **numeric}}
    out = tmp_path / "out"
    assert main([*argv, "--config", _write(tmp_path, raw), "--out", str(out),
                 "--quiet"]) == 0
    assert sorted(validated) == solved == counts
    if argv == ["verify", "stokes"]:
        rows = json.loads((out / "verify-stokes.json").read_text())
        assert [r["steps"] for r in rows["cases"][0]["rows"]] == counts


@pytest.mark.parametrize("flag,value,key", [
    ("--steps", "4", "steps"), ("--sweep", "-3", "sweep")])
def test_command_line_steps_and_sweep_are_checked_like_the_config(
        tmp_path, capsys, flag, value, key):
    argv = ["transport"] if key == "steps" else ["surface-transport"]
    code = main([*argv, flag, value, "--config", _write(tmp_path, MINIMAL),
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert f"numeric.{key}" in capsys.readouterr().err


def test_config_hash_is_that_of_the_config_that_ran(tmp_path):
    path = _write(tmp_path, MINIMAL)
    hashes = []
    for steps in ("48", "64"):
        out = tmp_path / steps
        assert main(["transport", "--steps", steps, "--config", path,
                     "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "transport.json").read_text())
        assert report["cases"][0]["steps"] == int(steps)
        hashes.append(report["config_hash"])
    ran = {**MINIMAL, "numeric": {**MINIMAL["numeric"], "steps": 64}}
    assert hashes[0] == RunConfig(MINIMAL).hash
    assert hashes[1] == RunConfig(ran).hash != hashes[0]


def _no_constant(name):
    raise ValueError(f"not JSON: {name}")


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_reports_are_strict_json(tmp_path, name):
    """NaN and Infinity are not JSON: an order that cannot be measured is
    null."""
    assert main(["report", "--config", str(CONFIGS / f"{name}.json"),
                 "--out", str(tmp_path), "--quiet"]) == 0
    written = sorted(tmp_path.glob("*.json"))
    assert written
    for path in written:
        json.loads(path.read_text(), parse_constant=_no_constant)


@pytest.mark.parametrize("name", ["abelian_demo", "su2_demo", "u2pu2_higher"])
def test_shipped_configs_pass_the_step_count_check(name):
    cfg = load_config(pathlib.Path(__file__).parent.parent / "configs"
                      / f"{name}.json")
    _check_simpson_steps(_applicable(cfg), cfg.numeric())


BOXED = {**MINIMAL, "chart": {"dim": 2, "box": [[-0.5, 1.5], [-0.5, 1.5]]}}


@pytest.mark.parametrize("kind,exprs,argv", [
    ("paths", ["2*u", "0"], ["transport"]),
    ("bigons", ["v", "2*u*sin(pi*v)"], ["surface-transport"]),
    ("cubes", ["v", "w - 1.5*u*sin(pi*w)"], ["verify", "higher-stokes"]),
    ("paths", ["u", "0", "0"], ["transport"]),
    # a variable the map's arity does not allow
    ("paths", ["x1", "0"], ["transport"]),
    ("bigons", ["v", "w"], ["surface-transport"]),
    ("cubes", ["v", "x2"], ["verify", "higher-stokes"]),
    # an expression that does not parse
    ("paths", ["u +", "0"], ["transport"]),
], ids=["path-leaves-box", "bigon-leaves-box", "cube-leaves-box",
        "path-wrong-dimension", "path-forbidden-variable",
        "bigon-forbidden-variable", "cube-forbidden-variable",
        "path-parse-error"])
def test_maps_outside_the_chart_are_config_errors(tmp_path, capsys, kind,
                                                  exprs, argv):
    raw = {**BOXED, kind: {**BOXED.get(kind, {}), "stray": exprs}}
    path = _write(tmp_path, raw)
    code = main([*argv, "--config", path, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2
    assert f"{kind}.stray" in capsys.readouterr().err


@pytest.mark.parametrize("box,where", [
    ([[-0.5, 1.5]], "chart.box"),
    ([[-0.5, 1.5]] * 3, "chart.box"),
    ([[1.5, -0.5], [-0.5, 1.5]], "chart.box.0"),
    ([[-0.5, 1.5], [0.5, 0.5]], "chart.box.1"),
], ids=["too-few-rows", "too-many-rows", "reversed-row", "empty-row"])
def test_bad_chart_boxes_are_config_errors(tmp_path, capsys, box, where):
    # BOXED has a bigon, which a reversed box would otherwise seem to leave
    path = _write(tmp_path, {**BOXED, "chart": {"dim": 2, "box": box}})
    code = main(["verify", "fake-flat", "--config", path,
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert f"config invalid at '{where}'" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["abelian_demo", "su2_demo", "u2pu2_higher",
                                  "finite_torsor", "s3_id_conj"])
def test_shipped_configs_map_into_their_charts(name):
    cfg = load_config(CONFIGS / f"{name}.json")
    for kind in ("paths", "bigons", "cubes"):
        cfg.param_maps(kind)


def test_s3_id_conj_demo_config(tmp_path):
    path = str(CONFIGS / "s3_id_conj.json")
    out = tmp_path / "out"
    for argv in (["torsor-selftest"], ["check-crossed-module"]):
        assert main([*argv, "--config", path, "--out", str(out),
                     "--quiet"]) == 0
    laws = json.loads((out / "torsor-selftest.json").read_text())
    assert laws["cases"][0]["laws"]
    assert all(v == 0.0 for v in laws["cases"][0]["laws"].values())
    axioms = json.loads((out / "check-crossed-module.json").read_text())
    case = axioms["cases"][0]
    assert case["name"] == "s3_id_conj" and case["samples"] == 6 ** 3
    for key in ("equivariance", "peiffer", "t_homomorphism", "centrality",
                "interchange_defect"):
        assert case[key] == 0.0
    assert case["witnesses"] == {}


@pytest.mark.parametrize("which", ["A", "B"])
def test_reconstruct_reports_list_their_samples(tmp_path, which):
    cfg = RunConfig(MINIMAL)
    command = f"reconstruct-{which}"
    run_command(command, cfg, str(tmp_path / "r1"), quiet=True)
    run_command(command, cfg, str(tmp_path / "r2"), quiet=True)
    first = (tmp_path / "r1" / f"{command}.json").read_bytes()
    assert first == (tmp_path / "r2" / f"{command}.json").read_bytes()
    case = json.loads(first)["cases"][0]
    assert case["points"] == 10 and case["pass"]
    assert 0.0 <= case["worst_relative_to_tolerance"] <= 1.0
    listed = ["sample_points", "X", "reconstructed", "expected"]
    listed += ["Y"] if which == "B" else []
    for key in listed:
        assert len(case[key]) == 10
    conn = cfg.connection()
    x, X = np.array(case["sample_points"][3]), np.array(case["X"][3])
    if which == "A":
        want = conn.a_of(x[None], X)[0]
    else:
        want = conn.b_of(x[None], X, np.array(case["Y"][3]))[0]
    assert np.allclose(case["expected"][3], want, rtol=0, atol=1e-14)
    assert np.allclose(case["reconstructed"][3], want, rtol=0,
                       atol=1e-4 * (1.0 + np.max(np.abs(want))))


@pytest.mark.parametrize("key,value", [("fd_step", 2e-3),
                                       ("fd_richardson", True)])
def test_stencil_settings_are_config_errors(tmp_path, capsys, key, value):
    """The stencil step follows the chart and has no Richardson level: a
    config that still sets either key exits 2 at ``numeric``."""
    path = _write(tmp_path, _numeric(**{key: value}))
    code = main(["verify", "fake-flat", "--config", path,
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert (f"config invalid at 'numeric': Additional properties are not "
            f"allowed ('{key}' was unexpected)") in capsys.readouterr().err


def test_reconstruct_runs_without_scipy(tmp_path):
    """scipy is a test-only dependency: a fresh interpreter that runs a
    command which takes group logarithms never imports it."""
    argv = ["reconstruct", "A", "--config", str(CONFIGS / "u2pu2_higher.json"),
            "--out", str(tmp_path), "--quiet"]
    script = ("import sys\nfrom gauge2.cli import main\n"
              f"code = main({argv!r})\n"
              "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = str(pathlib.Path(__file__).parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 []"


@pytest.mark.parametrize("command", ["higher-stokes", "fake-flat"])
def test_dsl_connections_take_no_stencil(tmp_path, monkeypatch, command):
    """On a connection, b_extra and cube given as DSL expressions, K, F,
    the fake-flat b and the cube tangents are exact: no stencil is taken,
    and the Bianchi defect t_* K is roundoff."""
    calls = []      # the stencilled objects
    stencil = gauge2.fields.directional_diff

    def counting(fn, *args, **kwargs):
        calls.append(fn)
        return stencil(fn, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("gauge2.") and getattr(
                module, "directional_diff", None) is stencil:
            monkeypatch.setattr(module, "directional_diff", counting)
    assert main(["verify", command, "--config",
                 str(CONFIGS / "u2pu2_higher.json"), "--out", str(tmp_path),
                 "--quiet"]) == 0
    assert calls == [], [repr(fn) for fn in calls]
    report = json.loads((tmp_path / f"verify-{command}.json").read_text())
    if command == "higher-stokes":
        assert report["cases"][0]["bianchi_defect"] <= 1e-13
    else:
        assert report["cases"][0]["residual"] <= 1e-13


def test_sampled_axiom_checks_draw_whole_batches(tmp_path, monkeypatch):
    """check-crossed-module on a matrix module exponentiates each aligned
    batch of samples at once: g, h, h' and the centrality partners, then
    the six components of the interchange quadruples (6,650 calls when
    each element was drawn alone)."""
    sizes = []
    group_exp = MatrixGroup.exp

    def counting(group, X):
        sizes.append(np.shape(X)[:-2])
        return group_exp(group, X)

    monkeypatch.setattr(MatrixGroup, "exp", counting)
    assert main(["check-crossed-module", "--config",
                 str(CONFIGS / "su2_demo.json"), "--out", str(tmp_path),
                 "--quiet"]) == 0
    assert sizes == [(200,)] * 3 + [(50,)] + [(1000,)] * 6


def test_verify_thin_checks_each_reparameterization_once(tmp_path,
                                                         monkeypatch):
    """The five reparameterizations are built and checked once per
    process, not once per bigon (su2_demo has five bigons) or command."""
    gauge2.cli._thin_reparams.cache_clear()
    checked = []
    check = gauge2.cli.check_reparameterization

    def counting(phi, arity, *args):
        checked.append(phi)
        return check(phi, arity, *args)

    monkeypatch.setattr(gauge2.cli, "check_reparameterization", counting)
    built = collections.Counter()
    from_exprs = ParamMap.from_exprs.__func__

    def building(cls, exprs, arity, name="map"):
        built[name] += 1
        return from_exprs(cls, exprs, arity, name)

    monkeypatch.setattr(ParamMap, "from_exprs", classmethod(building))
    config = CONFIGS / "su2_demo.json"
    assert len(json.loads(config.read_text())["bigons"]) == 5
    assert main(["verify", "thin", "--config", str(config), "--out",
                 str(tmp_path), "--quiet"]) == 0
    assert len(checked) == len(set(map(id, checked))) == 5
    assert built["reparam"] == 5
    report = json.loads((tmp_path / "verify-thin.json").read_text())
    assert [c["reparameterizations"] for c in report["cases"]] == [5] * 5
    assert main(["verify", "thin", "--config", str(config), "--out",
                 str(tmp_path), "--quiet"]) == 0
    assert len(checked) == 5 and built["reparam"] == 5
    assert json.loads((tmp_path / "verify-thin.json").read_text()) == report


# stencil calls per `report` command before paths, bigons and gauge
# functions carried exact derivatives (straight rays, the lens filling,
# reparameterized bigons, the Ambrose-Singer loop family and exp(X) fields
# took the stencil); none may rise
STENCIL_CALLS_BEFORE = {
    "abelian_demo": {"gauge-transform": 22, "reconstruct-A": 80,
                     "reconstruct-B": 640, "verify-gauge": 20, "verify-thin": 80},
    "su2_demo": {"gauge-transform": 22, "reconstruct-A": 80,
                 "reconstruct-B": 640, "verify-gauge": 92, "verify-thin": 200},
    "u2pu2_higher": {"reconstruct-A": 80, "reconstruct-B": 640,
                     "verify-ambrose-singer": 67, "verify-thin": 40},
    "finite_torsor": {},
    "s3_id_conj": {},
}


def test_report_takes_no_stencil_of_a_dsl_field(tmp_path, monkeypatch):
    """Every field and map of the shipped configs is DSL, and so is every
    map a command builds: the stencil serves only group-valued fields and
    the gauge-transformed connection, never a coefficient field, a map or a
    method that hides one (a gauge transform once differenced phi through
    ``OneMorphism.phi_coeffs``).  Only ``gauge-transform`` and ``verify
    gauge`` take it, the latter only for the independent derivative of its
    A-level check."""
    differenced = collections.defaultdict(list)   # command -> [(fn, in check)]
    stencil = gauge2.fields.directional_diff
    where = {"command": None, "in_check": False}

    def recording(fn, *args, **kwargs):
        differenced[where["command"]].append((fn, where["in_check"]))
        return stencil(fn, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("gauge2.") and getattr(
                module, "directional_diff", None) is stencil:
            monkeypatch.setattr(module, "directional_diff", recording)
    for command, runner in list(gauge2.cli.RUNNERS.items()):
        def entering(*args, _command=command, _runner=runner):
            where["command"] = _command
            return _runner(*args)
        monkeypatch.setitem(gauge2.cli.RUNNERS, command, entering)
    check = gauge2.cli.pullback_defects

    def checking(*args, **kwargs):
        where["in_check"] = True
        try:
            return check(*args, **kwargs)
        finally:
            where["in_check"] = False

    monkeypatch.setattr(gauge2.cli, "pullback_defects", checking)
    for config, before in STENCIL_CALLS_BEFORE.items():
        differenced.clear()
        assert main(["report", "--config", str(CONFIGS / f"{config}.json"),
                     "--out", str(tmp_path / config), "--quiet"]) == 0
        assert set(differenced) <= set(before), config
        assert set(differenced) <= {"gauge-transform", "verify-gauge"}, config
        for command, calls in differenced.items():
            assert len(calls) <= before[command], (config, command)
        if "verify-gauge" in before:
            assert differenced["verify-gauge"]
            assert all(in_check for _, in_check in differenced["verify-gauge"])
        kinds = {type(fn) for calls in differenced.values() for fn, _ in calls}
        assert kinds <= {GroupValuedField, types.FunctionType}, kinds
        for calls in differenced.values():
            for fn, _ in calls:
                assert not isinstance(fn, (CoefficientField, ParamMap)), fn
                assert not hasattr(fn, "jet"), fn


def test_pullback_check_shows_a_dexp_without_its_double_bracket(tmp_path,
                                                                monkeypatch):
    """The A-level check differences g itself, so a dexp that drops its
    [X, [X, dX]] term, which builds the transformed a, fails it."""
    def truncated(alg, X, dX):
        t2 = np.maximum(-0.5 * np.einsum("...i,ij,...j->...", X, alg.killing, X), 0)
        f1 = 0.5 * np.sinc(np.sqrt(t2) / (2.0 * np.pi)) ** 2
        return dX + f1[..., None] * alg.bracket(X, dX)

    monkeypatch.setattr(LieAlgebra, "dexp", truncated)
    assert main(["verify", "gauge", "--config", str(CONFIGS / "su2_demo.json"),
                 "--out", str(tmp_path), "--quiet"]) == 3
    cases = json.loads((tmp_path / "verify-gauge.json").read_text())["cases"]
    assert min(case["a_pullback_defect"] for case in cases) > 1e-3
    assert not any(case["pass"] for case in cases)


def test_verify_gauge_checks_the_a_level_once(tmp_path, monkeypatch):
    """The A-level identity depends on no bigon: one check per command,
    whose value every bigon's case reports."""
    calls = []
    check = gauge2.cli.pullback_defects

    def counting(*args, **kwargs):
        calls.append(check(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(gauge2.cli, "pullback_defects", counting)
    assert main(["verify", "gauge", "--config", str(CONFIGS / "su2_demo.json"),
                 "--out", str(tmp_path), "--quiet"]) == 0
    assert len(calls) == 1 and len(calls[0]) == 3
    cases = json.loads((tmp_path / "verify-gauge.json").read_text())["cases"]
    assert len(cases) == 15
    for i, case in enumerate(cases):
        assert case["a_pullback_defect"] == calls[0][i % 3]


FIELDS = {**MINIMAL, "morphism": {"g": ["0.7*x1*x2"],
                                  "phi": [["0.3*x2"], ["0.2*x1"]]}}


@pytest.mark.parametrize("section,key,exprs,argv", [
    ("connection", "a", [["0"], ["0.9*x1 +"]], ["transport"]),
    ("connection", "b", [["0.9*x5"]], ["transport"]),
    ("connection", "b_extra", [["(x1"]], ["transport"]),
    ("morphism", "g", ["0.9*x5"], ["verify", "gauge"]),
    ("morphism", "phi", [["0.3*x2"], ["0.2*x1 *"]], ["verify", "gauge"]),
    ("two_morphism", "a", ["0.3*x3"], ["verify", "gauge"]),
    ("transition", "g", ["sin(x1"], ["verify", "fake-flat"]),
    ("connection", "a", [["0"], ["x1^²"]], ["transport"]),
], ids=["connection.a", "connection.b", "connection.b_extra", "morphism.g",
        "morphism.phi", "two_morphism.a", "transition.g",
        "connection.a-unicode-digit"])
def test_bad_field_expressions_are_config_errors(tmp_path, capsys, section,
                                                 key, exprs, argv):
    # a parse error or a chart variable the chart does not have is an
    # error of the config, not of the computation
    raw = json.loads(json.dumps(FIELDS))
    raw.setdefault(section, {})[key] = exprs
    path = _write(tmp_path, raw)
    code = main([*argv, "--config", path, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2
    assert f"'{section}.{key}'" in capsys.readouterr().err


def test_cube_whose_slices_do_not_share_their_paths_is_a_config_error(
        tmp_path, capsys):
    """A cube must be a family of bigons between common boundary paths;
    one that is not exits 2 naming it before any solve."""
    raw = json.loads((CONFIGS / "u2pu2_higher.json").read_text())
    raw["cubes"]["bad"] = ["w", "0.3*u*v", "0.2*v*sin(pi*w)"]
    code = main(["verify", "higher-stokes", "--config", _write(tmp_path, raw),
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "config invalid at 'cubes.bad'" in err and "slices disagree" in err



@pytest.fixture(scope="module")
def u2pu2_ambrose_singer(tmp_path_factory):
    out = tmp_path_factory.mktemp("ambrose-singer")
    code = main(["verify", "ambrose-singer", "--config",
                 str(CONFIGS / "u2pu2_higher.json"), "--out", str(out),
                 "--quiet"])
    report = json.loads((out / "verify-ambrose-singer.json").read_text())
    return code, report["cases"][0]


def test_ambrose_singer_holonomies_are_not_trivial(u2pu2_ambrose_singer):
    """The loop-bigon slices enclose a volume, so the reduced 2-holonomies
    whose logs the containment check tests are not all e (a family that
    goes out and back the same way reads 2.7e-18)."""
    code, case = u2pu2_ambrose_singer
    assert code == 0 and case["span_rank"] == 1
    assert case["holonomy_scale"] >= 1e-3


def test_ambrose_singer_derivative_matches_the_signed_integral(
        u2pu2_ambrose_singer):
    """d/dr log hol(r) equals SURFACE_ODE_SIGN times the K double integral
    to far below the holonomy's size; the integral with the opposite sign
    misses it by 2.2e-2, and the command exits 3."""
    code, case = u2pu2_ambrose_singer
    assert code == 0 and case["derivative_pass"]
    assert case["derivative_defect"] <= 1e-5 * case["holonomy_scale"]


@pytest.mark.parametrize("shift,ok", [(5e-8, True), (2e-7, False)])
def test_gauge_transform_judges_its_output_at_one_tolerance(
        tmp_path, monkeypatch, shift, ok):
    """The output residual's own pass flag and the case's verdict read the
    same tolerance, so a residual between the two fake-flat tolerances
    cannot give a report that says both."""
    transform = gauge2.cli.gauge_transform

    def shifted(conn, m):
        # b off fake-flat by ``shift``: t = id on su2_id_conj
        out = copy.copy(transform(conn, m))
        out._b_extra = lambda points: np.full(
            (len(points), len(out.pairs), out.family.l2a.h_alg.dim), shift)
        return out

    monkeypatch.setattr(gauge2.cli, "gauge_transform", shifted)
    code = main(["gauge-transform", "--config", str(CONFIGS / "su2_demo.json"),
                 "--out", str(tmp_path), "--quiet"])
    case, = json.loads((tmp_path / "gauge-transform.json").read_text())["cases"]
    assert abs(case["output_fake_flat"]["residual"] - shift) <= 1e-12
    assert case["output_fake_flat"]["pass"] is case["pass"] is ok
    assert code == (0 if ok else 3)


TRANSITION = {**FIELDS, "transition": {"g": ["0.4"]}}


def _tol(name):
    return lambda case: gauge2.cli.TOL[name]


def _relative(name):
    """An Ambrose-Singer bound: TOL[name] relative to the holonomy scale."""
    return lambda case: gauge2.cli.TOL[name] * (1.0 + case["holonomy_scale"])


# (argv, config, the patched function's owner and name, key, its bound)
VERDICTS = {
    "kernel": (["verify", "higher-stokes"], "u2pu2_higher", gauge2.cli,
               "verify_higher_stokes", "kernel_defect", _tol("higher_stokes")),
    "bianchi": (["verify", "higher-stokes"], "u2pu2_higher", gauge2.cli,
                "verify_higher_stokes", "bianchi_defect", _tol("fake_flat")),
    "membership": (["gauge-transform"], "su2_demo", OneMorphism,
                   "membership_defect", "morphism_membership_defect",
                   _tol("gauge_a_grid")),
    "transport-group": (["transport"], "su2_demo", gauge2.cli,
                        "path_ordered_exp", "group_defect", _tol("group")),
    "surface-group": (["surface-transport"], "su2_demo", gauge2.cli,
                      "surface_transport", "group_defect", _tol("group")),
    "surface-target-identity": (["surface-transport"], "su2_demo", gauge2.cli,
                                "surface_transport", "target_identity_defect",
                                _tol("target_identity")),
    "fake-flat": (["verify", "fake-flat"], "u2pu2_higher", gauge2.cli,
                  "fake_flatness_residual", "residual", _tol("fake_flat")),
    "local-data-a": (["verify", "fake-flat"], TRANSITION, gauge2.cli,
                     "check_local_data", "a_defect", _tol("local_data")),
    "local-data-b": (["verify", "fake-flat"], TRANSITION, gauge2.cli,
                     "check_local_data", "b_defect", _tol("local_data")),
    "local-data-membership": (["verify", "fake-flat"], TRANSITION, gauge2.cli,
                              "check_local_data",
                              "transition_membership_defect", _tol("group")),
    "containment": (["verify", "ambrose-singer"], "u2pu2_higher", gauge2.cli,
                    "ambrose_singer_check", "containment_residual",
                    _relative("as_span")),
    "derivative": (["verify", "ambrose-singer"], "u2pu2_higher", gauge2.cli,
                   "ambrose_singer_check", "derivative_defect",
                   _relative("as_derivative")),
    "interchange": (["check-crossed-module"], "su2_demo", gauge2.cli,
                    "interchange_defect", "interchange_defect",
                    lambda case: case["tolerance"]),
}


@pytest.mark.parametrize("argv,config,owner,solver,key,bound",
                         VERDICTS.values(), ids=VERDICTS)
def test_a_defect_over_its_tolerance_fails_its_case(
        tmp_path, monkeypatch, argv, config, owner, solver, key, bound):
    """Every verdict cli.py sets can flip: the config passes, and each case
    that carries the key fails, exit 3, once the library's measurement is
    twice the key's bound."""
    path = (str(CONFIGS / f"{config}.json") if isinstance(config, str)
            else _write(tmp_path, config))
    report = tmp_path / f"{'-'.join(argv)}.json"

    def run():
        code = main([*argv, "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        cases = json.loads(report.read_text())["cases"]
        return code, cases, [c for c in cases if key in c]

    code, cases, judged = run()
    assert code == 0 and all(c["pass"] for c in cases) and judged
    assert all(c[key] <= bound(c) for c in judged)
    over = 2 * max(bound(c) for c in judged)
    solve = getattr(owner, solver)

    def patched(*args, **kwargs):
        rep = solve(*args, **kwargs)
        return {**rep, key: over} if isinstance(rep, dict) else over

    monkeypatch.setattr(owner, solver, patched)
    code, cases, judged = run()
    assert code == 3 and judged
    assert all(c[key] == over and not c["pass"] for c in judged)


def test_field_math_error_at_a_point_stays_a_numerical_failure(tmp_path):
    raw = {**FIELDS, "connection": {"a": [["0"], ["log(x1 - 5)"]]}}
    path = _write(tmp_path, raw)
    assert main(["transport", "--config", path, "--out",
                 str(tmp_path / "out"), "--quiet"]) == 3


def test_transition_config_runs(tmp_path):
    # a constant U(1) transition leaves the abelian connection unchanged,
    # so the connection glues to itself through it
    path = _write(tmp_path, TRANSITION)
    assert main(["verify", "fake-flat", "--config", path, "--out",
                 str(tmp_path / "out"), "--quiet"]) == 0
    cases = json.loads((tmp_path / "out" / "verify-fake-flat.json")
                       .read_text())["cases"]
    assert [c["name"] for c in cases] == ["fake-flat", "local-data"]


# --- the config validator against jsonschema ----------------------------------
# jsonschema is a test-only reference: the validator in gauge2.config must
# accept and reject the same configs and report best_match's path and message.

REFERENCE = validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)
MUTATION_VALUES = [
    0, 1, -1, 2, 3, 4, 7, 8, 1.0, 8.0, 2.5, -0.5, 1e-3, 0.0, True, False,
    None, float("nan"), float("inf"), "", "x", "0.5*x1", "fake_flat",
    "s3_id_conj", "u1_id", [], [""], ["x"], [1], [0.5, 1.5], [[]], [["x"]],
    [0.0, 1.0, 2.0], [["1", 2]], [[1, 2]], [["0"], ["x1"]], {}, {"a": 1},
    {"family": "u1_id"}, {"cyclic": 0}, {"demo": "nope"}, {"g": ["0"]}]
MUTATION_KEYS = ["seed", "a", "b", "g", "phi", "family", "demo", "dim", "box",
                 "cyclic", "table", "identity", "t", "G", "steps", "fd_step",
                 "extra", "0"]


def _nodes(value, path=()):
    """Every (path, value) of a JSON tree, the root first."""
    yield path, value
    children = (value.items() if isinstance(value, dict) else
                enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutate(raw, rng):
    """One to three random edits of a deep copy of ``raw``: a replaced
    value, an extra key, a deleted key or a shortened list."""
    raw = copy.deepcopy(raw)
    for _ in range(int(rng.integers(1, 4))):
        nodes = list(_nodes(raw))
        path, node = nodes[int(rng.integers(len(nodes)))]
        kind = int(rng.integers(4))
        value = copy.deepcopy(MUTATION_VALUES[int(rng.integers(len(MUTATION_VALUES)))])
        if kind == 1 and isinstance(node, dict):
            node[MUTATION_KEYS[int(rng.integers(len(MUTATION_KEYS)))]] = value
        elif kind == 2 and isinstance(node, dict) and node:
            del node[list(node)[int(rng.integers(len(node)))]]
        elif kind == 3 and isinstance(node, list) and node:
            del node[int(rng.integers(len(node))):]
        elif path:
            parent = raw
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        elif rng.random() < 0.1:
            raw = value
    return raw


def _mutation_bases():
    shipped = [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))]
    return shipped + [MINIMAL, FINITE, FIELDS, BOXED]


def _reference_match(raw):
    """(valid, path, message, error count) by jsonschema."""
    errors = list(REFERENCE.iter_errors(raw))
    err = best_match(errors)
    if err is None:
        return True, None, None, 0
    return False, list(err.absolute_path), err.message, len(errors)


def _own_match(raw):
    err = _best_match(_schema_errors(raw, CONFIG_SCHEMA))
    return (True, None, None) if err is None else (False, list(err[1]), err[4])


def test_validator_agrees_with_jsonschema_on_mutated_configs():
    """Validity, error path and message equal jsonschema's best_match on
    seeded mutations, many of them with several errors to rank."""
    rng = np.random.default_rng(1101)
    bases = _mutation_bases()
    disagreements, invalid, multi = [], 0, 0
    for case in range(3000):
        raw = _mutate(bases[case % len(bases)], rng)
        *want, count = _reference_match(raw)
        got = _own_match(raw)
        invalid += not want[0]
        multi += count > 1
        if tuple(want) != got:
            disagreements.append((raw, want, got))
    assert not disagreements, disagreements[:3]
    assert invalid > 1500 and multi > 500, (invalid, multi)


def test_validator_accepts_every_unmutated_config():
    for raw in _mutation_bases():
        assert _own_match(raw) == (True, None, None)
        assert _reference_match(raw)[0]


def _with(section, **entries):
    return {**BOXED, section: {**BOXED[section], **entries}}


@pytest.mark.parametrize("keyword,raw", [
    ("type", {**MINIMAL, "seed": 1.5}),
    ("additionalProperties", {**MINIMAL, "extra": 1, "more": 2}),
    ("required", {"crossed_module": {"matrix": {}}}),
    ("minItems", _with("connection", a=[])),
    ("maxItems", _with("chart", box=[[0, 1], [0, 1, 2]])),
    ("minLength", _with("paths", seg=["u", ""])),
    ("minimum", _with("numeric", steps=4)),
    ("additionalProperties", _with("numeric", fd_step=0)),
    ("enum", {**FINITE, "crossed_module": {"finite": {"demo": "z5"}}}),
    ("anyOf", _with("connection", b="flat")),
    ("type", _with("connection", b=[["0"], [0]])),
])
def test_each_keyword_reports_like_jsonschema(keyword, raw):
    assert best_match(REFERENCE.iter_errors(raw)).validator == keyword
    assert _own_match(raw) == _reference_match(raw)[:3]


def test_config_error_message_keeps_jsonschema_wording():
    raw = {**MINIMAL, "connection": {**MINIMAL["connection"], "b": []}}
    with pytest.raises(ConfigError) as err:
        RunConfig(raw)
    assert str(err.value) == ("config invalid at 'connection.b': "
                              "[] should be non-empty")
    assert err.value.path == "connection.b"


def _subschemas(schema):
    yield schema
    for key, arg in schema.items():
        if key == "properties":
            for sub in arg.values():
                yield from _subschemas(sub)
        elif key in ("items", "additionalProperties") and isinstance(arg, dict):
            yield from _subschemas(arg)
        elif key == "anyOf":
            for sub in arg:
                yield from _subschemas(sub)


def test_validator_implements_every_schema_keyword():
    """A keyword added to CONFIG_SCHEMA that the validator does not
    interpret would be skipped silently: fail on it here."""
    for schema in _subschemas(CONFIG_SCHEMA):
        assert set(schema) <= _KEYWORDS, set(schema) - _KEYWORDS
        assert schema.get("type", "object") in _TYPES
        # the validator compares enum and const values with ==, which is
        # JSON equality only for strings
        assert all(isinstance(v, str) for v in
                   schema.get("enum", []) + [schema.get("const", "")])


def test_cli_import_does_not_import_jsonschema():
    src = str(pathlib.Path(__file__).parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", "import sys, gauge2.cli\n"
         "print(sorted(m for m in sys.modules if m.startswith('jsonschema')))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_repeated_main_calls_write_the_reports_of_separate_processes(tmp_path):
    """The parser is built once at import: calls in one process, with and
    without --steps/--seed, write what fresh processes write."""
    path = _write(tmp_path, MINIMAL)
    runs = [["--steps", "40", "--seed", "9"], []]
    src = str(pathlib.Path(__file__).parent.parent / "src")
    for k, extra in enumerate(runs):
        argv = ["verify", "stokes", "--config", path, "--quiet", *extra]
        assert main(argv + ["--out", str(tmp_path / f"same{k}")]) == 0
        done = subprocess.run(
            [sys.executable, "-m", "gauge2.cli", *argv,
             "--out", str(tmp_path / f"fresh{k}")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
    same = [_tree(tmp_path / f"same{k}") for k in range(len(runs))]
    assert same == [_tree(tmp_path / f"fresh{k}") for k in range(len(runs))]
    assert same[0]["verify-stokes.json"] != same[1]["verify-stokes.json"]


def test_an_edited_config_reports_in_process_as_in_a_fresh_process(tmp_path):
    """Programs are cached per process by their source text: after the
    config's coefficients change, a second report in the same process
    equals a fresh process's report of the edited config."""
    raw = json.loads((CONFIGS / "abelian_demo.json").read_text())
    path = _write(tmp_path, raw)
    argv = ["report", "--config", path, "--quiet"]
    assert main(argv + ["--out", str(tmp_path / "before")]) == 0
    raw["connection"]["a"] = [["0.2*x2"], ["0.7*x1"]]
    raw["bigons"]["bulge"] = ["v", "0.5*u*sin(pi*v)"]
    _write(tmp_path, raw)
    assert main(argv + ["--out", str(tmp_path / "same")]) == 0
    src = str(pathlib.Path(__file__).parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-m", "gauge2.cli", *argv,
         "--out", str(tmp_path / "fresh")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    same = _tree(tmp_path / "same")
    assert same == _tree(tmp_path / "fresh")
    assert same["report.json"] != _tree(tmp_path / "before")["report.json"]


def test_a_report_builds_each_configured_map_once(tmp_path, monkeypatch):
    """su2_demo's report builds its 5 bigons, 2 paths, the 5 thin
    reparameterizations and the reconstruction lens once each: 13 maps
    (28 when each command built its own)."""
    gauge2.cli._thin_reparams.cache_clear()
    gauge2.transport._lens_bigon.cache_clear()
    built = collections.Counter()
    from_exprs = ParamMap.from_exprs.__func__

    def building(cls, exprs, arity, name="map"):
        built[name] += 1
        return from_exprs(cls, exprs, arity, name)

    monkeypatch.setattr(ParamMap, "from_exprs", classmethod(building))
    raw = json.loads((CONFIGS / "su2_demo.json").read_text())
    assert main(["report", "--config", str(CONFIGS / "su2_demo.json"),
                 "--out", str(tmp_path), "--quiet"]) == 0
    assert built == collections.Counter(
        [*raw["bigons"], *raw["paths"], *["reparam"] * 5, "lens"])
    assert sum(built.values()) == 13


@pytest.mark.parametrize("config,section,name,value", [
    ("u2pu2_higher", "cubes", "bad", ["w", "0.3*u*v", "0.2*v*sin(pi*w)"]),
    ("su2_demo", "bigons", "bad", ["u", "v", "0"]),
    ("su2_demo", "paths", "bad", ["u", "x1"]),
    ("su2_demo", "morphism", "g", ["0.4*x1", "0.3*x2 +", "0"]),
    ("su2_demo", "transition", "g", ["0.3*x9", "0", "0"]),
], ids=["cube", "bigon", "path", "morphism", "transition"])
def test_a_report_checks_every_section_before_writing(tmp_path, capsys, config,
                                                      section, name, value):
    """A config error in any section stops the report before it creates
    --out; a report that ran its first commands would leave their CSV
    tables or at least the directory behind."""
    raw = json.loads((CONFIGS / f"{config}.json").read_text())
    raw.setdefault(section, {})[name] = value
    out = tmp_path / "out"
    assert main(["report", "--config", _write(tmp_path, raw), "--out",
                 str(out), "--quiet"]) == 2
    assert f"'{section}.{name}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["transport"], ["surface-transport"],
                                  ["verify", "stokes"], ["verify", "thin"]],
                         ids="-".join)
def test_basepoint_key_is_rejected(tmp_path, capsys, argv):
    # each case starts at the corner of its own map, in the identity frame,
    # so a basepoint key is unknown to the schema
    raw = json.loads((CONFIGS / "su2_demo.json").read_text())
    for value in ([0, 0, 0], [0.3, 0.4]):
        path = _write(tmp_path, {**raw, "basepoint": value})
        code = main([*argv, "--config", path, "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == 2
        assert "basepoint" in capsys.readouterr().err
