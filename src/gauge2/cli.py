"""Command-line entry point: configuration ingestion, verification
dispatch, JSON report emission and CSV convergence tables.

Every command reads one JSON config (see :mod:`gauge2.config`), writes
``<out>/<command>.json`` plus optional ``<out>/<command>-<case>.csv``
convergence tables, prints one PASS/FAIL line per case, and exits 0 when
every check is within tolerance, 2 on config errors, and 3 on numerical
accuracy failures.  Reports are deterministic for a fixed config: they
carry no timestamps and all sampling derives from the config seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .config import load_config
from .errors import ConfigError, Gauge2Error
from .fields import chart_grid
from .forms import fake_flatness_residual, check_local_data
from .geometry import ParamMap, reparameterize
from .morphisms import (apply_twomorphism, gauge_transform,
                        verify_onemorphism_compat)
from .torsor import selftest
from .transport import (ambrose_singer_check, convergence_order,
                        path_ordered_exp, reconstruct_A, reconstruct_B,
                        surface_transport, verify_higher_stokes,
                        verify_nonabelian_stokes)
from .twogroup import check_crossed_module, interchange_defect

TOL = {
    "stokes": 1e-6,
    "higher_stokes": 1e-5,
    "fake_flat": 1e-8,
    "gauge_square": 1e-6,
    "gauge_a_grid": 1e-7,
    "thin": 1e-7,
    "as_span": 1e-5,
    "as_derivative": 1e-4,
    "reconstruct_A": 1e-5,
    "reconstruct_B": 1e-4,
    "target_identity": 1e-6,
    "local_data": 1e-7,
}

THIN_REPARAMS = (
    ("u^2", "v"),
    ("u", "v^2*(3-2*v)"),
    ("(1-cos(pi*u))/2", "v"),
    ("u^2*(3-2*u)", "v^2*(3-2*v)"),
    ("u", "(1-cos(pi*v))/2"),
)


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return {"re": value.real.tolist(), "im": value.imag.tolist()}
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _write_atomic(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv(path, rows):
    lines = ["steps,defect,order"]
    orders = convergence_order([r["defect"] for r in rows])
    for i, row in enumerate(rows):
        order = "" if i == 0 or np.isnan(orders[i - 1]) else f"{orders[i - 1]:.3f}"
        lines.append(f"{row['steps']},{row['defect']:.6e},{order}")
    _write_atomic(path, "\n".join(lines) + "\n")


def _p_of(cfg, pm, family):
    base = cfg.basepoint()
    x0 = np.asarray(base, dtype=float) if base is not None \
        else pm(np.zeros(pm.arity))
    return (x0, family.group_G.identity)


# --- command runners -----------------------------------------------------------


def run_check_crossed_module(cfg, num, rng, out, emit):
    cases = []
    if cfg.has_finite_module():
        cm = cfg.finite_module()
        report = check_crossed_module(cm)
        inter = interchange_defect(cm)
    else:
        cm = cfg.family().cm
        report = check_crossed_module(cm, samples=max(200, num["steps"]),
                                      rng=rng, tolerance=1e-9)
        inter = interchange_defect(cm, samples=1000, rng=rng)
    case = report.as_dict()
    case["name"] = cm.name
    case["interchange_defect"] = inter
    case["pass"] = bool(report.passed and inter <= report.tolerance)
    cases.append(case)
    emit(case["pass"], cm.name,
         f"axioms max defect "
         f"{max(report.equivariance, report.peiffer, report.t_homomorphism, report.centrality):.2e}")
    return cases


def run_torsor_selftest(cfg, num, rng, out, emit):
    cm = cfg.finite_module()
    table = selftest(cm)
    ok = all(v == 0.0 for v in table.values())
    for law, defect in table.items():
        emit(defect == 0.0, f"{cm.name}:{law}", f"defect {defect}")
    return [{"name": cm.name, "laws": table, "pass": ok}]


def run_transport(cfg, num, rng, out, emit):
    conn = cfg.connection()
    cases = []
    for name, pm in cfg.param_maps("paths").items():
        res = path_ordered_exp(conn, pm, steps=num["steps"],
                               sweep=num["sweep"])
        ok = res.group_defect <= 1e-10
        case = {"name": name, "value": _jsonable(res.value),
                "steps": res.steps, "group_defect": res.group_defect,
                "order_estimate": res.order_estimate, "pass": ok}
        cases.append(case)
        emit(ok, name, f"group defect {res.group_defect:.2e}")
    return cases


def run_surface_transport(cfg, num, rng, out, emit):
    conn = cfg.connection()
    fam = cfg.family()
    cases = []
    for name, pm in cfg.param_maps("bigons").items():
        res = surface_transport(conn, pm, _p_of(cfg, pm, fam),
                                num["surface_steps"], num["surface_steps"],
                                sweep=num["sweep"])
        tid = res.target_identity_defect(fam)
        ok = res.group_defect <= 1e-10 and tid <= TOL["target_identity"]
        case = {"name": name, "value_h": _jsonable(res.value_h),
                "source_transport": _jsonable(res.source_transport),
                "target_transport": _jsonable(res.target_transport),
                "steps_s": res.steps_s, "steps_t": res.steps_t,
                "group_defect": res.group_defect,
                "target_identity_defect": tid,
                "order_estimate": res.order_estimate, "pass": ok}
        cases.append(case)
        emit(ok, name, f"target identity defect {tid:.2e}")
    return cases


def run_verify_stokes(cfg, num, rng, out, emit):
    conn = cfg.connection()
    fam = cfg.family()
    cases = []
    for name, pm in cfg.param_maps("bigons").items():
        rep = verify_nonabelian_stokes(conn, pm, _p_of(cfg, pm, fam),
                                       steps=num["steps"],
                                       sweep=max(num["sweep"], 2))
        ok = rep["defect"] <= TOL["stokes"]
        if rep["rows"]:
            _write_csv(os.path.join(out, f"stokes-{name}.csv"), rep["rows"])
        case = {"name": name, "defect": rep["defect"],
                "order": rep["order"], "rows": rep["rows"], "pass": ok}
        cases.append(case)
        emit(ok, name, f"defect {rep['defect']:.2e} order "
             f"{rep['order'] if rep['order'] is None else round(rep['order'], 2)}")
    return cases


def run_verify_higher_stokes(cfg, num, rng, out, emit):
    conn = cfg.connection()
    fam = cfg.family()
    cases = []
    for name, pm in cfg.param_maps("cubes").items():
        rep = verify_higher_stokes(conn, pm, _p_of(cfg, pm, fam),
                                   steps_surface=num["surface_steps"],
                                   steps_volume=num["volume_steps"])
        ok = rep["defect"] <= TOL["higher_stokes"]
        case = {"name": name, "defect": rep["defect"],
                "bianchi_defect": rep["bianchi_defect"],
                "kernel_defect": rep["kernel_defect"], "pass": ok}
        cases.append(case)
        emit(ok, name, f"defect {rep['defect']:.2e}")
    return cases


def run_verify_fake_flat(cfg, num, rng, out, emit):
    conn = cfg.connection()
    grid = chart_grid(conn.chart, num["grid_per_axis"])
    rep = fake_flatness_residual(conn, grid)
    emit(rep["pass"], "fake-flat", f"residual {rep['residual']:.2e}")
    cases = [{"name": "fake-flat", **rep}]
    if "transition" in cfg.raw:
        td = cfg.transition()
        local = check_local_data(conn, conn, td, grid,
                                 tol=TOL["local_data"])
        emit(local["pass"], "local-data", f"a defect {local['a_defect']:.2e}")
        cases.append({"name": "local-data", **local})
    return cases


def run_gauge_transform(cfg, num, rng, out, emit):
    conn = cfg.connection()
    m = cfg.morphism()
    grid = chart_grid(conn.chart, num["grid_per_axis"])
    before = fake_flatness_residual(conn, grid)
    transformed = gauge_transform(conn, m)
    after = fake_flatness_residual(transformed, grid)
    # the transform must preserve fake-flatness when the input has it
    ok = (not before["pass"]) or after["residual"] <= 1e-7
    emit(ok, "gauge-transform",
         f"fake-flat residual {before['residual']:.2e} -> "
         f"{after['residual']:.2e}")
    sample = grid[:: max(1, len(grid) // 4)]
    return [{"name": "gauge-transform",
             "input_fake_flat": before, "output_fake_flat": after,
             "sample_points": _jsonable(sample),
             "transformed_a": _jsonable(transformed.a_coeffs(sample)),
             "morphism_membership_defect": m.membership_defect(grid),
             "pass": ok}]


def run_verify_gauge(cfg, num, rng, out, emit):
    conn = cfg.connection()
    m = cfg.morphism()
    conn_prime = gauge_transform(conn, m)
    cases = []
    steps = num["surface_steps"]
    for name, pm in cfg.param_maps("bigons").items():
        rep = verify_onemorphism_compat(conn, conn_prime, m, pm, steps=steps)
        ok = (rep["square_defect"] <= TOL["gauge_square"]
              and rep["a_pullback_defect"] <= TOL["gauge_a_grid"])
        cases.append({"name": name, **rep, "pass": ok})
        emit(ok, name, f"square {rep['square_defect']:.2e} "
             f"A-grid {rep['a_pullback_defect']:.2e}")
        if "two_morphism" in cfg.raw:
            tm = cfg.two_morphism()
            for form in ("definition", "lemma"):
                twisted = apply_twomorphism(conn, m, tm, form=form)
                rep2 = verify_onemorphism_compat(conn, conn_prime, twisted,
                                                 pm, steps=steps)
                ok2 = (rep2["square_defect"] <= TOL["gauge_square"]
                       and rep2["a_pullback_defect"] <= TOL["gauge_a_grid"])
                note = ("g' = t(a) g with trailing term -(da)a^-1"
                        if form == "definition"
                        else "g' = t(a)^-1 g with trailing term +a^-1 da")
                cases.append({"name": f"{name}:{form}", **rep2,
                              "pairing": note, "pass": ok2})
                emit(ok2, f"{name}:{form}",
                     f"square {rep2['square_defect']:.2e}")
    return cases


def run_verify_thin(cfg, num, rng, out, emit):
    conn = cfg.connection()
    fam = cfg.family()
    # the 1e-7 invariance target needs the finer path-level step count
    steps = max(num["steps"], num["surface_steps"])
    cases = []
    for name, pm in cfg.param_maps("bigons").items():
        p = _p_of(cfg, pm, fam)
        base = surface_transport(conn, pm, p, steps, steps).value_h
        worst = 0.0
        for exprs in THIN_REPARAMS:
            phi = ParamMap.from_exprs(list(exprs), 2, name="reparam")
            res = surface_transport(conn, reparameterize(pm, phi), p,
                                    steps, steps)
            worst = max(worst, float(np.max(np.abs(res.value_h - base))))
        ok = worst <= TOL["thin"]
        cases.append({"name": name, "max_change": worst,
                      "reparameterizations": len(THIN_REPARAMS), "pass": ok})
        emit(ok, name, f"max 2-transport change {worst:.2e}")
    return cases


def run_verify_ambrose_singer(cfg, num, rng, out, emit):
    conn = cfg.connection()
    rep = ambrose_singer_check(conn, rng=rng, steps=num["surface_steps"],
                               span_tol=TOL["as_span"],
                               derivative_tol=TOL["as_derivative"])
    ok = bool(rep["containment_pass"] and rep["derivative_pass"])
    emit(ok, "ambrose-singer",
         f"span rank {rep['span_rank']} containment "
         f"{rep['containment_residual']:.2e} derivative "
         f"{rep['derivative_defect']:.2e}")
    rep = dict(rep)
    rep.pop("span_basis", None)
    return [{"name": "ambrose-singer", **rep, "pass": ok}]


def _random_chart_points(conn, rng, count):
    chart = conn.chart
    if chart.box is None:
        lo = np.full(chart.dim, 0.2)
        hi = np.full(chart.dim, 0.8)
    else:
        width = chart.box[:, 1] - chart.box[:, 0]
        lo = chart.box[:, 0] + 0.2 * width
        hi = chart.box[:, 1] - 0.2 * width
    return lo + rng.uniform(size=(count, chart.dim)) * (hi - lo)


def run_reconstruct(which):
    def runner(cfg, num, rng, out, emit):
        conn = cfg.connection()
        d = conn.chart.dim
        points = _random_chart_points(conn, rng, 10)
        worst = 0.0
        samples = {"sample_points": points, "X": [], "reconstructed": [],
                   "expected": []}
        if which == "B":
            samples["Y"] = []
        for x in points:
            X = rng.standard_normal(d)
            if which == "A":
                got = reconstruct_A(conn, x, X)
                want = conn.a_of(x[None], X)[0]
                tol = TOL["reconstruct_A"] * (1.0 + float(np.max(np.abs(want))))
            else:
                Y = rng.standard_normal(d)
                got = reconstruct_B(conn, x, X, Y)
                want = conn.b_of(x[None], X, Y)[0]
                tol = TOL["reconstruct_B"] * (1.0 + float(np.max(np.abs(want))))
                samples["Y"].append(Y)
            samples["X"].append(X)
            samples["reconstructed"].append(got)
            samples["expected"].append(want)
            worst = max(worst, float(np.max(np.abs(got - want))) / tol)
        defect = worst
        ok = defect <= 1.0
        emit(ok, f"reconstruct-{which}",
             f"worst defect {defect:.3f} of tolerance")
        return [{"name": f"reconstruct-{which}",
                 "worst_relative_to_tolerance": defect, "points": len(points),
                 **samples, "pass": ok}]

    return runner


RUNNERS = {
    "check-crossed-module": run_check_crossed_module,
    "gauge-transform": run_gauge_transform,
    "torsor-selftest": run_torsor_selftest,
    "transport": run_transport,
    "surface-transport": run_surface_transport,
    "verify-stokes": run_verify_stokes,
    "verify-higher-stokes": run_verify_higher_stokes,
    "verify-fake-flat": run_verify_fake_flat,
    "verify-gauge": run_verify_gauge,
    "verify-thin": run_verify_thin,
    "verify-ambrose-singer": run_verify_ambrose_singer,
    "reconstruct-A": run_reconstruct("A"),
    "reconstruct-B": run_reconstruct("B"),
}


def _applicable(cfg):
    raw = cfg.raw
    names = []
    if "crossed_module" in raw:
        names.append("check-crossed-module")
    if cfg.has_finite_module():
        names.append("torsor-selftest")
    if "connection" in raw:
        if raw.get("paths"):
            names.append("transport")
        if raw.get("bigons"):
            names += ["surface-transport", "verify-stokes", "verify-thin"]
        if raw.get("cubes"):
            names.append("verify-higher-stokes")
        names.append("verify-fake-flat")
        if "morphism" in raw:
            names.append("gauge-transform")
            if raw.get("bigons"):
                names.append("verify-gauge")
        if cfg.chart().dim >= 3:
            names.append("verify-ambrose-singer")
        names += ["reconstruct-A", "reconstruct-B"]
    return names


def _check_simpson_steps(commands, num):
    """Reject, as a config error, every step count that a command would
    hand to composite Simpson quadrature odd, sweep halvings included."""
    sweep = num["sweep"]
    thin_key = ("steps" if num["steps"] >= num["surface_steps"]
                else "surface_steps")
    # command -> (numeric key, step halvings, floor of the halved count)
    plan = {
        "surface-transport": [("surface_steps", sweep if sweep >= 2 else 0, 2)],
        "verify-stokes": [("steps", max(sweep, 2), 4)],
        "verify-thin": [(thin_key, 0, 0)],
        "verify-higher-stokes": [("surface_steps", 0, 0),
                                 ("volume_steps", 0, 0)],
        "verify-gauge": [("surface_steps", 0, 0)],
        "verify-ambrose-singer": [("surface_steps", 0, 0)],
    }
    for command in commands:
        for key, halvings, floor in plan.get(command, ()):
            for k in range(halvings + 1):
                n = max(num[key] // 2 ** k, floor)
                if n % 2:
                    path = f"numeric.{key}"
                    halved = (f" ({num[key]} halved {k} time(s) for the "
                              f"sweep)" if k else "")
                    raise ConfigError(
                        f"config invalid at '{path}': {command} needs even "
                        f"Simpson step counts, got {n}{halved}", path=path)


def run_command(command: str, cfg, out_dir: str, overrides=None,
                quiet=False) -> dict:
    num = cfg.numeric()
    num.update({k: v for k, v in (overrides or {}).items() if v is not None})
    _check_simpson_steps(_applicable(cfg) if command == "report" else [command],
                         num)
    lines = []

    def emit(ok, name, detail):
        line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
        lines.append(line)
        if not quiet:
            print(line)

    if command == "report":
        cases = []
        for name in _applicable(cfg):
            rng = np.random.default_rng(cfg.seed)
            sub = RUNNERS[name](cfg, num, rng, out_dir, emit)
            cases.append({"command": name,
                          "cases": sub,
                          "pass": all(c["pass"] for c in sub)})
        ok = all(c["pass"] for c in cases)
    else:
        rng = np.random.default_rng(cfg.seed)
        cases = RUNNERS[command](cfg, num, rng, out_dir, emit)
        ok = all(c["pass"] for c in cases)

    report = {
        "command": command,
        "config_hash": cfg.hash,
        "seed": cfg.seed,
        "defects": _collect(cases, "defect"),
        "order_estimates": _collect(cases, "order"),
        "cases": _jsonable(cases),
        "pass": ok,
    }
    path = os.path.join(out_dir, f"{command}.json")
    _write_atomic(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    if not quiet:
        print(f"{'PASS' if ok else 'FAIL'} {command} -> {path}")
    return report


def _collect(cases, key):
    found = []
    for case in cases:
        if isinstance(case, dict):
            if key in case and isinstance(case[key], (int, float)):
                found.append(case[key])
            for sub in case.get("cases", []):
                if isinstance(sub, dict) and isinstance(sub.get(key),
                                                        (int, float)):
                    found.append(sub[key])
    return found


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gauge2",
        description="2-group torsor algebra and surface-holonomy verification")
    parser.add_argument("command", choices=[
        "check-crossed-module", "torsor-selftest", "transport",
        "surface-transport", "gauge-transform", "verify", "reconstruct",
        "report"])
    parser.add_argument("what", nargs="?", help=(
        "verify: stokes | higher-stokes | fake-flat | gauge | thin | "
        "ambrose-singer; reconstruct: A | B"))
    parser.add_argument("--config", required=True, help="path to JSON config")
    parser.add_argument("--out", default="out", help="report directory")
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--sweep", type=int, default=None,
                        help="number of step halvings for convergence tables")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    if command == "verify":
        if args.what not in ("stokes", "higher-stokes", "fake-flat", "gauge",
                             "thin", "ambrose-singer"):
            print(f"error: unknown verify target {args.what!r}",
                  file=sys.stderr)
            return 2
        command = f"verify-{args.what}"
    elif command == "reconstruct":
        if args.what not in ("A", "B"):
            print(f"error: reconstruct needs A or B, got {args.what!r}",
                  file=sys.stderr)
            return 2
        command = f"reconstruct-{args.what}"

    try:
        cfg = load_config(args.config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg = type(cfg)({**cfg.raw, "seed": args.seed})

    try:
        report = run_command(command, cfg, args.out,
                             overrides={"steps": args.steps,
                                        "sweep": args.sweep},
                             quiet=args.quiet)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Gauge2Error as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    return 0 if report["pass"] else 3


if __name__ == "__main__":
    sys.exit(main())
