"""Command-line entry point: configuration ingestion, verification
dispatch, JSON report emission and CSV convergence tables.

Every command reads one JSON config (see :mod:`gauge2.config`), writes
``<out>/<command>.json`` plus optional ``<out>/<command>-<case>.csv``
convergence tables, prints one PASS/FAIL line per case, and exits 0 when
every check is within tolerance, 2 on config errors, and 3 on numerical
accuracy failures.  Reports are deterministic for a fixed config: they
carry no timestamps and all sampling derives from the config seed.
The library's checks return measurements only: every ``pass`` of a report
is set here, from ``TOL`` or, for a crossed module, from the tolerance its
check reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
import tempfile

import numpy as np

from .config import load_config
from .errors import ComposabilityError, ConfigError, Gauge2Error
from .fields import chart_grid
from .forms import fake_flatness_residual, check_local_data
from .geometry import ParamMap, check_reparameterization
from .morphisms import (apply_twomorphism, gauge_transform, pullback_defects,
                        verify_onemorphism_compat)
from .torsor import selftest
from .transport import (SIMPSON_MIN_STEPS, STOKES_MIN_STEPS,
                        ambrose_singer_check, path_ordered_exp,
                        reconstruct_A, reconstruct_B, surface_transport,
                        surface_values, sweep_steps, verify_higher_stokes,
                        verify_nonabelian_stokes)
from .twogroup import AXIOMS, check_crossed_module, interchange_defect

TOL = {
    "group": 1e-10,
    "stokes": 1e-6,
    "higher_stokes": 1e-5,
    "fake_flat": 1e-8,
    "gauge_fake_flat": 1e-7,
    "gauge_square": 1e-6,
    "gauge_a_grid": 1e-7,
    "thin": 1e-7,
    "as_span": 1e-5,
    "as_derivative": 1e-4,
    "reconstruct_A": 1e-5,
    "reconstruct_B": 1e-4,
    "target_identity": 1e-6,
    "local_data": 1e-7,
    "sweep_order": 1.5,
}

THIN_REPARAMS = (
    ("u^2", "v"),
    ("u", "v^2*(3-2*v)"),
    ("(1-cos(pi*u))/2", "v"),
    ("u^2*(3-2*u)", "v^2*(3-2*v)"),
    ("u", "(1-cos(pi*v))/2"),
)


@functools.cache
def _thin_reparams():
    """The THIN_REPARAMS as parameter maps, built and checked once."""
    return tuple(check_reparameterization(
        ParamMap.from_exprs(exprs, 2, name="reparam"), 2) for exprs in THIN_REPARAMS)


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.generic):
        return _jsonable(value.item())
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
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv(path, rows, orders):
    lines = ["steps,defect,order"]
    for i, row in enumerate(rows):
        order = "" if i == 0 or np.isnan(orders[i - 1]) else f"{orders[i - 1]:.3f}"
        lines.append(f"{row['steps']},{row['defect']:.6e},{order}")
    _write_atomic(path, "\n".join(lines) + "\n")


# --- command runners -----------------------------------------------------------


def run_check_crossed_module(cfg, num, rng, out, emit):
    # a finite module is checked exhaustively: it draws no samples
    cm = cfg.finite_module() if cfg.has_finite_module() else cfg.family().cm
    rep = check_crossed_module(cm, samples=max(200, num["steps"]), rng=rng)
    try:
        inter = interchange_defect(cm, rng=rng)
    except ComposabilityError:
        inter = None    # t is not equivariant: some quadruples do not compose
    worst = max(rep[law] for law in AXIOMS)
    ok = inter is not None and max(worst, inter) <= rep["tolerance"]
    emit(ok, cm.name, f"axioms max defect {worst:.2e}")
    return [{"name": cm.name, **rep, "interchange_defect": inter, "pass": ok}]


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
        rep = path_ordered_exp(conn, pm, steps=num["steps"],
                               sweep=_halvings(num, "transport"))
        ok = (rep["group_defect"] <= TOL["group"]
              and _converged(rep["order_estimate"]))
        cases.append({"name": name, **rep, "pass": ok})
        emit(ok, name, f"group defect {rep['group_defect']:.2e}")
    return cases


def run_surface_transport(cfg, num, rng, out, emit):
    conn = cfg.connection()
    cases = []
    for name, pm in cfg.param_maps("bigons").items():
        rep = surface_transport(conn, pm, None, num["surface_steps"],
                                sweep=_halvings(num, "surface-transport"))
        tid = rep["target_identity_defect"]
        ok = (rep["group_defect"] <= TOL["group"]
              and tid <= TOL["target_identity"]
              and _converged(rep["order_estimate"]))
        cases.append({"name": name, **rep, "pass": ok})
        emit(ok, name, f"target identity defect {tid:.2e}")
    return cases


def run_verify_stokes(cfg, num, rng, out, emit):
    conn = cfg.connection()
    cases = []
    for name, pm in cfg.param_maps("bigons").items():
        rep = verify_nonabelian_stokes(conn, pm, steps=num["steps"],
                                       sweep=_halvings(num, "verify-stokes"))
        ok = rep["defect"] <= TOL["stokes"] and _converged(rep["order"])
        _write_csv(os.path.join(out, f"stokes-{name}.csv"), rep["rows"],
                   rep["orders"])
        case = {"name": name, "defect": rep["defect"],
                "order": rep["order"], "rows": rep["rows"], "pass": ok}
        cases.append(case)
        emit(ok, name, f"defect {rep['defect']:.2e} order "
             f"{rep['order'] if rep['order'] is None else round(rep['order'], 2)}")
    return cases


def run_verify_higher_stokes(cfg, num, rng, out, emit):
    conn = cfg.connection()
    cases = []
    cubes = cfg.param_maps("cubes")
    reps = verify_higher_stokes(conn, list(cubes.values()),
                                steps_surface=num["surface_steps"],
                                steps_volume=num["volume_steps"])
    for name, rep in zip(cubes, reps):
        ok = (rep["defect"] <= TOL["higher_stokes"]
              and rep["kernel_defect"] <= TOL["higher_stokes"]
              and rep["bianchi_defect"] <= TOL["fake_flat"])
        case = {"name": name, "defect": rep["defect"],
                "bianchi_defect": rep["bianchi_defect"],
                "kernel_defect": rep["kernel_defect"], "pass": ok}
        cases.append(case)
        emit(ok, name, f"defect {rep['defect']:.2e}")
    return cases


def _fake_flat(conn, grid, tol):
    """The fake-flatness residual of ``conn`` on ``grid``, judged at TOL[tol]."""
    rep = fake_flatness_residual(conn, grid)
    return {**rep, "pass": rep["residual"] <= TOL[tol]}


def run_verify_fake_flat(cfg, num, rng, out, emit):
    conn = cfg.connection()
    grid = chart_grid(conn.chart, num["grid_per_axis"])
    rep = _fake_flat(conn, grid, "fake_flat")
    emit(rep["pass"], "fake-flat", f"residual {rep['residual']:.2e}")
    cases = [{"name": "fake-flat", **rep}]
    if "transition" in cfg.raw:
        local = check_local_data(conn, conn, cfg.transition(), grid)
        ok = (max(local["a_defect"], local["b_defect"]) <= TOL["local_data"]
              and local["transition_membership_defect"] <= TOL["group"])
        emit(ok, "local-data", f"a defect {local['a_defect']:.2e}")
        cases.append({"name": "local-data", **local, "pass": ok})
    return cases


def run_gauge_transform(cfg, num, rng, out, emit):
    conn = cfg.connection()
    m = cfg.morphism()
    grid = chart_grid(conn.chart, num["grid_per_axis"])
    before = _fake_flat(conn, grid, "fake_flat")
    transformed = gauge_transform(conn, m)
    after = _fake_flat(transformed, grid, "gauge_fake_flat")
    membership = m.membership_defect(grid)
    # the transform must preserve fake-flatness when the input has it
    ok = ((not before["pass"] or after["pass"])
          and membership <= TOL["gauge_a_grid"])
    emit(ok, "gauge-transform",
         f"fake-flat residual {before['residual']:.2e} -> "
         f"{after['residual']:.2e}")
    sample = grid[:: max(1, len(grid) // 4)]
    return [{"name": "gauge-transform",
             "input_fake_flat": before, "output_fake_flat": after,
             "sample_points": _jsonable(sample),
             "transformed_a": _jsonable(transformed.a_coeffs(sample)),
             "morphism_membership_defect": membership,
             "pass": ok}]


def run_verify_gauge(cfg, num, rng, out, emit):
    conn = cfg.connection()
    m = cfg.morphism()
    conn_prime = gauge_transform(conn, m)
    cases = []
    steps = num["surface_steps"]
    # the morphism and, with a two-morphism, its two twisted forms share one
    # tra^2 and one tra'^2 solve per bigon
    forms = ("definition", "lemma") if "two_morphism" in cfg.raw else ()
    tm = cfg.two_morphism() if forms else None
    morphisms = [m] + [apply_twomorphism(conn, m, tm, form=form) for form in forms]
    # the A-level check depends on no bigon: once per command
    a_defects = pullback_defects(conn, conn_prime, morphisms,
                                 chart_grid(conn.chart, num["grid_per_axis"]))
    for name, pm in cfg.param_maps("bigons").items():
        squares = verify_onemorphism_compat(conn, conn_prime, morphisms, pm,
                                            steps=steps)
        for form, sq, ad in zip((None,) + forms, squares, a_defects):
            rep = {"square_defect": sq, "a_pullback_defect": ad}
            ok = sq <= TOL["gauge_square"] and ad <= TOL["gauge_a_grid"]
            if form is None:
                cases.append({"name": name, **rep, "pass": ok})
                emit(ok, name, f"square {sq:.2e} A-grid {ad:.2e}")
                continue
            note = ("g' = t(a) g with trailing term -(da)a^-1"
                    if form == "definition"
                    else "g' = t(a)^-1 g with trailing term +a^-1 da")
            cases.append({"name": f"{name}:{form}", **rep,
                          "pairing": note, "pass": ok})
            emit(ok, f"{name}:{form}", f"square {sq:.2e}")
    return cases


def _thin_steps_key(num):
    """The numeric key whose count verify-thin solves with along both
    bigon parameters, and which the config-time parity check reads: the
    finer of ``steps`` and ``surface_steps``, as the 1e-7 invariance
    target needs."""
    return "steps" if num["steps"] >= num["surface_steps"] else "surface_steps"


def run_verify_thin(cfg, num, rng, out, emit):
    conn = cfg.connection()
    steps = num[_thin_steps_key(num)]
    phis = _thin_reparams()
    cases = []
    for name, pm in cfg.param_maps("bigons").items():
        # the bigon and its reparameterizations in one batched solve
        bigons = [pm] + [pm.compose_params(phi) for phi in phis]
        values = surface_values(conn, bigons, None, steps)
        worst = float(np.max(np.abs(values[1:] - values[0])))
        ok = worst <= TOL["thin"]
        cases.append({"name": name, "max_change": worst,
                      "reparameterizations": len(THIN_REPARAMS), "pass": ok})
        emit(ok, name, f"max 2-transport change {worst:.2e}")
    return cases


def run_verify_ambrose_singer(cfg, num, rng, out, emit):
    conn = cfg.connection()
    rep = ambrose_singer_check(conn, rng=rng, steps=num["surface_steps"])
    del rep["span_basis"]
    # both bounds grow with the size of the 2-holonomies
    scale = 1.0 + rep["holonomy_scale"]
    rep["containment_pass"] = rep["containment_residual"] <= TOL["as_span"] * scale
    rep["derivative_pass"] = rep["derivative_defect"] <= TOL["as_derivative"] * scale
    ok = rep["containment_pass"] and rep["derivative_pass"]
    emit(ok, "ambrose-singer",
         f"span rank {rep['span_rank']} containment "
         f"{rep['containment_residual']:.2e} derivative "
         f"{rep['derivative_defect']:.2e}")
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
    reconstruct, arity = {"A": (reconstruct_A, 1), "B": (reconstruct_B, 2)}[which]

    def runner(cfg, num, rng, out, emit):
        conn = cfg.connection()
        points = _random_chart_points(conn, rng, 10)
        # the tangents of each point in turn, then all points in one solve
        draws = rng.standard_normal((10, arity, conn.chart.dim)).swapaxes(0, 1)
        tangents = dict(zip("XY", draws))
        got = reconstruct(conn, points, *draws)
        want = (conn.a_of if which == "A" else conn.b_of)(points, *draws)
        tol = TOL[f"reconstruct_{which}"] * (1.0 + np.max(np.abs(want), axis=-1))
        worst = float(np.max(np.max(np.abs(got - want), axis=-1) / tol))
        ok = worst <= 1.0
        emit(ok, f"reconstruct-{which}", f"worst defect {worst:.3f} of tolerance")
        return [{"name": f"reconstruct-{which}",
                 "worst_relative_to_tolerance": worst, "points": len(points),
                 "sample_points": points, **tangents, "reconstructed": got,
                 "expected": want, "pass": ok}]

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


def _converged(order):
    """A sweep's verdict: no order, or one of at least TOL["sweep_order"]."""
    return order is None or order >= TOL["sweep_order"]


def _halvings(num, command):
    """The halvings of a command's sweep, read by its runner and by
    :func:`_check_simpson_steps`.  An order against the finest solve takes
    two, so one halving solves nothing; verify-stokes sweeps twice at least."""
    sweep = num["sweep"]
    if command == "verify-stokes":
        return max(sweep, 2)
    return sweep if sweep >= 2 else 0


def _check_simpson_steps(commands, num):
    """Reject, as a config error, every step count that a command would
    hand to composite Simpson quadrature odd, sweep counts included."""
    # command -> (numeric key, step halvings, the solver's minimum count)
    plan = {
        "surface-transport": [("surface_steps",
                               _halvings(num, "surface-transport"),
                               SIMPSON_MIN_STEPS)],
        "verify-stokes": [("steps", _halvings(num, "verify-stokes"),
                           STOKES_MIN_STEPS)],
        "verify-thin": [(_thin_steps_key(num), 0, 0)],
        "verify-higher-stokes": [("surface_steps", 0, 0),
                                 ("volume_steps", 0, 0)],
        "verify-gauge": [("surface_steps", 0, 0)],
        "verify-ambrose-singer": [("surface_steps", 0, 0)],
    }
    for command in commands:
        for key, halvings, floor in plan.get(command, ()):
            # the finest count first, then each halving
            for k, n in enumerate(sweep_steps(num[key], halvings, floor)[::-1]):
                if n % 2:
                    path = f"numeric.{key}"
                    halved = (f" ({num[key]} halved {k} time(s) for the "
                              f"sweep)" if k else "")
                    raise ConfigError(
                        f"config invalid at '{path}': {command} needs even "
                        f"Simpson step counts, got {n}{halved}", path=path)


def run_command(command: str, cfg, out_dir: str, quiet=False) -> dict:
    num = cfg.numeric()
    commands = _applicable(cfg) if command == "report" else [command]
    _check_simpson_steps(commands, num)
    if command == "report":
        cfg.build()
    # the outermost directory that creating --out makes, if any
    created, path = None, os.path.abspath(out_dir)
    while not os.path.exists(path):
        created, path = path, os.path.dirname(path)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out {out_dir!r} cannot be created: "
                          f"{err.strerror}", path="--out") from None

    def emit(ok, name, detail):
        if not quiet:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    try:
        if command == "report":
            cases = []
            for name in commands:
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
    except ConfigError:     # leave behind no directory this call made
        if created:
            shutil.rmtree(created, ignore_errors=True)
        raise

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
    """The numeric ``key`` of each case, then of each of its sub-cases."""
    flat = [c for case in cases for c in (case, *case.get("cases", []))]
    return [c[key] for c in flat if isinstance(c.get(key), (int, float))]


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


# Built once: parse_args keeps no state between calls.
PARSER = build_parser()


def _target_error(command, what):
    """Why ``what`` is no target of ``command``, or None: verify and
    reconstruct need one of their RUNNERS, no other command takes one."""
    targets = [name[len(command) + 1:] for name in RUNNERS
               if name.startswith(command + "-")]
    if what in targets or not targets and what is None:
        return None
    if not targets:
        return f"{command} takes no target, got {what!r}"
    return f"{command} needs a target, one of {' | '.join(targets)}, got {what!r}"


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    error = _target_error(args.command, args.what)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    command = args.command if args.what is None else f"{args.command}-{args.what}"
    try:
        cfg = load_config(args.config)
        # flags rebuild the config: the schema checks them, and config_hash
        # is that of the config that ran
        if args.seed is not None:
            cfg = type(cfg)({**cfg.raw, "seed": args.seed})
        numeric = {k: v for k, v in (("steps", args.steps),
                                     ("sweep", args.sweep)) if v is not None}
        if numeric:
            cfg = type(cfg)({**cfg.raw, "numeric": {
                **cfg.raw.get("numeric", {}), **numeric}})
        report = run_command(command, cfg, args.out, quiet=args.quiet)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Gauge2Error as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    return 0 if report["pass"] else 3


if __name__ == "__main__":
    sys.exit(main())
