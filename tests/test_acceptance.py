"""Acceptance suite: one check per shipped criterion, at its stated
tolerance, printing one PASS/FAIL line each (run with ``pytest -s`` to see
the lines as they complete)."""

import time

import numpy as np

from gauge2.cli import run_command
from gauge2.config import RunConfig
from gauge2.families import finite_demo_module, matrix_family
from gauge2.forms import TwoConnection
from gauge2.geometry import Chart, ParamMap, reparameterize
from gauge2.fields import chart_grid
from gauge2.morphisms import (OneMorphism, TwoMorphismA, apply_twomorphism,
                              gauge_transform, pullback_defects,
                              verify_onemorphism_compat)
from gauge2.torsor import selftest
from gauge2.transport import (ambrose_singer_check, holonomy2_H,
                              reconstruct_A, reconstruct_B, surface_transport,
                              verify_higher_stokes, verify_nonabelian_stokes)
from gauge2.twogroup import AXIOMS, check_crossed_module, interchange_defect

U1 = matrix_family("u1_id")
U1T = matrix_family("u1_triv")
SU2 = matrix_family("su2_id_conj")
U2P = matrix_family("u2_to_pu2")

SU2_CONN = TwoConnection(
    SU2, Chart(2),
    a=[["0.6*x2", "0.3", "0.1*x1"], ["0.2", "0.5*x1", "0.3*x2"]],
    b="fake_flat")
U2P_CONN = TwoConnection(
    U2P, Chart(2),
    a=[["0.5*x2", "0.2", "0.1*x1"], ["0.3", "0.4*x1", "0.2*x2"]],
    b="fake_flat", b_extra=[["0.4*x1 + 0.3*x2", "0", "0", "0"]])
U1_CONN = TwoConnection(U1, Chart(2), a=[["0"], ["0.9*x1"]], b="fake_flat")


def _report(num, desc, passed, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:2d} {'PASS' if passed else 'FAIL'}: "
          f"{desc}{suffix}", flush=True)
    assert passed, f"criterion {num}: {desc}{suffix}"


def _demo_bigons():
    return {name: ParamMap.from_exprs(exprs, 2, name=name)
            for name, exprs in (
                ("lens", ["v", "v + 0.25*(2*u - 1)*sin(pi*v)"]),
                ("bulge", ["v", "0.6*u*sin(pi*v)"]),
                ("diagquad", ["(1 - u)*v + u*v^2", "(1 - u)*v^2 + u*v"]),
                ("quarter", ["(1 - u)*v + u*sin(pi*v/2)",
                             "(1 - u)*v + u*(1 - cos(pi*v/2))"]),
                ("parabolic", ["v", "0.8*u*v*(1 - v)"]))}


def test_criterion_01_exact_torsor_algebra():
    start = time.time()
    worst = {}
    for name in ("z2_z3_trivial", "z4_z4_id"):
        table = selftest(finite_demo_module(name))
        worst[name] = max(table.values())
    elapsed = time.time() - start
    _report(1, "exact torsor algebra, exhaustive, zero defects, < 5 s",
            all(v == 0.0 for v in worst.values()) and elapsed < 5.0,
            f"defects {worst}, {elapsed:.2f}s")


def test_criterion_02_crossed_module_axioms():
    rng = np.random.default_rng(11)
    ok = True
    details = []
    for fam in (SU2, U2P):
        rep = check_crossed_module(fam.cm, samples=200, rng=rng)
        inter = interchange_defect(fam.cm, rng=rng)
        worst = max(*(rep[law] for law in AXIOMS), inter)
        ok &= rep["tolerance"] == 1e-9 and worst <= 1e-9
        details.append(f"{fam.name} {worst:.1e}")
    bad = check_crossed_module(finite_demo_module("z2_z4_peiffer_broken"))
    ok &= (max(bad[law] for law in AXIOMS) > bad["tolerance"]
           and bad["witnesses"].get("peiffer") == "(1, 1)")
    details.append(f"counterexample witness {bad['witnesses'].get('peiffer')}")
    _report(2, "crossed-module axioms <= 1e-9 over >= 200 samples, "
            "Peiffer counterexample rejected", ok, "; ".join(details))


def test_criterion_03_nonabelian_stokes():
    bigons = _demo_bigons()
    # abelian closed form on the lens bigon: both sides exp(i c 4k/pi)
    c, k = 0.9, 0.25
    conn = TwoConnection(U1, Chart(2), a=[["0"], [f"{c}*x1"]], b="fake_flat")
    rep = verify_nonabelian_stokes(conn, bigons["lens"], steps=96)
    expected = np.exp(1j * c * 4 * k / np.pi)
    abelian_ok = (rep["defect"] <= 1e-8
                  and np.max(np.abs(rep["lhs"] - expected)) <= 1e-8)

    start = time.time()
    rep2 = verify_nonabelian_stokes(SU2_CONN, bigons["quarter"],
                                    steps=128, sweep=3)
    elapsed = time.time() - start
    su2_ok = rep2["defect"] <= 1e-6 and rep2["order"] >= 3.5 and elapsed < 30
    _report(3, "non-abelian Stokes: abelian <= 1e-8, su(2) order >= 3.5 "
            "and defect <= 1e-6 at 128x128 in < 30 s",
            abelian_ok and su2_ok,
            f"abelian {rep['defect']:.1e}, su2 {rep2['defect']:.1e} "
            f"order {rep2['order']:.2f} in {elapsed:.1f}s")


def test_criterion_04_fake_flat_target_identity():
    bigons = _demo_bigons()
    worst = 0.0
    count = 0
    for conn in (SU2_CONN, U2P_CONN):
        for pm in bigons.values():
            res = surface_transport(conn, pm, None, 64)
            worst = max(worst, res["target_identity_defect"])
            count += 1
    _report(4, "fake-flat target identity t(tra2_H) = tgt : src <= 1e-6 "
            "across the demo bigon suite",
            worst <= 1e-6 and count >= 10,
            f"{count} bigons over 2 families, worst {worst:.2e}")


def test_criterion_05_higher_stokes():
    conn_ab = TwoConnection(U1T, Chart(3), a=[["0"], ["0"], ["0"]],
                            b=[["x3"], ["0"], ["0"]])
    cube = ParamMap.from_exprs(
        ["w", "0.5*v*sin(pi*w)", "u*v*(1 - v)*sin(pi*w)"], 3, name="cube")
    start = time.time()
    [rep] = verify_higher_stokes(conn_ab, [cube], steps_surface=48,
                                 steps_volume=32)
    abelian_ok = (rep["defect"] <= 1e-6
                  and np.max(np.abs(rep["lhs"] - np.exp(1j / 24))) <= 1e-6)
    t_abelian = time.time() - start

    conn_tr = TwoConnection(
        U2P, Chart(3),
        a=[["0.4*x2", "0.1", "0.1*x3"], ["0.2", "0.3*x1", "0.1"],
           ["0.1*x2", "0.2", "0.2*x1"]],
        b="fake_flat",
        b_extra=[["0.5*x3", "0", "0", "0"], ["0.4*x1", "0", "0", "0"],
                 ["0.3*x2", "0", "0", "0"]])
    cube2 = ParamMap.from_exprs(
        ["w", "0.5*v*sin(pi*w)", "0.6*u*v*(1 - v)*sin(pi*w)"], 3, name="c2")

    start = time.time()
    [rep2] = verify_higher_stokes(conn_tr, [cube2], steps_surface=64,
                                  steps_volume=32)
    t_trace = time.time() - start
    trace_ok = rep2["defect"] <= 1e-5
    _report(5, "higher Stokes: abelian triple integral <= 1e-6, "
            "pu(2) trace part <= 1e-5, < 2 min per cube",
            abelian_ok and trace_ok and max(t_abelian, t_trace) < 120,
            f"abelian {rep['defect']:.1e} ({t_abelian:.0f}s), "
            f"trace {rep2['defect']:.1e} ({t_trace:.0f}s)")


def test_criterion_06_thin_homotopy_invariance():
    reparams = [ParamMap.from_exprs(e, 2) for e in (
        ["u^2", "v"], ["u", "v^2*(3-2*v)"], ["(1-cos(pi*u))/2", "v"],
        ["u^2*(3-2*u)", "v^2*(3-2*v)"], ["u", "(1-cos(pi*v))/2"])]
    worst = 0.0
    for pm in _demo_bigons().values():
        base = surface_transport(SU2_CONN, pm, None, 96)["value_h"]
        for phi in reparams:
            got = surface_transport(SU2_CONN, reparameterize(pm, phi),
                                    None, 96)["value_h"]
            worst = max(worst, float(np.max(np.abs(got - base))))
    _report(6, "thin invariance: five reparameterizations of each demo "
            "bigon change tra2_H by <= 1e-7", worst <= 1e-7,
            f"worst change {worst:.2e}")


def test_criterion_07_reconstruction_round_trips():
    rng = np.random.default_rng(23)
    worst_a = worst_b = 0.0
    for conn in (SU2_CONN, U2P_CONN, U1_CONN):
        for _ in range(10):
            x = rng.uniform(0.25, 0.75, size=2)
            X = rng.standard_normal(2)
            Y = rng.standard_normal(2)
            want_a = conn.a_of(x[None], X)[0]
            got_a = reconstruct_A(conn, x, X)
            worst_a = max(worst_a, float(np.max(np.abs(got_a - want_a)))
                          / (1 + float(np.max(np.abs(want_a)))))
            want_b = conn.b_of(x[None], X, Y)[0]
            got_b = reconstruct_B(conn, x, X, Y)
            worst_b = max(worst_b, float(np.max(np.abs(got_b - want_b)))
                          / (1 + float(np.max(np.abs(want_b)))))
    _report(7, "round trips: reconstruct_A <= 1e-5 and reconstruct_B <= "
            "1e-4 at 10 random points per family",
            worst_a <= 1e-5 and worst_b <= 1e-4,
            f"A {worst_a:.2e}, B {worst_b:.2e}")


def test_criterion_08_gauge_covariance():
    rng = np.random.default_rng(31)
    bigon = _demo_bigons()["diagquad"]
    ok = True
    details = []
    for fam, conn, dim_h in ((SU2, SU2_CONN, 3), (U2P, U2P_CONN, 4)):
        dim_g = fam.l2a.g_alg.dim
        coeff = lambda: f"{rng.uniform(-0.4, 0.4):.4f}"
        g_exprs = [f"{coeff()}*x1 + {coeff()}*x2" for _ in range(dim_g)]
        phi_exprs = [[f"{coeff()}*x2" for _ in range(dim_h)],
                     [f"{coeff()}*x1" for _ in range(dim_h)]]
        m = OneMorphism(fam, Chart(2), g_map=g_exprs, phi=phi_exprs)
        conn2 = gauge_transform(conn, m)
        square, = verify_onemorphism_compat(conn, conn2, [m], bigon, steps=64)
        a_grid, = pullback_defects(conn, conn2, [m], chart_grid(conn.chart))
        ok &= square <= 1e-6 and a_grid <= 1e-7
        details.append(f"{fam.name} square {square:.1e} A-grid {a_grid:.1e}")
        tm = TwoMorphismA(fam, Chart(2),
                          [f"{coeff()}*x2" for _ in range(dim_h)])
        for form in ("definition", "lemma"):
            twisted = apply_twomorphism(conn, m, tm, form=form)
            square2, = verify_onemorphism_compat(conn, conn2, [twisted],
                                                 bigon, steps=64)
            ok &= square2 <= 1e-6
    details.append(
        "sign finding: trailing term -(da)a^-1 pairs with g' = t(a) g "
        "(the +da a^-1 variant needs g' = t(a)^-1 g)")
    _report(8, "gauge covariance: compat square <= 1e-6, F*A' = A + t_*phi "
            "<= 1e-7, twisted morphisms pass for both rule variants",
            ok, "; ".join(details))


def test_criterion_09_higher_ambrose_singer():
    conn = TwoConnection(
        U2P, Chart(3),
        a=[["0.4*x2", "0.1", "0.1*x3"], ["0.2", "0.3*x1", "0.1"],
           ["0.1*x2", "0.2", "0.2*x1"]],
        b="fake_flat",
        b_extra=[["0.5*x3", "0", "0", "0"], ["0.4*x1", "0", "0", "0"],
                 ["0.3*x2", "0", "0", "0"]])
    rep = ambrose_singer_check(conn, rng=np.random.default_rng(5), steps=48)
    u2p_ok = (rep["span_rank"] == 1
              and rep["containment_residual"] <= 1e-5 * (1 + rep["holonomy_scale"]))

    # zero-curvature family: ker t_* = 0 forces identity 2-holonomies
    loop_bigon = ParamMap.from_exprs(
        ["0.5 + 0.3*sin(pi*v)",
         "0.5 + 0.3*(0.5*sin(2*pi*v) + u*(1 - u)*sin(pi*v)^2)"], 2, name="ll")
    hol, = holonomy2_H(SU2_CONN, [loop_bigon], steps=96)
    zero_ok = float(np.max(np.abs(hol["value"] - np.eye(2)))) <= 1e-7
    _report(9, "higher Ambrose-Singer: pu(2) 2-holonomy logs lie on the "
            "sampled curvature span <= 1e-5; zero-curvature family gives "
            "identity 2-holonomies <= 1e-7", u2p_ok and zero_ok,
            f"span rank {rep['span_rank']}, residual "
            f"{rep['containment_residual']:.1e}")


def test_criterion_10_determinism(tmp_path):
    raw = {
        "seed": 77,
        "crossed_module": {"matrix": {"family": "su2_id_conj"}},
        "chart": {"dim": 2},
        "connection": {"a": [["0.6*x2", "0.3", "0.1*x1"],
                             ["0.2", "0.5*x1", "0.3*x2"]], "b": "fake_flat"},
        "bigons": {"lens": ["v", "v + 0.25*(2*u - 1)*sin(pi*v)"]},
        "numeric": {"steps": 48, "surface_steps": 24, "sweep": 2},
    }
    cfg = RunConfig(raw)
    outputs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        run_command("verify-stokes", cfg, str(out), quiet=True)
        run_command("reconstruct-A", cfg, str(out), quiet=True)
        outputs.append((
            (out / "verify-stokes.json").read_bytes(),
            (out / "stokes-lens.csv").read_bytes(),
            (out / "reconstruct-A.json").read_bytes()))
    _report(10, "determinism: fixed seed reproduces bit-identical reports",
            outputs[0] == outputs[1])
