import numpy as np
import pytest

from gauge2.errors import DomainError
from gauge2.families import matrix_family
from gauge2.fields import GroupValuedField, chart_grid
from gauge2.forms import TwoConnection, fake_flatness_residual
from gauge2.geometry import Chart, ParamMap, straight_path
from gauge2.cli import TOL
from gauge2.morphisms import (OneMorphism, TwoMorphismA, apply_twomorphism,
                              compose_onemorphisms, gauge_transform,
                              horizontal_compose_twomorphisms,
                              pullback_defects, rho_from_phi,
                              vertical_compose_twomorphisms,
                              verify_onemorphism_compat)
from gauge2.transport import horizontal_lift, path_ordered_exp

U1 = matrix_family("u1_id")
SU2 = matrix_family("su2_id_conj")
U2P = matrix_family("u2_to_pu2")
CHART = Chart(2)

SU2_CONN = TwoConnection(
    SU2, CHART,
    a=[["0.6*x2", "0.3", "0.1*x1"], ["0.2", "0.5*x1", "0.3*x2"]],
    b="fake_flat")
SU2_M = OneMorphism(
    SU2, CHART, g_map=["0.4*x1", "0.3*x2", "0.2*x1*x2"],
    phi=[["0.2*x2", "0.1", "0"], ["0.1*x1", "0", "0.3"]])


def _passes(rep):
    """The verdict of ``verify gauge`` on a compatibility report."""
    return (rep["square_defect"] <= TOL["gauge_square"]
            and rep["a_pullback_defect"] <= TOL["gauge_a_grid"])


def smooth_bigon():
    def fn(params):
        u = params[..., 0][..., None]
        v = params[..., 1][..., None]
        p0 = np.concatenate([0.7 * v, 0.5 * v * v], -1)
        p1 = np.concatenate([0.7 * v * v, 0.5 * v], -1)
        return (1 - u) * p0 + u * p1
    return ParamMap(2, 2, fn, name="smooth")


def test_identity_morphism_fixes_connection():
    m = OneMorphism(SU2, CHART, g_map=["0", "0", "0"],
                    phi=[["0", "0", "0"], ["0", "0", "0"]])
    out = gauge_transform(SU2_CONN, m)
    grid = chart_grid(CHART)
    assert np.max(np.abs(out.a_coeffs(grid) - SU2_CONN.a_coeffs(grid))) <= 1e-12
    for (k, l) in SU2_CONN.pairs:
        ek = np.eye(2)[k]
        el = np.eye(2)[l]
        assert np.max(np.abs(out.b_of(grid, ek, el)
                             - SU2_CONN.b_of(grid, ek, el))) <= 1e-10


def test_abelian_gauge_term():
    conn = TwoConnection(U1, CHART, a=[["0.3"], ["0.5*x1"]], b="fake_flat")
    m = OneMorphism(U1, CHART, g_map=["0.7*x1*x2"], phi=[["0"], ["0"]])
    out = gauge_transform(conn, m)
    pts = np.array([[0.3, 0.6], [0.8, 0.2]])
    expected = conn.a_coeffs(pts).copy()
    expected[:, 0, 0] += 0.7 * pts[:, 1]
    expected[:, 1, 0] += 0.7 * pts[:, 0]
    assert np.max(np.abs(out.a_coeffs(pts) - expected)) <= 1e-8


def test_gauge_transform_preserves_fake_flatness():
    out = gauge_transform(SU2_CONN, SU2_M)
    rep = fake_flatness_residual(out, chart_grid(CHART))
    assert rep["residual"] <= 1e-7


def test_gauge_transform_with_phi_only_keeps_fake_flatness():
    # t = id, g = e: the new curvature must equal t_* of the new b
    m = OneMorphism(SU2, CHART, g_map=["0", "0", "0"],
                    phi=[["0.3*x2", "0.1", "0"], ["0.2", "0", "0.4*x1"]])
    out = gauge_transform(SU2_CONN, m)
    rep = fake_flatness_residual(out, chart_grid(CHART))
    assert rep["residual"] <= 1e-7


def test_morphism_fields_stay_on_manifold():
    grid = chart_grid(CHART, 6)
    assert SU2_M.membership_defect(grid) <= 1e-10
    tm = TwoMorphismA(SU2, CHART, ["0.3*x2", "0.2*x1", "0.1"])
    assert tm.membership_defect(grid) <= 1e-10
    twisted = apply_twomorphism(SU2_CONN, SU2_M, tm)
    assert twisted.membership_defect(grid) <= 1e-10


def test_rho_trivial_phi():
    m = OneMorphism(SU2, CHART, g_map=["0.4*x1", "0.3*x2", "0"],
                    phi=[["0", "0", "0"], ["0", "0", "0"]])
    gamma = straight_path([0.1, 0.1], [0.8, 0.6])
    out = rho_from_phi(SU2_CONN, [m], [gamma], steps=32)[0, 0]
    assert np.max(np.abs(out - np.eye(2))) <= 1e-12


def test_rho_abelian_closed_form():
    # flat abelian connection, phi = c dx along a straight unit segment:
    # the ordered exponential of -phi gives exp(-i c L)
    c, length = 0.7, 1.0
    conn = TwoConnection(U1, CHART, a=[["0"], ["0"]], b="fake_flat")
    m = OneMorphism(U1, CHART, g_map=["0"], phi=[[f"{c}"], ["0"]])
    gamma = straight_path([0, 0], [length, 0])
    out = rho_from_phi(conn, [m], [gamma], steps=32)[0, 0]
    assert np.max(np.abs(out - np.exp(-1j * c * length))) <= 1e-9


def test_rho_composition_laws(stencilled):
    """rho along a path from rho along its halves, the second at the frame
    the first's transport carries p to: the reversed product misses by
    3.5e-3, the second half at the identity frame by 8.3e-3."""
    whole = ParamMap.from_exprs(["0.1 + 0.7*u", "0.1 + 0.3*sin(pi*u)"], 1)
    g1, g2 = (whole.compose_params(ParamMap.from_exprs([e], 1))
              for e in ("u/2", "(1+u)/2"))
    steps = 96
    r_whole = rho_from_phi(SU2_CONN, [SU2_M], [whole], steps=steps)[0, 0]
    r1 = rho_from_phi(SU2_CONN, [SU2_M], [g1], steps=steps)[0, 0]
    tp = path_ordered_exp(SU2_CONN, g1, steps)["value"]
    r2 = rho_from_phi(SU2_CONN, [SU2_M], [g2], (g2([0.0]), tp), steps)[0, 0]
    # the raw data composes in inverted order ...
    assert np.max(np.abs(r_whole - r2 @ r1)) <= 1e-7
    # ... and the pointwise inverse is functorial in the quoted order
    H = SU2.group_H
    assert np.max(np.abs(H.inv(r_whole)
                         - H.inv(r1) @ H.inv(r2))) <= 1e-7
    assert stencilled == []


def test_rho_batched_over_morphisms_and_paths():
    tm = TwoMorphismA(SU2, CHART, ["0.3*x2", "0.2*x1", "0.1"])
    morphisms = [SU2_M] + [apply_twomorphism(SU2_CONN, SU2_M, tm, form=form)
                           for form in ("definition", "lemma")]
    paths = [straight_path([0.1, 0.1], [0.6, 0.3]),
             ParamMap.from_exprs(["0.1 + 0.7*u", "0.1 + 0.3*sin(pi*u)"], 1)]
    p = (np.array([0.1, 0.1]), SU2.cm.sample_G(np.random.default_rng(4)))
    got = rho_from_phi(SU2_CONN, morphisms, paths, p, 24)
    assert got.shape == (3, 2, 2, 2)
    for i, m in enumerate(morphisms):
        for j, gamma in enumerate(paths):
            ref = rho_from_phi(SU2_CONN, [m], [gamma], p, 24)[0, 0]
            assert np.max(np.abs(got[i, j] - ref)) <= 1e-14


@pytest.mark.parametrize("fam,a_exprs,phi_exprs,g_exprs", [
    (SU2, [["0.6*x2", "0.3", "0.1*x1"], ["0.2", "0.5*x1", "0.3*x2"]],
     [["0.2*x2", "0.1", "0"], ["0.1*x1", "0", "0.3"]],
     ["0.4*x1", "0.3*x2", "0.2*x1*x2"]),
    # rep is the SU(2) lift of SO(3), defined up to sign
    (U2P, [["0.5*x2", "0.2", "0.1*x1"], ["0.3", "0.4*x1", "0.2*x2"]],
     [["0.2*x2", "0.1", "0", "0.1"], ["0.1*x1", "0", "0.2", "0.05"]],
     ["0.3*x1", "0.2*x2", "0.1*x1*x2"]),
], ids=["su2", "u2pu2"])
def test_rho_matches_midpoint_solution_along_lift(fam, a_exprs, phi_exprs,
                                                  g_exprs):
    # h' = -(alpha_{frame^-1})_* phi(gamma') h with the frames of the
    # horizontal lift through a non-identity basepoint frame, solved by the
    # midpoint product of exponentials
    conn = TwoConnection(fam, CHART, a=a_exprs, b="fake_flat")
    m = OneMorphism(fam, CHART, g_map=g_exprs, phi=phi_exprs)
    gamma = ParamMap.from_exprs(["0.1 + 0.7*u", "0.1 + 0.3*sin(pi*u)"], 1)
    p = (gamma([0.0]), fam.cm.sample_G(np.random.default_rng(7)))
    n = 1024
    _, frames = horizontal_lift(conn, gamma, p, 2 * n)
    mid = (np.arange(n)[:, None] + 0.5) / n
    phi = m.phi_of(gamma(mid), gamma.partial(0, mid))
    gens = -fam.alpha_vec(fam.group_G.inv(frames[1::2]), phi) / n
    H = fam.group_H
    ref = H.identity
    for step in H.exp(fam.l2a.h_alg.to_matrix(gens)):
        ref = step @ ref
    got = rho_from_phi(conn, [m], [gamma], p, 48)[0, 0]
    assert np.max(np.abs(got - ref)) <= 1e-6


def test_rho_naturality_t_identity():
    conn2 = gauge_transform(SU2_CONN, SU2_M)
    gamma = ParamMap.from_exprs(["0.7*u", "0.3*sin(pi*u) + 0.1*u"], 1)
    steps = 96
    x0 = gamma([0.0])
    y = gamma([1.0])
    p = (x0, SU2.group_G.identity)
    rho = rho_from_phi(SU2_CONN, [SU2_M], [gamma], p, steps)[0, 0]
    tra = path_ordered_exp(SU2_CONN, gamma, steps)["value"] @ p[1]
    # F(p) = (x0, g(x0)^-1 k) for p = (x0, k)
    fp_frame = SU2.group_G.inv(SU2_M.g_map(np.atleast_2d(x0))[0]) @ p[1]
    tra_prime = path_ordered_exp(conn2, gamma, steps)["value"] @ fp_frame
    gy = SU2_M.g_map(np.atleast_2d(y))[0]
    f_tra = SU2.group_G.inv(gy) @ tra
    division = SU2.group_G.mul(SU2.group_G.inv(f_tra), tra_prime)
    assert np.max(np.abs(SU2.cm.t(rho) - division)) <= 1e-6


@pytest.mark.parametrize("fam,a_exprs,phi_exprs,g_exprs", [
    (U1, [["0.4*x2"], ["0.5*x1"]], [["0.3*x2"], ["0.2*x1"]], ["0.6*x1*x2"]),
    (SU2, [["0.6*x2", "0.3", "0.1*x1"], ["0.2", "0.5*x1", "0.3*x2"]],
     [["0.2*x2", "0.1", "0"], ["0.1*x1", "0", "0.3"]],
     ["0.4*x1", "0.3*x2", "0.2*x1*x2"]),
    (U2P, [["0.5*x2", "0.2", "0.1*x1"], ["0.3", "0.4*x1", "0.2*x2"]],
     [["0.2*x2", "0.1", "0", "0.1"], ["0.1*x1", "0", "0.2", "0.05"]],
     ["0.3*x1", "0.2*x2", "0.1*x1*x2"]),
    # gauge functions off the identity at the bigon corner, so that F(p)
    # has a frame and the square sees which way a frame acts
    (SU2, [["0.6*x2", "0.3", "0.1*x1"], ["0.2", "0.5*x1", "0.3*x2"]],
     [["0.2*x2", "0.1", "0"], ["0.1*x1", "0", "0.3"]],
     ["0.3 + 0.4*x1", "-0.2 + 0.3*x2", "0.25 + 0.2*x1*x2"]),
    (U2P, [["0.5*x2", "0.2", "0.1*x1"], ["0.3", "0.4*x1", "0.2*x2"]],
     [["0.2*x2", "0.1", "0", "0.1"], ["0.1*x1", "0", "0.2", "0.05"]],
     ["0.3 + 0.3*x1", "-0.2 + 0.2*x2", "0.25 + 0.1*x1*x2"]),
], ids=["u1", "su2", "u2pu2", "su2-framed", "u2pu2-framed"])
def test_compat_square(fam, a_exprs, phi_exprs, g_exprs):
    conn = TwoConnection(fam, CHART, a=a_exprs, b="fake_flat")
    m = OneMorphism(fam, CHART, g_map=g_exprs, phi=phi_exprs)
    conn2 = gauge_transform(conn, m)
    rep, = verify_onemorphism_compat(conn, conn2, [m], smooth_bigon(), steps=64)
    assert rep["square_defect"] <= 1e-6
    assert rep["a_pullback_defect"] <= 1e-7


def test_pullback_check_shows_a_wrong_log_derivative(monkeypatch):
    """The A-level check takes dg g^-1 from its own stencil, so a doubled
    dg g^-1 in the log derivative that builds a' fails it."""
    grid = chart_grid(CHART)
    right, = pullback_defects(SU2_CONN, gauge_transform(SU2_CONN, SU2_M),
                              [SU2_M], grid)
    assert right <= 1e-11
    log_derivative = GroupValuedField.log_derivative

    def doubled(self, points):
        g, dlog = log_derivative(self, points)
        return g, 2.0 * dlog

    monkeypatch.setattr(GroupValuedField, "log_derivative", doubled)
    conn2 = gauge_transform(SU2_CONN, SU2_M)
    wrong, = pullback_defects(SU2_CONN, conn2, [SU2_M], grid)
    assert wrong > 1e-2
    rep, = verify_onemorphism_compat(SU2_CONN, conn2, [SU2_M],
                                     smooth_bigon(), steps=16)
    assert rep["a_pullback_defect"] == wrong and not _passes(rep)


def test_apply_twomorphism_identity():
    tm = TwoMorphismA(SU2, CHART, ["0", "0", "0"])
    out = apply_twomorphism(SU2_CONN, SU2_M, tm)
    grid = chart_grid(CHART)
    assert np.max(np.abs(out.g_map(grid) - SU2_M.g_map(grid))) <= 1e-12
    assert np.max(np.abs(out.phi_coeffs(grid)
                         - SU2_M.phi_coeffs(grid))) <= 1e-10


def test_apply_twomorphism_abelian_trailing_term():
    # abelian H with trivial action: phi' = phi -/+ (da) a^-1 per form
    conn = TwoConnection(U1, CHART, a=[["0.4*x2"], ["0.5*x1"]], b="fake_flat")
    m = OneMorphism(U1, CHART, g_map=["0.2*x1"], phi=[["0.3*x2"], ["0.2*x1"]])
    tm = TwoMorphismA(U1, CHART, ["0.6*x1*x2"])
    pts = np.array([[0.3, 0.5], [0.7, 0.2]])
    da_ainv = np.stack([1j * 0.6 * pts[:, 1], 1j * 0.6 * pts[:, 0]], axis=1)
    for form, sign in (("definition", -1.0), ("lemma", +1.0)):
        out = apply_twomorphism(conn, m, tm, form=form)
        got = out.phi_coeffs(pts)[:, :, 0]
        want = m.phi_coeffs(pts)[:, :, 0] + sign * da_ainv / 1j
        assert np.max(np.abs(got - want)) <= 1e-8, form


def test_apply_twomorphism_gauge_pairings():
    # each form maps the source connection to the same transformed one
    tm = TwoMorphismA(SU2, CHART, ["0.3*x2", "0.2*x1", "0.1"])
    conn2 = gauge_transform(SU2_CONN, SU2_M)
    grid = chart_grid(CHART)
    for form in ("definition", "lemma"):
        twisted = apply_twomorphism(SU2_CONN, SU2_M, tm, form=form)
        conn2b = gauge_transform(SU2_CONN, twisted)
        assert np.max(np.abs(conn2.a_coeffs(grid)
                             - conn2b.a_coeffs(grid))) <= 1e-9, form
        rep, = verify_onemorphism_compat(SU2_CONN, conn2, [twisted],
                                         smooth_bigon(), steps=64)
        assert _passes(rep), (form, rep)


def test_crossed_pairing_fails():
    # g' = t(a) g together with the +da a^-1 trailing term is inconsistent
    tm = TwoMorphismA(SU2, CHART, ["0.3*x2", "0.2*x1", "0.1"])
    proper = apply_twomorphism(SU2_CONN, SU2_M, tm, form="definition")
    wrong = OneMorphism(
        SU2, CHART, proper.g_map,
        lambda pts: (apply_twomorphism(SU2_CONN, SU2_M, tm, form="lemma")
                     .phi_coeffs(pts)))
    conn2 = gauge_transform(SU2_CONN, SU2_M)
    rep, = verify_onemorphism_compat(SU2_CONN, conn2, [wrong],
                                     smooth_bigon(), steps=48)
    assert not _passes(rep)


def test_unknown_form_rejected():
    tm = TwoMorphismA(SU2, CHART, ["0", "0", "0"])
    with pytest.raises(DomainError):
        apply_twomorphism(SU2_CONN, SU2_M, tm, form="other")


def test_vertical_composition_is_pointwise_product():
    tm1 = TwoMorphismA(SU2, CHART, ["0.3*x2", "0.2*x1", "0.1"])
    tm2 = TwoMorphismA(SU2, CHART, ["0.1", "0.4*x2", "0.2*x1"])
    comp = vertical_compose_twomorphisms(tm1, tm2)
    grid = chart_grid(CHART)
    assert np.max(np.abs(comp.a_map(grid)
                         - tm1.a_map(grid) @ tm2.a_map(grid))) == 0.0


def test_horizontal_composition_formulas_agree():
    tm1 = TwoMorphismA(SU2, CHART, ["0.3*x2", "0.2*x1", "0.1"])
    tm2 = TwoMorphismA(SU2, CHART, ["0.1", "0.4*x2", "0.2*x1"])
    comp = horizontal_compose_twomorphisms(tm1, tm2, SU2_M)
    grid = chart_grid(CHART)
    a1 = tm1.a_map(grid)
    a2 = tm2.a_map(grid)
    direct = comp.a_map(grid)
    assert np.max(np.abs(direct
                         - a1 @ SU2.cm.alpha(SU2_M.g_map(grid), a2))) == 0.0
    # equivalent formula through the twisted gauge function g' = t(a1) g
    target = apply_twomorphism(SU2_CONN, SU2_M, tm1)
    alt = SU2.cm.alpha(target.g_map(grid), a2) @ a1
    assert np.max(np.abs(direct - alt)) <= 1e-8


def test_composition_of_onemorphisms_associates():
    rng = np.random.default_rng(0)

    def random_morphism():
        g = [f"{rng.uniform(-0.4, 0.4):.3f}*x1",
             f"{rng.uniform(-0.4, 0.4):.3f}*x2",
             f"{rng.uniform(-0.4, 0.4):.3f}"]
        phi = [[f"{rng.uniform(-0.3, 0.3):.3f}*x2", "0.1", "0"],
               ["0", f"{rng.uniform(-0.3, 0.3):.3f}*x1", "0.2"]]
        return OneMorphism(SU2, CHART, g_map=g, phi=phi)

    grid = chart_grid(CHART)
    for _ in range(3):
        m1, m2, m3 = (random_morphism() for _ in range(3))
        left = compose_onemorphisms(m3, compose_onemorphisms(m2, m1))
        right = compose_onemorphisms(compose_onemorphisms(m3, m2), m1)
        assert np.max(np.abs(left.g_map(grid) - right.g_map(grid))) <= 1e-9
        assert np.max(np.abs(left.phi_coeffs(grid)
                             - right.phi_coeffs(grid))) <= 1e-9


def test_composition_matches_sequential_gauge_transforms():
    m1 = SU2_M
    m2 = OneMorphism(SU2, CHART, g_map=["0.1*x2", "0.2", "0.1*x1"],
                     phi=[["0.1", "0", "0.2*x2"], ["0", "0.3*x1", "0"]])
    grid = chart_grid(CHART)
    sequential = gauge_transform(gauge_transform(SU2_CONN, m1), m2)
    combined = gauge_transform(SU2_CONN, compose_onemorphisms(m2, m1))
    assert np.max(np.abs(sequential.a_coeffs(grid)
                         - combined.a_coeffs(grid))) <= 1e-8
    ek, el = np.eye(2)
    assert np.max(np.abs(sequential.b_of(grid, ek, el)
                         - combined.b_of(grid, ek, el))) <= 1e-7
