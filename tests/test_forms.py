import numpy as np
import pytest

from gauge2.families import matrix_family
from gauge2.fields import (CoefficientField, GroupValuedField, chart_grid,
                           directional_diff)
from gauge2.forms import (TransitionData, TwoConnection, bundle_form_B,
                          check_local_data, curvature_F,
                          fake_flatness_residual, three_curvature_K)
from gauge2.geometry import Chart
from gauge2.morphisms import OneMorphism, gauge_transform

EX, EY, EZ = np.eye(3)


@pytest.fixture(scope="module")
def u1():
    return matrix_family("u1_id")


@pytest.fixture(scope="module")
def u1t():
    return matrix_family("u1_triv")


@pytest.fixture(scope="module")
def su2():
    return matrix_family("su2_id_conj")


@pytest.fixture(scope="module")
def u2p():
    return matrix_family("u2_to_pu2")


def test_curvature_zero_connection(u1):
    conn = TwoConnection(u1, Chart(2), a=[["0"], ["0"]], b="fake_flat")
    F = curvature_F(conn, np.array([[0.3, 0.4]]), [1, 0], [0, 1])
    assert np.max(np.abs(F)) <= 1e-14


def test_curvature_abelian_x_dy(u1):
    conn = TwoConnection(u1, Chart(2), a=[["0"], ["x1"]], b="fake_flat")
    F = curvature_F(conn, np.array([[0.2, 0.7], [0.5, 0.1]]), [1, 0], [0, 1])
    assert np.max(np.abs(F - 1.0)) <= 1e-8


def test_curvature_su2_pure_commutator(su2):
    eps = 0.1
    conn = TwoConnection(su2, Chart(2),
                         a=[[f"{eps}", "0", "0"], ["0", f"{eps}", "0"]],
                         b="fake_flat")
    F = curvature_F(conn, np.array([[0.5, 0.5]]), [1, 0], [0, 1])
    expected = np.array([0.0, 0.0, eps * eps])   # eps^2 [e1, e2] = eps^2 e3
    assert np.max(np.abs(F[0] - expected)) <= 1e-8


def test_fake_flat_by_construction(su2):
    conn = TwoConnection(su2, Chart(2),
                         a=[["0.6*x2", "0.3", "0.1*x1"],
                            ["0.2", "0.5*x1", "0.3*x2"]], b="fake_flat")
    rep = fake_flatness_residual(conn)
    assert rep["pass"]


def test_fake_flat_fails_when_t_kills_b(u1t):
    conn = TwoConnection(u1t, Chart(2), a=[["0"], ["x1"]], b=[["0"]])
    rep = fake_flatness_residual(conn)
    # t == e makes t_* b = 0, so the residual is max |F_a| = 1
    assert not rep["pass"]
    assert abs(rep["residual"] - 1.0) <= 1e-8


def test_fake_flat_with_kernel_part(u2p):
    conn = TwoConnection(
        u2p, Chart(2),
        a=[["0.5*x2", "0.2", "0.1*x1"], ["0.3", "0.4*x1", "0.2*x2"]],
        b="fake_flat",
        b_extra=[["0.4*x1 + 0.3*x2", "0", "0", "0"]])
    rep = fake_flatness_residual(conn)
    assert rep["pass"]   # the trace part lies in ker t_*


def test_three_curvature_constant_b(u1t):
    conn = TwoConnection(u1t, Chart(3),
                         a=[["0"], ["0"], ["0"]],
                         b=[["0.7"], ["0.2"], ["0.1"]])
    rep = three_curvature_K(conn, np.array([[0.3, 0.3, 0.3]]), EX, EY, EZ)
    assert np.max(np.abs(rep["value"])) <= 1e-10
    assert rep["bianchi_defect"] <= 1e-10


def test_three_curvature_abelian_volume_form(u1t):
    conn = TwoConnection(u1t, Chart(3),
                         a=[["0"], ["0"], ["0"]],
                         b=[["x3"], ["0"], ["0"]])
    rep = three_curvature_K(conn, np.array([[0.4, 0.2, 0.7]]), EX, EY, EZ)
    assert np.max(np.abs(rep["value"] - 1.0)) <= 1e-8
    assert np.max(np.abs(rep["projected"] - 1.0)) <= 1e-8


def test_three_curvature_u2pu2_trace_part(u2p):
    conn = TwoConnection(
        u2p, Chart(3),
        a=[["0.4*x2", "0.1", "0.1*x3"], ["0.2", "0.3*x1", "0.1"],
           ["0.1*x2", "0.2", "0.2*x1"]],
        b="fake_flat",
        b_extra=[["0.5*x3", "0", "0", "0"], ["0.4*x1", "0", "0", "0"],
                 ["0.3*x2", "0", "0", "0"]])
    pts = np.array([[0.3, 0.5, 0.4], [0.6, 0.2, 0.7]])
    rep = three_curvature_K(conn, pts, EX, EY, EZ)
    # K = d(beta) with beta = 0.5 x3 dx^dy + 0.4 x1 dx^dz + 0.3 x2 dy^dz:
    # K(ex, ey, ez) = d/dz(0.5 x3) - d/dy(0.4 x1) + d/dx(0.3 x2) = 0.5
    expected = np.array([0.5, 0.0, 0.0, 0.0])
    assert np.max(np.abs(rep["value"] - expected)) <= 1e-7
    assert rep["bianchi_defect"] <= 1e-7
    assert np.max(np.abs(rep["projected"] - expected)) <= 1e-7


def test_three_curvature_low_dimension_note(u1):
    conn = TwoConnection(u1, Chart(2), a=[["0"], ["x1"]], b="fake_flat")
    rep = three_curvature_K(conn, np.array([[0.3, 0.3]]), EX[:2], EY[:2],
                            EX[:2])
    assert "note" in rep
    assert np.max(np.abs(rep["value"])) == 0.0


def test_curvature_fd_convergence_order():
    su2 = matrix_family("su2_id_conj")
    conn_coarse = TwoConnection(su2, Chart(2),
                                a=[["sin(pi*x2)", "0.3", "0"],
                                   ["0", "cos(pi*x1)", "0"]],
                                b="fake_flat", fd_step=4e-3)
    conn_fine = TwoConnection(su2, Chart(2),
                              a=[["sin(pi*x2)", "0.3", "0"],
                                 ["0", "cos(pi*x1)", "0"]],
                              b="fake_flat", fd_step=2e-3)
    x = np.array([[0.3, 0.4]])
    # analytic: F = (d/dx sin(pi x2) keeps only the x2 derivative ...)
    exact = np.array([-np.pi * np.cos(np.pi * 0.4),
                      -np.pi * np.sin(np.pi * 0.3), 0.0])
    exact = exact + np.array([0.0, 0.0,
                              np.sin(np.pi * 0.4) * np.cos(np.pi * 0.3)
                              - 0.3 * 0.0])
    # bracket part: [a_x, a_y] with a_x = sin(pi x2) e1 + 0.3 e2,
    # a_y = cos(pi x1) e2: [e1,e2]=e3 -> sin*cos e3
    f_coarse = curvature_F(conn_coarse, x, [1, 0], [0, 1])[0]
    f_fine = curvature_F(conn_fine, x, [1, 0], [0, 1])[0]
    e1 = np.max(np.abs(f_coarse - exact))
    e2 = np.max(np.abs(f_fine - exact))
    assert e1 / e2 >= 12.0


def test_bundle_form_identity_and_equivariance(su2):
    conn = TwoConnection(su2, Chart(2),
                         a=[["0.6*x2", "0.3", "0.1*x1"],
                            ["0.2", "0.5*x1", "0.3*x2"]], b="fake_flat")
    x = np.array([[0.3, 0.6]])
    X, Y = np.array([1.0, 0.2]), np.array([-0.3, 1.0])
    base = conn.b_of(x, X, Y)
    e = su2.group_G.identity
    assert np.max(np.abs(bundle_form_B(conn, x, e, X, Y) - base)) <= 1e-12
    rng = np.random.default_rng(0)
    g = su2.cm.sample_G(rng)
    g0 = su2.cm.sample_G(rng)
    lhs = bundle_form_B(conn, x, g @ g0, X, Y)
    rhs = su2.alpha_vec(su2.group_G.inv(g0), bundle_form_B(conn, x, g, X, Y))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10
    # explicit adjoint check at g = exp(e1)
    g1 = su2.group_G.exp(su2.l2a.g_alg.to_matrix([1.0, 0.0, 0.0]))
    got = bundle_form_B(conn, x, g1, X, Y)
    want = su2.alpha_vec(su2.group_G.inv(g1), base)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_check_local_data_identity_transition(su2):
    chart = Chart(2)
    conn = TwoConnection(su2, chart,
                         a=[["0.6*x2", "0.3", "0.1*x1"],
                            ["0.2", "0.5*x1", "0.3*x2"]], b="fake_flat")
    td = TransitionData(su2, chart, ["0", "0", "0"])
    rep = check_local_data(conn, conn, td)
    assert rep["pass"]


def test_check_local_data_abelian_gauge_term(u1):
    chart = Chart(2)
    conn_j = TwoConnection(u1, chart, a=[["0.3"], ["0.5*x1"]], b="fake_flat")
    # g = exp(i * 0.7 x1 x2): a_i = a_j + i d(0.7 x1 x2)
    conn_i = TwoConnection(u1, chart,
                           a=[["0.3 + 0.7*x2"], ["0.5*x1 + 0.7*x1"]],
                           b="fake_flat")
    td = TransitionData(u1, chart, ["0.7*x1*x2"])
    rep = check_local_data(conn_i, conn_j, td)
    assert rep["pass"], rep


def test_check_local_data_su2_pushforward(su2):
    chart = Chart(2)
    conn_j = TwoConnection(su2, chart,
                           a=[["0.6*x2", "0.3", "0.1*x1"],
                              ["0.2", "0.5*x1", "0.3*x2"]], b="fake_flat")
    g_exprs = ["0.4*x1", "0.3*x1*x2", "0.2*x2"]
    # push the connection through the transition (a gauge move with phi = 0)
    m = OneMorphism(su2, chart, g_map=g_exprs,
                    phi=[["0", "0", "0"], ["0", "0", "0"]])
    conn_i = gauge_transform(conn_j, m)
    td = TransitionData(su2, chart, g_exprs)
    rep = check_local_data(conn_i, conn_j, td)
    assert rep["pass"], rep
    assert rep["transition_membership_defect"] <= 1e-10


def test_local_data_detects_mismatch(su2):
    chart = Chart(2)
    conn_j = TwoConnection(su2, chart,
                           a=[["0.6*x2", "0.3", "0.1*x1"],
                              ["0.2", "0.5*x1", "0.3*x2"]], b="fake_flat")
    conn_i = TwoConnection(su2, chart,
                           a=[["0.6*x2 + 0.1", "0.3", "0.1*x1"],
                              ["0.2", "0.5*x1", "0.3*x2"]], b="fake_flat")
    td = TransitionData(su2, chart, ["0", "0", "0"])
    rep = check_local_data(conn_i, conn_j, td)
    assert not rep["pass"]


def test_coefficient_field_guards():
    with pytest.raises(Exception):
        CoefficientField([["x9"]], 2, (1, 1))
    f = CoefficientField([["x1 + x2"]], 2, (1, 1))
    out = f(np.array([[1.0, 2.0]]))
    assert out.shape == (1, 1, 1) and out[0, 0, 0] == 3.0


def test_group_valued_field_on_manifold(su2):
    field = GroupValuedField(
        su2.group_G, su2.l2a.g_alg,
        CoefficientField(["0.3*x1", "0.2*x2", "0.1"], 2, (3,)))
    grid = chart_grid(Chart(2), 4)
    assert su2.group_G.membership_defect(field(grid)) <= 1e-12


def test_richardson_refinement_tightens_curvature():
    su2 = matrix_family("su2_id_conj")
    kwargs = dict(a=[["sin(pi*x2)", "0.3", "0"], ["0", "cos(pi*x1)", "0"]],
                  b="fake_flat", fd_step=5e-3)
    plain = TwoConnection(su2, Chart(2), **kwargs)
    refined = TwoConnection(su2, Chart(2), fd_richardson=True, **kwargs)
    x = np.array([[0.3, 0.4]])
    exact = np.array([-np.pi * np.cos(np.pi * 0.4),
                      -np.pi * np.sin(np.pi * 0.3),
                      np.sin(np.pi * 0.4) * np.cos(np.pi * 0.3)])
    e_plain = np.max(np.abs(curvature_F(plain, x, [1, 0], [0, 1])[0] - exact))
    e_refined = np.max(np.abs(curvature_F(refined, x, [1, 0], [0, 1])[0]
                              - exact))
    assert e_refined < e_plain / 10.0


# --- the all-pairs F, b and K against the per-pair nested formulas ------------
#
# The reference below is the direct transcription of the formulas: every
# F(e_k, e_l) differences a(e_l) and a(e_k) on its own, every b_of
# recomputes every stored pair, and K differences b_of along each tangent.
# The connection's batched path must give the same bits.

A3 = [["0.4*x2", "0.1", "0.1*x3"], ["0.2", "0.3*x1*sin(pi*x2)", "0.1"],
      ["0.1*x2^2", "0.2", "exp(0.2*x1)"]]
SU2_A3 = [["0.6*x2", "0.3", "0.1*x1"], ["0.2", "0.5*x1", "0.3*x2"],
          ["0.1", "0.2*x3", "0"]]


def _ref_a(conn, p, X):
    return np.einsum("...kg,...k->...g", conn.a_coeffs(p), X)


def _ref_F(conn, p, X, Y):
    step, rich = conn.fd_step, conn.fd_richardson
    da = (directional_diff(lambda q: _ref_a(conn, q, Y), p, X, step, rich)
          - directional_diff(lambda q: _ref_a(conn, q, X), p, Y, step, rich))
    comm = np.einsum("...i,...j,ijk->...k", _ref_a(conn, p, X),
                     _ref_a(conn, p, Y), conn.family.l2a.g_alg.structure)
    return da + comm


def _ref_b_pairs(conn, p):
    p = np.atleast_2d(p)
    if conn.fake_flat_mode:
        eye = np.eye(conn.chart.dim)
        out = np.stack([np.einsum("hg,...g->...h", conn.family.rep_star,
                                  _ref_F(conn, p, eye[k], eye[l]))
                        for (k, l) in conn.pairs], axis=-2)
    else:
        out = conn._b(p)
    if conn._b_extra is not None:
        out = out + conn._b_extra(p)
    return out


def _ref_b(conn, p, X, Y):
    weights = np.stack([X[..., k] * Y[..., l] - X[..., l] * Y[..., k]
                        for (k, l) in conn.pairs], axis=-1)
    return np.einsum("...p,...ph->...h", weights, _ref_b_pairs(conn, p))


def _ref_K(conn, p, X, Y, Z):
    step, rich = conn.fd_step, conn.fd_richardson

    def diff(fn, v):
        return directional_diff(fn, p, v, step, rich)

    def alpha(x, eta):
        return np.einsum("...i,...j,ijk->...k", x, eta,
                         conn.family.l2a.alpha_star)

    db = (diff(lambda q: _ref_b(conn, q, Y, Z), X)
          - diff(lambda q: _ref_b(conn, q, X, Z), Y)
          + diff(lambda q: _ref_b(conn, q, X, Y), Z))
    wedge = (alpha(_ref_a(conn, p, X), _ref_b(conn, p, Y, Z))
             - alpha(_ref_a(conn, p, Y), _ref_b(conn, p, X, Z))
             + alpha(_ref_a(conn, p, Z), _ref_b(conn, p, X, Y)))
    return db + wedge


def _connections(richardson):
    u2p = matrix_family("u2_to_pu2")
    su2 = matrix_family("su2_id_conj")
    extra = TwoConnection(
        u2p, Chart(3), a=A3, b="fake_flat", fd_richardson=richardson,
        b_extra=[["0.5*x3", "0", "0", "-0.2*x1"], ["0.4*x1", "0", "0", "0"],
                 ["0.3*x2", "0", "0", "0"]])
    explicit = TwoConnection(
        u2p, Chart(3), a=A3, fd_richardson=richardson,
        b=[["0.5*x3", "0.1*x1", "-0.5*x2", "0.3"], ["0.4*x1", "0", "0", "0"],
           ["0.3*x2", "x1*x3", "0", "0"]])
    base = TwoConnection(su2, Chart(3), a=SU2_A3, b="fake_flat",
                         fd_richardson=richardson)
    m = OneMorphism(su2, Chart(3), g_map=["0.4*x1", "0.3*x2*x3", "0.2*x1*x2"],
                    phi=[["0.2*x2", "0.1", "0"], ["0.1*x1", "0", "0.3"],
                         ["0", "0.2*x3", "0.1"]])
    return {"b_extra": extra, "explicit_b": explicit,
            "gauge_transformed": gauge_transform(base, m)}


@pytest.mark.parametrize("richardson", [False, True],
                         ids=["plain", "richardson"])
@pytest.mark.parametrize("which", ["b_extra", "explicit_b",
                                   "gauge_transformed"])
def test_all_pairs_forms_bitwise_equal_per_pair_formulas(which, richardson):
    conn = _connections(richardson)[which]
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.2, 0.8, size=(12, 3))
    X, Y, Z = rng.normal(size=(3, 12, 3))
    eye = np.eye(3)
    for (k, l) in conn.pairs:
        assert np.array_equal(conn.F_of(pts, eye[k], eye[l]),
                              _ref_F(conn, pts, eye[k], eye[l]))
        assert np.array_equal(conn.b_of(pts, eye[k], eye[l]),
                              _ref_b(conn, pts, eye[k], eye[l]))
    assert np.array_equal(conn.F_of(pts, X, Y), _ref_F(conn, pts, X, Y))
    assert np.array_equal(conn.b_of(pts, X, Y), _ref_b(conn, pts, X, Y))
    assert np.array_equal(conn.K_of(pts, X, Y, Z), _ref_K(conn, pts, X, Y, Z))
    assert np.array_equal(conn.K_of(pts[:3], EX, EY, EZ),
                          _ref_K(conn, pts[:3], EX, EY, EZ))
    grid = conn.validation_grid(3)
    ref = max(float(np.max(np.abs(
        conn.family.l2a.apply_t_star(_ref_b(conn, grid, eye[k], eye[l]))
        - _ref_F(conn, grid, eye[k], eye[l])))) for (k, l) in conn.pairs)
    assert fake_flatness_residual(conn, grid)["residual"] == ref


def test_gauge_transform_bitwise_equal_per_axis_formulas(su2):
    chart = Chart(3)
    conn = TwoConnection(su2, chart, a=SU2_A3, b="fake_flat")
    m = OneMorphism(su2, chart, g_map=["0.4*x1", "0.3*x2*x3", "0.2*x1*x2"],
                    phi=[["0.2*x2", "0.1", "0"], ["0.1*x1", "0", "0.3"],
                         ["0", "0.2*x3", "0.1"]])
    moved = gauge_transform(conn, m)
    pts = np.random.default_rng(5).uniform(0.2, 0.8, size=(9, 3))
    l2a, eye = su2.l2a, np.eye(3)
    ginv = su2.group_G.inv(m.g_map(pts))
    # a' = Ad_{g^-1}(a + dg g^-1 + t_* phi), one axis at a time
    want_a = np.stack([su2.ad_g_vec(ginv, conn.a_coeffs(pts)[:, k]
                                    + m.g_map.right_log_derivative(pts, k)
                                    + l2a.apply_t_star(m.phi_coeffs(pts)[:, k]))
                       for k in range(3)], axis=1)
    assert np.array_equal(moved.a_coeffs(pts), want_a)
    # b' = (alpha_{g^-1})_*(b + d phi + [phi, phi] + alpha_*(a ^ phi))
    a, phi = conn.a_coeffs(pts), m.phi_coeffs(pts)
    dphi = [directional_diff(m.phi_coeffs, pts, e, conn.fd_step) for e in eye]
    want_b = np.stack([
        su2.alpha_vec(ginv, conn.b_of(pts, eye[k], eye[l])
                      + dphi[k][:, l] - dphi[l][:, k]
                      + l2a.h_alg.bracket(phi[:, k], phi[:, l])
                      + l2a.apply_alpha_star(a[:, k], phi[:, l])
                      - l2a.apply_alpha_star(a[:, l], phi[:, k]))
        for (k, l) in conn.pairs], axis=1)
    assert np.array_equal(moved._b(pts), want_b)


def test_each_field_is_evaluated_once_per_stencil_point(u2p):
    coeffs = CoefficientField(A3, 3, (3, 3))
    calls = []

    def counting_a(points):
        calls.append(len(points))
        return coeffs(points)

    grid = chart_grid(Chart(3), 3)
    for richardson, stencil in [(False, 4), (True, 8)]:
        conn = TwoConnection(u2p, Chart(3), a=counting_a, b="fake_flat",
                             fd_richardson=richardson)
        calls.clear()
        fake_flatness_residual(conn, grid)
        # the centre plus one stencil per chart axis, for all three pairs
        assert len(calls) == 1 + stencil * 3
        calls.clear()
        conn.K_of(grid, EX, EY, EZ)
        # b at every stencil point of the three differences, then a and b
        # once at the centre for the wedge terms
        assert len(calls) == (3 * stencil + 1) * (1 + stencil * 3) + 1


def _fake_flat_cases():
    # a linear u(1) connection: F_12 = 1, F_13 = x2, F_23 = x1, and t_* = id
    u1 = ("u1_id", [["0"], ["x1"], ["x1*x2"]], [["1"], ["x2"], ["x1"]])
    # a constant su(2) connection: F(e_k, e_l) = [a_k, a_l], and t_* = id
    su2 = matrix_family("su2_id_conj")
    c = np.array([[0.3, 0.1, 0.0], [0.0, 0.5, 0.2], [0.1, 0.0, 0.4]])
    brackets = [su2.l2a.g_alg.bracket(c[k], c[l])
                for (k, l) in [(0, 1), (0, 2), (1, 2)]]
    return [u1, ("su2_id_conj", [[repr(float(v)) for v in row] for row in c],
                 [[repr(float(v)) for v in row] for row in brackets])]


@pytest.mark.parametrize("case", [0, 1], ids=["u1-linear", "su2-constant"])
@pytest.mark.parametrize("wrong", [0, 1, 2])
def test_fake_flat_residual_checks_every_pair(case, wrong):
    # an explicit b equal to the fake-flat lift, then spoiled on one pair:
    # a dropped or permuted pair in the all-pairs residual shows here
    name, a, b = _fake_flat_cases()[case]
    family = matrix_family(name)
    assert fake_flatness_residual(
        TwoConnection(family, Chart(3), a=a, b=b))["pass"]
    b = [list(row) for row in b]
    b[wrong][0] += " + 0.25"
    rep = fake_flatness_residual(TwoConnection(family, Chart(3), a=a, b=b))
    assert not rep["pass"]
    assert abs(rep["residual"] - 0.25) <= 1e-9
