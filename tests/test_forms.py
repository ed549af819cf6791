import itertools
import pathlib
import tracemalloc

import numpy as np
import pytest

from gauge2 import dsl
from gauge2.families import matrix_family
from gauge2.cli import TOL
from gauge2.config import load_config
from gauge2.fields import (CoefficientField, chart_grid, directional_diff,
                           group_field)
from gauge2.forms import (TransitionData, TwoConnection, check_local_data,
                          fake_flatness_residual)
from gauge2.geometry import Chart
from gauge2.morphisms import OneMorphism, gauge_transform
from gauge2.transport import _simpson_grid


def _fake_flat(rep):
    """The CLI's verdict on a fake-flatness residual."""
    return rep["residual"] <= TOL["fake_flat"]


def _glues(rep):
    """The CLI's verdict on a local-data report."""
    return (max(rep["a_defect"], rep["b_defect"]) <= TOL["local_data"]
            and rep["transition_membership_defect"] <= TOL["group"])


EX, EY, EZ = np.eye(3)


def _stencil(exprs, dim, shape):
    """The coefficient field of ``exprs`` behind a plain callable, which
    the derivative layer differences by its stencil instead of
    differentiating the expressions."""
    field = CoefficientField(exprs, dim, shape)
    return lambda points: field(points)


def _d(fn, points, direction, step):
    """The stencil of fn along one direction, (N, ...)."""
    return directional_diff(fn, points, [direction], step)[:, 0]


def _diff_trees(exprs, dim):
    """The ``dsl.diff`` trees d e / d x_k of the DSL ``exprs``, k-major: a
    CoefficientField of them is a reference for exact partials that takes
    no jet, and trees of trees give second partials."""
    trees = [dsl.parse(e) if isinstance(e, str) else e
             for e in np.asarray(exprs, dtype=object).reshape(-1)]
    return [dsl.diff(e, f"x{k + 1}") for k in range(dim) for e in trees]


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
    F = conn.F_of(np.array([[0.3, 0.4]]), [1, 0], [0, 1])
    assert np.max(np.abs(F)) <= 1e-14


def test_curvature_abelian_x_dy(u1):
    conn = TwoConnection(u1, Chart(2), a=[["0"], ["x1"]], b="fake_flat")
    F = conn.F_of(np.array([[0.2, 0.7], [0.5, 0.1]]), [1, 0], [0, 1])
    assert np.max(np.abs(F - 1.0)) <= 1e-8


def test_curvature_su2_pure_commutator(su2):
    eps = 0.1
    conn = TwoConnection(su2, Chart(2),
                         a=[[f"{eps}", "0", "0"], ["0", f"{eps}", "0"]],
                         b="fake_flat")
    F = conn.F_of(np.array([[0.5, 0.5]]), [1, 0], [0, 1])
    expected = np.array([0.0, 0.0, eps * eps])   # eps^2 [e1, e2] = eps^2 e3
    assert np.max(np.abs(F[0] - expected)) <= 1e-8


def test_fake_flat_by_construction(su2):
    conn = TwoConnection(su2, Chart(2),
                         a=[["0.6*x2", "0.3", "0.1*x1"],
                            ["0.2", "0.5*x1", "0.3*x2"]], b="fake_flat")
    rep = fake_flatness_residual(conn, chart_grid(conn.chart))
    assert _fake_flat(rep)


def test_fake_flat_fails_when_t_kills_b(u1t):
    conn = TwoConnection(u1t, Chart(2), a=[["0"], ["x1"]], b=[["0"]])
    rep = fake_flatness_residual(conn, chart_grid(conn.chart))
    # t == e makes t_* b = 0, so the residual is max |F_a| = 1
    assert not _fake_flat(rep)
    assert abs(rep["residual"] - 1.0) <= 1e-8


def test_fake_flat_with_kernel_part(u2p):
    conn = TwoConnection(
        u2p, Chart(2),
        a=[["0.5*x2", "0.2", "0.1*x1"], ["0.3", "0.4*x1", "0.2*x2"]],
        b="fake_flat",
        b_extra=[["0.4*x1 + 0.3*x2", "0", "0", "0"]])
    rep = fake_flatness_residual(conn, chart_grid(conn.chart))
    assert _fake_flat(rep)   # the trace part lies in ker t_*


def test_three_curvature_constant_b(u1t):
    conn = TwoConnection(u1t, Chart(3),
                         a=[["0"], ["0"], ["0"]],
                         b=[["0.7"], ["0.2"], ["0.1"]])
    K = conn.K_of(np.array([[0.3, 0.3, 0.3]]), EX, EY, EZ)
    assert np.max(np.abs(K)) <= 1e-10
    assert np.max(np.abs(u1t.l2a.apply_t_star(K))) <= 1e-10   # Bianchi


def test_three_curvature_abelian_volume_form(u1t):
    conn = TwoConnection(u1t, Chart(3),
                         a=[["0"], ["0"], ["0"]],
                         b=[["x3"], ["0"], ["0"]])
    K = conn.K_of(np.array([[0.4, 0.2, 0.7]]), EX, EY, EZ)
    assert np.max(np.abs(K - 1.0)) <= 1e-8
    assert np.max(np.abs(u1t.l2a.project_ker_t_star(K) - 1.0)) <= 1e-8


def test_three_curvature_u2pu2_trace_part(u2p):
    conn = TwoConnection(
        u2p, Chart(3),
        a=[["0.4*x2", "0.1", "0.1*x3"], ["0.2", "0.3*x1", "0.1"],
           ["0.1*x2", "0.2", "0.2*x1"]],
        b="fake_flat",
        b_extra=[["0.5*x3", "0", "0", "0"], ["0.4*x1", "0", "0", "0"],
                 ["0.3*x2", "0", "0", "0"]])
    pts = np.array([[0.3, 0.5, 0.4], [0.6, 0.2, 0.7]])
    K = conn.K_of(pts, EX, EY, EZ)
    # K = d(beta) with beta = 0.5 x3 dx^dy + 0.4 x1 dx^dz + 0.3 x2 dy^dz:
    # K(ex, ey, ez) = d/dz(0.5 x3) - d/dy(0.4 x1) + d/dx(0.3 x2) = 0.5
    expected = np.array([0.5, 0.0, 0.0, 0.0])
    assert np.max(np.abs(K - expected)) <= 1e-7
    assert np.max(np.abs(u2p.l2a.apply_t_star(K))) <= 1e-7   # Bianchi
    assert np.max(np.abs(u2p.l2a.project_ker_t_star(K) - expected)) <= 1e-7


def test_three_curvature_low_dimension_note(u1):
    # every 3-form on a 2-d chart vanishes, and so does K
    conn = TwoConnection(u1, Chart(2), a=[["0"], ["x1"]], b="fake_flat")
    K = conn.K_of(np.array([[0.3, 0.3]]), EX[:2], EY[:2], EX[:2])
    assert np.max(np.abs(K)) == 0.0


def test_curvature_fd_convergence_order():
    su2 = matrix_family("su2_id_conj")
    a = _stencil([["sin(pi*x2)", "0.3", "0"], ["0", "cos(pi*x1)", "0"]],
                 2, (2, 3))

    def curvature(x, step):
        # F(e_1, e_2) = D_1 a_2 - D_2 a_1 + [a_1, a_2], differenced at step
        da = _d(a, x, [1, 0], step)[:, 1] - _d(a, x, [0, 1], step)[:, 0]
        return da + su2.l2a.g_alg.bracket(a(x)[:, 0], a(x)[:, 1])

    x = np.array([[0.3, 0.4]])
    # analytic: F = (d/dx sin(pi x2) keeps only the x2 derivative ...)
    exact = np.array([-np.pi * np.cos(np.pi * 0.4),
                      -np.pi * np.sin(np.pi * 0.3), 0.0])
    exact = exact + np.array([0.0, 0.0,
                              np.sin(np.pi * 0.4) * np.cos(np.pi * 0.3)
                              - 0.3 * 0.0])
    # bracket part: [a_x, a_y] with a_x = sin(pi x2) e1 + 0.3 e2,
    # a_y = cos(pi x1) e2: [e1,e2]=e3 -> sin*cos e3
    f_coarse = curvature(x, 4e-3)[0]
    f_fine = curvature(x, 2e-3)[0]
    e1 = np.max(np.abs(f_coarse - exact))
    e2 = np.max(np.abs(f_fine - exact))
    assert e1 / e2 >= 12.0


def test_bundle_form_identity_and_equivariance(su2):
    # the bundle-level B at (x, g) is (alpha_{g^-1})_* b_x, the conjugation
    # surface transport applies at the frames of its lifts
    conn = TwoConnection(su2, Chart(2),
                         a=[["0.6*x2", "0.3", "0.1*x1"],
                            ["0.2", "0.5*x1", "0.3*x2"]], b="fake_flat")
    x = np.array([[0.3, 0.6]])
    X, Y = np.array([1.0, 0.2]), np.array([-0.3, 1.0])
    base = conn.b_of(x, X, Y)

    def bundle_form_B(conn, x, g, X, Y):
        return su2.alpha_vec(su2.group_G.inv(g), conn.b_of(x, X, Y))

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
    assert _glues(rep)


def test_check_local_data_abelian_gauge_term(u1):
    chart = Chart(2)
    conn_j = TwoConnection(u1, chart, a=[["0.3"], ["0.5*x1"]], b="fake_flat")
    # g = exp(i * 0.7 x1 x2): a_i = a_j + i d(0.7 x1 x2)
    conn_i = TwoConnection(u1, chart,
                           a=[["0.3 + 0.7*x2"], ["0.5*x1 + 0.7*x1"]],
                           b="fake_flat")
    td = TransitionData(u1, chart, ["0.7*x1*x2"])
    rep = check_local_data(conn_i, conn_j, td)
    assert _glues(rep), rep


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
    assert _glues(rep), rep
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
    assert not _glues(rep)


def test_coefficient_field_guards():
    with pytest.raises(Exception):
        CoefficientField([["x9"]], 2, (1, 1))
    f = CoefficientField([["x1 + x2"]], 2, (1, 1))
    out = f(np.array([[1.0, 2.0]]))
    assert out.shape == (1, 1, 1) and out[0, 0, 0] == 3.0


def test_group_valued_field_on_manifold(su2):
    field = group_field(CoefficientField(["0.3*x1", "0.2*x2", "0.1"], 2, (3,)),
                        su2.group_G, su2.l2a.g_alg, 2)
    grid = chart_grid(Chart(2), 4)
    assert su2.group_G.membership_defect(field(grid)) <= 1e-12


# --- the all-pairs F, b and K against the per-pair nested formulas ------------
#
# The reference below is the direct transcription of the formulas, one
# chart axis at a time: every F(e_k, e_l) is D_k a_l - D_l a_k + [a_k, a_l]
# contracted with the tangents, every b_of recomputes every stored pair,
# and K sums m_ikl (D_i b_kl - D_k b_il + D_l b_ik) over the triples
# i < k < l, m_ikl the minor of the tangents [X; Y; Z] at those columns,
# plus the wedge.  For a fake-flat b, D_i b_kl is rep_* of the derivative
# of F, whose triple sum is [da_ik, a_l] - [da_il, a_k] + [da_kl, a_i],
# da_kl = D_k a_l - D_l a_k.  The connection's batched path must give the
# same bits.

A3 = [["0.4*x2", "0.1", "0.1*x3"], ["0.2", "0.3*x1*sin(pi*x2)", "0.1"],
      ["0.1*x2^2", "0.2", "exp(0.2*x1)"]]
SU2_A3 = [["0.6*x2", "0.3", "0.1*x1"], ["0.2", "0.5*x1", "0.3*x2"],
          ["0.1", "0.2*x3", "0"]]


def _ref_a(conn, p, X):
    return np.einsum("...kg,...k->...g", conn.a_coeffs(p), X)


def _ref_F_pair(conn, p, k, l):
    eye = np.eye(conn.chart.dim)
    da_k = _d(conn.a_coeffs, p, eye[k], conn.fd_step)
    da_l = _d(conn.a_coeffs, p, eye[l], conn.fd_step)
    comm = np.einsum("...i,...j,ijk->...k", _ref_a(conn, p, eye[k]),
                     _ref_a(conn, p, eye[l]), conn.family.l2a.g_alg.structure)
    return (da_k[:, l] - da_l[:, k]) + comm


def _ref_F(conn, p, X, Y):
    return _ref_along(conn, X, Y, np.stack([_ref_F_pair(conn, p, k, l)
                                            for (k, l) in conn.pairs], axis=-2))


def _ref_along(conn, X, Y, comps):
    weights = np.stack([X[..., k] * Y[..., l] - X[..., l] * Y[..., k]
                        for (k, l) in conn.pairs], axis=-1)
    return np.einsum("...p,...ph->...h", weights, comps)


def _ref_b_pairs(conn, p):
    p = np.atleast_2d(p)
    if conn.fake_flat_mode:
        out = np.stack([np.einsum("hg,...g->...h", conn.family.rep_star,
                                  _ref_F_pair(conn, p, k, l))
                        for (k, l) in conn.pairs], axis=-2)
    else:
        out = conn._b(p)
    if conn._b_extra is not None:
        out = out + conn._b_extra(p)
    return out


def _ref_b(conn, p, X, Y):
    return _ref_along(conn, X, Y, _ref_b_pairs(conn, p))


def _minor(X, Y, Z, i, k, l):
    """det[X; Y; Z] at columns (i, k, l), expanded along the first."""
    def bivector(U, V):
        return U[:, k] * V[:, l] - V[:, k] * U[:, l]

    return (X[:, i] * bivector(Y, Z) - Y[:, i] * bivector(X, Z)
            + Z[:, i] * bivector(X, Y))


def _ref_K(conn, p, X, Y, Z):
    eye = np.eye(conn.chart.dim)
    X, Y, Z = (np.broadcast_to(T, p.shape) for T in (X, Y, Z))
    triples = list(itertools.combinations(range(conn.chart.dim), 3))
    slot = {pair: n for n, pair in enumerate(conn.pairs)}

    def alpha(x, eta):
        return np.einsum("...i,...j,ijk->...k", x, eta,
                         conn.family.l2a.alpha_star)

    def bracket(u, v):
        return np.einsum("...i,...j,ijk->...k", u, v,
                         conn.family.l2a.g_alg.structure)

    def d_pairs(field):
        dc = [_d(field, p, e, conn.fd_step) for e in eye]
        return sum(_minor(X, Y, Z, i, k, l)[:, None]
                   * ((dc[i][:, slot[k, l]] - dc[k][:, slot[i, l]])
                      + dc[l][:, slot[i, k]]) for i, k, l in triples)

    if conn.fake_flat_mode:
        a = conn.a_coeffs(p)
        da = [_d(conn.a_coeffs, p, e, conn.fd_step) for e in eye]

        def curl(k, l):
            return da[k][:, l] - da[l][:, k]

        dF = sum(_minor(X, Y, Z, i, k, l)[:, None]
                 * ((bracket(curl(i, k), a[:, l]) - bracket(curl(i, l), a[:, k]))
                    + bracket(curl(k, l), a[:, i])) for i, k, l in triples)
        db = np.einsum("hg,...g->...h", conn.family.rep_star, dF)
    else:
        db = d_pairs(conn._b)
    if conn._b_extra is not None:
        db = db + d_pairs(conn._b_extra)
    wedge = (alpha(_ref_a(conn, p, X), _ref_b(conn, p, Y, Z))
             - alpha(_ref_a(conn, p, Y), _ref_b(conn, p, X, Z))
             + alpha(_ref_a(conn, p, Z), _ref_b(conn, p, X, Y)))
    return db + wedge


def _connections():
    # a, b and b_extra behind callables, so the stencil path is pinned
    u2p = matrix_family("u2_to_pu2")
    su2 = matrix_family("su2_id_conj")
    a3 = _stencil(A3, 3, (3, 3))
    extra = TwoConnection(
        u2p, Chart(3), a=a3, b="fake_flat",
        b_extra=_stencil([["0.5*x3", "0", "0", "-0.2*x1"],
                          ["0.4*x1", "0", "0", "0"],
                          ["0.3*x2", "0", "0", "0"]], 3, (3, 4)))
    explicit = TwoConnection(
        u2p, Chart(3), a=a3,
        b=_stencil([["0.5*x3", "0.1*x1", "-0.5*x2", "0.3"],
                    ["0.4*x1", "0", "0", "0"],
                    ["0.3*x2", "x1*x3", "0", "0"]], 3, (3, 4)))
    base = TwoConnection(su2, Chart(3), a=SU2_A3, b="fake_flat")
    m = OneMorphism(su2, Chart(3), g_map=["0.4*x1", "0.3*x2*x3", "0.2*x1*x2"],
                    phi=[["0.2*x2", "0.1", "0"], ["0.1*x1", "0", "0.3"],
                         ["0", "0.2*x3", "0.1"]])
    return {"b_extra": extra, "explicit_b": explicit,
            "gauge_transformed": gauge_transform(base, m)}


@pytest.mark.parametrize("which", ["b_extra", "explicit_b",
                                   "gauge_transformed"])
def test_all_pairs_forms_bitwise_equal_per_pair_formulas(which):
    conn = _connections()[which]
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
    grid = chart_grid(conn.chart, 3)
    ref = max(float(np.max(np.abs(
        conn.family.l2a.apply_t_star(_ref_b(conn, grid, eye[k], eye[l]))
        - _ref_F(conn, grid, eye[k], eye[l])))) for (k, l) in conn.pairs)
    assert fake_flatness_residual(conn, grid)["residual"] == ref


def test_gauge_transform_bitwise_equal_per_axis_formulas(su2):
    chart = Chart(3)
    conn = TwoConnection(su2, chart, a=SU2_A3, b="fake_flat")
    g_exprs = ["0.4*x1", "0.3*x2*x3", "0.2*x1*x2"]
    phi = [["0.2*x2", "0.1", "0"], ["0.1*x1", "0", "0.3"],
           ["0", "0.2*x3", "0.1"]]
    m = OneMorphism(su2, chart, g_map=g_exprs, phi=phi)
    moved = gauge_transform(conn, m)
    pts = np.random.default_rng(5).uniform(0.2, 0.8, size=(9, 3))
    l2a = su2.l2a
    ginv = su2.group_G.inv(m.g_map(pts))
    # a' = Ad_{g^-1}(a + dg g^-1 + t_* phi), one axis at a time, with
    # dg g^-1 = dexp_X(dX) of the exponent X of g = exp(X)
    X = m.g_map.generator(pts)
    dX = CoefficientField(_diff_trees(g_exprs, 3), 3, (3, 3))(pts)
    dlog = [l2a.g_alg.dexp(X, dX[:, k]) for k in range(3)]
    want_a = np.stack([su2.ad_g_vec(ginv, conn.a_coeffs(pts)[:, k] + dlog[k]
                                    + l2a.apply_t_star(m.phi_coeffs(pts)[:, k]))
                       for k in range(3)], axis=1)
    assert np.array_equal(moved.a_coeffs(pts), want_a)
    dphi = CoefficientField(_diff_trees(phi, 3), 3, (3, 3, 3))(pts)
    assert np.array_equal(moved._b(pts), _ref_gauge_b(
        su2, conn, m, pts, [dphi[:, k] for k in range(3)]))


def _ref_gauge_b(fam, conn, m, pts, dphi):
    """b' = (alpha_{g^-1})_*(b + d phi + [phi, phi] + alpha_*(a ^ phi)), one
    pair at a time, from the derivatives ``dphi`` of phi along each axis."""
    l2a, eye = fam.l2a, np.eye(conn.chart.dim)
    ginv = fam.group_G.inv(m.g_map(pts))
    a, phi = conn.a_coeffs(pts), m.phi_coeffs(pts)
    return np.stack([
        fam.alpha_vec(ginv, conn.b_of(pts, eye[k], eye[l])
                      + dphi[k][:, l] - dphi[l][:, k]
                      + l2a.h_alg.bracket(phi[:, k], phi[:, l])
                      + l2a.apply_alpha_star(a[:, k], phi[:, l])
                      - l2a.apply_alpha_star(a[:, l], phi[:, k]))
        for (k, l) in conn.pairs], axis=1)


def test_gauge_transform_keeps_the_connection_fd_settings(su2):
    """The transformed connection differences with the input's step, 1e-3
    times the chart box size, and so does the d phi term of b' of a phi
    that is no DSL field."""
    chart = Chart(3, box=[[0, 4], [0, 1], [0, 1]])
    conn = TwoConnection(su2, chart, a=SU2_A3, b="fake_flat")
    m = OneMorphism(su2, chart, g_map=["0.4*x1", "0.3*x2*x3", "0.2*x1*x2"],
                    phi=_stencil([["sin(2*x2)", "0.1", "0"], ["0.1*x1", "0", "0.3"],
                                  ["0", "exp(x3)*x1", "0.1"]], 3, (3, 3)))
    moved = gauge_transform(conn, m)
    assert moved.fd_step == conn.fd_step == 4e-3
    pts = np.random.default_rng(6).uniform(0.2, 0.8, size=(9, 3))
    dphi = [_d(m._phi, pts, e, conn.fd_step) for e in np.eye(3)]
    assert np.array_equal(moved._b(pts), _ref_gauge_b(su2, conn, m, pts, dphi))


def test_each_field_is_evaluated_once_per_stencil_point(u2p):
    coeffs = CoefficientField(A3, 3, (3, 3))
    calls = []

    def counting_a(points):
        calls.append(len(points))
        return coeffs(points)

    grid = chart_grid(Chart(3), 3)
    conn = TwoConnection(u2p, Chart(3), a=counting_a, b="fake_flat")
    for form in [lambda: fake_flatness_residual(conn, grid),
                 lambda: conn.F_of(grid, EX + EY, EZ)]:
        calls.clear()
        form()
        # the centre, then one call of the 4-point stencils of every chart
        # axis, for all pairs
        assert calls == [len(grid), 4 * 3 * len(grid)]
    calls.clear()
    conn.K_of(grid, EX, EY, EZ)
    # the centre and the stencils of the axes: K needs only first derivatives
    assert calls == [len(grid), 4 * 3 * len(grid)]


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
    grid = chart_grid(Chart(3))
    assert _fake_flat(fake_flatness_residual(
        TwoConnection(family, Chart(3), a=a, b=b), grid))
    b = [list(row) for row in b]
    b[wrong][0] += " + 0.25"
    rep = fake_flatness_residual(TwoConnection(family, Chart(3), a=a, b=b),
                                 grid)
    assert not _fake_flat(rep)
    assert abs(rep["residual"] - 0.25) <= 1e-9


# --- exact derivatives of DSL connections against closed forms ---------------


def test_exact_curvature_matches_closed_form(su2):
    # the connection of test_curvature_fd_convergence_order, as DSL fields
    conn = TwoConnection(su2, Chart(2), a=[["sin(pi*x2)", "0.3", "0"],
                                           ["0", "cos(pi*x1)", "0"]],
                         b="fake_flat")
    x = np.random.default_rng(2).uniform(0.1, 0.9, size=(7, 2))
    x1, x2 = x[:, 0], x[:, 1]
    exact = np.stack([-np.pi * np.cos(np.pi * x2), -np.pi * np.sin(np.pi * x1),
                      np.sin(np.pi * x2) * np.cos(np.pi * x1)], axis=-1)
    assert np.max(np.abs(conn.F_pairs(x)[:, 0] - exact)) <= 1e-13
    assert np.max(np.abs(conn.F_of(x, [1, 0], [0, 1]) - exact)) <= 1e-13
    X, Y = np.array([0.3, -1.2]), np.array([0.7, 0.4])
    assert np.max(np.abs(conn.F_of(x, X, Y) - (X[0] * Y[1] - X[1] * Y[0])
                         * exact)) <= 1e-13


def test_exact_three_curvature_of_explicit_b(u1t):
    # K = db: d_1 b_23 - d_2 b_13 + d_3 b_12 = x2 - cos(x2) + x1^2 times
    # the determinant of the tangents
    conn = TwoConnection(u1t, Chart(3), a=[["0.3*x2"], ["x1*x3"], ["0"]],
                         b=[["x3*x1^2"], ["sin(x2)"], ["x1*x2"]])
    rng = np.random.default_rng(4)
    x = rng.uniform(0.1, 0.9, size=(6, 3))
    X, Y, Z = rng.normal(size=(3, 6, 3))
    det = np.linalg.det(np.stack([X, Y, Z], axis=1))
    want = det * (x[:, 1] - np.cos(x[:, 1]) + x[:, 0] ** 2)
    assert np.max(np.abs(conn.K_of(x, X, Y, Z)[:, 0] - want)) <= 1e-13


def test_exact_fake_flat_three_curvature_is_d_of_b_extra(u2p):
    # with b = rep_* F + b_extra, Bianchi makes the rep_* F part of K vanish
    # exactly, and alpha acts trivially on the central ker t part: K is
    # d b_extra = d_1 (x2 x3) - d_2 sin(x1 x3) + d_3 (x3^2 x2) = 2 x2 x3
    conn = TwoConnection(
        u2p, Chart(3),
        a=[["0.4*sin(x2)", "0.1*x1*x3", "0.1*x3^2"], ["0.2", "0.3*x1", "exp(x3)"],
           ["0.1*x2*x1", "0.2", "cos(x1)"]],
        b="fake_flat",
        b_extra=[["x3^2*x2", "0", "0", "0"], ["sin(x1*x3)", "0", "0", "0"],
                 ["x2*x3", "0", "0", "0"]])
    x = np.random.default_rng(8).uniform(0.1, 0.9, size=(9, 3))
    K = conn.K_of(x, EX, EY, EZ)
    want = np.zeros((9, 4))
    want[:, 0] = 2 * x[:, 1] * x[:, 2]
    assert np.max(np.abs(K - want)) <= 1e-13
    assert np.max(np.abs(u2p.l2a.apply_t_star(K))) <= 1e-13   # Bianchi
    assert fake_flatness_residual(
        conn, chart_grid(conn.chart))["residual"] <= 1e-13


def test_exact_and_stencil_paths_agree(u2p):
    # the same fields as DSL expressions and behind callables: K, F and
    # the fake-flat b agree to the stencil's error
    b_extra = [["0.5*x3", "0", "0", "-0.2*x1"], ["0.4*x1*x2", "0", "0", "0"],
               ["0.3*x2", "0", "0", "0"]]
    exact = TwoConnection(u2p, Chart(3), a=A3, b="fake_flat", b_extra=b_extra)
    fd = TwoConnection(u2p, Chart(3), a=_stencil(A3, 3, (3, 3)),
                       b="fake_flat", b_extra=_stencil(b_extra, 3, (3, 4)))
    rng = np.random.default_rng(12)
    pts = rng.uniform(0.2, 0.8, size=(10, 3))
    X, Y, Z = rng.normal(size=(3, 10, 3))
    assert np.max(np.abs(exact.F_pairs(pts) - fd.F_pairs(pts))) <= 1e-10
    assert np.max(np.abs(exact.b_of(pts, X, Y) - fd.b_of(pts, X, Y))) <= 1e-10
    assert np.max(np.abs(exact.K_of(pts, X, Y, Z)
                         - fd.K_of(pts, X, Y, Z))) <= 1e-12


def test_fake_flat_residual_peak_memory_on_a_36_cube_grid():
    """verify fake-flat's 46,656-point grid on u2pu2_higher runs in blocks
    of 4096 points, so the traced peak stays under 6 MiB (18.5 MiB with
    the whole grid at once)."""
    configs = pathlib.Path(__file__).parent.parent / "configs"
    conn = load_config(configs / "u2pu2_higher.json").connection()
    grid = chart_grid(conn.chart, 36)
    tracemalloc.start()
    try:
        rep = fake_flatness_residual(conn, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _fake_flat(rep) and rep["grid_points"] == 36 ** 3
    assert peak <= 6 * 2 ** 20


# --- K from minors and first derivatives against the full 3-form algebra ------


def test_K_equals_the_trivector_contraction_with_second_derivatives(u2p, su2):
    """The 3-form part as C_ikl D_i b_kl over every i and pair k < l, C the
    antisymmetrized X^i Y^k Z^l, with D_i F_kl from the exact second
    derivatives of ``a``: the D_i D_k a_l terms that K_of leaves out sum to
    zero on a non-linear ``a`` too."""
    b_extra = [["0.5*x3", "0", "0", "-0.2*x1"], ["0.4*x1*x2", "0", "0", "0"],
               ["0.3*x2", "0", "0", "0"]]
    rng = np.random.default_rng(21)
    pts = rng.uniform(0.2, 0.8, size=(40, 3))
    X, Y, Z = rng.normal(size=(3, 40, 3))
    C = np.zeros((40, 3, 3, 3))
    for i, k, l in np.ndindex(3, 3, 3):
        C[:, i, k, l] = (X[:, i] * (Y[:, k] * Z[:, l] - Z[:, k] * Y[:, l])
                         - Y[:, i] * (X[:, k] * Z[:, l] - Z[:, k] * X[:, l])
                         + Z[:, i] * (X[:, k] * Y[:, l] - Y[:, k] * X[:, l]))
    for fam, a, extra in [(u2p, A3, b_extra), (su2, SU2_A3, None)]:
        conn = TwoConnection(fam, Chart(3), a=a, b="fake_flat", b_extra=extra)
        A = CoefficientField(a, 3, (3, 3))(pts)
        dA = CoefficientField(_diff_trees(a, 3), 3, (3, 3, 3))(pts)
        ddA = CoefficientField(_diff_trees(_diff_trees(a, 3), 3), 3,
                               (3, 3, 3, 3))(pts)    # [:, j, i] = D_j D_i
        bracket = fam.l2a.g_alg.bracket
        dF = np.stack([ddA[:, :, k, l] - ddA[:, :, l, k]
                       + bracket(dA[:, :, k], A[:, None, l])
                       + bracket(A[:, None, k], dA[:, :, l])
                       for (k, l) in conn.pairs], axis=2)
        db_pairs = np.einsum("hg,nipg->niph", fam.rep_star, dF)
        if extra is not None:
            db_pairs = db_pairs + CoefficientField(
                _diff_trees(extra, 3), 3, (3, 3, 4))(pts)
        k, l = np.array(conn.pairs).T
        alpha = fam.l2a.apply_alpha_star
        want = (np.einsum("nip,niph->nh", C[:, :, k, l], db_pairs)
                + alpha(conn.a_of(pts, X), conn.b_of(pts, Y, Z))
                - alpha(conn.a_of(pts, Y), conn.b_of(pts, X, Z))
                + alpha(conn.a_of(pts, Z), conn.b_of(pts, X, Y)))
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(conn.K_of(pts, X, Y, Z) - want)) <= 1e-13 * scale


def test_K_on_a_3d_chart_is_the_determinant_times_K_on_the_axes(u2p):
    conn = TwoConnection(
        u2p, Chart(3), a=A3, b="fake_flat",
        b_extra=[["x3^2*x2", "0", "0", "0.1*x1"], ["sin(x1*x3)", "0", "0", "0"],
                 ["x2*x3", "0.2*x1^2", "0", "0"]])
    rng = np.random.default_rng(22)
    pts = rng.uniform(0.2, 0.8, size=(30, 3))
    X, Y, Z = rng.normal(size=(3, 30, 3))
    det = np.linalg.det(np.stack([X, Y, Z], axis=1))
    want = det[:, None] * conn.K_of(pts, EX, EY, EZ)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(conn.K_of(pts, X, Y, Z) - want)) <= 1e-13 * scale


@pytest.mark.parametrize("stencil", [False, True], ids=["dsl", "stencil"])
def test_three_form_part_is_exactly_zero_on_a_2d_chart(u1, u1t, stencil):
    """No triple i < k < l exists on a 2-d chart, so db is exactly zero for
    any tangents; alpha is trivial in both U(1) families, so K is db."""
    field = (lambda exprs, shape: _stencil(exprs, 2, shape)) if stencil else (
        lambda exprs, shape: exprs)
    rng = np.random.default_rng(23)
    pts = rng.uniform(0.2, 0.8, size=(25, 2))
    X, Y, Z = rng.normal(size=(3, 25, 2))
    for conn in [
            TwoConnection(u1t, Chart(2), a=field([["x2^2"], ["sin(x1)"]], (2, 1)),
                          b=field([["x1^2*exp(x2)"]], (1, 1)),
                          b_extra=field([["x1*x2"]], (1, 1))),
            TwoConnection(u1, Chart(2), a=field([["x2^2"], ["sin(x1)*x2"]], (2, 1)),
                          b="fake_flat")]:
        assert np.all(conn.K_of(pts, X, Y, Z) == 0.0)


def test_K_peak_memory_on_the_33_cube_simpson_grid():
    """verify higher-stokes' 35,937 Simpson nodes on u2pu2_higher: K runs
    in blocks of 4096 points from first derivatives only, so the traced
    peak stays under 8 MiB (12.1 MiB with the whole grid at once and the
    (N, 3, 3, 3) trivector)."""
    configs = pathlib.Path(__file__).parent.parent / "configs"
    cfg = load_config(configs / "u2pu2_higher.json")
    conn = cfg.connection()
    mesh, _ = _simpson_grid(32, 3)
    x, dx = cfg.param_maps("cubes")["pillow"].jet(mesh)
    tangents = dx.swapaxes(0, 1)
    tracemalloc.start()
    try:
        K = conn.K_of(x, *tangents)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K.shape == (33 ** 3, 4)
    assert peak <= 8 * 2 ** 20
