import numpy as np
import pytest

from gauge2.errors import DomainError, StructureError
from gauge2.families import FAMILY_NAMES, _random_vec, matrix_family
from gauge2.fields import GroupValuedField, group_field
from gauge2.lie2 import LieAlgebra, _null_space, bilinear, linear, terms

FAMILIES = [matrix_family(name) for name in FAMILY_NAMES]


def semidirect_bracket(l2a, x, y):
    """Bracket on g + h of (g-vector, h-vector) pairs x = (X, xi) and
    y = (Y, eta): ([X,Y], alpha_*(X,eta) - alpha_*(Y,xi) + [xi,eta])."""
    (X, xi), (Y, eta) = x, y
    return (l2a.g_alg.bracket(X, Y),
            l2a.apply_alpha_star(X, eta) - l2a.apply_alpha_star(Y, xi)
            + l2a.h_alg.bracket(xi, eta))


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_structure_constants_antisymmetry_jacobi(fam):
    for alg in (fam.l2a.g_alg, fam.l2a.h_alg):
        c = alg.structure
        assert np.max(np.abs(c + np.swapaxes(c, 0, 1))) <= 1e-10
        jac = np.einsum("ijm,mkl->ijkl", c, c)
        cyc = jac + np.transpose(jac, (1, 2, 0, 3)) + np.transpose(jac, (2, 0, 1, 3))
        assert np.max(np.abs(cyc)) <= 1e-10


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_structure_constants_and_alpha_star_are_exact(fam):
    """The trace pairing of the orthogonal, dyadic bases reads every table
    entry exactly: each is -1, 0 or 1, so no bracket carries a spurious
    roundoff term."""
    for table in (fam.l2a.g_alg.structure, fam.l2a.h_alg.structure,
                  fam.l2a.alpha_star):
        assert np.all(np.isin(table, [-1.0, 0.0, 1.0]))
    assert len(terms(fam.l2a.alpha_star)[1]) == {"su2_id_conj": 6, "u2_to_pu2": 6,
                                                 "u1_id": 0, "u1_triv": 0}[fam.name]


def test_a_basis_that_is_not_orthogonal_is_rejected():
    su2 = matrix_family("su2_id_conj").l2a.g_alg.basis
    with pytest.raises(StructureError, match="orthogonal"):
        LieAlgebra(np.stack([su2[0], su2[1], su2[2] + 0.5 * su2[0]]))


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_t_star_is_homomorphism_and_peiffer(fam):
    assert fam.l2a.homomorphism_defect() <= 1e-9
    assert fam.l2a.peiffer_defect() <= 1e-9


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_t_star_matches_group_level_differential(fam):
    assert fam.l2a.t_star_fd_defect(fam.cm) <= 1e-6


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_alpha_star_matches_the_differential_of_the_action(fam):
    assert fam.l2a.alpha_star_fd_defect(fam) <= 1e-6


def test_from_matrix_checks_each_matrix_of_a_batch():
    """A small matrix outside the span fails even beside a large one, as it
    does alone: the structure constants come from one batched call."""
    alg = matrix_family("su2_id_conj").l2a.g_alg
    large = alg.to_matrix([100.0, 0.0, 0.0])
    stray = 1e-7 * np.eye(2)         # not traceless-antihermitian
    assert np.array_equal(alg.from_matrix(np.stack([large, 0 * stray]))[0],
                          alg.from_matrix(large))
    for batch in (stray, np.stack([large, stray])):
        with pytest.raises(DomainError):
            alg.from_matrix(batch)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_batched_to_and_from_matrix_match_single_calls(fam):
    rng = np.random.default_rng(11)
    for alg in (fam.l2a.g_alg, fam.l2a.h_alg):
        vecs = rng.standard_normal((2, 5, alg.dim))
        mats = alg.to_matrix(vecs)
        assert mats.shape == (2, 5) + alg.basis.shape[1:]
        assert np.array_equal(mats[1, 3], alg.to_matrix(vecs[1, 3]))
        assert np.array_equal(mats[1, 3],
                              np.tensordot(vecs[1, 3], alg.basis, axes=1))
        assert np.max(np.abs(alg.from_matrix(mats) - vecs)) <= 1e-12


def test_semidirect_bracket_cases():
    fam = matrix_family("su2_id_conj")
    l2a = fam.l2a
    e = np.eye(3)
    zero = np.zeros(3)
    # pure-g case reduces to the g bracket
    g_part, h_part = semidirect_bracket(l2a, (e[0], zero), (e[1], zero))
    assert np.allclose(g_part, l2a.g_alg.bracket(e[0], e[1]))
    assert np.allclose(h_part, 0.0)
    # mixed case is the action differential: [X + 0, 0 + xi] = alpha_*(X, xi)
    g_part, h_part = semidirect_bracket(l2a, (e[0], zero), (zero, e[1]))
    assert np.allclose(g_part, 0.0)
    assert np.allclose(h_part, l2a.apply_alpha_star(e[0], e[1]))
    # oracle: the ad action by direct matrix commutator
    basis = l2a.h_alg.basis
    oracle = l2a.h_alg.from_matrix(basis[0] @ basis[1] - basis[1] @ basis[0])
    assert np.max(np.abs(h_part - oracle)) <= 1e-12


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_semidirect_jacobi_random(fam):
    rng = np.random.default_rng(0)
    l2a = fam.l2a

    def bracket(x, y):
        return semidirect_bracket(l2a, x, y)

    for _ in range(20):
        xs = [(rng.standard_normal(l2a.g_alg.dim),
               rng.standard_normal(l2a.h_alg.dim)) for _ in range(3)]
        total_g = np.zeros(l2a.g_alg.dim)
        total_h = np.zeros(l2a.h_alg.dim)
        for i in range(3):
            a, b, c = xs[i % 3], xs[(i + 1) % 3], xs[(i + 2) % 3]
            g, h = bracket(a, bracket(b, c))
            total_g = total_g + g
            total_h = total_h + h
        assert np.max(np.abs(total_g)) <= 1e-8
        assert np.max(np.abs(total_h)) <= 1e-8


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_exp_log_round_trip(fam):
    rng = np.random.default_rng(1)
    for alg, group in ((fam.l2a.g_alg, fam.group_G),
                       (fam.l2a.h_alg, fam.group_H)):
        for _ in range(25):
            v = rng.standard_normal(alg.dim)
            v = v / max(1.0, np.linalg.norm(v))
            xi = alg.to_matrix(v)
            g = group.exp(v, alg)
            assert group.membership_defect(g) <= 1e-12
            assert np.max(np.abs(group.log(g) - xi)) <= 1e-10


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_adjoint_matrices_match_group_conjugation(fam):
    """g exp(X) g^-1 = exp(Ad_g X) and alpha_g(exp eta) = exp((alpha_g)_* eta),
    with both sides read back through the closed-form log."""
    rng = np.random.default_rng(4)
    G, H, cm = fam.group_G, fam.group_H, fam.cm
    g_alg, h_alg = fam.l2a.g_alg, fam.l2a.h_alg
    g = np.stack([cm.sample_G(rng) for _ in range(8)])
    a = np.stack([cm.sample_H(rng) for _ in range(8)])
    x = np.stack([_random_vec(rng, g_alg.dim, 0.8) for _ in range(8)])
    eta = np.stack([_random_vec(rng, h_alg.dim, 0.8) for _ in range(8)])

    def conjugated(group, alg, u, vec):
        m = group.mul(group.mul(u, group.exp(vec, alg)), group.inv(u))
        return alg.from_matrix(group.log(m))

    assert np.max(np.abs(fam.ad_g_vec(g, x) - conjugated(G, g_alg, g, x))) <= 1e-14
    assert np.max(np.abs(fam.ad_h_vec(a, eta)
                         - conjugated(H, h_alg, a, eta))) <= 1e-14
    acted = h_alg.from_matrix(H.log(cm.alpha(g, H.exp(eta, h_alg))))
    assert np.max(np.abs(fam.alpha_vec(g, eta) - acted)) <= 1e-14


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_group_algebra_compatibility_exp_t(fam):
    rng = np.random.default_rng(2)
    cm = fam.cm
    for _ in range(10):
        v = _random_vec(rng, fam.l2a.h_alg.dim, 1.0)
        lhs = cm.G.exp(fam.l2a.apply_t_star(v), fam.l2a.g_alg)
        rhs = cm.t(cm.H.exp(v, fam.l2a.h_alg))
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_alpha_compatibility_second_order():
    fam = matrix_family("su2_id_conj")
    rng = np.random.default_rng(3)
    X = _random_vec(rng, fam.l2a.g_alg.dim, 1.0)
    eta = _random_vec(rng, fam.l2a.h_alg.dim, 1.0)
    h_alg = fam.l2a.h_alg
    h_mat = fam.group_H.exp(eta, h_alg)

    def defect(eps):
        g = fam.group_G.exp(eps * X, fam.l2a.g_alg)
        lhs = fam.cm.alpha(g, h_mat)
        rhs = fam.group_H.exp(eta + eps * fam.l2a.apply_alpha_star(X, eta),
                              h_alg)
        return np.max(np.abs(lhs - rhs))

    d1, d2 = defect(2e-3), defect(1e-3)
    order = np.log2(d1 / d2)
    assert order >= 1.9


ALGEBRAS = [(fam, grp, alg) for fam in FAMILIES
            for grp, alg in ((fam.group_G, fam.l2a.g_alg),
                             (fam.group_H, fam.l2a.h_alg))]
ALGEBRA_IDS = [f"{fam.name}-{side}" for fam in FAMILIES for side in "GH"]


@pytest.mark.parametrize("fam,grp,alg", ALGEBRAS, ids=ALGEBRA_IDS)
def test_ad_cubed_is_minus_theta_squared_ad(fam, grp, alg):
    """ad_X^3 = -t^2 ad_X, t^2 = -tr(ad_X^2)/2, in every algebra of the
    families: the identity that closes the dexp series."""
    rng = np.random.default_rng(11)
    for X in rng.normal(size=(20, alg.dim)) * rng.uniform(0.01, 3.0, (20, 1)):
        ad = np.einsum("i,ijk->kj", X, alg.structure)
        t2 = -0.5 * np.trace(ad @ ad)
        assert t2 >= -1e-12
        assert np.max(np.abs(ad @ ad @ ad + t2 * ad)) <= 1e-12 * (1 + t2) ** 2


@pytest.mark.parametrize("fam,grp,alg", ALGEBRAS, ids=ALGEBRA_IDS)
@pytest.mark.parametrize("scale", [0.0, 1e-4, 0.09, 0.11, 1.3],
                         ids=["zero", "tiny", "below-switch", "above-switch",
                              "generic"])
def test_dexp_matches_the_stencil_log_derivative(fam, grp, alg, scale):
    """The closed-form dg g^-1 of g = exp(X(x)) against the 4-point stencil
    of g itself, at X = 0, a tiny X (the series branch), both sides of the
    series switch and a generic X."""
    rng = np.random.default_rng(int(scale * 1e4) + alg.dim)
    X0 = rng.normal(size=alg.dim)
    X0 *= scale / max(np.linalg.norm(X0), 1e-300)
    V = rng.normal(size=(2, alg.dim))
    exprs = [f"({x:.17f}) + ({v:.17f})*x1 + ({w:.17f})*x2"
             for x, v, w in zip(X0, *V)]
    field = group_field(exprs, grp, alg, 2)
    stencil = GroupValuedField(grp, alg, field)       # no generator
    pts = np.array([[0.0, 0.0], [1e-3, -2e-3], [0.05, 0.02]])
    g, exact = field.log_derivative(pts)
    g_fd, fd = stencil.log_derivative(pts)
    assert np.array_equal(g, g_fd)
    assert np.max(np.abs(exact - fd)) <= 1e-9


def _constant_tables():
    """Every constant table a built-in family contracts, and a seeded dense
    c_ijk and m_kj of the shapes a ``lie2algebra`` override can give."""
    rng = np.random.default_rng(21)
    tables = [("dense-c", rng.standard_normal((4, 4, 4))),
              ("dense-m", rng.standard_normal((3, 4)))]
    for fam in FAMILIES:
        l2a = fam.l2a
        ker = _null_space(l2a.t_star)
        tables += [(f"{fam.name}-{name}", table) for name, table in [
            ("g", l2a.g_alg.structure), ("h", l2a.h_alg.structure),
            ("alpha", l2a.alpha_star), ("t", l2a.t_star),
            ("rep", fam.rep_star), ("ker", ker.T @ ker)]]
    return tables


TABLES = _constant_tables()


@pytest.mark.parametrize("table", [t for _, t in TABLES],
                         ids=[name for name, _ in TABLES])
def test_table_helpers_equal_the_dense_contraction(table):
    """The contractions over nonzero entries equal the dense einsum, on
    broadcast batches (N, 1, d) against (1, M, d) and on single vectors."""
    rng = np.random.default_rng(7)
    if table.ndim == 3:
        u = rng.standard_normal((5, 1, table.shape[0]))
        v = rng.standard_normal((1, 6, table.shape[1]))
        helper = lambda u, v: bilinear(terms(table), u, v)
        dense = lambda c, u, v: np.einsum("...i,...j,ijk->...k", u, v, c)
        batches = [(u, v), (u[0, 0], v[0, 0])]
    else:
        x = rng.standard_normal((5, 6, table.shape[1]))
        helper = lambda x: linear(terms(table), x)
        dense = lambda m, x: np.einsum("kj,...j->...k", m, x)
        batches = [(x,), (x[0, 0],)]
    for args in batches:
        got, want = helper(*args), dense(table, *args)
        scale = np.max(dense(abs(table), *map(abs, args)), initial=0.0)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-15 * scale
