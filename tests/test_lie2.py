import numpy as np
import pytest

from gauge2.errors import DomainError
from gauge2.families import FAMILY_NAMES, matrix_family
from gauge2.lie2 import semidirect_bracket

FAMILIES = [matrix_family(name) for name in FAMILY_NAMES]


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_structure_constants_antisymmetry_jacobi(fam):
    for alg in (fam.l2a.g_alg, fam.l2a.h_alg):
        c = alg.structure
        assert np.max(np.abs(c + np.swapaxes(c, 0, 1))) <= 1e-10
        jac = np.einsum("ijm,mkl->ijkl", c, c)
        cyc = jac + np.transpose(jac, (1, 2, 0, 3)) + np.transpose(jac, (2, 0, 1, 3))
        assert np.max(np.abs(cyc)) <= 1e-10


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_t_star_is_homomorphism_and_peiffer(fam):
    assert fam.l2a.homomorphism_defect() <= 1e-9
    assert fam.l2a.peiffer_defect() <= 1e-9


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_t_star_matches_group_level_differential(fam):
    assert fam.l2a.t_star_fd_defect(fam.cm) <= 1e-6


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


def test_semidirect_bracket_dimension_mismatch():
    fam = matrix_family("u2_to_pu2")
    with pytest.raises(DomainError):
        semidirect_bracket(fam.l2a, (np.zeros(4), np.zeros(4)),
                           (np.zeros(4), np.zeros(4)))


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
            g = group.exp(xi)
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
    x = np.stack([fam.random_g_vec(rng) for _ in range(8)])
    eta = np.stack([fam.random_h_vec(rng) for _ in range(8)])

    def conjugated(group, alg, u, vec):
        m = group.mul(group.mul(u, group.exp(alg.to_matrix(vec))), group.inv(u))
        return alg.from_matrix(group.log(m))

    assert np.max(np.abs(fam.ad_g_vec(g, x) - conjugated(G, g_alg, g, x))) <= 1e-14
    assert np.max(np.abs(fam.ad_h_vec(a, eta)
                         - conjugated(H, h_alg, a, eta))) <= 1e-14
    acted = h_alg.from_matrix(H.log(cm.alpha(g, H.exp(h_alg.to_matrix(eta)))))
    assert np.max(np.abs(fam.alpha_vec(g, eta) - acted)) <= 1e-14


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_group_algebra_compatibility_exp_t(fam):
    rng = np.random.default_rng(2)
    cm = fam.cm
    for _ in range(10):
        v = fam.random_h_vec(rng, scale=1.0)
        xi = fam.l2a.h_alg.to_matrix(v)
        lhs = cm.G.exp(fam.l2a.g_alg.to_matrix(fam.l2a.apply_t_star(v)))
        rhs = cm.t(cm.H.exp(xi))
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_alpha_compatibility_second_order():
    fam = matrix_family("su2_id_conj")
    rng = np.random.default_rng(3)
    X = fam.random_g_vec(rng, scale=1.0)
    eta = fam.random_h_vec(rng, scale=1.0)
    h_alg = fam.l2a.h_alg
    h_mat = fam.group_H.exp(h_alg.to_matrix(eta))

    def defect(eps):
        g = fam.group_G.exp(fam.l2a.g_alg.to_matrix(eps * X))
        lhs = fam.cm.alpha(g, h_mat)
        rhs = fam.group_H.exp(h_alg.to_matrix(
            eta + eps * fam.l2a.apply_alpha_star(X, eta)))
        return np.max(np.abs(lhs - rhs))

    d1, d2 = defect(2e-3), defect(1e-3)
    order = np.log2(d1 / d2)
    assert order >= 1.9
