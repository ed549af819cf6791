import numpy as np
import pytest
import scipy.linalg

from gauge2.errors import BranchError, MembershipError, StructureError
from gauge2.groups import FiniteGroup, MatrixGroup, cyclic_group


def test_cyclic_group_tables():
    g = cyclic_group(4)
    assert g.order == 4
    assert g.mul(3, 2) == 1
    assert g.inv(3) == 1
    assert g.identity == 0
    # scalars give ints; index arrays give the batch, defect its maximum
    assert type(g.mul(3, 2)) is int and type(g.inv(3)) is int
    assert np.array_equal(g.mul(np.arange(4)[:, None], np.arange(4)), g.table)
    assert np.array_equal(g.inv(np.arange(4)), [0, 3, 2, 1])
    assert g.defect(np.arange(4), [0, 1, 2, 0]) == 1.0
    assert g.defect(np.arange(4), np.arange(4)) == 0.0


def test_latin_square_violation_names_row():
    bad = [[0, 1], [1, 1]]
    with pytest.raises(StructureError, match="row 1"):
        FiniteGroup(bad)


def test_latin_square_and_inverse_violations_name_first_failure():
    with pytest.raises(StructureError, match="column 0"):
        FiniteGroup([[0, 1], [0, 1]])
    z3 = cyclic_group(3).table
    with pytest.raises(StructureError, match="inverse table wrong at row 1"):
        FiniteGroup(z3, inverse=[0, 1, 2])


def test_bad_identity_and_range():
    with pytest.raises(StructureError, match="out of range"):
        FiniteGroup([[0, 1], [1, 5]])
    with pytest.raises(StructureError, match="identity"):
        FiniteGroup([[1, 0], [0, 1]], identity=0)


def test_nonassociative_latin_square_rejected():
    # smallest non-associative quasigroup with identity (order 5 loop)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(StructureError, match="associative"):
        FiniteGroup(table)


def test_membership_and_projection_su2():
    su2 = MatrixGroup("special_unitary", 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = np.eye(2) + 0.05 * (rng.standard_normal((2, 2))
                                + 1j * rng.standard_normal((2, 2)))
        p = su2.project(m)
        assert su2.membership_defect(p) <= 1e-12


def test_membership_rejects_far_matrix():
    u1 = MatrixGroup("unitary", 1)
    with pytest.raises(MembershipError):
        u1.check_membership(np.array([[2.0 + 0j]]))


def test_exp_log_round_trip_su2():
    su2 = MatrixGroup("special_unitary", 2)
    rng = np.random.default_rng(1)
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                      [[1, 0], [0, -1]]], dtype=complex)
    basis = -0.5j * sigma
    for _ in range(100):
        v = rng.standard_normal(3)
        v = v / max(1.0, np.linalg.norm(v))
        xi = np.tensordot(v, basis, axes=1)
        g = su2.exp(xi)
        assert su2.membership_defect(g) <= 1e-12
        assert np.max(np.abs(su2.log(g) - xi)) <= 1e-10


def test_u1_exp_scalar():
    u1 = MatrixGroup("unitary", 1)
    got = u1.exp(np.array([[0.5j * np.pi]]))
    assert np.max(np.abs(got - np.exp(0.5j * np.pi))) <= 1e-14


def test_exp_matches_scipy_on_families():
    rng = np.random.default_rng(2)
    so3 = MatrixGroup("special_orthogonal", 3)
    u2 = MatrixGroup("unitary", 2)
    for _ in range(25):
        w = rng.standard_normal(3)
        m = np.zeros((3, 3))
        m[0, 1], m[0, 2], m[1, 2] = -w[2], w[1], -w[0]
        m = m - m.T
        assert np.max(np.abs(so3.exp(m) - scipy.linalg.expm(m))) <= 1e-12
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = 0.5 * (a - a.conj().T)
        assert np.max(np.abs(u2.exp(a) - scipy.linalg.expm(a))) <= 1e-12


def test_exp_is_batched():
    su2 = MatrixGroup("special_unitary", 2)
    rng = np.random.default_rng(3)
    ws = rng.standard_normal((7, 2, 2)) + 1j * rng.standard_normal((7, 2, 2))
    ws = 0.25 * (ws - np.swapaxes(ws.conj(), -2, -1))
    ws = ws - (np.trace(ws, axis1=-2, axis2=-1) / 2)[:, None, None] * np.eye(2)
    batch = su2.exp(ws)
    for k in range(7):
        assert np.max(np.abs(batch[k] - su2.exp(ws[k]))) <= 1e-13


def test_log_branch_error_at_pi():
    u1 = MatrixGroup("unitary", 1)
    with pytest.raises(BranchError):
        u1.log(np.array([[-1.0 + 0j]]))
    so3 = MatrixGroup("special_orthogonal", 3)
    rot_pi = np.diag([1.0, -1.0, -1.0])   # rotation by pi about the x axis
    with pytest.raises(BranchError):
        so3.log(rot_pi)


def test_so3_projection_rejects_reflection():
    so3 = MatrixGroup("special_orthogonal", 3)
    with pytest.raises(MembershipError):
        so3.project(np.diag([1.0, 1.0, -1.0]))


@pytest.mark.parametrize("kind,dim", [("special_unitary", 2), ("unitary", 2),
                                      ("special_orthogonal", 3)])
def test_closed_form_exp_stays_on_manifold_without_projection(kind, dim):
    group = MatrixGroup(kind, dim)
    rng = np.random.default_rng(11)
    ws = rng.standard_normal((64, dim, dim))
    if not group.real:
        ws = ws + 1j * rng.standard_normal((64, dim, dim))
    ws = ws - np.swapaxes(ws.conj(), -2, -1)
    if kind == "special_unitary":
        ws = ws - (np.trace(ws, axis1=-2, axis2=-1) / dim)[:, None, None] * np.eye(dim)
    # rotation angles up to about 40 rad, far past the principal branch
    ws = ws * rng.uniform(0.5, 10.0, size=(64, 1, 1))
    assert group.membership_defect(group.exp(ws)) <= 1e-13
