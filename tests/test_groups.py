import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.transform import Rotation

from gauge2.errors import BranchError, MembershipError, StructureError
from gauge2.families import adjoint_so3, matrix_family, su2_lift
from gauge2.forms import TwoConnection
from gauge2.geometry import Chart, ParamMap
from gauge2.groups import (ENTRYWISE_MIN_BATCH, QUATERNION_UNITS, SO3_BASIS,
                           FiniteGroup, MatrixGroup, cyclic_group,
                           rotation_quaternion)
from gauge2.transport import surface_transport, verify_nonabelian_stokes


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


# --- closed-form projection and exponential for U(1), U(2), SU(2) -----------

def svd_polar(m, special):
    """Reference polar factor by SVD, with the SU(n) determinant phase fix."""
    u, _, vh = np.linalg.svd(m)
    p = u @ vh
    if special:
        det = np.linalg.det(p)
        p = p * np.exp(-1j * np.angle(det) / m.shape[-1])[..., None, None]
    return p


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _projection_inputs(dim):
    """Batches near the manifold and far from it, single matrices, and
    matrices whose determinant phase sits just inside +-pi."""
    rng = np.random.default_rng(20 + dim)
    unitary = svd_polar(_complex_normal(rng, (64, dim, dim)), special=False)
    near = unitary + 1e-8 * _complex_normal(rng, (64, dim, dim))
    far = 3.0 * _complex_normal(rng, (64, dim, dim))
    # det phase pi - 1e-9 and -pi + 1e-9, on top of a positive-det matrix
    base = np.eye(dim) + 0.2 * _complex_normal(rng, (2, dim, dim))
    base = base / (np.linalg.det(base) ** (1.0 / dim))[:, None, None]
    phases = np.array([np.pi - 1e-9, -np.pi + 1e-9]) / dim
    near_pi = base * np.exp(1j * phases)[:, None, None]
    return {"near": near, "far": far, "single": far[0], "near_pi": near_pi}


@pytest.mark.parametrize("kind,dim", [("unitary", 1), ("unitary", 2),
                                      ("special_unitary", 2)])
@pytest.mark.parametrize("which", ["near", "far", "single", "near_pi"])
def test_closed_form_projection_matches_svd_polar_factor(kind, dim, which):
    group = MatrixGroup(kind, dim)
    m = _projection_inputs(dim)[which]
    got = group.project(m)
    assert got.shape == m.shape
    assert np.max(np.abs(got - svd_polar(m, kind == "special_unitary"))) <= 1e-13
    assert group.membership_defect(got) <= 1e-14


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kind,dim", [("unitary", 1), ("unitary", 2),
                                      ("special_unitary", 2)])
def test_closed_form_projection_rejects_singular_and_non_finite(kind, dim):
    group = MatrixGroup(kind, dim)
    good = np.eye(dim, dtype=complex)
    bads = [np.zeros((dim, dim)), np.full((dim, dim), np.nan),
            np.full((dim, dim), np.inf)]
    if dim == 2:
        bads.append(np.array([[1.0, 2.0j], [0.5, 1.0j]]))     # rank one
    for bad in bads:
        with pytest.raises(MembershipError, match="singular or non-finite"):
            group.project(bad)
        # one bad member spoils the batch
        with pytest.raises(MembershipError):
            group.project(np.stack([good, bad]))


@pytest.mark.parametrize("kind", ["unitary", "special_unitary"])
def test_closed_form_2x2_exp_matches_expm(kind):
    group = MatrixGroup(kind, 2)
    rng = np.random.default_rng(31)
    ws = _complex_normal(rng, (40, 2, 2))
    ws = ws - np.swapaxes(ws.conj(), -2, -1)
    if kind == "special_unitary":
        ws = ws - (np.trace(ws, axis1=-2, axis2=-1) / 2)[:, None, None] * np.eye(2)
    # rotation angles from 0 up to about 40 rad
    ws = ws * np.linspace(0.0, 10.0, 40)[:, None, None]
    got = group.exp(ws)
    assert np.array_equal(got[0], np.eye(2))
    for w, g in zip(ws, got):
        assert np.max(np.abs(g - scipy.linalg.expm(w))) <= 1e-12


def test_su2_transport_hot_path_avoids_svd_and_det(monkeypatch):
    conn = TwoConnection(
        matrix_family("su2_id_conj"), Chart(2),
        a=[["0.6*x2", "0.3", "0.1*x1"], ["0.2", "0.5*x1", "0.3*x2"]],
        b="fake_flat")
    lens = ParamMap.from_exprs(["v", "v + 0.1*(2*u - 1)*sin(pi*v)"], 2)

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call on the SU(2) transport path")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    res = surface_transport(conn, lens, steps=16)
    assert res["group_defect"] <= 1e-13
    rep = verify_nonabelian_stokes(conn, lens, steps=16)
    assert rep["defect"] <= 1e-6


# --- closed-form log, Shepperd lift and Newton-Schulz projection -----------

MATRIX_GROUPS = [("unitary", 1), ("unitary", 2), ("special_unitary", 2),
                 ("special_orthogonal", 3)]


def _unit_axes(rng, n):
    axes = rng.standard_normal((n, 3))
    return axes / np.linalg.norm(axes, axis=-1, keepdims=True)


def _generators(kind, dim, angles, rng):
    """Algebra elements whose largest eigenvalue angle is ``angles``."""
    n = len(angles)
    sign = rng.choice([-1.0, 1.0], n)
    if dim == 1:
        return (1j * sign * angles)[:, None, None]
    if dim == 3:
        return np.tensordot(angles[:, None] * _unit_axes(rng, n), SO3_BASIS, 1)
    # eigen-angles mean +- half on the su(2) part: (sign angle, other)
    other = rng.uniform(-1.0, 1.0, n) * angles if kind == "unitary" else -sign * angles
    mean, half = 0.5 * (sign * angles + other), 0.5 * (sign * angles - other)
    su2 = np.tensordot(half[:, None] * _unit_axes(rng, n), QUATERNION_UNITS[1:], 1)
    return su2 + 1j * mean[:, None, None] * np.eye(2)


_ANGLES = {
    "near-0": lambda rng: 10.0 ** rng.uniform(-9, -6, 32),
    "generic": lambda rng: rng.uniform(0.1, 3.0, 32),
    # ten times inside the default branch margin of 1e-12
    "near-pi": lambda rng: np.full(32, np.pi * (1.0 - 1e-11)),
}


@pytest.mark.parametrize("kind,dim", MATRIX_GROUPS)
@pytest.mark.parametrize("regime", list(_ANGLES))
def test_closed_form_log_matches_logm(kind, dim, regime):
    rng = np.random.default_rng(50 + dim)
    group = MatrixGroup(kind, dim)
    angles = _ANGLES[regime](rng)
    w = _generators(kind, dim, angles, rng)
    g = group.exp(w)
    got = group.log(g)
    assert got.shape == g.shape and got.dtype == w.dtype
    assert np.array_equal(group.log(g[3]), got[3])
    # accurate relative to the size of log g, also near the identity
    err = np.max(np.abs(got - w), axis=(-2, -1))
    assert np.all(err <= 4e-15 * angles)
    ref = np.stack([scipy.linalg.logm(x) for x in g])
    # logm's own error grows like eps / (pi - angle) as the angle nears pi
    tol = 1e-14 / (np.pi - angles[0]) if regime == "near-pi" else 1e-13
    assert np.max(np.abs(got - ref)) <= tol


@pytest.mark.parametrize("kind,dim", MATRIX_GROUPS)
def test_log_branch_error_across_the_margin(kind, dim):
    rng = np.random.default_rng(60 + dim)
    group = MatrixGroup(kind, dim)
    inside = group.exp(_generators(kind, dim, rng.uniform(0.1, 3.0, 8), rng))
    for angle in (np.pi * (1.0 - 1e-13), np.pi):
        across = group.exp(_generators(kind, dim, np.array([angle]), rng))
        # one element across the margin spoils the batch
        with pytest.raises(BranchError, match="principal branch"):
            group.log(np.concatenate([inside, across]))
    with pytest.raises(BranchError, match="round-trip"):
        group.log(1.01 * group.identity)


@pytest.mark.parametrize("branch", [0, 1, 2, 3], ids=["w", "x", "y", "z"])
def test_su2_lift_inverts_adjoint_on_every_shepperd_branch(branch):
    rng = np.random.default_rng(70 + branch)
    so3 = MatrixGroup("special_orthogonal", 3)
    axes = 0.2 * rng.standard_normal((32, 3))
    if branch:
        # near-pi turns about an axis near e_k make q_k the largest component
        axes[:, branch - 1] = 1.0
        angles = np.append(rng.uniform(2.6, np.pi, 31), np.pi)
    else:
        angles = rng.uniform(0.0, 1.5, 32)
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    rot = so3.exp(np.tensordot(angles[:, None] * axes, SO3_BASIS, 1))
    q = rotation_quaternion(rot)
    assert np.all(np.argmax(np.abs(q), axis=-1) == branch)
    assert np.all(q[:, 0] >= 0.0)
    # the same rotation as scipy's quaternion (x, y, z, w), up to sign
    ref = Rotation.from_matrix(rot).as_quat()[:, [3, 0, 1, 2]]
    assert np.max(1.0 - np.abs(np.sum(q * ref, axis=-1))) <= 1e-15
    lift = su2_lift(rot)
    assert MatrixGroup("special_unitary", 2).membership_defect(lift) <= 1e-15
    assert np.max(np.abs(adjoint_so3(lift) - rot)) <= 1e-15
    assert np.max(np.abs(adjoint_so3(su2_lift(rot[0])) - rot[0])) <= 1e-15


@pytest.mark.parametrize("drift", [0.0, 1e-14, 1e-11, 1e-9])
def test_so3_projection_matches_svd_polar_factor(drift):
    so3 = MatrixGroup("special_orthogonal", 3)
    rng = np.random.default_rng(80)
    rot = so3.exp(_generators("special_orthogonal", 3,
                              rng.uniform(0.0, 3.0, 64), rng))
    m = rot + drift * rng.standard_normal((64, 3, 3))
    got = so3.project(m)
    assert got.shape == m.shape
    # the SVD factor carries a few ulps of its own: its orthogonality
    # defect reaches 2e-15 on these inputs, the Newton-Schulz one 4.4e-16
    assert np.max(np.abs(got - svd_polar(m, special=False))) <= 1e-14
    assert so3.membership_defect(got) <= 1e-15
    assert np.array_equal(so3.project(m[0]), got[0])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_so3_projection_refuses_far_and_non_finite_inputs():
    so3 = MatrixGroup("special_orthogonal", 3)
    rng = np.random.default_rng(81)
    far = np.eye(3) + 1e-6 * rng.standard_normal((3, 3))
    for bad in (far, np.full((3, 3), np.nan), np.full((3, 3), np.inf)):
        with pytest.raises(MembershipError, match="Newton-Schulz"):
            so3.project(np.stack([np.eye(3), bad]))


@pytest.mark.parametrize("kind,dim", [
    ("unitary", 3), ("special_unitary", 1), ("special_unitary", 3),
    ("special_orthogonal", 2), ("special_orthogonal", 4), ("symplectic", 2)])
def test_groups_without_closed_forms_are_rejected(kind, dim):
    with pytest.raises(StructureError, match="U\\(1\\), U\\(2\\), SU\\(2\\), SO\\(3\\)"):
        MatrixGroup(kind, dim)


@pytest.mark.parametrize("kind,dim", [("unitary", 1), ("unitary", 2),
                                      ("special_unitary", 2),
                                      ("special_orthogonal", 3)])
@pytest.mark.parametrize("batch", [1, 6, ENTRYWISE_MIN_BATCH - 1,
                                   ENTRYWISE_MIN_BATCH, 240, 1640])
def test_batched_mul_matches_matmul(kind, dim, batch):
    group = MatrixGroup(kind, dim)
    rng = np.random.default_rng(90 + batch)
    a, b = (group.exp(_generators(kind, dim, rng.uniform(0.0, 3.0, batch), rng))
            for _ in range(2))
    assert np.max(np.abs(group.mul(a, b) - a @ b)) <= 1e-15
    # a broadcast identity on either side, as the kernel's first step has it
    eye = np.broadcast_to(group.identity, a.shape)
    assert np.max(np.abs(group.mul(eye, b) - b)) <= 1e-15
    assert np.max(np.abs(group.mul(a, group.identity) - a)) <= 1e-15
    # broadcasting over differing batch axes
    got = group.mul(a[:, None], b[None, :3])
    assert got.shape == (batch, min(batch, 3), dim, dim)
    assert np.max(np.abs(got - a[:, None] @ b[None, :3])) <= 1e-15


# the contraction adjoint_so3 replaced: R_kj = -tr(B_k h B_j h^H) / 2 with
# B_k = -i sigma_k, summed over the products h_bc conj(h_ad)
_ADJOINT = -0.5 * np.einsum("kab,jcd->kjabcd", QUATERNION_UNITS[1:],
                            QUATERNION_UNITS[1:])


def _adjoint_reference(h):
    pairs = h[..., None, :, :, None] * h.conj()[..., :, None, None, :]
    return np.einsum("kjabcd,...abcd->...kj", _ADJOINT, pairs).real


@pytest.mark.parametrize("kind", ["special_unitary", "unitary"])
def test_adjoint_so3_matches_trace_contraction(kind):
    group = MatrixGroup(kind, 2)
    rng = np.random.default_rng(95)
    h = group.exp(_generators(kind, 2, rng.uniform(0.0, 3.1, 4096), rng))
    got = adjoint_so3(h.reshape(64, 64, 2, 2))
    assert got.shape == (64, 64, 3, 3)
    assert np.max(np.abs(got.reshape(-1, 3, 3) - _adjoint_reference(h))) <= 1e-15
    # the U(2) phase cancels: e^{i phi} h has the same rotation
    assert np.max(np.abs(adjoint_so3(np.exp(0.7j) * h) - got.reshape(-1, 3, 3))) <= 1e-15
