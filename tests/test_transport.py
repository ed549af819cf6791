import collections
import json
import pathlib

import numpy as np
import pytest
import scipy.linalg

import gauge2.morphisms
import gauge2.transport
from gauge2.cli import TOL, main
from gauge2.errors import ComposabilityError, DomainError
from gauge2.families import matrix_family
from gauge2.forms import TwoConnection
from gauge2.geometry import (Chart, ParamMap, reparameterize, straight_path,
                             target_path)
from gauge2.groups import MatrixGroup, hamilton, quaternion_exp, unrotate
from gauge2.transport import (SURFACE_ODE_SIGN, _ordered_exp,
                              _surface_generator, ambrose_singer_check,
                              holonomy2_H, horizontal_lift, path_ordered_exp,
                              reconstruct_A, reconstruct_B, surface_transport,
                              surface_values, verify_higher_stokes,
                              verify_nonabelian_stokes)

U1 = matrix_family("u1_id")
U1T = matrix_family("u1_triv")
SU2 = matrix_family("su2_id_conj")
U2P = matrix_family("u2_to_pu2")

SU2_CONN = TwoConnection(
    SU2, Chart(2),
    a=[["0.6*x2", "0.3", "0.1*x1"], ["0.2", "0.5*x1", "0.3*x2"]],
    b="fake_flat")


def bulge_bigon(amplitude=0.6):
    def fn(params):
        u = params[..., 0][..., None]
        v = params[..., 1][..., None]
        return np.concatenate([v, amplitude * u * np.sin(np.pi * v)], -1)
    return ParamMap(2, 2, fn, name="bulge")


def lens_bigon(k=0.25):
    def fn(params):
        u = params[..., 0]
        v = params[..., 1]
        return np.stack([v, v + (2 * u - 1) * k * np.sin(np.pi * v)], -1)
    return ParamMap(2, 2, fn, name="lens")


# --- 1-transport --------------------------------------------------------------


def test_path_zero_connection_is_identity():
    conn = TwoConnection(U1, Chart(2), a=[["0"], ["0"]], b="fake_flat")
    res = path_ordered_exp(conn, bulge_bigon().slice_first(0.7), steps=16)
    assert np.max(np.abs(res["value"] - 1.0)) <= 1e-14


def test_path_abelian_closed_form():
    c, length = 0.7, 1.0
    conn = TwoConnection(U1, Chart(2), a=[[f"{c}"], ["0"]], b="fake_flat")
    res = path_ordered_exp(conn, straight_path([0, 0], [length, 0]), steps=32)
    assert np.max(np.abs(res["value"] - np.exp(-1j * c * length))) <= 1e-10
    assert res["group_defect"] <= 1e-10


def test_path_constant_su2_closed_form():
    coeffs = np.array([0.4, -0.3, 0.2])
    conn = TwoConnection(SU2, Chart(2),
                         a=[[str(c) for c in coeffs], ["0", "0", "0"]],
                         b="fake_flat")
    length = 0.8
    res = path_ordered_exp(conn, straight_path([0, 0], [length, 0]), steps=64)
    expected = SU2.group_G.exp(SU2.l2a.g_alg.to_matrix(-length * coeffs))
    assert np.max(np.abs(res["value"] - expected)) <= 1e-9


def test_path_requires_at_least_8_steps():
    with pytest.raises(DomainError):
        path_ordered_exp(SU2_CONN, straight_path([0, 0], [1, 0]), steps=4)


def test_path_observed_order():
    gamma = ParamMap.from_exprs(["u", "0.3*sin(pi*u)"], 1)
    res = path_ordered_exp(SU2_CONN, gamma, steps=64, sweep=3)
    assert res["order_estimate"] >= 3.8


def piece(pm, exprs):
    """The restriction pm o phi of a map to the piece that the DSL
    parameter map ``exprs`` picks out: ``["u/2", "v"]`` and
    ``["(1+u)/2", "v"]`` halve a bigon, ``["1-u", "v"]`` reverses it."""
    return pm.compose_params(ParamMap.from_exprs(exprs, pm.arity),
                             name=f"{pm.name}{exprs}")


ARC = ParamMap.from_exprs(["0.9*u", "0.2*u + 0.3*sin(pi*u)"], 1, name="arc")


def test_transport_functorial_over_concatenation(stencilled):
    """The transport of a path is that of its second half after its first
    (t1 @ t2 misses by 2.1e-4)."""
    t1, t2, t = (path_ordered_exp(SU2_CONN, gamma, steps=96)["value"]
                 for gamma in (piece(ARC, ["u/2"]), piece(ARC, ["(1+u)/2"]), ARC))
    assert np.max(np.abs(t - t2 @ t1)) <= 1e-8
    assert stencilled == []


def test_transport_invariant_under_path_reparameterization():
    gamma = ParamMap.from_exprs(["u", "0.3*sin(pi*u)"], 1)
    phi = ParamMap.from_exprs(["(1 - cos(pi*u))/2"], 1)
    warped = reparameterize(gamma, phi)
    t0 = path_ordered_exp(SU2_CONN, gamma, steps=96)["value"]
    t1 = path_ordered_exp(SU2_CONN, warped, steps=96)["value"]
    assert np.max(np.abs(t0 - t1)) <= 1e-9


def test_constant_path_transport_is_identity(stencilled):
    """A constant path transports by the identity, and a path reversed by
    ``["1-u"]`` transports back."""
    const = ParamMap.from_exprs(["0.4", "0.3"], 1)
    t0 = path_ordered_exp(SU2_CONN, const, steps=96)["value"]
    assert np.max(np.abs(t0 - np.eye(2))) <= 1e-14
    t = path_ordered_exp(SU2_CONN, ARC, steps=96)["value"]
    back = path_ordered_exp(SU2_CONN, piece(ARC, ["1-u"]), steps=96)["value"]
    assert np.max(np.abs(back @ t - np.eye(2))) <= 1e-12
    assert stencilled == []


def test_concat_associativity_up_to_reparameterization(stencilled):
    """Split into thirds, a path's transport is that of its last third
    after its first two thirds, and that of its last two thirds after its
    first third."""
    t1, t12, t3, t23, t = (
        path_ordered_exp(SU2_CONN, gamma, steps=96)["value"] for gamma in
        [piece(ARC, [e]) for e in ("u/3", "2*u/3", "(2+u)/3", "(1+2*u)/3")]
        + [ARC])
    assert np.max(np.abs(t3 @ t12 - t)) <= 1e-8
    assert np.max(np.abs(t23 @ t1 - t)) <= 1e-8
    assert stencilled == []


# --- horizontal lifts ----------------------------------------------------------


def test_lift_zero_connection_constant_frame():
    conn = TwoConnection(SU2, Chart(2),
                         a=[["0", "0", "0"], ["0", "0", "0"]], b="fake_flat")
    gamma = straight_path([0, 0], [1, 1])
    _, frames = horizontal_lift(conn, gamma, steps=16)
    assert np.max(np.abs(frames - np.eye(2))) <= 1e-14


def test_lift_projects_to_the_path():
    gamma = ParamMap.from_exprs(["u", "0.4*u^2"], 1)
    times, frames = horizontal_lift(SU2_CONN, gamma, steps=32)
    assert np.allclose(gamma(times[:, None]), gamma(times[:, None]))
    assert frames.shape == (33, 2, 2)


def test_lift_velocity_annihilated_by_bundle_connection():
    rng = np.random.default_rng(0)
    for _ in range(3):
        c = rng.uniform(-0.6, 0.6, size=(2, 3))
        conn = TwoConnection(
            SU2, Chart(2),
            a=[[f"{c[0, 0]}*x2", f"{c[0, 1]}", f"{c[0, 2]}*x1"],
               [f"{c[1, 0]}", f"{c[1, 1]}*x1", f"{c[1, 2]}*x2"]],
            b="fake_flat")
        gamma = ParamMap.from_exprs(["u", "0.5*sin(pi*u)"], 1)
        steps = 64
        times, frames = horizontal_lift(conn, gamma, steps=steps)
        h = times[1] - times[0]
        # 4th-order interior stencil for dg/dt from the stored frames
        dg = (-frames[4:] + 8 * frames[3:-1] - 8 * frames[1:-3]
              + frames[:-4]) / (12 * h)
        mid = times[2:-2]
        vel = gamma.partial(0, mid[:, None])
        a_vec = conn.a_of(gamma(mid[:, None]), vel)
        a_mat = SU2.l2a.g_alg.to_matrix(a_vec)
        g = frames[2:-2]
        ginv = SU2.group_G.inv(g)
        bundle_a = ginv @ a_mat @ g + ginv @ dg
        assert np.max(np.abs(bundle_a)) <= 1e-6


def test_lift_basepoint_mismatch():
    gamma = straight_path([0, 0], [1, 0])
    with pytest.raises(DomainError):
        horizontal_lift(SU2_CONN, gamma,
                        p=(np.array([0.5, 0.0]), SU2.group_G.identity))


def test_lift_takes_the_path_step_minimum():
    """A lift is a path solve: below 8 steps it raises, as every other path
    solve does, instead of returning a coarse trajectory."""
    gamma = straight_path([0, 0], [1, 0])
    for steps in (2, 7):
        with pytest.raises(DomainError, match="at least 8 steps"):
            horizontal_lift(SU2_CONN, gamma, steps=steps)
    times, frames = horizontal_lift(SU2_CONN, gamma, steps=8)
    assert times.shape == (9,) and frames.shape == (9, 2, 2)


def test_lens_filling_jet_matches_its_stencil():
    lens = gauge2.transport._lens_bigon()
    uv = np.random.default_rng(2).uniform(0, 1, size=(30, 2))
    values, partials = lens.jet(uv)
    stencilled = ParamMap(2, 2, lens)
    fd_values, fd = stencilled.jet(uv)
    assert np.array_equal(values, fd_values)
    assert np.max(np.abs(partials - fd)) <= 1e-10


# --- the batched ordered-exponential kernel -------------------------------------


def _su2_generator(times, columns):
    """A time-dependent su(2) generator batched over three members."""
    t = times[:, None, None]
    coeffs = np.array([[0.7, -0.4, 1.1], [0.2, 0.9, -0.5], [-1.3, 0.3, 0.8]])
    return coeffs * np.cos(3.0 * t + coeffs) + t * coeffs[::-1]


def test_right_driven_kernel_is_the_mirrored_left_solve():
    # g' = g W  is solved by  g = h^-1  with  h' = -W h
    G, alg = SU2.group_G, SU2.l2a.g_alg
    right = _ordered_exp(G, alg, _su2_generator, [24], right=True)
    left = _ordered_exp(G, alg, lambda t, c: -_su2_generator(t, c), [24])
    assert right.shape == (1, 3, 2, 2)
    assert np.max(np.abs(right - G.inv(left))) <= 1e-13


def _two_call_cf4(group, alg, w_eval, steps, trajectory=False, right=False):
    """Reference CF4 solve in matrices, one generator call per Gauss stage
    and the step factors multiplied in sequence."""
    h = 1.0 / steps
    t0 = np.arange(steps) * h
    r = np.sqrt(3.0) / 6.0
    column = np.zeros(steps, dtype=int)
    w1 = w_eval(t0 + (0.5 - r) * h, column)
    w2 = w_eval(t0 + (0.5 + r) * h, column)
    e1 = group.exp(alg.to_matrix(h * ((0.25 + r) * w1 + (0.25 - r) * w2)))
    e2 = group.exp(alg.to_matrix(h * ((0.25 - r) * w1 + (0.25 + r) * w2)))
    frames = [np.broadcast_to(group.identity, e1.shape[1:])]
    for k in range(steps):
        g = frames[-1]
        frames.append(g @ e1[k] @ e2[k] if right else e2[k] @ e1[k] @ g)
    return np.stack(frames) if trajectory else frames[-1]


KERNEL_MODES = pytest.mark.parametrize(
    "right,trajectory", [(False, False), (True, False), (False, True)],
    ids=["left", "right", "trajectory"])


@KERNEL_MODES
def test_kernel_evaluates_the_generator_once_stage_major(right, trajectory):
    G, alg, steps = SU2.group_G, SU2.l2a.g_alg, 24
    calls = []

    def recording(times, columns):
        calls.append((times, columns))
        return _su2_generator(times, columns)

    out = _ordered_exp(G, alg, recording, [steps], trajectory, right)
    # the one column: the frames' spin coordinates, or the end values
    out = G.from_spin(*out)[:, 0] if trajectory else out[0]
    h, r = 1.0 / steps, np.sqrt(3.0) / 6.0
    t0 = np.arange(steps) * h
    assert len(calls) == 1
    times, columns = calls[0]
    assert np.max(np.abs(times - np.concatenate([t0 + (0.5 - r) * h,
                                                 t0 + (0.5 + r) * h]))) <= 1e-15
    assert np.array_equal(columns, np.zeros(2 * steps))
    reference = _two_call_cf4(G, alg, _su2_generator, steps, trajectory, right)
    assert out.shape == reference.shape
    assert np.max(np.abs(out - reference)) <= 1e-14


# the four matrix groups with their algebras: U(1), U(2), SU(2) and SO(3)
GROUPS = [(U1.group_G, U1.l2a.g_alg), (U2P.group_H, U2P.l2a.h_alg),
          (SU2.group_G, SU2.l2a.g_alg), (U2P.group_G, U2P.l2a.g_alg)]
SPIN_GROUPS = pytest.mark.parametrize("group,alg", GROUPS,
                                      ids=["U(1)", "U(2)", "SU(2)", "SO(3)"])


def _generator(alg, scale=2.0):
    """A time-dependent generator of ``alg`` batched over three members,
    large enough that the solves wind past the principal branch."""
    coeffs = scale * np.random.default_rng(alg.dim).uniform(-1.0, 1.0, (3, alg.dim))

    def w_eval(times, columns):
        t = times[:, None, None]
        return coeffs * np.cos(3.0 * t + coeffs) + t * coeffs[::-1]
    return w_eval


@SPIN_GROUPS
@KERNEL_MODES
def test_spin_kernel_matches_the_sequential_matrix_solve(group, alg, right,
                                                         trajectory):
    # 37 steps: an odd count, so the product tree and the scan carry a
    # leftover factor at several levels
    w_eval = _generator(alg)
    out = _ordered_exp(group, alg, w_eval, [37], trajectory, right)
    if trajectory:
        phase, quat = out
        assert (quat is None) == (group.dim == 1)
        if quat is not None:    # normalized: from_spin's own division is a no-op
            assert np.max(np.abs(np.sum(np.abs(quat) ** 2, axis=0) - 1.0)) <= 1e-15
        out = group.from_spin(phase, quat)[:, 0]
    else:
        out = out[0]
    reference = _two_call_cf4(group, alg, w_eval, 37, trajectory, right)
    assert out.shape == reference.shape
    assert np.max(np.abs(out - reference)) <= 1e-13
    assert group.membership_defect(out) <= 1e-14


@pytest.mark.parametrize("group,alg", GROUPS[1:], ids=["U(2)", "SU(2)", "SO(3)"])
def test_spin_kernel_drifts_off_the_unit_quaternions_at_roundoff(
        monkeypatch, group, alg):
    # the largest | |q| - 1 | that reaches the normalization, over 1024-step
    # solves in every mode (U(1) takes no quaternion): end values reach it
    # in from_spin, the trajectory's frames as the prefix scan's products
    from_spin = MatrixGroup.from_spin
    prefixes = gauge2.transport._prefixes
    drift = []

    def record(quat):
        drift.append(float(np.max(np.abs(
            np.sqrt(np.sum(np.abs(quat) ** 2, axis=0)) - 1.0))))
        return quat

    monkeypatch.setattr(MatrixGroup, "from_spin",
                        lambda self, phase, quat: from_spin(self, phase, record(quat)))
    monkeypatch.setattr(gauge2.transport, "_prefixes",
                        lambda mul, q: record(prefixes(mul, q)))
    for right, trajectory in ((False, False), (True, False), (False, True)):
        _ordered_exp(group, alg, _generator(alg), [1024], trajectory, right)
    assert len(drift) > 3 and max(drift) <= 1e-14


@pytest.mark.parametrize("right", [False, True], ids=["left", "right"])
def test_identity_padding_keeps_product_and_prefix_bits(right):
    # a column's steps past its count are identity factors; appended to
    # the planes they change no bit of the product tree or of the prefixes
    # up to the count, and the prefixes past it, bracketed otherwise, hold
    # the end value to roundoff
    mul = hamilton if right else (lambda early, late: hamilton(late, early))
    rng = np.random.default_rng(4)
    for n in (4, 5, 7, 13, 16, 21, 37, 40):
        q = quaternion_exp(rng.uniform(-2.0, 2.0, (3, n, 5)))
        for padded_to in (16, 33, 64, 96):
            if padded_to < n:
                continue
            padded = np.concatenate(
                [q, quaternion_exp(np.zeros((3, padded_to - n, 5)))], axis=1)
            assert np.array_equal(gauge2.transport._product(mul, padded),
                                  gauge2.transport._product(mul, q))
            prefixes = gauge2.transport._prefixes(mul, q)
            scanned = gauge2.transport._prefixes(mul, padded)
            assert np.array_equal(scanned[:, :n], prefixes)
            assert np.max(np.abs(scanned[:, n:] - prefixes[:, -1:]),
                          initial=0.0) <= 1e-15


@SPIN_GROUPS
def test_spin_coordinates_exponentiate_like_the_matrices(group, alg):
    rng = np.random.default_rng(5)
    x = rng.uniform(-3.0, 3.0, (40, alg.dim))
    if alg.dim == 4:        # U(2): phases far past the principal branch
        x[:, 0] = np.linspace(-90.0, 90.0, 40)
    if group.real:          # SO(3): rotation angles at and near pi
        axes = x / np.linalg.norm(x, axis=-1, keepdims=True)
        x = axes * np.pi * (1.0 + np.linspace(-1e-6, 1e-6, 40))[:, None]
    spin = x @ alg.spin
    got = group.from_spin(spin[:, 0], quaternion_exp(spin[:, 1:].T))
    assert np.max(np.abs(got - group.exp(alg.to_matrix(x)))) <= 1e-13
    # and against an exponential that shares no code with the spin path
    expm = np.stack([scipy.linalg.expm(m) for m in alg.to_matrix(x)])
    assert np.max(np.abs(got - expm)) <= 1e-12


@pytest.mark.parametrize("fam", [SU2, U2P, U1, U1T], ids=lambda f: f.name)
def test_quaternion_frames_act_like_their_inverse_matrices(fam):
    """unrotate on the components the family names is the action of the
    inverse frame, (alpha_{g^-1})_* on h and Ad_{g^-1} on g, built as
    matrices; an abelian family's frames fix everything."""
    rng = np.random.default_rng(11)
    quat = quaternion_exp(rng.uniform(-4.0, 4.0, (3, 64)))
    phase = rng.uniform(-4.0, 4.0, 64)
    G = fam.group_G
    inverse = G.inv(G.from_spin(phase, None if G.dim == 1 else quat))
    for act, offset, dim in ((fam.alpha_vec, fam.h_rotated, fam.l2a.h_alg.dim),
                             (fam.ad_g_vec, fam.g_rotated, fam.l2a.g_alg.dim)):
        v = rng.standard_normal((64, dim))
        got = v.copy()
        if offset is not None:
            got[:, offset:offset + 3] = unrotate(quat, v[:, offset:offset + 3])
        assert np.max(np.abs(got - act(inverse, v))) <= 1e-14


def test_verify_thin_builds_no_matrix_of_a_lift_frame(tmp_path, monkeypatch):
    """The lift frames of a surface solve stay quaternions: verify thin
    builds matrices only of its six 2-transport values, and no rotation
    matrix at all."""
    from_spin = MatrixGroup.from_spin
    built, rotations = [], []

    def building(self, phase, quat):
        built.append(np.shape(phase))
        return from_spin(self, phase, quat)

    def rotating(g):
        rotations.append(np.shape(g))
        return adjoint(g)

    monkeypatch.setattr(MatrixGroup, "from_spin", building)
    adjoint = SU2.alpha_star_of
    for name in ("ad_G", "ad_H", "alpha_star_of"):
        monkeypatch.setattr(SU2, name, rotating)
    path = tmp_path / "guard.json"
    path.write_text(json.dumps(GUARD_CONFIG))
    assert main(["verify", "thin", "--config", str(path), "--out",
                 str(tmp_path), "--quiet"]) == 0
    assert built == [(1, 6)] and rotations == []


def _counting_lifts(monkeypatch):
    """Record the padded generator points of every horizontal lift of a
    surface solve: 2 x the largest count x slices x bigons per call."""
    kernel = gauge2.transport._ordered_exp
    points = []

    def counting(group, alg, w_eval, counts, trajectory=False, right=False):
        def counted(times, columns):
            w = w_eval(times, columns)
            points.append(2 * max(counts) * len(counts)
                          * int(np.prod(w.shape[1:-1])))
            return w
        return kernel(group, alg, counted if trajectory else w_eval, counts,
                      trajectory, right)

    monkeypatch.setattr(gauge2.transport, "_ordered_exp", counting)
    return points


def test_surface_lifts_stay_within_the_point_bound(tmp_path, monkeypatch):
    # su2_demo's verify thin: 6-bigon stacks at 96 steps need several
    # blocks; its verify stokes sweeps 24, 48 and 96 steps in one solve per
    # bigon, whose 336 slices pad to 96 steps in more than one block
    points = _counting_lifts(monkeypatch)
    config = pathlib.Path(__file__).parent.parent / "configs" / "su2_demo.json"
    for argv, blocks in ((["verify", "thin"], 5), (["verify", "stokes"], 2)):
        points.clear()
        assert main([*argv, "--config", str(config), "--out", str(tmp_path),
                     "--quiet"]) == 0
        assert len(points) > blocks
        assert max(points) <= gauge2.transport._LIFT_POINTS


def test_blocked_surface_solve_matches_one_unblocked_solve(monkeypatch):
    # 2 x 56 slices of 6 bigons at 2 x 56 lift nodes: blocks of 38, 37, 37
    bigons = [lens_bigon(0.1), lens_bigon(0.25), lens_bigon(-0.2),
              bulge_bigon(0.3), bulge_bigon(0.6), bulge_bigon(-0.4)]
    points = _counting_lifts(monkeypatch)
    blocked = surface_values(SU2_CONN, bigons, None, 56)
    assert len(points) == 3
    monkeypatch.setattr(gauge2.transport, "_LIFT_POINTS", 2 ** 40)
    whole = surface_values(SU2_CONN, bigons, None, 56)
    assert len(points) == 4
    assert np.max(np.abs(blocked - whole)) <= 1e-14


SWEEP_BIGONS = [lens_bigon(0.1), lens_bigon(0.25), lens_bigon(-0.2),
                bulge_bigon(0.3), bulge_bigon(0.6), bulge_bigon(-0.4)]


@pytest.mark.parametrize("kind,fam,lifts", [
    ("path", SU2, 0), ("b", SU2, 2), ("b", U1, 0), ("F", SU2, 2)],
    ids=["path", "b-su2_id_conj", "b-u1_id", "F-su2_id_conj"])
def test_sweep_solve_matches_per_count_solves(monkeypatch, kind, fam, lifts):
    # one solve of the counts 10, 20 and 40 against a solve per count; the
    # surfaces' 2 x 70 slices of 6 bigons lift in at least two blocks
    conn = (SU2_CONN if fam is SU2 else
            TwoConnection(U1, Chart(2), a=[["0.3*x2"], ["0.5*x1"]],
                          b="fake_flat"))
    counts = [10, 20, 40]
    if kind == "path":
        paths = [bigon.slice_first(u) for bigon in SWEEP_BIGONS[:3]
                 for u in (0.0, 0.5, 1.0)]

        def solve(c):
            return gauge2.transport._path_values(conn, paths, c)
    else:
        def solve(c):
            return gauge2.transport._surface_sweep(conn, SWEEP_BIGONS, None,
                                                   c, kind)
    points = _counting_lifts(monkeypatch)
    sweep = solve(counts)
    assert len(points) >= lifts and (lifts or not points)
    assert max(points, default=0) <= gauge2.transport._LIFT_POINTS
    assert sweep.shape[:2] == (3, 9 if kind == "path" else 6)
    for n, values in zip(counts, sweep):
        assert np.max(np.abs(values - solve([n])[0])) <= 1e-14


def _per_slice_beta(conn, bigon, g0, steps, s_values):
    """Reference surface driver: one horizontal lift per slice Gamma(s, .)."""
    fam = conn.family
    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights /= 3.0 * steps
    t_nodes = np.linspace(0.0, 1.0, steps + 1)
    out = []
    for s in s_values:
        _, frames = horizontal_lift(conn, bigon.slice_first(s), steps=steps)
        params = np.stack([np.full_like(t_nodes, s), t_nodes], axis=-1)
        vals = conn.b_of(bigon(params), bigon.partial(0, params),
                         bigon.partial(1, params))
        vals = fam.alpha_vec(fam.group_G.inv(frames @ g0), vals)
        out.append(weights @ vals)
    return SURFACE_ODE_SIGN * np.stack(out)


# (family, connection a, coefficients of a frame g0) of the frame tests
FRAMED = [
    (SU2, [["0.6*x2", "0.3", "0.1*x1"], ["0.2", "0.5*x1", "0.3*x2"]],
     [0.3, -0.2, 0.5]),
    (U2P, [["0.4*x2", "0.1", "0.2*x1"], ["0.2", "0.3*x1", "0.1"]],
     [0.4, 0.1, -0.7]),
]


@pytest.mark.parametrize("fam,a,frame", FRAMED)
def test_batched_surface_generator_matches_per_slice_lifts(fam, a, frame):
    # the identity-frame driver, moved to g0 by (alpha_{g0^-1})_*, against
    # the reference with g0 inside the integrand
    conn = TwoConnection(fam, Chart(2), a=a, b="fake_flat")
    g0 = fam.group_G.exp(fam.l2a.g_alg.to_matrix(np.array(frame)))
    s_values = np.array([0.0, 0.13, 0.5, 0.871, 1.0])
    beta = _surface_generator(conn, [lens_bigon()], [16], "b")
    moved = fam.alpha_vec(fam.group_G.inv(g0),
                          beta(s_values, np.zeros(5, dtype=int))[:, 0])
    reference = _per_slice_beta(conn, lens_bigon(), g0, 16, s_values)
    assert np.max(np.abs(moved - reference)) <= 1e-13


# --- surface transport ----------------------------------------------------------


def test_surface_zero_b_gives_identity():
    conn = TwoConnection(U1T, Chart(2), a=[["0"], ["0"]], b=[["0"]])
    res = surface_transport(conn, bulge_bigon(), steps=16)
    assert np.max(np.abs(res["value_h"] - 1.0)) <= 1e-12


def test_surface_abelian_flux_closed_form():
    # b = c dx^dy on the lens bigon: value exp(-i c * signed flux),
    # flux(∂u, ∂v) = -4k/pi, so the value is exp(+i c 4k/pi)
    c, k = 0.8, 0.25
    conn = TwoConnection(U1T, Chart(2), a=[["0"], ["0"]], b=[[f"{c}"]])
    res = surface_transport(conn, lens_bigon(k), steps=96)
    expected = np.exp(1j * c * 4 * k / np.pi)
    assert np.max(np.abs(res["value_h"] - expected)) <= 1e-8


def test_surface_target_identity_su2():
    res = surface_transport(SU2_CONN, lens_bigon(), steps=96)
    assert res["target_identity_defect"] <= 1e-6
    assert res["group_defect"] <= 1e-10


def test_surface_quadrature_convergence_guard():
    res = surface_transport(SU2_CONN, lens_bigon(), steps=48, sweep=2)
    assert res["order_estimate"] is None or res["order_estimate"] >= 1.5


@pytest.mark.parametrize("steps,sweep,floor,counts", [
    (96, 7, 8, [12, 24, 48, 96]), (4, 2, 2, [2, 4]), (8, 2, 8, [8]),
    (20, 2, 2, [5, 10, 20]), (48, 0, 8, [48])])
def test_sweep_steps_stop_at_the_solver_minimum(steps, sweep, floor, counts):
    assert gauge2.transport.sweep_steps(steps, sweep, floor) == counts


@pytest.mark.parametrize("defects,order", [
    ([], None), ([1e-3], None), ([1e-3, 1e-4], np.log2(10.0)),
    ([1e-3, 1e-4, 1e-17], np.log2(10.0)), ([1e-16, 1e-17], None)])
def test_sweep_order_is_the_last_finite_order(defects, order):
    assert gauge2.transport.sweep_order(defects) == order


def test_surface_equivariance_in_basepoint():
    """2-transport at a frame g0, which the solver gets from the identity
    frame by equivariance, against the outer solve of the per-slice
    reference driver, which lifts through g0 itself."""
    bigon, n = lens_bigon(), 24
    for fam, a, frame in FRAMED:
        conn = TwoConnection(fam, Chart(2), a=a, b="fake_flat")
        g0 = fam.group_G.exp(fam.l2a.g_alg.to_matrix(np.array(frame)))
        reference = gauge2.transport._ordered_exp(
            fam.group_H, fam.l2a.h_alg,
            lambda s, c: _per_slice_beta(conn, bigon, g0, n, s)[:, None], [n],
            right=True)[0, 0]
        moved = surface_values(conn, [bigon], (bigon([0.0, 0.0]), g0), n)[0]
        assert np.max(np.abs(moved - reference)) <= 1e-13, fam.name


@pytest.mark.parametrize("fam,a,b,frames", [
    (SU2, [["0.6*x2", "0.3", "0.1*x1"], ["0.2", "0.5*x1", "0.3*x2"]],
     "fake_flat", [[0.3, -0.2, 0.5], [0.0, 0.0, 0.0], [-1.1, 0.4, 0.2]]),
    (U2P, [["0.4*x2", "0.1", "0.2*x1"], ["0.2", "0.3*x1", "0.1"]],
     "fake_flat", [[0.4, 0.1, -0.7], [0.9, -0.3, 0.2], [0.0, 0.5, 0.5]]),
    (U1T, [["0.3*x2"], ["0.1"]], [["0.8*x1 + 0.2"]], [[0.7], [-1.3], [0.0]]),
], ids=["su2_id_conj", "u2_to_pu2", "u1_triv"])
def test_batched_surface_values_match_per_bigon_transport(fam, a, b, frames):
    # a mixed stack: two bigons and a reparameterization of the first,
    # paired with three frames, all over the corner at the origin
    conn = TwoConnection(fam, Chart(2), a=a, b=b)
    lens = lens_bigon()
    warp = ParamMap.from_exprs(["u^2*(3-2*u)", "(1-cos(pi*v))/2"], 2)
    bigons = [lens, bulge_bigon(), reparameterize(lens, warp)]
    g0 = fam.group_G.exp(fam.l2a.g_alg.to_matrix(np.array(frames, dtype=float)))
    x0 = np.zeros(2)
    got = surface_values(conn, bigons, (x0, g0), 16)
    assert got.shape == (3,) + fam.group_H.identity.shape
    for bigon, frame, value in zip(bigons, g0, got):
        ref = surface_transport(conn, bigon, (x0, frame), 16)["value_h"]
        assert np.max(np.abs(value - ref)) <= 1e-14
    # one bigon under a stack of frames is paired by broadcasting
    fanned = surface_values(conn, [lens], (x0, g0), 16)
    assert fanned.shape == got.shape
    for frame, value in zip(g0, fanned):
        ref = surface_transport(conn, lens, (x0, frame), 16)["value_h"]
        assert np.max(np.abs(value - ref)) <= 1e-14


def test_surface_values_check_every_basepoint():
    shifted = lens_bigon().affine_image(np.array([0.1, 0.0]), np.eye(2))
    with pytest.raises(DomainError, match="corner"):
        surface_values(SU2_CONN, [lens_bigon(), shifted],
                       (np.zeros(2), SU2.group_G.identity))


GUARD_CONFIG = {
    "seed": 3,
    "crossed_module": {"matrix": {"family": "su2_id_conj"}},
    "chart": {"dim": 2},
    "connection": {"a": [["0.6*x2", "0.3", "0.1*x1"],
                         ["0.2", "0.5*x1", "0.3*x2"]], "b": "fake_flat"},
    "bigons": {"lens": ["v", "v + 0.05*(2*u - 1)*sin(pi*v)"]},
    "morphism": {"g": ["0.4*x1", "0.3*x2", "0.2*x1*x2"],
                 "phi": [["0.2*x2", "0.1", "0"], ["0.1*x1", "0", "0.3"]]},
    "two_morphism": {"a": ["0.3*x2", "0.2*x1", "0.1"]},
    "paths": {"arc": ["0.8*u", "0.3*u^2"]},
    "numeric": {"steps": 40, "surface_steps": 16},
}


# a 3-d chart with two cubes, each a stack of bigons between the same two
# boundary paths
CUBE_CONFIG = {
    "seed": 3,
    "crossed_module": {"matrix": {"family": "u2_to_pu2"}},
    "chart": {"dim": 3},
    "connection": {"a": [["0.4*x2", "0.1", "0.1*x3"], ["0.2", "0.3*x1", "0.1"],
                         ["0.1*x2", "0.2", "0.2*x1"]],
                   "b": "fake_flat",
                   "b_extra": [["0.5*x3", "0", "0", "0"],
                               ["0.4*x1", "0", "0", "0"],
                               ["0.3*x2", "0", "0", "0"]]},
    "cubes": {"pillow": ["w", "0.5*v*sin(pi*w)",
                         "0.6*u*v*(1-v)*sin(pi*w)"],
              "twist": ["w + 0.15*u*v*(1-v)*sin(pi*w)", "0.4*v*sin(pi*w)",
                        "0.5*u*v*(1-v)*sin(pi*w)"]},
    "numeric": {"surface_steps": 16, "volume_steps": 8},
}


@pytest.mark.parametrize("argv,calls,exp_matrices", [
    # one outer solve of the bigon and its five reparameterizations, whose
    # one generator call lifts the 2 x 40 slices of all 6 bigons in two
    # blocks of 40 (80 x 40 x 6 points is at most _LIFT_POINTS); no path
    # solve, and the kernel exponentiates in spin coordinates, not with exp
    (["verify", "thin"], {("surface", (1, 6)): 1, ("lift", (40, 6)): 2}, 0),
    # tra^2 once; tra'^2 once at the identity frame, on one lift of the
    # 2 x 16 slices of both stages, and moved to the frames of the morphism
    # and its two twisted forms by equivariance; rho of all three
    # morphisms along the source and target paths in one ordered
    # exponential in H, batched with the reference generator rep_*(W); the
    # fields' dg g^-1 are closed-form dexp, and only the gauge function's
    # values and the independent stencil of the A-level check exponentiate
    (["verify", "gauge"], {("surface", (1, 1)): 2, ("lift", (32, 1)): 2,
                           ("path", (1, 4, 2)): 1}, 2901),
    # no transport: the gauge function once per point of each evaluation
    # of the transformed a and b (the stencil of F(a') takes 9 of a')
    (["gauge-transform"], {}, 280),
    # the +-h rays of both stencil levels at all 10 points in one path
    # solve, and the 40 round trips of log
    (["reconstruct", "A"], {("path", (1, 40)): 1}, 40),
    # the 8 stencil bigons of all 10 points in one outer solve, whose one
    # generator call lifts the 2 x 16 slices of all 80 bigons in blocks of
    # 11, 11 and 10 (32 x 11 x 80 points is at most _LIFT_POINTS), and 80
    # round trips of log
    (["reconstruct", "B"], {("surface", (1, 80)): 1, ("lift", (11, 80)): 2,
                            ("lift", (10, 80)): 1}, 80),
    # a sweep of 2 halvings is one kernel call per kind: the 4-, 8- and
    # 16-step surface solves in one outer solve, whose one lift takes the
    # 2 x (4 + 8 + 16) slices, each at its own count; source and target
    # at 16 steps in one path solve
    (["surface-transport", "--sweep", "2"],
     {("surface", (3, 1)): 1, ("lift", (56, 1)): 1, ("path", (1, 2)): 1}, 0),
    # the 10-, 20- and 40-step curvature integrals in one outer solve and
    # one lift of 2 x 70 slices, and source and target at all three counts
    # in one path solve
    (["verify", "stokes", "--sweep", "2"],
     {("surface", (3, 1)): 1, ("lift", (140, 1)): 1, ("path", (3, 2)): 1}, 0),
    # the path at 10, 20 and 40 steps in one path solve
    (["transport", "--sweep", "2"], {("path", (3, 1)): 1}, 0),
    # on CUBE_CONFIG: the end bigons of both cubes in one outer solve, whose
    # one lift takes the 2 x 16 slices of all 4 bigons; exp of the two
    # right-hand sides
    (["verify", "higher-stokes"],
     {("surface", (1, 4)): 1, ("lift", (32, 4)): 1}, 2),
], ids=["thin", "gauge", "gauge-transform", "reconstruct-A", "reconstruct-B",
        "surface-transport", "stokes", "transport", "higher-stokes"])
def test_kernel_calls_per_verify_command(tmp_path, monkeypatch, argv, calls,
                                         exp_matrices):
    """Kernel calls by kind and batch, and the number of matrices
    ``MatrixGroup.exp`` exponentiates: group-valued field values and log
    round trips, so an extra field evaluation shows."""
    seen = collections.Counter()
    kernel = gauge2.transport._ordered_exp
    group_exp = MatrixGroup.exp
    exponentiated = [0]

    def counting(group, alg, w_eval, counts, trajectory=False, right=False):
        out = kernel(group, alg, w_eval, counts, trajectory, right)
        kind = "surface" if right else "lift" if trajectory else "path"
        # a trajectory is spin coordinates: phases (steps + 1, *batch) first
        seen[kind, out[0].shape[1:] if trajectory else out.shape[:-2]] += 1
        return out

    def counting_exp(group, X):
        exponentiated[0] += int(np.prod(np.shape(X)[:-2]))
        return group_exp(group, X)

    for module in (gauge2.transport, gauge2.morphisms):
        monkeypatch.setattr(module, "_ordered_exp", counting)
    monkeypatch.setattr(MatrixGroup, "exp", counting_exp)
    path = tmp_path / "guard.json"
    path.write_text(json.dumps(CUBE_CONFIG if "higher-stokes" in argv
                               else GUARD_CONFIG))
    assert main([*argv, "--config", str(path), "--out", str(tmp_path),
                 "--quiet"]) == 0
    assert dict(seen) == calls
    assert exponentiated[0] == exp_matrices


@pytest.mark.parametrize("argv,key", [
    (["surface-transport"], "order_estimate"),
    (["verify", "stokes"], "order"),
    (["transport"], "order_estimate")],
    ids=["surface-transport", "stokes", "transport"])
def test_a_sweep_order_below_the_tolerance_fails_its_case(
        tmp_path, monkeypatch, argv, key):
    """A low sweep order fails its case: exit 3 with the report written,
    one failing case per configured map; the same command passes with the
    real orders."""
    raw = {**GUARD_CONFIG,
           "paths": {"arc": ["0.8*u", "0.3*u^2"], "wiggle": ["u", "0.2*u^2"]},
           "bigons": {"lens": ["v", "v + 0.05*(2*u - 1)*sin(pi*v)"],
                      "bulge": ["v", "0.1*u*sin(pi*v)"]}}
    path = tmp_path / "orders.json"
    path.write_text(json.dumps(raw))
    report = tmp_path / "out" / f"{'-'.join(argv)}.json"

    def run():
        return main([*argv, "--sweep", "2", "--config", str(path),
                     "--out", str(tmp_path / "out"), "--quiet"])

    assert run() == 0
    cases = json.loads(report.read_text())["cases"]
    assert all(c["pass"] and c[key] >= 3.5 for c in cases)
    report.unlink()
    monkeypatch.setattr(gauge2.transport, "sweep_order", lambda defects: 1.0)
    assert run() == 3
    cases = json.loads(report.read_text())["cases"]
    assert len(cases) == 2
    assert all(not c["pass"] and c[key] == 1.0 for c in cases)


def test_vertical_composition_matches_etaH_law(stencilled):
    """Split at u = 1/2, a bigon's 2-transport is the product of its lower
    and upper halves' at one frame (h2 @ h1 misses by 1.3e-3)."""
    slab = ParamMap.from_exprs(["v", "0.6*u*sin(pi*v)"], 2, name="slab")
    h1, h2, hc = surface_values(
        SU2_CONN, [piece(slab, ["u/2", "v"]), piece(slab, ["(1+u)/2", "v"]),
                   slab], None, 96)
    assert np.max(np.abs(hc - h1 @ h2)) <= 1e-6
    assert stencilled == []


def test_horizontal_composition_matches_etaH_law(stencilled):
    """A bigon whose line v = 1/2 is one point splits there into two
    bigons; its 2-transport is the first's times the second's at the frame
    the first's target path carries p to (4.1e-3 off at the identity
    frame), or the second's at the source path's frame times the first's."""
    pinched = ParamMap.from_exprs(
        ["v", "0.4*u*sin(pi*v)*sin(2*pi*v)"], 2, name="pinched")
    s1, s2 = piece(pinched, ["u", "v/2"]), piece(pinched, ["u", "(1+v)/2"])
    n = 96
    p = (pinched([0.0, 0.0]), SU2.group_G.identity)
    first = surface_transport(SU2_CONN, s1, p, n)
    hc = surface_transport(SU2_CONN, pinched, p, n)["value_h"]
    mid = s2([0.0, 0.0])
    h2_at = surface_transport(SU2_CONN, s2, (mid, first["target_transport"]),
                              n)["value_h"]
    assert np.max(np.abs(hc - first["value_h"] @ h2_at)) <= 1e-6
    # the other horizontal formula: conjugate through the source transport
    h2_src = surface_transport(SU2_CONN, s2, (mid, first["source_transport"]),
                               n)["value_h"]
    assert np.max(np.abs(hc - h2_src @ first["value_h"])) <= 1e-6
    assert stencilled == []


def test_two_transport_interchange(stencilled):
    """Quarters of a bigon pinched at v = 1/2, composed vertically then
    horizontally and the other way round, agree with each other and with
    the whole (6.1e-3 off with every quarter at the identity frame)."""
    bigon = ParamMap.from_exprs(["1.8*v", "0.5*u*sin(2*pi*v)"], 2)
    (q11, q12), (q21, q22) = [
        [piece(bigon, [u, v]) for u in ("u/2", "(1+u)/2")]
        for v in ("v/2", "(1+v)/2")]
    n = 96
    conn = TwoConnection(
        SU2, Chart(2),
        a=[["0.3*x2", "0.15", "0.05*x1"], ["0.1", "0.25*x1", "0.15*x2"]],
        b="fake_flat")
    x0, mid = bigon([0.0, 0.0]), bigon([0.0, 0.5])
    p = (x0, SU2.group_G.identity)

    h11, h12, whole = surface_values(conn, [q11, q12, bigon], p, n)
    # the frames over the pinch that the first column's middle and target
    # paths carry p to
    f_mid, f_top = (path_ordered_exp(conn, target_path(q), n)["value"]
                    for q in (q11, q12))
    h21, h22, h21_top = surface_values(
        conn, [q21, q22, q21], (mid, np.stack([f_mid, f_top, f_top])), n)
    # each column vertically, then the columns horizontally; each row
    # horizontally, then the rows vertically
    lhs = h11 @ h12 @ h21_top @ h22
    rhs = h11 @ h21 @ h12 @ h22
    assert np.max(np.abs(lhs - rhs)) <= 1e-6
    assert np.max(np.abs(lhs - whole)) <= 1e-6
    assert stencilled == []


def test_thin_invariance_of_surface_transport():
    bigon = lens_bigon()
    base = surface_transport(SU2_CONN, bigon, None, 96)["value_h"]
    for exprs in (["u^2", "v"], ["u", "v^2*(3-2*v)"]):
        phi = ParamMap.from_exprs(exprs, 2)
        warped = reparameterize(bigon, phi)
        got = surface_transport(SU2_CONN, warped, None, 96)["value_h"]
        assert np.max(np.abs(got - base)) <= 1e-7


# --- Stokes verifiers -----------------------------------------------------------


def test_stokes_flat_connection():
    conn = TwoConnection(SU2, Chart(2),
                         a=[["0", "0", "0"], ["0", "0", "0"]], b="fake_flat")
    rep = verify_nonabelian_stokes(conn, bulge_bigon(), steps=16)
    assert np.max(np.abs(rep["lhs"] - np.eye(2))) <= 1e-12
    assert np.max(np.abs(rep["rhs"] - np.eye(2))) <= 1e-12


def test_stokes_abelian_closed_form():
    # a = c x dy: both sides equal exp(i c (flux between the lens curves))
    c, k = 0.9, 0.25
    conn = TwoConnection(U1, Chart(2), a=[["0"], [f"{c}*x1"]], b="fake_flat")
    rep = verify_nonabelian_stokes(conn, lens_bigon(k), steps=64)
    expected = np.exp(1j * c * 4 * k / np.pi)
    assert rep["defect"] <= 1e-8
    assert np.max(np.abs(rep["lhs"] - expected)) <= 1e-8


def test_stokes_su2_convergence():
    rep = verify_nonabelian_stokes(SU2_CONN, lens_bigon(), steps=128, sweep=3)
    assert rep["defect"] <= 1e-6
    assert rep["order"] >= 3.5


def test_higher_stokes_constant_cube():
    conn = TwoConnection(U1T, Chart(3), a=[["0"], ["0"], ["0"]],
                         b=[["0.4"], ["0.1"], ["0.2"]])

    def fn(params):
        v = params[..., 1][..., None]
        w = params[..., 2][..., None]
        return np.concatenate([w, 0.3 * v * np.sin(np.pi * w),
                               np.zeros_like(w)], -1)

    cube = ParamMap(3, 3, fn, name="const-cube")
    [rep] = verify_higher_stokes(conn, [cube], steps_surface=24,
                                 steps_volume=8)
    assert np.max(np.abs(rep["lhs"] - 1.0)) <= 1e-10
    assert np.max(np.abs(rep["rhs"] - 1.0)) <= 1e-10


def test_higher_stokes_abelian_closed_form():
    # b = x3 dx1^dx2, cube (w, v sin(pi w)/2, u v (1-v) sin(pi w)):
    # integral of the pulled-back volume form is -1/24 by direct computation
    conn = TwoConnection(U1T, Chart(3), a=[["0"], ["0"], ["0"]],
                         b=[["x3"], ["0"], ["0"]])

    def fn(params):
        u = params[..., 0][..., None]
        v = params[..., 1][..., None]
        w = params[..., 2][..., None]
        return np.concatenate([w, 0.5 * v * np.sin(np.pi * w),
                               u * v * (1 - v) * np.sin(np.pi * w)], -1)

    cube = ParamMap(3, 3, fn, name="abelian-cube")
    [rep] = verify_higher_stokes(conn, [cube], steps_surface=48,
                                 steps_volume=32)
    assert rep["defect"] <= 1e-6
    assert np.max(np.abs(rep["lhs"] - np.exp(1j / 24))) <= 1e-6
    assert rep["kernel_defect"] <= 1e-12


def test_higher_stokes_u2pu2_trace_part():
    conn = TwoConnection(
        U2P, Chart(3),
        a=[["0.4*x2", "0.1", "0.1*x3"], ["0.2", "0.3*x1", "0.1"],
           ["0.1*x2", "0.2", "0.2*x1"]],
        b="fake_flat",
        b_extra=[["0.5*x3", "0", "0", "0"], ["0.4*x1", "0", "0", "0"],
                 ["0.3*x2", "0", "0", "0"]])

    def fn(params):
        u = params[..., 0][..., None]
        v = params[..., 1][..., None]
        w = params[..., 2][..., None]
        return np.concatenate([w, 0.5 * v * np.sin(np.pi * w),
                               0.6 * u * v * (1 - v) * np.sin(np.pi * w)], -1)

    cube = ParamMap(3, 3, fn, name="trace-cube")
    [rep] = verify_higher_stokes(conn, [cube], steps_surface=48,
                                 steps_volume=32)
    assert rep["defect"] <= 1e-5
    assert rep["bianchi_defect"] <= 1e-7
    assert rep["kernel_defect"] <= 1e-7


def test_stacked_cubes_match_one_cube_runs(tmp_path):
    """The two-cube command solves its four end bigons in one stack, and
    every case value equals, bit for bit, that of a run on its cube alone."""
    def cases(cubes, out):
        path = tmp_path / f"{out}.json"
        path.write_text(json.dumps({**CUBE_CONFIG, "cubes": cubes}))
        assert main(["verify", "higher-stokes", "--config", str(path),
                     "--out", str(tmp_path / out), "--quiet"]) == 0
        report = tmp_path / out / "verify-higher-stokes.json"
        return json.loads(report.read_text())["cases"]

    both = cases(CUBE_CONFIG["cubes"], "both")
    alone = [case for name, cube in CUBE_CONFIG["cubes"].items()
             for case in cases({name: cube}, name)]
    assert [c["name"] for c in both] == ["pillow", "twist"]
    assert both == alone


def test_higher_stokes_rejects_mismatched_cube():
    conn = TwoConnection(U1T, Chart(3), a=[["0"], ["0"], ["0"]],
                         b=[["x3"], ["0"], ["0"]])

    def fn(params):   # target path varies with the cube parameter
        u = params[..., 0][..., None]
        v = params[..., 1][..., None]
        w = params[..., 2][..., None]
        return np.concatenate([w, (0.5 + 0.2 * u) * v * np.sin(np.pi * w),
                               np.zeros_like(w)], -1)

    cube = ParamMap(3, 3, fn, name="bad-cube")
    with pytest.raises(ComposabilityError):
        verify_higher_stokes(conn, [cube], steps_surface=16, steps_volume=8)


# --- reconstruction --------------------------------------------------------------


def test_reconstruct_A_zero_and_abelian():
    conn0 = TwoConnection(U1, Chart(2), a=[["0"], ["0"]], b="fake_flat")
    out = reconstruct_A(conn0, np.array([0.3, 0.3]), np.array([1.0, 0.0]))
    assert np.max(np.abs(out)) <= 1e-10
    c = 0.8
    conn = TwoConnection(U1, Chart(2), a=[[f"{c}"], ["0"]], b="fake_flat")
    out = reconstruct_A(conn, np.array([0.3, 0.3]), np.array([1.0, 0.4]))
    assert np.max(np.abs(out - c * 1.0)) <= 1e-6


def test_reconstruct_A_su2_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(3):
        x = rng.uniform(0.2, 0.8, size=2)
        X = rng.standard_normal(2)
        got = reconstruct_A(SU2_CONN, x, X)
        want = SU2_CONN.a_of(x[None], X)[0]
        assert np.max(np.abs(got - want)) <= 1e-5 * (1 + np.max(np.abs(want)))


def test_reconstruct_B_zero_abelian_su2():
    conn0 = TwoConnection(U1T, Chart(2), a=[["0"], ["0"]], b=[["0"]])
    out = reconstruct_B(conn0, np.zeros(2), np.eye(2)[0], np.eye(2)[1])
    assert np.max(np.abs(out)) <= 1e-8
    c = 0.8
    conn = TwoConnection(U1T, Chart(2), a=[["0"], ["0"]], b=[[f"{c}"]])
    out = reconstruct_B(conn, np.zeros(2), np.eye(2)[0], np.eye(2)[1])
    assert np.max(np.abs(out - c)) <= 1e-4
    rng = np.random.default_rng(3)
    x = rng.uniform(0.3, 0.7, size=2)
    X, Y = rng.standard_normal(2), rng.standard_normal(2)
    got = reconstruct_B(SU2_CONN, x, X, Y)
    want = SU2_CONN.b_of(x[None], X, Y)[0]
    assert np.max(np.abs(got - want)) <= 1e-4 * (1 + np.max(np.abs(want)))


def test_reconstruct_broadcasts_over_sample_points():
    """A batch of points takes one solve and gives the per-point values to
    roundoff: not bit for bit, as BLAS sums a batched matrix product (the
    coefficients of ``LieAlgebra.from_matrix``, say) in another order than
    a single matrix-vector product.  A single point keeps its shape."""
    rng = np.random.default_rng(6)
    x = rng.uniform(0.2, 0.8, size=(10, 2))
    X, Y = rng.standard_normal((2, 10, 2))
    got_a = reconstruct_A(SU2_CONN, x, X)
    got_b = reconstruct_B(SU2_CONN, x, X, Y)
    single_a = [reconstruct_A(SU2_CONN, *args) for args in zip(x, X)]
    single_b = [reconstruct_B(SU2_CONN, *args) for args in zip(x, X, Y)]
    assert got_a.shape == got_b.shape == (10, 3)
    assert {z.shape for z in single_a + single_b} == {(3,)}
    assert np.max(np.abs(got_a - single_a)) <= 1e-13
    assert np.max(np.abs(got_b - single_b)) <= 1e-13
    # leading axes broadcast: one point against a (2, 5) grid of directions
    grid = reconstruct_A(SU2_CONN, x[0], X.reshape(2, 5, 2))
    assert grid.shape == (2, 5, 3)
    assert np.max(np.abs(grid[0, 0] - single_a[0])) <= 1e-13


# --- 2-holonomy ------------------------------------------------------------------


def _disk_bigon(x0, r):
    def fn(params):
        u = params[..., 0][..., None]
        v = params[..., 1]
        ang = 2 * np.pi * v
        loop = np.stack([np.cos(ang) - 1.0, np.sin(ang)], -1)
        return x0 + u * r * loop
    return ParamMap(2, 2, fn, name="disk")


def test_holonomy2_identity_bigon():
    conn = TwoConnection(U1T, Chart(2), a=[["0"], ["0"]], b=[["0.7"]])

    def fn(params):
        v = params[..., 1][..., None]
        return np.concatenate([0.2 * np.sin(np.pi * v) * 0,
                               np.zeros_like(v)], -1)

    ident = ParamMap(2, 2, fn, name="point-bigon")
    rep, = holonomy2_H(conn, [ident], steps=16)
    assert np.max(np.abs(rep["value"] - 1.0)) <= 1e-12


def test_holonomy2_abelian_disk():
    c, r = 0.6, 0.5
    conn = TwoConnection(U1T, Chart(2), a=[["0"], ["0"]], b=[[f"{c}"]])
    bigon = _disk_bigon(np.array([0.5, 0.5]), r)
    rep, = holonomy2_H(conn, [bigon], steps=64)
    # the disk is swept with positive orientation, so the flux is +pi r^2 c
    expected = np.exp(-1j * c * np.pi * r * r)
    assert np.max(np.abs(rep["value"] - expected)) <= 1e-7


def test_holonomy2_vertical_inverse_cancels(stencilled):
    """A disk followed by its reverse, as the fold sigma o (sin(pi u), v),
    has trivial 2-holonomy (the disk alone reads |log hol| = 0.040)."""
    disk = ParamMap.from_exprs(["0.5 + 0.4*u*(cos(2*pi*v) - 1)",
                                "0.5 + 0.4*u*sin(2*pi*v)"], 2, name="disk")
    conn = TwoConnection(U1T, Chart(2), a=[["0"], ["0"]], b=[["0.8*x1"]])
    rep, = holonomy2_H(conn, [piece(disk, ["sin(pi*u)", "v"])], steps=96)
    assert np.max(np.abs(rep["value"] - 1.0)) <= 1e-7
    assert rep["same_loop"]
    assert rep["kernel_defect"] <= 1e-7
    assert stencilled == []


def test_holonomy2_kernel_membership_same_loop():
    def fn(params):
        u = params[..., 0][..., None]
        v = params[..., 1][..., None]
        loop = np.concatenate([np.sin(np.pi * v),
                               np.sin(2 * np.pi * v) * 0.5], -1)
        bump = np.concatenate([np.zeros_like(v),
                               np.sin(np.pi * v) ** 2], -1)
        return np.array([0.5, 0.5]) + 0.3 * (loop + u * (1 - u) * bump)

    bigon = ParamMap(2, 2, fn, name="loop-loop")
    rep, = holonomy2_H(SU2_CONN, [bigon], steps=96)
    assert rep["same_loop"]
    assert rep["kernel_defect"] <= 1e-7   # ker t is trivial for t = id


def test_holonomy2_rejects_open_boundary():
    bigon = bulge_bigon()     # paths from (0,0) to (1,0): not loops
    with pytest.raises(DomainError):
        holonomy2_H(SU2_CONN, [bigon], steps=16)


# --- Ambrose-Singer --------------------------------------------------------------


def test_ambrose_singer_span_samples_are_one_K_evaluation(monkeypatch):
    """The 3 n_paths curvature samples are one K_of call, on the seeded
    points and tangents of a draw-by-draw loop, and agree with K_of on
    each sample alone."""
    conn = TwoConnection(
        U2P, Chart(3),
        a=[["0.4*x2", "0.1", "0.1*x3"], ["0.2", "0.3*x1", "0.1"],
           ["0.1*x2", "0.2", "0.2*x1"]],
        b="fake_flat",
        b_extra=[["0.5*x3", "0", "0", "0"], ["0.4*x1", "0", "0", "0"],
                 ["0.3*x2", "0", "0", "0"]])
    calls = []
    K_of = TwoConnection.K_of

    def recording(self, points, X, Y, Z):
        calls.append((points, X, Y, Z, K_of(self, points, X, Y, Z)))
        return calls[-1][-1]

    monkeypatch.setattr(TwoConnection, "K_of", recording)
    ambrose_singer_check(conn, rng=np.random.default_rng(1), n_paths=4,
                         n_bigons=1, steps=16)
    monkeypatch.undo()
    points, X, Y, Z, batched = calls[0]
    rng = np.random.default_rng(1)
    looped = []
    for row in range(4 * 3):
        if row % 3 == 0:
            x = np.full(3, 0.5) + 0.35 * rng.uniform(-1.0, 1.0, size=3)
        tangents = [rng.standard_normal(3) for _ in range(3)]
        assert np.array_equal(points[row], x)
        assert np.array_equal(np.stack([X[row], Y[row], Z[row]]), tangents)
        looped.append(conn.K_of(x[None, :], *tangents)[0])
    assert batched.shape == (12, 4)
    assert np.max(np.abs(batched - np.stack(looped))) <= 1e-15


def _contained(rep):
    """The CLI's containment verdict, relative to the holonomy scale."""
    return (rep["containment_residual"]
            <= TOL["as_span"] * (1.0 + rep["holonomy_scale"]))


def _differentiates(rep):
    """The CLI's derivative verdict, relative to the holonomy scale."""
    return (rep["derivative_defect"]
            <= TOL["as_derivative"] * (1.0 + rep["holonomy_scale"]))


def test_ambrose_singer_zero_curvature_family():
    rep = ambrose_singer_check(SU2_CONN, rng=np.random.default_rng(0),
                               n_paths=3, n_bigons=3, steps=48)
    # t = id: ker t_* = 0, every reduced 2-holonomy must be the identity
    assert rep["span_rank"] == 0
    assert rep["holonomy_scale"] <= 1e-7
    assert _contained(rep)
    assert _differentiates(rep)


def test_ambrose_singer_u2pu2_trace_line():
    conn = TwoConnection(
        U2P, Chart(3),
        a=[["0.4*x2", "0.1", "0.1*x3"], ["0.2", "0.3*x1", "0.1"],
           ["0.1*x2", "0.2", "0.2*x1"]],
        b="fake_flat",
        b_extra=[["0.5*x3", "0", "0", "0"], ["0.4*x1", "0", "0", "0"],
                 ["0.3*x2", "0", "0", "0"]])
    rep = ambrose_singer_check(conn, rng=np.random.default_rng(1),
                               n_paths=4, n_bigons=4, steps=48)
    assert rep["span_rank"] == 1
    basis = rep["span_basis"]
    assert np.max(np.abs(np.abs(basis[0]) - np.array([1.0, 0, 0, 0]))) <= 1e-8
    assert _contained(rep)
    assert _differentiates(rep)


def test_ambrose_singer_abelian_scalar_containment():
    conn = TwoConnection(U1T, Chart(3), a=[["0"], ["0"], ["0"]],
                         b=[["x3"], ["0.2*x1"], ["0"]])
    rep = ambrose_singer_check(conn, rng=np.random.default_rng(2),
                               n_paths=3, n_bigons=3, steps=48)
    assert rep["span_rank"] == 1
    assert _contained(rep)
    assert _differentiates(rep)
