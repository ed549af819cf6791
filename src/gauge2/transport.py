"""Path-ordered exponentials, surface transport and the Stokes verifiers.

1-transport solves g'(t) = -a(gamma'(t)) g(t) with a 4th-order
commutator-free Lie-group integrator: per step of size s two Gauss-node
evaluations A_i = s*W(t + c_i s) are combined into two exponentials,

    g_{k+1} = exp(b A_1 + a A_2) exp(a A_1 + b A_2) g_k,
    a = 1/4 + sqrt(3)/6,  b = 1/4 - sqrt(3)/6,

in one kernel batched over independent solves.  The kernel integrates in
spin coordinates (see :func:`gauge2.groups.spin_coordinates`): a U(1)
phase, which adds, and a unit quaternion, whose step factors are closed
forms.  Transport is functorial under concatenation, so the step
propagators are multiplied in any bracketing: a pairwise tree gives the
end value and a prefix scan the step-boundary frames, in about log2(steps)
batched Hamilton products.  Matrices are built once, from the quaternions
normalized, and no polar projection is needed; the frames of a surface
solve's lifts stay quaternions (see :func:`_surface_generator`).
Surface transport solves the outer ordered integral

    h'(s) = sign * h(s) beta(s),
    beta(s) = integral_0^1 (alpha_{frame(s,t)^-1})_* b(d_s Gamma, d_t Gamma) dt,

where frame(s, t) is the horizontal lift of the slice Gamma(s, .) at the
basepoint and the inner integral is composite Simpson.  The outer ODE
is right-driven: the derivative-of-transport identity gives a left-driven
equation for the inverse quotient tra(source) : tra(Gamma_s), and
inverting it mirrors the equation.  The overall sign is a convention the
literature does not fix; it is pinned once by the abelian closed form and
the fake-flat target identity t(h) = tra(target path) : tra(source path),
and every downstream formula (higher Stokes, the connection
reconstructions) inherits it.

Every solve runs at the identity frame; a basepoint frame g0 acts once,
on the finished value, by the equivariance eta_H(p g) = alpha_{g^-1}
eta_H(p) of 2-transport (and on the right of a 1-transport).

Batch axes: the kernel's leading one is the step count, so a convergence
sweep is one solve of each kind.  Path solves take a stack of paths,
(counts, paths, n, n).  :func:`surface_values` solves a stack of bigons
in one outer solve, paired by broadcasting with a stack of frames; one
step count serves the outer steps, the Simpson steps and the lift steps
alike.  One generator call serves both CF4 stages and lifts every slice
of every bigon, at its own count, in near-equal blocks of at most
``_LIFT_POINTS`` padded (node, slice) points (the 2-form is evaluated
per bigon).  :func:`verify_higher_stokes` takes a stack of cubes and
solves the two end bigons of every cube in one such stack; the
3-curvature integral runs cube by cube.  Boundary 1-transports are
computed only where they are reported (:func:`surface_transport`, the
Stokes verifier), source and target in one path solve.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, SamplingError
from .forms import TwoConnection
from .geometry import (ParamMap, check_cube_boundaries, source_path,
                       straight_path, target_path, unit_grid)
from .groups import hamilton, quaternion_exp, unrotate

__all__ = [
    "path_ordered_exp", "horizontal_lift",
    "surface_transport", "surface_values", "verify_nonabelian_stokes",
    "verify_higher_stokes", "reconstruct_A", "reconstruct_B", "holonomy2_H",
    "ambrose_singer_check",
    "SURFACE_ODE_SIGN", "convergence_order", "sweep_steps", "sweep_order",
]

# Pinned by the abelian closed form and the target identity; see the tests
# and the module docstring.  The higher-Stokes exponent and both
# reconstruction formulas all inherit this single choice.
SURFACE_ODE_SIGN = -1.0

# Each solver's smallest step count, where sweep halving stops; a Stokes
# solve is a Simpson integral and two path solves at one count.
PATH_MIN_STEPS = 8
SIMPSON_MIN_STEPS = 2
STOKES_MIN_STEPS = max(PATH_MIN_STEPS, SIMPSON_MIN_STEPS)

_CF4_A = 0.25 + math.sqrt(3.0) / 6.0
_CF4_B = 0.25 - math.sqrt(3.0) / 6.0
_GAUSS_C1 = 0.5 - math.sqrt(3.0) / 6.0
_GAUSS_C2 = 0.5 + math.sqrt(3.0) / 6.0
# The most (node, slice) points at which one horizontal lift of a surface
# solve evaluates its generator, which bounds a solve's peak memory.
_LIFT_POINTS = 2 ** 15


def _ordered_exp(group, alg, w_eval, counts, trajectory=False, right=False):
    """Solve g' = W(t) g (``right``: g' = g W(t)), g(0) = id, on [0, 1],
    once per step count of ``counts``, a leading batch axis of columns.

    ``w_eval`` maps (k,) times and the columns they belong to to (k, *batch,
    alg.dim) coefficient vectors of W; the equation is linear, so it is
    called once, on the live Gauss nodes stage- and then step-major.  The
    solve runs N = max(counts) steps, and a column's steps past its count
    are identity factors, which change no bit of its product.  It runs in
    spin coordinates: phases add, and the quaternion step propagators are
    multiplied in a pairwise tree (``trajectory``: a prefix scan), a
    bracketing the functoriality of transport allows.  Returns the
    (counts, *batch, n, n) end values or, with ``trajectory``, the
    step-boundary frames as phases (N + 1, counts, *batch) and normalized
    quaternion planes (2, N + 1, counts, *batch), None on U(1).
    """
    counts = np.asarray(counts)
    live = np.arange(counts.max())[:, None] < counts
    step, col = np.nonzero(live)
    h = 1.0 / counts[col]
    t0 = step * h
    w = w_eval(np.concatenate([t0 + _GAUSS_C1 * h, t0 + _GAUSS_C2 * h]),
               np.concatenate([col, col]))
    shape = (4, 2) + live.shape + w.shape[1:-1]
    # the (phase rate, half rotation vector) planes of h W at both stages:
    # one count's step scales the spin matrix; mixed counts scale each node
    # by its own, and zero planes pad each column past its count
    planes = np.tensordot(alg.spin * h[0] if live.all() else alg.spin, w,
                          axes=(0, -1)).reshape(shape[:2] + (-1,) + shape[4:])
    del w
    if not live.all():
        planes, values = np.zeros(shape), planes
        values *= h.reshape((-1,) + (1,) * (len(shape) - 4))
        planes[:, :, live] = values
        del values
    s1, s2 = np.moveaxis(planes.reshape(shape), 1, 0)
    phase = 0.5 * (s1[0] + s2[0])       # both exponents' phases: a + b = 1/2
    # earlier and later factors: g_{k+1} = e2 e1 g_k, or g_k e1 e2 if right
    mul = hamilton if right else (lambda early, late: hamilton(late, early))
    quat = None if group.dim == 1 else mul(      # U(1) is its phase alone
        quaternion_exp(_CF4_A * s1[1:] + _CF4_B * s2[1:]),
        quaternion_exp(_CF4_B * s1[1:] + _CF4_A * s2[1:]))
    del planes, s1, s2
    if not trajectory:      # each column's phases, summed as its count alone
        phase = np.stack([np.sum(phase[:n, c], axis=0)
                          for c, n in enumerate(counts)])
        return group.from_spin(phase,
                               None if quat is None else _product(mul, quat))
    # the frames: prefix products from the identity at t = 0
    phase = np.cumsum(np.concatenate([np.zeros_like(phase[:1]), phase]), axis=0)
    if quat is not None:
        start = quaternion_exp(np.zeros((3, 1) + quat.shape[2:]))
        quat = _prefixes(mul, np.concatenate([start, quat], axis=1))
        quat /= np.sqrt(np.sum(quat.real ** 2 + quat.imag ** 2, axis=0))
    return phase, quat


def _product(mul, q):
    """The time-ordered product of quaternion planes (2, n, ...) along axis
    1: a pairwise tree of about log2(n) batched products."""
    while q.shape[1] > 1:
        pairs = mul(q[:, 0:-1:2], q[:, 1::2])
        q = np.concatenate([pairs, q[:, -1:]], axis=1) if q.shape[1] % 2 else pairs
    return q[:, 0]


def _prefixes(mul, q):
    """The time-ordered products q_0 ... q_k of planes (2, n, ...) for every
    k: a work-efficient scan of about 2 log2(n) batched products, the odd
    prefixes from the scan of the pair products."""
    n = q.shape[1]
    if n == 1:
        return q
    odd = _prefixes(mul, mul(q[:, 0:-1:2], q[:, 1::2]))
    out = np.empty_like(q)
    out[:, 0], out[:, 1::2] = q[:, 0], odd
    out[:, 2::2] = mul(odd[:, :(n - 1) // 2], q[:, 2::2])
    return out


def convergence_order(defects):
    """log2 ratio of successive defects; noise floor clamps at zero defect."""
    return [float("nan") if d1 <= 1e-15 or d0 <= 1e-15 else math.log2(d0 / d1)
            for d0, d1 in zip(defects, defects[1:])]


def sweep_steps(steps: int, sweep: int, floor: int) -> list:
    """Step counts of a convergence sweep, coarsest first: ``steps`` halved
    up to ``sweep`` times, stopping before a count below ``floor`` (the
    solver's minimum), then ``steps`` itself.  No count repeats."""
    return [steps // 2 ** k for k in range(sweep, 0, -1)
            if steps // 2 ** k >= floor] + [steps]


def sweep_order(defects):
    """The order a sweep measures: the last finite :func:`convergence_order`
    of its successive defects, or None."""
    finite = [o for o in convergence_order(defects) if not math.isnan(o)]
    return finite[-1] if finite else None


# --- 1-transport -----------------------------------------------------------------


def _stack_jets(maps, params, axes=None):
    """Points and partials along ``axes`` (all by default) of a stack of
    maps at (N, m) parameters: [points, *partials], each one (N * maps, d)
    batch with the maps innermost, written into one array."""
    n_axes = params.shape[-1] if axes is None else len(axes)
    out = np.empty((1 + n_axes, len(params), len(maps), maps[0].dim))
    for j, pm in enumerate(maps):
        out[0, :, j], partials = pm.jet(params, axes)
        out[1:, :, j] = partials.swapaxes(0, 1)
    return list(out.reshape(1 + n_axes, -1, maps[0].dim))


def _path_values(conn: TwoConnection, paths, counts, trajectory=False):
    """End values (counts, paths, n, n) of g' = -a(gamma') g, g(0) = id, or
    with ``trajectory`` the step-boundary frames as :func:`_ordered_exp`."""
    if min(counts) < PATH_MIN_STEPS:
        raise DomainError(f"path transport needs at least {PATH_MIN_STEPS} steps")

    def w_eval(times, columns):     # W = -a(gamma') as (times, paths, dim)
        return -conn.a_of(*_stack_jets(paths, times[:, None])).reshape(
            times.size, len(paths), -1)

    return _ordered_exp(conn.family.group_G, conn.family.l2a.g_alg, w_eval,
                        counts, trajectory)


def path_ordered_exp(conn: TwoConnection, gamma: ParamMap, steps: int = 64,
                     sweep: int = 0) -> dict:
    """Transport frame along gamma: the ``value`` at t=1 of
    g' = -a(gamma') g, its G membership defect, and an order estimate that
    compares the sweep's counts with the finest one."""
    *coarse, value = _path_values(
        conn, [gamma], sweep_steps(steps, sweep, PATH_MIN_STEPS))[:, 0]
    return {"value": value, "steps": steps,
            "group_defect": conn.family.group_G.membership_defect(value),
            "order_estimate": sweep_order([float(np.max(np.abs(v - value)))
                                           for v in coarse])}


def horizontal_lift(conn: TwoConnection, gamma: ParamMap, p=None,
                    steps: int = 64):
    """Frames of the horizontal lift of gamma through p at step boundaries.

    Returns (times, frames) with frames[j] = g(t_j) g0, so the lifted curve
    is t_j -> (gamma(t_j), frames[j]).  The bundle connection form
    Ad_{g^-1} a + g^-1 dg annihilates the lift's velocity.
    """
    if p is not None:
        start_defect = float(np.max(np.abs(gamma([0.0]) - np.asarray(p[0]))))
        if start_defect > 1e-9:
            raise DomainError(
                f"lift basepoint is not over gamma(0) (defect {start_defect:.2e})")
    frames = conn.family.group_G.from_spin(
        *_path_values(conn, [gamma], [steps], trajectory=True))[:, 0, 0]
    return (np.linspace(0.0, 1.0, steps + 1),
            frames if p is None else frames @ np.asarray(p[1]))


# --- surface transport -------------------------------------------------------------


def _simpson_grid(n: int, arity: int = 1):
    """Nodes (M, arity) and product weights (M,) of composite Simpson on
    the unit cube I^arity with n (even) steps per axis."""
    if n % 2 != 0:
        raise DomainError("Simpson quadrature needs an even step count")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w /= 3.0 * n
    weights = functools.reduce(np.multiply.outer, [w] * arity)
    return unit_grid(n + 1, arity), weights.reshape(-1)


def _surface_generator(conn: TwoConnection, bigons, counts, integrand: str):
    """Outer-ODE driver beta(s, columns) of a stack of bigons at the
    identity frame for surface transport ('b') or the curvature double
    integral of the Stokes theorem ('F'): (k,) -> (k, stack, dim)
    coefficient vectors of h ('b') or g ('F'), the slice of a column c
    node lifted and integrated with counts[c] steps.  Lift frames stay
    quaternions; their inverses act by ``unrotate`` on the family's
    ``h_rotated`` ('b') or ``g_rotated`` ('F') components.  An abelian
    family's frames act trivially: it takes no lift."""
    fam = conn.family
    counts = np.asarray(counts)
    grids = {n: _simpson_grid(n) for n in counts.tolist()}
    form_of, alg, offset = ((conn.b_of, fam.l2a.h_alg, fam.h_rotated)
                            if integrand == "b" else
                            (conn.F_of, fam.l2a.g_alg, fam.g_rotated))

    def params(t_values, s_values):
        # the (s, t) parameters of every slice, t-major
        s, t = np.meshgrid(s_values, t_values)
        return np.stack([s.ravel(), t.ravel()], axis=-1)

    def block(s_values, n):
        # slices in count order: each count's run of them, on its own
        # Simpson nodes, t-major
        ends = [*np.flatnonzero(np.diff(n)) + 1, n.size]
        runs = [(int(n[a]), slice(a, b)) for a, b in zip([0, *ends], ends)]
        nodes = np.concatenate([params(grids[m][0][:, 0], s_values[r])
                                for m, r in runs])
        vals = np.empty((len(bigons), len(nodes), alg.dim))
        for j, bigon in enumerate(bigons):
            # the form one bigon at a time: over the whole stack it was no
            # faster on surface-su2 (77-98 against 72-82 ms per pass)
            vals[j] = form_of(*_stack_jets([bigon], nodes))
        if offset is not None:
            def lift_generator(times, columns):
                # W = -a(d_t Gamma) of the slices Gamma(s, .) at the times
                vec = conn.a_of(*_stack_jets(bigons, np.stack(
                    [s_values[columns], times], axis=-1), (1,)))
                return -vec.reshape(times.size, len(bigons), -1)

            # one ragged lift: each slice a column of its own count
            _, quat = _ordered_exp(fam.group_G, fam.l2a.g_alg, lift_generator,
                                   n, trajectory=True)
        sums, start = [], 0
        for m, r in runs:
            k = r.stop - r.start
            v = vals[:, start:start + (m + 1) * k].reshape(len(bigons), m + 1, k, -1)
            start += (m + 1) * k
            if offset is not None:
                rot = slice(offset, offset + 3)
                v[..., rot] = unrotate(np.moveaxis(quat[:, :m + 1, r], -1, 1),
                                       v[..., rot])
            # per bigon, so that no value depends on the stack it is solved
            # in (BLAS rounds a product of another shape differently)
            sums.append(np.stack([np.tensordot(grids[m][1], vb, axes=1)
                                  for vb in v], axis=1))
        return np.concatenate(sums)

    def beta(s_values, columns):
        # the slices of both outer stages in count order, lifted in the
        # fewest near-equal blocks that pad to at most _LIFT_POINTS points
        # at their own largest count (one slice, if that alone passes it)
        n = counts[columns]
        order = np.argsort(n, kind="stable")
        points = 2 * len(bigons) * n[order]
        parts = min(order.size, -(-int(points.sum()) // _LIFT_POINTS))
        while any(p.size > 1 and points[p[-1]] * p.size > _LIFT_POINTS
                  for p in np.array_split(np.arange(order.size), parts)):
            parts += 1
        return SURFACE_ODE_SIGN * np.concatenate(
            [block(s_values[b], n[b]) for b in np.array_split(order, parts)]
        )[np.argsort(order)]

    return beta


def surface_values(conn: TwoConnection, bigons, p=None,
                   steps: int = 32) -> np.ndarray:
    """H values (stack, n, n) of the 2-transports of a stack of bigons at
    p = (x0, g0): one outer solve of ``steps`` steps over slices lifted and
    integrated with ``steps`` steps, at the identity frame, then
    alpha_{g0^-1}; g0 may be a stack of frames, paired with the bigons by
    broadcasting.  No boundary transport is computed."""
    return _surface_sweep(conn, bigons, p, [steps])[0]


def _surface_sweep(conn: TwoConnection, bigons, p, counts, integrand="b"):
    """Values (counts, stack, n, n) of a stack of bigons, one outer solve
    per step count in one kernel call: H values at p ('b', as
    :func:`surface_values`), or the curvature integral's G values ('F')."""
    if p is not None:
        d = max(float(np.max(np.abs(bg([0.0, 0.0]) - p[0]))) for bg in bigons)
        if d > 1e-9:
            raise DomainError(f"basepoint is not over the bigon corner ({d:.2e})")
    fam = conn.family
    group, alg = ((fam.group_H, fam.l2a.h_alg) if integrand == "b" else
                  (fam.group_G, fam.l2a.g_alg))
    values = _ordered_exp(group, alg,
                          _surface_generator(conn, bigons, counts, integrand),
                          counts, right=True)
    return values if p is None else fam.cm.alpha(fam.group_G.inv(p[1]), values)


def surface_transport(conn: TwoConnection, bigon: ParamMap, p=None,
                      steps: int = 32, sweep: int = 0) -> dict:
    """2-transport of a bigon: the H-valued ordered double integral of b,
    the boundary 1-transports and the fake-flat ``target_identity_defect``
    |t(value_h) - target : source| (:func:`surface_values`: values only).

    One count ``steps`` serves the outer solve, the inner Simpson rule and
    the slice lifts.  Functorial guarantees need a fake-flat connection
    (callers may verify with :func:`gauge2.forms.fake_flatness_residual`).
    With ``sweep`` the count is halved as :func:`sweep_steps` allows, all
    counts in one solve, for an order estimate against the finest count;
    the caller judges the order.
    """
    *coarse, value = _surface_sweep(
        conn, [bigon], p, sweep_steps(steps, sweep, SIMPSON_MIN_STEPS))[:, 0]
    src, tgt = _path_values(conn, [source_path(bigon), target_path(bigon)],
                            [max(steps, PATH_MIN_STEPS)])[0]
    if p is not None:
        src, tgt = src @ p[1], tgt @ p[1]
    fam = conn.family
    expected = fam.group_G.mul(fam.group_G.inv(src), tgt)
    return {"value_h": value, "source_transport": src, "target_transport": tgt,
            "steps_s": steps, "steps_t": steps,
            "group_defect": fam.group_H.membership_defect(value),
            "target_identity_defect": float(np.max(np.abs(fam.cm.t(value)
                                                          - expected))),
            "order_estimate": sweep_order([float(np.max(np.abs(v - value)))
                                           for v in coarse])}


def verify_nonabelian_stokes(conn: TwoConnection, bigon: ParamMap,
                             steps: int = 64, sweep: int = 0) -> dict:
    """Compare tra(target) : tra(source) with the ordered double integral
    of the curvature over the bigon (horizontal lift per slice), at each
    count of the sweep: one surface and one path solve for all counts."""
    G = conn.family.group_G
    counts = sweep_steps(steps, sweep, STOKES_MIN_STEPS)
    rhs = _surface_sweep(conn, [bigon], None, counts, "F")[:, 0]
    src, tgt = np.moveaxis(_path_values(
        conn, [source_path(bigon), target_path(bigon)], counts), 1, 0)
    lhs = G.mul(G.inv(src), tgt)
    defects = [float(np.max(np.abs(d))) for d in lhs - rhs]
    return {
        "defect": defects[-1],
        "rows": [{"steps": n, "defect": d} for n, d in zip(counts, defects)],
        "orders": convergence_order(defects),
        "order": sweep_order(defects),
        "lhs": lhs[-1], "rhs": rhs[-1],
    }


def verify_higher_stokes(conn: TwoConnection, cubes,
                         steps_surface: int = 48, steps_volume: int = 32) -> list:
    """For each cube of a stack, compare the quotient of the 2-transports
    of its two end bigons with the plain exponential of the 3-curvature
    integral over the cube.

    The quotient h0^-1 h1 lies in ker t (central), so the right-hand side is
    exp of an ordinary triple integral of the ker t_* projection of K.  The
    end bigons of all cubes take one surface solve; K runs cube by cube.
    """
    if not cubes:
        return []
    for cube in cubes:
        check_cube_boundaries(cube)
    fam = conn.family
    H = fam.group_H
    ends = surface_values(conn, [cube.slice_first(s) for cube in cubes
                                 for s in (0.0, 1.0)], None, steps_surface)
    mesh, weights = _simpson_grid(steps_volume, 3)
    reps = []
    for cube, h0, h1 in zip(cubes, ends[0::2], ends[1::2]):
        lhs = H.mul(H.inv(h0), h1)
        x, dx = cube.jet(mesh)
        kvals = conn.K_of(x, *dx.swapaxes(0, 1))
        del x, dx       # else the next cube's jet is made while they live
        bianchi = float(np.max(np.abs(fam.l2a.apply_t_star(kvals))))
        integral = weights @ fam.l2a.project_ker_t_star(kvals)
        rhs = H.exp(fam.l2a.h_alg.to_matrix(SURFACE_ODE_SIGN * integral))
        reps.append({"defect": float(np.max(np.abs(lhs - rhs))),
                     "lhs": lhs, "rhs": rhs, "bianchi_defect": bianchi,
                     "kernel_defect": float(np.max(np.abs(
                         fam.cm.t(lhs) - fam.group_G.identity)))})
    return reps


# --- reconstruction -----------------------------------------------------------------


def reconstruct_A(conn: TwoConnection, x, X, steps: int = 16,
                  eps: float = 1e-3) -> np.ndarray:
    """Recover a_x(X) from 1-transport along shrinking straight rays.

    Central differences of log tra(gamma_t) with one Richardson level;
    by the transport ODE the derivative at 0 is -a_x(X), so the negated
    difference reproduces the connection coefficient vector.  x and X
    broadcast over leading axes, and every point takes the same solve.
    """
    batch, (x, X) = _broadcast_points(x, X)
    # the rays +-h X of both levels h = eps/2, eps at every point
    hs = np.array([eps / 2.0, eps])
    rays = [straight_path(p, p + t * V) for p, V in zip(x, X)
            for h in hs for t in (h, -h)]
    logs = conn.family.group_G.log(_path_values(conn, rays, [steps])[0])
    logs = logs.reshape((-1, 2, 2) + logs.shape[1:])
    central = (logs[:, :, 0] - logs[:, :, 1]) / (2.0 * hs)[:, None, None]
    d = (4.0 * central[:, 0] - central[:, 1]) / 3.0
    return conn.family.l2a.g_alg.from_matrix(-d.reshape(batch + d.shape[1:]))


def _broadcast_points(*vectors):
    """The leading shape of broadcast (..., d) arrays, and each as (N, d)."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in vectors))
    return arrays[0].shape[:-1], [a.reshape(-1, a.shape[-1]) for a in arrays]


_LENS_AMPLITUDE = 0.25


@functools.cache
def _lens_bigon():
    """Analytic bigon (v, v - k sin(pi v)) => (v, v + k sin(pi v)) in I^2.

    It is analytic, so quadrature converges with tiny constants; its
    oriented flux in the (u, v) parameters is exactly -4k/pi times the
    unit-square area form.
    """
    return ParamMap.from_exprs(
        ["v", f"v + {_LENS_AMPLITUDE}*(2*u - 1)*sin(pi*v)"], 2, name="lens")


def reconstruct_B(conn: TwoConnection, x, X, Y, steps: int = 16,
                  eps: float = 1e-3) -> np.ndarray:
    """Recover b_x(X, Y) from 2-transport over shrinking bigon families.

    f(s, t) = log of the H part of the 2-transport over the lens bigon
    mapped onto the parallelogram spanned by sX and tY at x; the mixed
    second derivative at the origin (central stencil plus one Richardson
    level) picks out the st coefficient, which is b_x(X, Y) times the
    analytic flux factor of the lens.  Any smooth filling family whose
    s = 0 and t = 0 members degenerate gives the same derivative; the lens
    family is analytic and keeps quadrature error far below the stencil
    amplification.  x, X and Y broadcast over leading axes, and every
    point takes one solve.
    """
    batch, (x, X, Y) = _broadcast_points(x, X, Y)
    fam = conn.family
    alg = fam.l2a.h_alg
    base, flux_factor = _lens_bigon(), 4.0 * _LENS_AMPLITUDE / math.pi

    # the stencil bigons (+-h, +-h) of both levels h = eps/2, eps, all points
    hs = np.array([eps / 2.0, eps])
    bigons = [base.affine_image(p, np.stack([s * U, t * V]))
              for p, U, V in zip(x, X, Y)
              for h in hs for s, t in ((h, h), (h, -h), (-h, h), (-h, -h))]
    logs = fam.group_H.log(surface_values(conn, bigons, None, steps))
    logs = logs.reshape((-1, 2, 4) + logs.shape[1:])
    mixed = ((logs[:, :, 0] - logs[:, :, 1] - logs[:, :, 2] + logs[:, :, 3])
             / (4.0 * hs * hs)[:, None, None])
    d = (4.0 * mixed[:, 0] - mixed[:, 1]) / 3.0
    return alg.from_matrix(d.reshape(batch + d.shape[1:]) / flux_factor)


# --- 2-holonomy ---------------------------------------------------------------------


def holonomy2_H(conn: TwoConnection, bigons, steps: int = 48) -> list:
    """H-valued 2-holonomies of a stack of loop-to-loop bigons at the
    identity frame over their basepoint, one report each, from one batched
    surface solve.

    Source and target of each bigon must be loops at a common basepoint.
    When they are the same loop pointwise, the report carries the value's
    distance from ker t as ``kernel_defect``.
    """
    corner_params = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    for bigon in bigons:
        corners = bigon(corner_params)
        spread = float(np.max(np.abs(corners - corners[0])))
        if spread > 1e-9:
            raise DomainError(
                f"bigon boundary paths are not loops at one basepoint "
                f"(corner spread {spread:.3e})")
    fam = conn.family
    v = np.linspace(0.0, 1.0, 17)
    out = []
    for bigon, value in zip(bigons, surface_values(conn, bigons, None, steps)):
        src = bigon(np.stack([np.zeros_like(v), v], axis=-1))
        tgt = bigon(np.stack([np.ones_like(v), v], axis=-1))
        rep = {"value": value, "same_loop": float(np.max(np.abs(src - tgt))) <= 1e-9,
               "group_defect": fam.group_H.membership_defect(value)}
        if rep["same_loop"]:
            rep["kernel_defect"] = float(np.max(np.abs(fam.cm.t(value)
                                                       - fam.group_G.identity)))
        out.append(rep)
    return out


@functools.cache
def _loop_bigon_family():
    """Loop-to-loop bigon cube in I^3 -> R^3: its slices share the boundary
    loop w -> (sin(pi w), sin(2 pi w) / 2, 0); callers place it by an
    affine image.  For u > 0 the slice's loops trace a closed curve in v
    (not out and back the same way), so they sweep out a volume and its
    2-holonomy need not be trivial."""
    return ParamMap.from_exprs(
        ["sin(pi*w) + 0.5*u*sin(pi*w)^2*sin(2*pi*v)", "0.5*sin(2*pi*w)",
         "u*sin(pi*w)^2*sin(pi*v)"], 3, name="loop-bigon-family")


def ambrose_singer_check(conn: TwoConnection, rng=None,
                         n_paths: int = 6, n_bigons: int = 6,
                         steps: int = 48, amplitude: float = 0.35) -> dict:
    """Compare the span of sampled 3-curvature values with 2-holonomy logs.

    Builds S = span{ker t_* part of K_x(X, Y, Z)} over random points x
    around the chart point x0 = (0.5, ..., 0.5) and random tangent triples
    (the samples are taken in the trivialization, at the identity frame),
    then measures how far (i) the logs of sampled reduced 2-holonomies lie
    from S and (ii) finite-difference derivatives of a 2-holonomy family
    lie from the double integral of K, at the scale ``holonomy_scale``.
    """
    rng = rng or np.random.default_rng(0)
    fam = conn.family
    d = conn.chart.dim
    x0 = np.full(d, 0.5)

    # span of curvature samples around x0, in one evaluation
    points, tangents = [], []
    for _ in range(n_paths):
        points += [x0 + amplitude * rng.uniform(-1.0, 1.0, size=d)] * 3
        tangents.append(rng.standard_normal((3, 3, d)))
    X, Y, Z = np.concatenate(tangents).swapaxes(0, 1)
    kmat = fam.l2a.project_ker_t_star(conn.K_of(np.stack(points), X, Y, Z))
    scale = float(np.max(np.abs(kmat))) if kmat.size else 0.0
    if scale > 1e-12:
        u, s, vh = np.linalg.svd(kmat / scale)
        rank = int(np.sum(s > 1e-8 * max(kmat.shape)))
        basis = vh[:rank]
    else:
        rank, basis = 0, np.zeros((0, kmat.shape[1]))

    def hol_logs(bigons):
        values = [hol["value"] for hol in holonomy2_H(conn, bigons, steps)]
        return fam.l2a.h_alg.from_matrix(fam.group_H.log(np.stack(values)))

    # reduced 2-holonomies and their containment in the span
    frame = np.eye(d)
    bigons = []
    for _ in range(n_bigons):
        idx = rng.permutation(d)[:3] if d >= 3 else np.arange(d)
        dirs = [frame[i] for i in idx[:3]] if d >= 3 else [frame[0], frame[-1], frame[0]]
        cube = _loop_bigon_family().affine_image(
            x0, amplitude * rng.uniform(0.5, 1.0) * np.stack(dirs))
        bigons.append(cube.slice_first(1.0))
    logs = hol_logs(bigons)
    residual = float(np.max(np.abs(logs - (logs @ basis.T) @ basis)))
    hol_scale = max(float(np.max(np.abs(logs))), 1e-30)

    if rank == 0 and hol_scale > 1e-7:
        raise SamplingError(
            "curvature sampling spanned nothing, but 2-holonomies are "
            f"nonzero (scale {hol_scale:.2e}); enlarge the sample plan")

    # converse: d/dr log hol(r) matches the K double integral over the slice
    dirs = [frame[i % d] for i in range(3)]
    cube = _loop_bigon_family().affine_image(x0, amplitude * np.stack(dirs))
    r0, dr = 0.5, 1e-3
    up, down = hol_logs([cube.slice_first(r0 + dr), cube.slice_first(r0 - dr)])
    fd = (up - down) / (2.0 * dr)
    nodes, weights = _simpson_grid(steps, 2)
    mesh = np.concatenate([np.full((len(nodes), 1), r0), nodes], axis=-1)
    x, dx = cube.jet(mesh)
    kvals = conn.K_of(x, *dx.swapaxes(0, 1))
    integral = weights @ fam.l2a.project_ker_t_star(kvals)
    derivative_defect = float(np.max(np.abs(fd - SURFACE_ODE_SIGN * integral)))

    return {
        "span_rank": rank,
        "span_basis": basis,
        "containment_residual": residual,
        "derivative_defect": derivative_defect,
        "holonomy_scale": hol_scale,
    }
