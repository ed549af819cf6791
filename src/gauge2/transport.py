"""Path-ordered exponentials, surface transport and the Stokes verifiers.

1-transport solves g'(t) = -a(gamma'(t)) g(t) with a 4th-order
commutator-free Lie-group integrator: per step of size s two Gauss-node
evaluations A_i = s*W(t + c_i s) are combined into two exponentials,

    g_{k+1} = exp(b A_1 + a A_2) exp(a A_1 + b A_2) g_k,
    a = 1/4 + sqrt(3)/6,  b = 1/4 - sqrt(3)/6,

in one kernel batched over independent solves.  The running product is
not re-projected per step; what the kernel returns (the end value or the
step-boundary frames) is polar-projected onto the group manifold once.
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

Batch axes: path solves take a stack of paths, (times, paths, n, n).
:func:`surface_values` solves a stack of bigons with shared step counts,
paired by broadcasting with a stack of basepoint frames, in one outer
solve; each outer stage lifts every slice of every bigon in one kernel
call (the 2-form is evaluated per bigon).  Boundary 1-transports are
computed only where they are reported (:func:`surface_transport`, the
Stokes verifier), source and target in one path solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ComposabilityError, DomainError, SamplingError
from .forms import TwoConnection
from .geometry import ParamMap, canonical_bigon, source_path, straight_path, target_path

__all__ = [
    "TransportResult", "SurfaceTransportResult",
    "path_ordered_exp", "transport_point", "horizontal_lift",
    "surface_transport", "surface_values", "verify_nonabelian_stokes",
    "verify_higher_stokes", "reconstruct_A", "reconstruct_B", "holonomy2_H",
    "ambrose_singer_check",
    "SURFACE_ODE_SIGN", "convergence_order",
]

# Pinned by the abelian closed form and the target identity; see the tests
# and the module docstring.  The higher-Stokes exponent and both
# reconstruction formulas all inherit this single choice.
SURFACE_ODE_SIGN = -1.0

_CF4_A = 0.25 + math.sqrt(3.0) / 6.0
_CF4_B = 0.25 - math.sqrt(3.0) / 6.0
_GAUSS_C1 = 0.5 - math.sqrt(3.0) / 6.0
_GAUSS_C2 = 0.5 + math.sqrt(3.0) / 6.0


@dataclass
class TransportResult:
    """Group element with integrator diagnostics."""

    value: np.ndarray
    steps: int
    group_defect: float
    order_estimate: float | None = None


@dataclass
class SurfaceTransportResult:
    """Surface transport: the H value plus the boundary 1-transports."""

    value_h: np.ndarray
    source_transport: np.ndarray
    target_transport: np.ndarray
    steps_s: int
    steps_t: int
    group_defect: float
    order_estimate: float | None = None

    def target_identity_defect(self, family) -> float:
        """|t(value_h) - target : source|, the fake-flat functoriality check."""
        G = family.group_G
        expected = G.mul(G.inv(self.source_transport), self.target_transport)
        return float(np.max(np.abs(family.cm.t(self.value_h) - expected)))


def _ordered_exp(group, w_eval, steps: int, trajectory=False, right=False):
    """Solve g' = W(t) g (``right``: g' = g W(t)), g(0) = id, on [0, 1].

    ``w_eval`` maps (k,) times to (k, *batch, n, n) algebra matrices;
    every batch member is integrated in the same loop over the CF4 steps.
    Returns the (*batch, n, n) end value or, with ``trajectory``, the
    (steps + 1, *batch, n, n) step-boundary frames, projected once.
    """
    h = 1.0 / steps
    t0 = np.arange(steps) * h
    w1 = np.asarray(w_eval(t0 + _GAUSS_C1 * h))
    w2 = np.asarray(w_eval(t0 + _GAUSS_C2 * h))
    # w1 and w2 are freed before the exponentials, for the peak memory
    args = [h * (_CF4_A * w1 + _CF4_B * w2), h * (_CF4_B * w1 + _CF4_A * w2)]
    del w1, w2
    e_first, e_second = group.exp(args.pop(0)), group.exp(args.pop())
    g = np.broadcast_to(group.identity, e_first.shape[1:])
    if trajectory:
        frames = np.empty((steps + 1,) + g.shape, e_first.dtype)
        frames[0] = g
    for k in range(steps):
        g = (group.mul(group.mul(g, e_first[k]), e_second[k]) if right
             else group.mul(e_second[k], group.mul(e_first[k], g)))
        if trajectory:
            frames[k + 1] = g
    del e_first, e_second       # before the projection's temporaries
    return group.project(frames if trajectory else g)


def convergence_order(defects):
    """log2 ratio of successive defects; noise floor clamps at zero defect."""
    return [float("nan") if d1 <= 1e-15 or d0 <= 1e-15 else math.log2(d0 / d1)
            for d0, d1 in zip(defects, defects[1:])]


# --- 1-transport -----------------------------------------------------------------


def _frame(conn: TwoConnection, p):
    """The frame g0 of a point p = (x, g0); the identity for None."""
    return conn.family.group_G.identity if p is None else np.asarray(p[1])


def _sample_paths(paths, times):
    """Points and velocities of a stack of paths at the given times, each
    one (times * paths, d) batch with the paths innermost."""
    params = times[:, None]
    points = np.stack([gamma(params) for gamma in paths], axis=1)
    vel = np.stack([gamma.partial(0, params) for gamma in paths], axis=1)
    return points.reshape(-1, points.shape[-1]), vel.reshape(-1, vel.shape[-1])


def _path_generator(conn: TwoConnection, paths):
    """W(t) = -a(gamma'(t)) of a stack of paths as (times, paths, n, n)
    algebra matrices."""
    alg = conn.family.l2a.g_alg
    n = conn.family.group_G.dim

    def w_eval(times):
        vec = conn.a_of(*_sample_paths(paths, times))
        return alg.to_matrix(-vec).reshape(times.size, len(paths), n, n)

    return w_eval


def _path_values(conn: TwoConnection, paths, steps: int):
    """End values (paths, n, n) of g' = -a(gamma') g, g(0) = id."""
    if steps < 8:
        raise DomainError("path transport needs at least 8 steps")
    return _ordered_exp(conn.family.group_G, _path_generator(conn, paths), steps)


def path_ordered_exp(conn: TwoConnection, gamma: ParamMap, steps: int = 64,
                     sweep: int = 0) -> TransportResult:
    """Transport frame along gamma: solution at t=1 of g' = -a(gamma') g."""
    group = conn.family.group_G
    value = _path_values(conn, [gamma], steps)[0]
    order = None
    if sweep >= 2:
        w_eval = _path_generator(conn, [gamma])
        defects = [float(np.max(np.abs(_ordered_exp(group, w_eval, steps // 2 ** k)[0]
                                       - value))) for k in range(sweep, 0, -1)]
        orders = convergence_order(defects)
        order = orders[-1] if orders else None
    return TransportResult(value=value, steps=steps,
                           group_defect=group.membership_defect(value),
                           order_estimate=order)


def transport_point(conn: TwoConnection, gamma: ParamMap, p=None,
                    steps: int = 64):
    """Image of the trivialized point p = (gamma(0), g0) under transport."""
    return _path_values(conn, [gamma], steps)[0] @ _frame(conn, p)


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
    w_eval = _path_generator(conn, [gamma])
    frames = _ordered_exp(conn.family.group_G, w_eval, steps, trajectory=True)
    return np.linspace(0.0, 1.0, steps + 1), frames[:, 0] @ _frame(conn, p)


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
    axis = np.linspace(0.0, 1.0, n + 1)
    nodes = np.stack(np.meshgrid(*[axis] * arity, indexing="ij"), axis=-1)
    weights = functools.reduce(np.multiply.outer, [w] * arity)
    return nodes.reshape(-1, arity), weights.reshape(-1)


def _surface_generator(conn: TwoConnection, bigons, g0, steps_t: int,
                       integrand: str):
    """Outer-ODE driver beta(s) of a stack of bigons for surface transport
    ('b') or the curvature double integral of the Stokes theorem ('F'),
    paired with a frame g0 or a stack of them: (k,) -> (k, stack, n, n)."""
    fam = conn.family
    G = fam.group_G
    g_alg = fam.l2a.g_alg
    d = conn.chart.dim
    t_nodes, weights = _simpson_grid(steps_t)
    t_nodes = t_nodes[:, 0]
    if integrand == "b":
        alg = fam.l2a.h_alg
        form_of, conj = conn.b_of, fam.alpha_vec
    else:
        alg = g_alg
        form_of, conj = conn.F_of, fam.ad_g_vec

    def sample(t_values, s_values, axes, stack):
        # each bigon of the stack (axis None) or its partials at the (s, t)
        # parameters of every slice, t-major and bigons innermost
        s, t = np.meshgrid(s_values, t_values)
        params = np.stack([s.ravel(), t.ravel()], axis=-1)
        return [np.stack([bg(params) if ax is None else bg.partial(ax, params)
                          for bg in stack], axis=1).reshape(-1, d)
                for ax in axes]

    def beta(s_values):
        s_values = np.atleast_1d(s_values)
        k = s_values.size

        def lift_generator(times):
            # W = -a(d_t Gamma) of every slice Gamma(s, .) at the given times
            vec = conn.a_of(*sample(times, s_values, (None, 1), bigons))
            return g_alg.to_matrix(-vec).reshape(times.size, k, len(bigons),
                                                 G.dim, G.dim)

        inv_frames = G.inv(G.mul(_ordered_exp(G, lift_generator, steps_t,
                                              trajectory=True), g0))
        out = []
        for j, bigon in enumerate(bigons):
            # the form and its conjugation one bigon at a time: a larger
            # batch is no faster there, and its temporaries grow with it
            vals = form_of(*sample(t_nodes, s_values, (None, 0, 1), [bigon]))
            vals = conj(inv_frames[:, :, j:j + 1] if len(bigons) > 1 else inv_frames,
                        vals.reshape(steps_t + 1, k, 1, -1))
            out.append(np.tensordot(weights, vals, axes=1))
        return alg.to_matrix(SURFACE_ODE_SIGN * np.concatenate(out, axis=1))

    return beta


def surface_values(conn: TwoConnection, bigons, p=None, steps_s: int = 32,
                   steps_t: int = 32) -> np.ndarray:
    """H values (stack, n, n) of the 2-transports of a stack of bigons at
    p = (x0, g0), in one outer solve; g0 may be a stack of frames, paired
    with the bigons by broadcasting.  No boundary transport is computed."""
    if p is not None:
        d = max(float(np.max(np.abs(bg([0.0, 0.0]) - p[0]))) for bg in bigons)
        if d > 1e-9:
            raise DomainError(f"basepoint is not over the bigon corner ({d:.2e})")
    beta = _surface_generator(conn, bigons, _frame(conn, p), steps_t, "b")
    return _ordered_exp(conn.family.group_H, beta, steps_s, right=True)


def _boundary_transports(conn: TwoConnection, bigon: ParamMap, g0, steps):
    """tra(source) g0 and tra(target) g0 of a bigon, in one path solve."""
    paths = [source_path(bigon), target_path(bigon)]
    return conn.family.group_G.mul(_path_values(conn, paths, steps), g0)


def surface_transport(conn: TwoConnection, bigon: ParamMap, p=None,
                      steps_s: int = 32, steps_t: int = 32,
                      sweep: int = 0) -> SurfaceTransportResult:
    """2-transport of a bigon: H-valued ordered double integral of b, and
    the boundary 1-transports (:func:`surface_values`: values only).

    Functorial guarantees need a fake-flat connection (callers may verify
    with :func:`gauge2.forms.fake_flatness_residual`).  With ``sweep`` >= 2
    the value is recomputed under step halving for an order estimate; an
    observed order below 1.5 raises AccuracyError.
    """
    def run(ns, nt):
        return surface_values(conn, [bigon], p, ns, nt)[0]

    value = run(steps_s, steps_t)
    order = None
    if sweep >= 2:
        vals = [run(max(steps_s // 2 ** k, 2), max(steps_t // 2 ** k, 2))
                for k in range(sweep, 0, -1)] + [value]
        defects = [float(np.max(np.abs(v - value))) for v in vals[:-1]]
        orders = [o for o in convergence_order(defects) if not math.isnan(o)]
        order = orders[-1] if orders else None
        if order is not None and order < 1.5:
            raise AccuracyError(
                f"surface quadrature did not converge (order {order:.2f})")

    src, tgt = _boundary_transports(conn, bigon, _frame(conn, p), steps_t)
    return SurfaceTransportResult(
        value_h=value, source_transport=src, target_transport=tgt,
        steps_s=steps_s, steps_t=steps_t,
        group_defect=conn.family.group_H.membership_defect(value),
        order_estimate=order)


def verify_nonabelian_stokes(conn: TwoConnection, bigon: ParamMap, p=None,
                             steps: int = 64, sweep: int = 0) -> dict:
    """Compare tra(target) : tra(source) with the ordered double integral
    of the curvature over the bigon (horizontal lift per slice)."""
    G = conn.family.group_G
    g0 = _frame(conn, p)

    def run(n):
        beta = _surface_generator(conn, [bigon], g0, n, "F")
        rhs = _ordered_exp(G, beta, n, right=True)[0]
        src, tgt = _boundary_transports(conn, bigon, g0, n)
        lhs = G.mul(G.inv(src), tgt)
        return float(np.max(np.abs(lhs - rhs))), lhs, rhs

    rows = [(n, run(n)[0])
            for n in (max(steps // 2 ** k, 4) for k in range(sweep, 0, -1))]
    defect, lhs, rhs = run(steps)
    rows.append((steps, defect))
    orders = convergence_order([r[1] for r in rows])
    return {
        "defect": defect,
        "rows": [{"steps": n, "defect": d} for n, d in rows],
        "orders": orders,
        "order": orders[-1] if orders else None,
        "lhs": lhs, "rhs": rhs,
    }


def _check_cube_boundaries(cube: ParamMap, tol=1e-9, samples=9):
    """Slices of the cube must be bigons between common boundary paths."""
    axis = np.linspace(0.0, 1.0, samples)
    uu, vv = (m.reshape(-1) for m in np.meshgrid(axis, axis, indexing="ij"))
    for fixed_axis, label in ((1, "source/target paths"), (2, "path endpoints")):
        for value in (0.0, 1.0):
            params = np.zeros((uu.size, 3))
            params[:, 0] = uu
            params[:, fixed_axis] = value
            params[:, 3 - fixed_axis] = vv
            # the same point on the u = 0 slice
            d = float(np.max(np.abs(cube(params) - cube(params * [0, 1, 1]))))
            if d > tol:
                raise ComposabilityError(
                    f"cube slices disagree on {label} at face {value:g} "
                    f"(defect {d:.3e})", mismatch=d)


def verify_higher_stokes(conn: TwoConnection, cube: ParamMap, p=None,
                         steps_surface: int = 48, steps_volume: int = 32) -> dict:
    """Compare the quotient of the 2-transports of the two end bigons with
    the plain exponential of the 3-curvature integral over the cube.

    The quotient h0^-1 h1 lies in ker t (central), so the right-hand side is
    exp of an ordinary triple integral of the ker t_* projection of K.
    """
    _check_cube_boundaries(cube)
    fam = conn.family
    h0, h1 = surface_values(conn, [cube.slice_first(0.0), cube.slice_first(1.0)],
                            p, steps_surface, steps_surface)
    lhs = fam.group_H.mul(fam.group_H.inv(h0), h1)

    mesh, weights = _simpson_grid(steps_volume, 3)
    kvals = conn.K_of(cube(mesh), *(cube.partial(k, mesh) for k in range(3)))
    bianchi = float(np.max(np.abs(fam.l2a.apply_t_star(kvals))))
    integral = weights @ fam.l2a.project_ker_t_star(kvals)
    rhs = fam.group_H.exp(fam.l2a.h_alg.to_matrix(SURFACE_ODE_SIGN * integral))
    defect = float(np.max(np.abs(lhs - rhs)))
    return {"defect": defect, "lhs": lhs, "rhs": rhs,
            "bianchi_defect": bianchi,
            "kernel_defect": float(np.max(np.abs(fam.cm.t(lhs)
                                                 - fam.group_G.identity)))}


# --- reconstruction -----------------------------------------------------------------


def reconstruct_A(conn: TwoConnection, x, X, steps: int = 16,
                  eps: float = 1e-3) -> np.ndarray:
    """Recover a_x(X) from 1-transport along shrinking straight rays.

    Central differences of log tra(gamma_t) with one Richardson level;
    by the transport ODE the derivative at 0 is -a_x(X), so the negated
    difference reproduces the connection coefficient vector.
    """
    x, X = (np.asarray(z, dtype=float) for z in (x, X))
    # the rays +-h X of both levels h = eps/2, eps in one path solve
    hs = np.array([eps / 2.0, eps])
    rays = [straight_path(x, x + t * X) for h in hs for t in (h, -h)]
    logs = conn.family.group_G.log(_path_values(conn, rays, steps))
    logs = logs.reshape((2, 2) + logs.shape[1:])
    central = (logs[:, 0] - logs[:, 1]) / (2.0 * hs)[:, None, None]
    d = (4.0 * central[0] - central[1]) / 3.0
    return conn.family.l2a.g_alg.from_matrix(-d)


_LENS_AMPLITUDE = 0.25


def _lens_bigon():
    """Analytic bigon (v, v - k sin(pi v)) => (v, v + k sin(pi v)) in I^2.

    Unlike the corner filling it needs no smoothing step, so quadrature
    converges with tiny constants; its oriented flux in the (u, v)
    parameters is exactly -4k/pi times the unit-square area form.
    """
    k = _LENS_AMPLITUDE

    def fn(params):
        u, v = params[..., 0], params[..., 1]
        return np.stack([v, v + (2.0 * u - 1.0) * k * np.sin(np.pi * v)], axis=-1)

    return ParamMap(2, 2, fn, name="lens")


def reconstruct_B(conn: TwoConnection, x, X, Y, steps: int = 16,
                  eps: float = 1e-3, filling: str = "lens") -> np.ndarray:
    """Recover b_x(X, Y) from 2-transport over shrinking bigon families.

    f(s, t) = log of the H part of the 2-transport over a bigon filling
    the parallelogram spanned by sX and tY at x; the mixed second
    derivative at the origin (central stencil plus one Richardson level)
    picks out the st coefficient, which is b_x(X, Y) times the analytic
    flux factor of the filling.  Any smooth filling family whose s = 0 and
    t = 0 members degenerate gives the same derivative; the default lens
    family is analytic and keeps quadrature error far below the stencil
    amplification, while "square" uses the canonical corner filling.
    """
    x, X, Y = (np.asarray(z, dtype=float) for z in (x, X, Y))
    fam = conn.family
    alg = fam.l2a.h_alg
    if filling == "lens":
        base, flux_factor = _lens_bigon(), 4.0 * _LENS_AMPLITUDE / math.pi
    elif filling == "square":
        base, flux_factor = canonical_bigon(1.0, 1.0), 1.0
    else:
        raise DomainError(f"unknown filling {filling!r}")

    # the stencil bigons (+-h, +-h) of both levels h = eps/2, eps in one solve
    hs = np.array([eps / 2.0, eps])
    bigons = [base.affine_image(x, np.stack([s * X, t * Y]))
              for h in hs for s, t in ((h, h), (h, -h), (-h, h), (-h, -h))]
    logs = fam.group_H.log(surface_values(conn, bigons, None, steps, steps))
    logs = logs.reshape((2, 4) + logs.shape[1:])
    mixed = ((logs[:, 0] - logs[:, 1] - logs[:, 2] + logs[:, 3])
             / (4.0 * hs * hs)[:, None, None])
    d = (4.0 * mixed[0] - mixed[1]) / 3.0
    return alg.from_matrix(d / flux_factor)


# --- 2-holonomy ---------------------------------------------------------------------


def holonomy2_H(conn: TwoConnection, bigons, p=None, steps: int = 48,
                kernel_tol=1e-7) -> list:
    """H-valued 2-holonomies of a stack of loop-to-loop bigons at the
    basepoint, one report each, from one batched surface solve.

    Source and target of each bigon must be loops at a common basepoint.
    When they are the same loop pointwise, the value is asserted to lie in
    ker t up to ``kernel_tol``.
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
    for bigon, value in zip(bigons, surface_values(conn, bigons, p, steps, steps)):
        src = bigon(np.stack([np.zeros_like(v), v], axis=-1))
        tgt = bigon(np.stack([np.ones_like(v), v], axis=-1))
        rep = {"value": value, "same_loop": float(np.max(np.abs(src - tgt))) <= 1e-9,
               "group_defect": fam.group_H.membership_defect(value)}
        if rep["same_loop"]:
            kd = float(np.max(np.abs(fam.cm.t(value) - fam.group_G.identity)))
            rep["kernel_defect"] = kd
            rep["kernel_pass"] = kd <= kernel_tol
        out.append(rep)
    return out


def _loop_bigon_family(x0, dirs, amp):
    """Loop-to-loop bigon cube at x0: slices share the same boundary loop."""
    d1, d2, d3 = dirs

    def fn(params):
        u, v, w = (params[..., i][..., None] for i in range(3))
        loop = (np.sin(np.pi * w) * d1 + np.sin(2 * np.pi * w) * 0.5 * d2)
        bump = np.sin(np.pi * w) ** 2 * (np.sin(np.pi * v) ** 2) * d3
        return x0 + amp * (loop + u * bump)

    return ParamMap(3, x0.shape[0], fn, name="loop-bigon-family")


def ambrose_singer_check(conn: TwoConnection, p=None, rng=None,
                         n_paths: int = 6, n_bigons: int = 6,
                         steps: int = 48, span_tol: float = 1e-5,
                         derivative_tol: float = 1e-4,
                         amplitude: float = 0.35) -> dict:
    """Compare the span of sampled 3-curvature values with 2-holonomy logs.

    Builds S = span{ker t_* part of K_x(X, Y, Z)} over random points x
    around the basepoint and random tangent triples (the samples are taken
    in the trivialization, not conjugated by a frame),
    then checks (i) the log of every sampled reduced 2-holonomy lies in S
    and (ii) finite-difference derivatives of 2-holonomy families
    reproduce the double integral of K.
    """
    rng = rng or np.random.default_rng(0)
    fam = conn.family
    d = conn.chart.dim
    x0 = np.asarray(p[0], dtype=float) if p is not None else np.full(d, 0.5)

    # span of curvature samples at random points around the basepoint
    kvecs = []
    for _ in range(n_paths):
        x = x0 + amplitude * rng.uniform(-1.0, 1.0, size=d)
        # a discarded draw, which keeps the seeded draws that follow
        rng.uniform(-1.0, 1.0, size=d)
        for _ in range(3):
            X, Y, Z = (rng.standard_normal(d) for _ in range(3))
            kv = conn.K_of(x[None, :], X, Y, Z)[0]
            kvecs.append(fam.l2a.project_ker_t_star(kv))
    kmat = np.stack(kvecs)
    scale = float(np.max(np.abs(kmat))) if kmat.size else 0.0
    if scale > 1e-12:
        u, s, vh = np.linalg.svd(kmat / scale)
        rank = int(np.sum(s > 1e-8 * max(kmat.shape)))
        basis = vh[:rank]
    else:
        rank, basis = 0, np.zeros((0, kmat.shape[1]))

    def hol_logs(bigons):
        values = [hol["value"] for hol in holonomy2_H(conn, bigons, p, steps)]
        return fam.l2a.h_alg.from_matrix(fam.group_H.log(np.stack(values)))

    # reduced 2-holonomies and their containment in the span
    frame = np.eye(d)
    bigons = []
    for _ in range(n_bigons):
        idx = rng.permutation(d)[:3] if d >= 3 else np.arange(d)
        dirs = [frame[i] for i in idx[:3]] if d >= 3 else [frame[0], frame[-1], frame[0]]
        cube = _loop_bigon_family(x0, dirs, amplitude * rng.uniform(0.5, 1.0))
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
    cube = _loop_bigon_family(x0, dirs, amplitude)
    r0, dr = 0.5, 1e-3
    up, down = hol_logs([cube.slice_first(r0 + dr), cube.slice_first(r0 - dr)])
    fd = (up - down) / (2.0 * dr)
    nodes, weights = _simpson_grid(steps, 2)
    mesh = np.concatenate([np.full((len(nodes), 1), r0), nodes], axis=-1)
    kvals = conn.K_of(cube(mesh), *(cube.partial(k, mesh) for k in range(3)))
    integral = weights @ fam.l2a.project_ker_t_star(kvals)
    derivative_defect = float(np.max(np.abs(fd - SURFACE_ODE_SIGN * integral)))

    return {
        "span_rank": rank,
        "span_basis": basis,
        "containment_residual": residual,
        "containment_pass": residual <= span_tol * (1.0 + hol_scale),
        "derivative_defect": derivative_defect,
        "derivative_pass": derivative_defect <= derivative_tol * (1.0 + hol_scale),
        "holonomy_scale": hol_scale,
    }
