"""Gauge 1-morphisms, their action on connections, and 2-morphisms.

A 1-morphism is stored as a gauge function g: chart -> G together with an
h-valued 1-form phi.  The associated equivariant bundle map on the trivial
bundle is F(x, k) = (x, g(x)^-1 k); with that convention the transformed
connection

    a' = Ad_{g^-1}(a + dg g^-1 + t_* phi)
    b' = (alpha_{g^-1})_*(b + d phi + 1/2 [phi, phi] + alpha_*(a ^ phi))

satisfies F^*A' = A + t_* phi on the nose, and the natural-transformation
data of the induced transport morphism is the ordered integral of phi
along horizontal lifts.

The 2-morphism transformation rule circulates in two variants whose
trailing terms differ in sign; they are inverse parameterizations of the
same transformation and pair with different updates of the gauge
function.  Both are implemented (``form`` argument of
:func:`apply_twomorphism`); the consistent pairings are

    definition:  g' = t(a) g,     phi' = Ad_a phi - (r_{a^-1} alpha_a)_* A - (da) a^-1
    lemma:       g' = t(a)^-1 g,  the same formula applied through a -> a^-1
                                  (trailing term +a^-1 da),

and the compatibility verifier is the arbiter: each pairing passes it,
while combining g' = t(a) g with the +da a^-1 trailing term does not.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .families import MatrixFamily
from .fields import (CoefficientField, GroupValuedField, chart_grid,
                     partial_diff, tensor_field)
from .forms import TwoConnection
from .geometry import Chart, ParamMap, source_path, target_path
from .transport import _frame, _ordered_exp, _sample_paths, surface_values

__all__ = ["OneMorphism", "TwoMorphismA", "gauge_transform", "rho_from_phi",
           "verify_onemorphism_compat", "apply_twomorphism",
           "compose_onemorphisms", "vertical_compose_twomorphisms",
           "horizontal_compose_twomorphisms"]


class OneMorphism:
    """Gauge 1-morphism (g, phi) on a chart.

    ``g_map`` is the G-valued gauge function (bundle map k -> g(x)^-1 k);
    ``phi`` is an h-valued 1-form given as (d, dim_h) coefficient fields or
    a tensor callable.
    """

    def __init__(self, family: MatrixFamily, chart: Chart, g_map, phi,
                 name="morphism"):
        self.family = family
        self.chart = chart
        self.name = name
        d = chart.dim
        dim_h = family.l2a.h_alg.dim
        if not isinstance(g_map, GroupValuedField):
            g_map = GroupValuedField(
                family.group_G, family.l2a.g_alg,
                CoefficientField(g_map, d, (family.l2a.g_alg.dim,)),
                name=f"{name}.g")
        self.g_map = g_map
        self._phi = tensor_field(phi, d, (d, dim_h), "phi")

    def phi_coeffs(self, points):
        """(N, d, dim_h) coefficient tensor of phi."""
        return self._phi(np.atleast_2d(np.asarray(points, dtype=float)))

    def phi_of(self, points, X):
        return np.einsum("...kh,...k->...h", self.phi_coeffs(points),
                         np.asarray(X, dtype=float))

    def map_point(self, p):
        """Bundle map applied to p = (x, k): returns (x, g(x)^-1 k)."""
        x, k = p
        ginv = self.family.group_G.inv(self.g_map(np.atleast_2d(x))[0])
        return (np.asarray(x, dtype=float), ginv @ np.asarray(k))

    def membership_defect(self, grid) -> float:
        return self.family.group_G.membership_defect(self.g_map(grid))


class TwoMorphismA:
    """2-morphism datum: an H-valued field on the chart."""

    def __init__(self, family: MatrixFamily, chart: Chart, a_map,
                 name="two-morphism"):
        self.family = family
        self.chart = chart
        self.name = name
        if not isinstance(a_map, GroupValuedField):
            a_map = GroupValuedField(
                family.group_H, family.l2a.h_alg,
                CoefficientField(a_map, chart.dim, (family.l2a.h_alg.dim,)),
                name=f"{name}.a")
        self.a_map = a_map

    def membership_defect(self, grid) -> float:
        return self.family.group_H.membership_defect(self.a_map(grid))


def gauge_transform(conn: TwoConnection, m: OneMorphism) -> TwoConnection:
    """Apply the gauge 1-morphism to the local connection data."""
    fam = conn.family
    l2a = fam.l2a
    d = conn.chart.dim
    pairs = conn.pairs
    g_field = m.g_map

    def new_a(points):
        n = points.shape[0]
        ginv = fam.group_G.inv(g_field(points))
        a = conn.a_coeffs(points)
        phi = m.phi_coeffs(points)
        rows = []
        for k in range(d):
            # dg g^-1, as g_field.right_log_derivative without a second g
            dlog = g_field.algebra.from_matrix(g_field.partial(points, k) @ ginv)
            term = a[:, k, :] + dlog + l2a.apply_t_star(phi[:, k, :])
            rows.append(fam.ad_g_vec(ginv, term))
        return np.stack(rows, axis=1).reshape(n, d, l2a.g_alg.dim)

    def new_b(points):
        ginv = fam.group_G.inv(g_field(points))
        a = conn.a_coeffs(points)
        b = conn._b_pairs(points)
        phi = m.phi_coeffs(points)
        dphi = np.stack([partial_diff(lambda p: m.phi_coeffs(p), points,
                                      k, d, conn.fd_step)
                         for k in range(d)], axis=1)
        cols = []
        for idx, (k, l) in enumerate(pairs):
            term = (b[:, idx, :]
                    + dphi[:, k, l, :] - dphi[:, l, k, :]
                    + l2a.h_alg.bracket(phi[:, k, :], phi[:, l, :])
                    + l2a.apply_alpha_star(a[:, k, :], phi[:, l, :])
                    - l2a.apply_alpha_star(a[:, l, :], phi[:, k, :]))
            cols.append(fam.alpha_vec(ginv, term))
        return np.stack(cols, axis=1)

    return TwoConnection(fam, conn.chart, a=new_a, b=new_b,
                         fd_step=conn.fd_step, name=f"{conn.name}^{m.name}")


def rho_from_phi(conn: TwoConnection, morphisms, paths, p=None,
                 steps: int = 64):
    """Natural-transformation data of a stack of morphisms along a stack of
    paths from p, (morphisms, paths, n, n): the ordered exponential of phi
    along the horizontal lift, the solution at 1 of

        h'(t) = -(alpha_{frame(t)^-1})_* phi(gamma'(t)) . h(t),  h(0) = e,

    with frame(t) = g(t) g0 the lift.  With W = -a(gamma') and alpha_g
    conjugation by rep(g), k = rep(frame) h solves the left-driven
    k' = (rep_*(W) - phi(gamma')) k and r = rep(frame) solves
    r' = rep_*(W) r, so h = r^-1 k; one ordered exponential in H solves r
    and every morphism's k from the identity, and conjugation by
    rep(g0)^-1 supplies the basepoint frame.  No lift is formed, so the
    sign of an SU(2) lift never enters.

    The minus sign is the phi convention under which the gauge transform
    carries +t_* phi; with it the value satisfies the naturality identity
    t(rho_H(gamma)(p)) = tra'_gamma(F(p)) : F(tra_gamma(p)) and the
    compatibility square of :func:`verify_onemorphism_compat`.  Over path
    concatenation it composes in inverted order,
    rho_H(gamma' gamma)(p) = rho_H(gamma')(tra_gamma(p)) . rho_H(gamma)(p);
    the pointwise inverse composes functorially.
    """
    fam = conn.family
    H = fam.group_H

    def w_eval(times):
        points = _sample_paths(paths, times)
        rep_w = np.einsum("hg,...g->...h", fam.rep_star, -conn.a_of(*points))
        gens = [rep_w] + [rep_w - m.phi_of(*points) for m in morphisms]
        gens = np.stack(gens, axis=1).reshape(times.size, len(paths),
                                              len(gens), -1).swapaxes(1, 2)
        return fam.l2a.h_alg.to_matrix(gens)

    rk = _ordered_exp(H, w_eval, steps)
    return fam.cm.alpha(fam.group_G.inv(_frame(conn, p)),
                        H.mul(H.inv(rk[0]), rk[1:]))


def verify_onemorphism_compat(conn: TwoConnection, conn_prime: TwoConnection,
                              morphisms, bigon: ParamMap, p=None,
                              steps: int = 48, grid=None) -> list:
    """Check the H-valued compatibility square of each of a stack of gauge
    1-morphisms from ``conn`` to ``conn_prime``; one report each.

    With gamma/gamma' the source/target paths of the bigon, the arranged
    H-valued form of the square (all factors based at p over the corner) is

        rho_H(gamma)(p) . tra'^2_H(Sigma, F(p))
            = tra^2_H(Sigma, p) . rho_H(gamma')(p),

    plus the A-level identity F^*A' = A + t_* phi on a chart grid; tra^2
    is solved once, and tra'^2 at every F(p) in one call.
    """
    fam = conn.family
    if conn_prime.family is not fam:
        raise DomainError("connections belong to different families")
    p = (bigon([0.0, 0.0]), _frame(conn, p))
    frames = np.stack([m.map_point(p)[1] for m in morphisms])
    h = fam.group_H
    tra2 = surface_values(conn, [bigon], p, steps, steps)
    tra2_prime = surface_values(conn_prime, [bigon], (p[0], frames), steps, steps)
    paths = [source_path(bigon), target_path(bigon)]
    rho = rho_from_phi(conn, morphisms, paths, p, steps)
    square = [float(sq) for sq in h.distance(h.mul(rho[:, 0], tra2_prime),
                                             h.mul(tra2, rho[:, 1]))]

    grid = chart_grid(conn.chart) if grid is None else grid
    a, a_prime = conn.a_coeffs(grid), conn_prime.a_coeffs(grid)
    a_defect = []
    for m in morphisms:
        g = m.g_map(grid)
        ginv = fam.group_G.inv(g)
        # dg g^-1 along every chart axis
        dlog = np.stack([m.g_map.algebra.from_matrix(m.g_map.partial(grid, k) @ ginv)
                         for k in range(conn.chart.dim)], axis=1)
        pulled = fam.ad_g_vec(g[:, None], a_prime) - dlog
        expected = a + fam.l2a.apply_t_star(m.phi_coeffs(grid))
        a_defect.append(float(np.max(np.abs(pulled - expected))))

    return [{"square_defect": sq, "a_pullback_defect": ad,
             "pass": sq <= 1e-6 and ad <= 1e-7}
            for sq, ad in zip(square, a_defect)]


def apply_twomorphism(conn: TwoConnection, m: OneMorphism, tm: TwoMorphismA,
                      form: str = "definition") -> OneMorphism:
    """Twist a 1-morphism by a 2-morphism datum a: chart -> H.

    ``conn`` is the source connection of the morphism (its 1-form enters
    the transformation rule).  ``form`` selects the variant (see the module
    docstring): "definition" returns

        g' = t(a) g,    phi' = Ad_a phi - (r_{a^-1} alpha_a)_* A - (da) a^-1,

    while "lemma" applies the inverse parameterization a -> a^-1, i.e.
    g' = t(a)^-1 g with the +da a^-1 trailing term.  Each pairing passes
    the compatibility verifier against the same transformed connection;
    crossing the pairings does not.
    """
    if form not in ("definition", "lemma"):
        raise DomainError(f"unknown 2-morphism form {form!r}")
    fam = m.family
    chart = m.chart
    d = chart.dim
    h_alg = fam.l2a.h_alg
    H = fam.group_H

    def eff_a(points):
        a = tm.a_map(points)
        return a if form == "definition" else H.inv(a)

    def new_g(points):
        return fam.cm.t(eff_a(points)) @ m.g_map(points)

    def new_phi(points):
        a = eff_a(points)
        ainv = H.inv(a)
        phi = m.phi_coeffs(points)
        aconn = conn.a_coeffs(points)
        da_sign = -1.0
        rows = []
        for k in range(d):
            ad_a_phi = fam.ad_h_vec(a, phi[:, k, :])
            twisted = fam.twisted_rep_star(a, aconn[:, k, :])
            da = partial_diff(eff_a, points, k, d)
            da_ainv = h_alg.from_matrix(da @ ainv)
            rows.append(ad_a_phi - twisted + da_sign * da_ainv)
        return np.stack(rows, axis=1)

    return OneMorphism(
        fam, chart,
        GroupValuedField(fam.group_G, fam.l2a.g_alg, value_fn=new_g,
                         chart_dim=d, name=f"{m.name}.g'"),
        new_phi, name=f"{m.name}^{tm.name}")


def compose_onemorphisms(m2: OneMorphism, m1: OneMorphism) -> OneMorphism:
    """Composite m2 after m1: gauge function g1 g2, phi1 + (alpha_{g1})_* phi2."""
    fam = m1.family
    d = m1.chart.dim

    def g_comp(points):
        return m1.g_map(points) @ m2.g_map(points)

    def phi_comp(points):
        g1 = m1.g_map(points)
        phi2 = m2.phi_coeffs(points)
        rows = [fam.alpha_vec(g1, phi2[:, k, :]) for k in range(d)]
        return m1.phi_coeffs(points) + np.stack(rows, axis=1)

    return OneMorphism(
        fam, m1.chart,
        GroupValuedField(fam.group_G, fam.l2a.g_alg, value_fn=g_comp,
                         chart_dim=d, name="g12"),
        phi_comp, name=f"{m2.name}o{m1.name}")


def vertical_compose_twomorphisms(tm1: TwoMorphismA,
                                  tm2: TwoMorphismA) -> TwoMorphismA:
    """Pointwise product a(x) a'(x)."""
    fam = tm1.family

    def value(points):
        return tm1.a_map(points) @ tm2.a_map(points)

    return TwoMorphismA(
        fam, tm1.chart,
        GroupValuedField(fam.group_H, fam.l2a.h_alg, value_fn=value,
                         chart_dim=tm1.chart.dim, name="a.a'"),
        name=f"{tm1.name}*{tm2.name}")


def horizontal_compose_twomorphisms(tm1: TwoMorphismA, tm2: TwoMorphismA,
                                    m1: OneMorphism) -> TwoMorphismA:
    """Horizontal composite: x -> a1(x) . alpha_{g(x)}(a2(x)), with g the
    gauge function of the source 1-morphism of the first 2-morphism.

    By the Peiffer identity this equals alpha_{g'}(a2) . a1 through the
    twisted gauge function g' = t(a1) g, mirroring the two equivalent
    torsor-level composition formulas.
    """
    fam = tm1.family

    def value(points):
        g = m1.g_map(points)
        return tm1.a_map(points) @ fam.cm.alpha(g, tm2.a_map(points))

    return TwoMorphismA(
        fam, tm1.chart,
        GroupValuedField(fam.group_H, fam.l2a.h_alg, value_fn=value,
                         chart_dim=tm1.chart.dim, name="a1.a2"),
        name=f"{tm1.name}o{tm2.name}")
