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
from .fields import (FD_STEP, GroupValuedField, chart_grid, directional_diff,
                     group_field, jet, tensor_field)
from .forms import TwoConnection
from .geometry import Chart, ParamMap, source_path, target_path
from .lie2 import linear
from .transport import _ordered_exp, _stack_jets, surface_values

__all__ = ["OneMorphism", "TwoMorphismA", "gauge_transform", "rho_from_phi",
           "pullback_defects", "verify_onemorphism_compat", "apply_twomorphism",
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
        self.g_map = group_field(g_map, family.group_G, family.l2a.g_alg, d,
                                 f"{name}.g")
        self._phi = tensor_field(phi, d, (d, family.l2a.h_alg.dim), "phi")

    def phi_coeffs(self, points):
        """(N, d, dim_h) coefficient tensor of phi."""
        return self._phi(np.atleast_2d(np.asarray(points, dtype=float)))

    def phi_of(self, points, X):
        return np.einsum("...kh,...k->...h", self.phi_coeffs(points),
                         np.asarray(X, dtype=float))

    def membership_defect(self, grid) -> float:
        return self.family.group_G.membership_defect(self.g_map(grid))


class TwoMorphismA:
    """2-morphism datum: an H-valued field on the chart."""

    def __init__(self, family: MatrixFamily, chart: Chart, a_map,
                 name="two-morphism"):
        self.family = family
        self.chart = chart
        self.name = name
        self.a_map = group_field(a_map, family.group_H, family.l2a.h_alg,
                                 chart.dim, f"{name}.a")

    def membership_defect(self, grid) -> float:
        return self.family.group_H.membership_defect(self.a_map(grid))


def gauge_transform(conn: TwoConnection, m: OneMorphism) -> TwoConnection:
    """Apply the gauge 1-morphism to the local connection data."""
    fam = conn.family
    l2a = fam.l2a
    k, l = conn._pair_axes

    def new_a(points):
        g, dlog = m.g_map.log_derivative(points)
        term = conn.a_coeffs(points) + dlog + l2a.apply_t_star(m.phi_coeffs(points))
        return fam.ad_g_vec(fam.group_G.inv(g)[:, None], term)

    def new_b(points):
        ginv = fam.group_G.inv(m.g_map(points))
        a = conn.a_coeffs(points)
        b = conn._b_pairs(points)
        phi, dphi = jet(m._phi, points, step=conn.fd_step)  # exact for DSL phi
        term = (b + dphi[:, k, l] - dphi[:, l, k]
                + l2a.h_alg.bracket(phi[:, k], phi[:, l])
                + l2a.apply_alpha_star(a[:, k], phi[:, l])
                - l2a.apply_alpha_star(a[:, l], phi[:, k]))
        return fam.alpha_vec(ginv[:, None], term)

    return TwoConnection(fam, conn.chart, a=new_a, b=new_b,
                         name=f"{conn.name}^{m.name}")


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

    def w_eval(times, columns):
        points = _stack_jets(paths, times[:, None])
        rep_w = linear(fam.rep_terms, -conn.a_of(*points))
        gens = [rep_w] + [rep_w - m.phi_of(*points) for m in morphisms]
        gens = np.stack(gens, axis=1).reshape(times.size, len(paths),
                                              len(gens), -1).swapaxes(1, 2)
        return gens

    rk = _ordered_exp(H, fam.l2a.h_alg, w_eval, [steps])[0]
    rho = H.mul(H.inv(rk[0]), rk[1:])
    return rho if p is None else fam.cm.alpha(fam.group_G.inv(p[1]), rho)


def pullback_defects(conn: TwoConnection, conn_prime: TwoConnection,
                     morphisms, grid=None) -> list:
    """max |F^*A' - (A + t_* phi)| on a chart grid for each of a stack of
    gauge 1-morphisms from ``conn`` to ``conn_prime``.  F^*A' = Ad_g a' -
    dg g^-1 takes dg g^-1 from a stencil at half the step of the
    ``log_derivative`` that builds a', so a wrong one shows here."""
    fam = conn.family
    grid = chart_grid(conn.chart) if grid is None else grid
    a, a_prime = conn.a_coeffs(grid), conn_prime.a_coeffs(grid)
    out = []
    for m in morphisms:
        g = m.g_map(grid)
        dg = directional_diff(m.g_map, grid, np.eye(conn.chart.dim),
                              FD_STEP / 2.0)
        dlog = fam.l2a.g_alg.from_matrix(dg @ fam.group_G.inv(g)[:, None])
        pulled = fam.ad_g_vec(g[:, None], a_prime) - dlog
        expected = a + fam.l2a.apply_t_star(m.phi_coeffs(grid))
        out.append(float(np.max(np.abs(pulled - expected))))
    return out


def verify_onemorphism_compat(conn: TwoConnection, conn_prime: TwoConnection,
                              morphisms, bigon: ParamMap, steps: int = 48,
                              a_defects=None) -> list:
    """Check the H-valued compatibility square of each of a stack of gauge
    1-morphisms from ``conn`` to ``conn_prime``; one report of defects
    each, which the caller compares with its tolerances.

    With gamma/gamma' the source/target paths of the bigon, the arranged
    H-valued form of the square (all factors based at p = (x0, e) over the
    corner, so F(p) = (x0, g(x0)^-1)) is

        rho_H(gamma)(p) . tra'^2_H(Sigma, F(p))
            = tra^2_H(Sigma, p) . rho_H(gamma')(p),

    plus the A-level :func:`pullback_defects`, which depend on no bigon (a
    caller may pass them as ``a_defects``); tra^2 and tra'^2 are solved
    once each, and tra'^2 takes every frame of F(p) by equivariance.
    """
    fam = conn.family
    if conn_prime.family is not fam:
        raise DomainError("connections belong to different families")
    x0 = bigon([0.0, 0.0])
    frames = fam.group_G.inv(np.stack([m.g_map(np.atleast_2d(x0))[0]
                                       for m in morphisms]))
    h = fam.group_H
    tra2 = surface_values(conn, [bigon], None, steps)
    tra2_prime = surface_values(conn_prime, [bigon], (x0, frames), steps)
    paths = [source_path(bigon), target_path(bigon)]
    rho = rho_from_phi(conn, morphisms, paths, None, steps)
    square = [float(sq) for sq in h.distance(h.mul(rho[:, 0], tra2_prime),
                                             h.mul(tra2, rho[:, 1]))]

    if a_defects is None:
        a_defects = pullback_defects(conn, conn_prime, morphisms)
    return [{"square_defect": sq, "a_pullback_defect": ad}
            for sq, ad in zip(square, a_defects)]


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
    H = fam.group_H
    lemma = form == "lemma"

    def new_g(points):
        a = tm.a_map(points)
        return fam.cm.t(H.inv(a) if lemma else a) @ m.g_map(points)

    def new_phi(points):
        a, da_ainv = tm.a_map.log_derivative(points)
        if lemma:   # a -> a^-1, whose d(a^-1) a is -Ad_{a^-1}(da a^-1)
            a = H.inv(a)
            da_ainv = -fam.ad_h_vec(a[:, None], da_ainv)
        a = a[:, None]
        return (fam.ad_h_vec(a, m.phi_coeffs(points))
                - fam.twisted_rep_star(a, conn.a_coeffs(points)) - da_ainv)

    return OneMorphism(
        fam, m.chart,
        GroupValuedField(fam.group_G, fam.l2a.g_alg, new_g, f"{m.name}.g'"),
        new_phi, name=f"{m.name}^{tm.name}")


def compose_onemorphisms(m2: OneMorphism, m1: OneMorphism) -> OneMorphism:
    """Composite m2 after m1: gauge function g1 g2, phi1 + (alpha_{g1})_* phi2."""
    fam = m1.family

    def g_comp(points):
        return m1.g_map(points) @ m2.g_map(points)

    def phi_comp(points):
        g1 = m1.g_map(points)[:, None]
        return m1.phi_coeffs(points) + fam.alpha_vec(g1, m2.phi_coeffs(points))

    return OneMorphism(
        fam, m1.chart, GroupValuedField(fam.group_G, fam.l2a.g_alg, g_comp, "g12"),
        phi_comp, name=f"{m2.name}o{m1.name}")


def vertical_compose_twomorphisms(tm1: TwoMorphismA,
                                  tm2: TwoMorphismA) -> TwoMorphismA:
    """Pointwise product a(x) a'(x)."""
    fam = tm1.family

    def value(points):
        return tm1.a_map(points) @ tm2.a_map(points)

    return TwoMorphismA(
        fam, tm1.chart, GroupValuedField(fam.group_H, fam.l2a.h_alg, value, "a.a'"),
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
        GroupValuedField(fam.group_H, fam.l2a.h_alg, value, "a1.a2"),
        name=f"{tm1.name}o{tm2.name}")
