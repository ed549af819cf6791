"""Local 2-connection data and its derived forms.

A TwoConnection stores a g-valued 1-form ``a`` and an h-valued 2-form
``b`` over a chart as coefficient fields.  Exterior derivatives are taken
by 4th-order central differences of the coefficient fields; for constant
tangent vectors

    F(X, Y)    = D_X a(Y) - D_Y a(X) + [a(X), a(Y)],
    K(X, Y, Z) = D_X b(Y, Z) - D_Y b(X, Z) + D_Z b(X, Y)
                 + alpha_*(a(X), b(Y,Z)) - alpha_*(a(Y), b(X,Z))
                 + alpha_*(a(Z), b(X,Y)).

``b`` may be given explicitly (one field per k<l pair and h-basis element)
or derived as the fake-flat lift of the curvature plus a ker t_* part.
Bundle-level forms on the trivial bundle are never stored; they are
computed on demand from the trivialization formulas.

Each field is evaluated once per point set.  With s = 4 stencil points
(8 with ``fd_richardson``) on a d-dimensional chart, F_of costs 2s + 1
evaluations of ``a``; F_pairs (F on every pair e_k, e_l), the fake-flat
b_of and fake_flatness_residual cost 1 + s d (13 for d = 3); K_of with a
fake-flat b costs (3s + 1)(1 + s d) + 1 (170 for d = 3).  An explicit b
is evaluated once where the fake-flat lift costs 1 + s d.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .families import MatrixFamily
from .fields import (CoefficientField, GroupValuedField, chart_grid,
                     directional_diff, tensor_field, FD_STEP)
from .geometry import Chart

__all__ = ["TwoConnection", "TransitionData", "curvature_F",
           "fake_flatness_residual", "three_curvature_K", "bundle_form_B",
           "check_local_data", "pair_index"]


def pair_index(dim: int):
    """The k<l coordinate pairs indexing stored 2-form components."""
    return [(k, l) for k in range(dim) for l in range(k + 1, dim)]


def _along(coeffs, X):
    """Contract (N, d, dim) 1-form coefficients with the tangent X."""
    return np.einsum("...kg,...k->...g", coeffs, np.asarray(X, dtype=float))


class TwoConnection:
    """Local 2-connection (a, b) for a matrix crossed-module family."""

    def __init__(self, family: MatrixFamily, chart: Chart, a,
                 b="fake_flat", b_extra=None, fd_step=None,
                 fd_richardson=False, name="conn"):
        self.family = family
        self.chart = chart
        self.name = name
        d = chart.dim
        dim_g, dim_h = family.l2a.g_alg.dim, family.l2a.h_alg.dim
        self.fd_step = fd_step if fd_step is not None else FD_STEP * chart.scale
        self.fd_richardson = fd_richardson
        self.pairs = pair_index(d)
        # (k, l) index arrays of the pairs, for all-pairs gathers
        self._pair_axes = np.array(self.pairs, dtype=int).reshape(-1, 2).T

        # a and b accept nested expression lists, CoefficientFields, or a
        # callable producing the whole coefficient tensor (used by gauge
        # transforms, whose coefficients are not expressions).
        self._a = tensor_field(a, d, (d, dim_g), "a")
        self.fake_flat_mode = isinstance(b, str) and b == "fake_flat"
        b_shape = (len(self.pairs), dim_h)
        self._b = None if self.fake_flat_mode else tensor_field(b, d, b_shape, "b")
        self._b_extra = (None if b_extra is None
                         else tensor_field(b_extra, d, b_shape, "b_extra"))

    # -- pointwise evaluation (batched over points) -----------------------------

    def a_coeffs(self, points):
        """(N, d, dim_g) coefficient tensor of the 1-form."""
        return self._a(np.atleast_2d(np.asarray(points, dtype=float)))

    def a_of(self, points, X):
        """a_x(X) as (N, dim_g); X is a constant vector or an (N, d) batch."""
        return _along(self.a_coeffs(points), X)

    def F_of(self, points, X, Y):
        """Curvature F = da + 1/2 [a, a] on constant tangents (N, dim_g)."""
        da = (directional_diff(lambda p: self.a_of(p, Y), points, X,
                               self.fd_step, self.fd_richardson)
              - directional_diff(lambda p: self.a_of(p, X), points, Y,
                                 self.fd_step, self.fd_richardson))
        a = self.a_coeffs(points)
        return da + self.family.l2a.g_alg.bracket(_along(a, X), _along(a, Y))

    def F_pairs(self, points):
        """(N, npairs, dim_g) curvature F(e_k, e_l) of every pair k < l, from
        one evaluation of ``a`` and one difference along each chart axis."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        k, l = self._pair_axes
        a = self.a_coeffs(points)
        # da[:, i, j] = D_{e_i} a(e_j)
        da = np.stack([directional_diff(self.a_coeffs, points, e,
                                        self.fd_step, self.fd_richardson)
                       for e in np.eye(self.chart.dim)], axis=1)
        return ((da[:, k, l] - da[:, l, k])
                + self.family.l2a.g_alg.bracket(a[:, k], a[:, l]))

    def _b_pairs(self, points, F=None):
        """(N, npairs, dim_h) stored components b_{kl} for k < l.

        In fake-flat mode they come from ``F``, the :meth:`F_pairs` of the
        same points, which is computed here unless the caller has it.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.fake_flat_mode:
            out = np.einsum("hg,...g->...h", self.family.rep_star,
                            self.F_pairs(points) if F is None else F)
        else:
            out = self._b(points)
        if self._b_extra is not None:
            out = out + self._b_extra(points)
        return out

    def _b_along(self, comps, X, Y):
        """b(X, Y) from the stored components (N, npairs, dim_h)."""
        X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
        k, l = self._pair_axes
        weights = X[..., k] * Y[..., l] - X[..., l] * Y[..., k]
        return np.einsum("...p,...ph->...h", weights, comps)

    def b_of(self, points, X, Y):
        """b_x(X, Y) as (N, dim_h) for constant tangents."""
        return self._b_along(self._b_pairs(points), X, Y)

    def K_of(self, points, X, Y, Z):
        """3-curvature dB-part plus the alpha_* wedge, full h value (N, dim_h)."""
        step, rich = self.fd_step, self.fd_richardson
        db = (directional_diff(lambda p: self.b_of(p, Y, Z), points, X, step, rich)
              - directional_diff(lambda p: self.b_of(p, X, Z), points, Y, step, rich)
              + directional_diff(lambda p: self.b_of(p, X, Y), points, Z, step, rich))
        a = self.a_coeffs(points)
        b = self._b_pairs(points)
        alpha = self.family.l2a.apply_alpha_star
        wedge = (alpha(_along(a, X), self._b_along(b, Y, Z))
                 - alpha(_along(a, Y), self._b_along(b, X, Z))
                 + alpha(_along(a, Z), self._b_along(b, X, Y)))
        return db + wedge

    def validation_grid(self, per_axis=5):
        return chart_grid(self.chart, per_axis)


# --- module operations ---------------------------------------------------------


def curvature_F(conn: TwoConnection, x, X, Y):
    """F = da + 1/2 [a, a] evaluated on (X, Y) at x (batched)."""
    conn.chart.check_points(x, pad=4 * conn.fd_step)
    return conn.F_of(x, X, Y)


def fake_flatness_residual(conn: TwoConnection, grid=None) -> dict:
    """Max-norm of t_* b - F_a over the grid, with a pass flag at 1e-8."""
    if grid is None:
        grid = conn.validation_grid()
    F = conn.F_pairs(grid)
    tb = conn.family.l2a.apply_t_star(conn._b_pairs(grid, F))
    worst = float(np.max(np.abs(tb - F), initial=0.0))
    return {"residual": worst, "pass": worst <= 1e-8, "grid_points": len(grid)}


def three_curvature_K(conn: TwoConnection, x, X, Y, Z,
                      bianchi_tol=1e-7) -> dict:
    """3-curvature at x on (X, Y, Z).

    Returns the full h-valued result, its ker t_* projection, and the
    Bianchi defect max|t_* K| (asserted <= ``bianchi_tol``).  Charts of
    dimension < 3 have no 3-forms; the result is zero with a note.
    """
    if conn.chart.dim < 3:
        dim_h = conn.family.l2a.h_alg.dim
        n = np.atleast_2d(x).shape[0]
        zero = np.zeros((n, dim_h))
        return {"value": zero, "projected": zero, "bianchi_defect": 0.0,
                "note": "chart dimension < 3: every 3-form vanishes"}
    value = conn.K_of(x, X, Y, Z)
    t_part = conn.family.l2a.apply_t_star(value)
    defect = float(np.max(np.abs(t_part)))
    projected = conn.family.l2a.project_ker_t_star(value)
    result = {"value": value, "projected": projected, "bianchi_defect": defect}
    if defect > bianchi_tol:
        result["warning"] = (f"Bianchi defect {defect:.3e} exceeds "
                             f"{bianchi_tol:.1e}")
    return result


def bundle_form_B(conn: TwoConnection, x, g, X, Y):
    """Bundle-level B at the point (x, g) of the trivial bundle.

    Equals (alpha_{g^-1})_* b_x(X, Y); contraction with vertical directions
    vanishes by construction since only the base components of the tangents
    enter.
    """
    vals = conn.b_of(x, X, Y)
    ginv = conn.family.group_G.inv(g)
    return conn.family.alpha_vec(ginv, vals)


class TransitionData:
    """Two-chart gluing datum: a G-valued field on the overlap."""

    def __init__(self, family: MatrixFamily, overlap_chart: Chart, g_field,
                 name="transition"):
        if not isinstance(g_field, GroupValuedField):
            g_field = GroupValuedField(
                family.group_G, family.l2a.g_alg,
                CoefficientField(g_field, overlap_chart.dim,
                                 (family.l2a.g_alg.dim,)),
                name=name)
        self.family = family
        self.chart = overlap_chart
        self.g_field = g_field
        self.name = name

    def membership_defect(self, grid) -> float:
        return self.family.group_G.membership_defect(self.g_field(grid))


def check_local_data(conn_i: TwoConnection, conn_j: TwoConnection,
                     transition: TransitionData, grid=None,
                     tol=1e-7) -> dict:
    """Verify the two gluing equations on the overlap grid.

        a_i = g^-1 a_j g + g^-1 dg,      b_i = (alpha_{g^-1})_* b_j.

    Returns both max defects and a pass flag at ``tol``.
    """
    if grid is None:
        grid = chart_grid(transition.chart)
    if len(np.atleast_2d(grid)) == 0:
        raise DomainError("empty overlap grid")
    fam = conn_i.family
    d = conn_i.chart.dim
    ginv = fam.group_G.inv(transition.g_field(grid))

    a_i, a_j = conn_i.a_coeffs(grid), conn_j.a_coeffs(grid)
    a_defect = 0.0
    for k, ek in enumerate(np.eye(d)):
        adj = fam.ad_g_vec(ginv, _along(a_j, ek))
        mc = transition.g_field.maurer_cartan(grid, k)
        a_defect = max(a_defect,
                       float(np.max(np.abs(_along(a_i, ek) - adj - mc))))

    b_i, b_j = conn_i._b_pairs(grid), conn_j._b_pairs(grid)
    b_defect = 0.0
    for (k, l) in conn_i.pairs:
        ek, el = np.eye(d)[[k, l]]
        lhs = conn_i._b_along(b_i, ek, el)
        rhs = fam.alpha_vec(ginv, conn_j._b_along(b_j, ek, el))
        b_defect = max(b_defect, float(np.max(np.abs(lhs - rhs))))

    membership = transition.membership_defect(grid)
    return {"a_defect": a_defect, "b_defect": b_defect,
            "transition_membership_defect": membership,
            "pass": max(a_defect, b_defect) <= tol and membership <= 1e-10,
            "grid_points": int(len(np.atleast_2d(grid)))}
