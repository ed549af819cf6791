"""Local 2-connection data and its derived forms.

A TwoConnection stores a g-valued 1-form ``a`` and an h-valued 2-form
``b`` over a chart as coefficient fields.  Exterior derivatives of DSL
fields are exact (``CoefficientField.derivative``); those of callables
are the 4th-order central differences of :mod:`gauge2.fields`, with the
connection's ``fd_step``, 1e-3 times the chart box size.  For constant
tangent vectors

    F(X, Y)    = D_X a(Y) - D_Y a(X) + [a(X), a(Y)],
    K(X, Y, Z) = D_X b(Y, Z) - D_Y b(X, Z) + D_Z b(X, Y)
                 + alpha_*(a(X), b(Y,Z)) - alpha_*(a(Y), b(X,Z))
                 + alpha_*(a(Z), b(X,Y)).

``b`` may be given explicitly (one field per k<l pair and h-basis element)
or derived as the fake-flat lift of the curvature plus a ker t_* part.
Only the local forms are computed: the bundle-level B at (x, g) is
(alpha_{g^-1})_* b_x, and surface transport applies that conjugation to
b at the frames of its horizontal lifts.

Both are computed on every coordinate pair and contracted with the
tangents: F from one ``axis_diffs`` of ``a``, K from one of the stored
pairs of b.  Each field is evaluated once per point set.  DSL fields are
evaluated with their derivative fields, K of a fake-flat b with the
second derivatives of ``a``.  For callables, with s = 4 stencil points on
a d-dimensional chart, F_of, F_pairs, the fake-flat b_of and
fake_flatness_residual cost 1 + s d evaluations of ``a`` (13 for
d = 3); K_of with a fake-flat b costs (s d + 1)(1 + s d) + 1 (170 for
d = 3).  An explicit b is evaluated once where the fake-flat lift costs
1 + s d.  The gluing check takes the transition function's dg g^-1 from
``GroupValuedField.log_derivative``.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .families import MatrixFamily
from .fields import (FD_STEP, axis_diffs, chart_grid, exact_derivative,
                     group_field, tensor_field)
from .geometry import Chart
from .lie2 import linear

__all__ = ["TwoConnection", "TransitionData", "fake_flatness_residual",
           "check_local_data", "pair_index"]


def pair_index(dim: int):
    """The k<l coordinate pairs indexing stored 2-form components."""
    return [(k, l) for k in range(dim) for l in range(k + 1, dim)]


def _along(coeffs, X):
    """Contract (N, d, dim) 1-form coefficients with the tangent X."""
    return np.einsum("...kg,...k->...g", coeffs, np.asarray(X, dtype=float))


def _trivector(X, Y, Z):
    """(N, d, d, d) C_ikl, the antisymmetrized X^i Y^k Z^l of (N, d) tangents."""
    def bivector(U, V):     # U^k V^l - U^l V^k as (N, 1, d, d)
        return U[:, None, :, None] * V[:, None, None, :] - (
            V[:, None, :, None] * U[:, None, None, :])

    return (X[:, :, None, None] * bivector(Y, Z)
            - Y[:, :, None, None] * bivector(X, Z)
            + Z[:, :, None, None] * bivector(X, Y))


class TwoConnection:
    """Local 2-connection (a, b) for a matrix crossed-module family."""

    def __init__(self, family: MatrixFamily, chart: Chart, a,
                 b="fake_flat", b_extra=None, name="conn"):
        self.family = family
        self.chart = chart
        self.name = name
        d = chart.dim
        dim_g, dim_h = family.l2a.g_alg.dim, family.l2a.h_alg.dim
        self.fd_step = FD_STEP * chart.scale
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
        return self._b_along(self.F_pairs(points), X, Y)   # a 2-form like b

    def F_pairs(self, points):
        """(N, npairs, dim_g) curvature F(e_k, e_l) of every pair k < l, from
        one evaluation of ``a`` and one difference along each chart axis."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        # da[:, i, j] = D_{e_i} a(e_j)
        return self._F_from(self.a_coeffs(points),
                            axis_diffs(self._a, points, self.fd_step))

    def _F_from(self, a, da):
        """F_pairs from a and its derivatives along the chart axes, one pair
        at a time into one array, so no pair's slices are copied."""
        bracket = self.family.l2a.g_alg.bracket
        F = np.empty((len(a), len(self.pairs), a.shape[-1]))
        for p, (k, l) in enumerate(self.pairs):
            F[:, p] = (da[:, k, l] - da[:, l, k]) + bracket(a[:, k], a[:, l])
        return F

    def _b_pairs(self, points, F=None):
        """(N, npairs, dim_h) stored components b_{kl} for k < l.

        In fake-flat mode they come from ``F``, the :meth:`F_pairs` of the
        same points, which is computed here unless the caller has it.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.fake_flat_mode:
            out = linear(self.family.rep_terms,
                         self.F_pairs(points) if F is None else F)
        else:
            out = self._b(points)
        if self._b_extra is not None:
            out = out + self._b_extra(points)
        return out

    def _b_along(self, comps, X, Y):
        """b(X, Y) from the stored components (N, npairs, dim_h) of b, or of
        any 2-form."""
        X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
        k, l = self._pair_axes
        weights = X[..., k] * Y[..., l] - X[..., l] * Y[..., k]
        return np.einsum("...p,...ph->...h", weights, comps)

    def b_of(self, points, X, Y):
        """b_x(X, Y) as (N, dim_h) for constant tangents."""
        return self._b_along(self._b_pairs(points), X, Y)

    def _db(self, points, a, X, Y, Z):
        """db(X, Y, Z) (N, dim_h) and the stored pairs b.

        D_X b(Y, Z) = X^i (d_i b)(Y, Z), so db(X, Y, Z) = C_ikl d_i b_kl over
        k < l, C_ikl the antisymmetrized X^i Y^k Z^l.  d_i b_kl are exact
        partials when b (in fake-flat mode a) and ``b_extra`` are DSL, else
        the :func:`axis_diffs` of the stored pairs.  In fake-flat mode
        d_i F_kl = d_i d_k a_l - d_i d_l a_k + [d_i a_k, a_l] + [a_k, d_i a_l]
        sums over all k, l to C_ikl d_i d_k a_l + [M_l, a_l], M_l = C_ikl d_i a_k.
        """
        extras = [] if self._b_extra is None else [self._b_extra]
        main = self._a if self.fake_flat_mode else self._b
        X, Y, Z = (np.broadcast_to(np.asarray(T, dtype=float), points.shape)
                   for T in (X, Y, Z))
        if any(exact_derivative(f) is None for f in [main, *extras]):
            c = _trivector(X, Y, Z)[:, :, self._pair_axes[0], self._pair_axes[1]]
            db = axis_diffs(self._b_pairs, points, self.fd_step)
            return np.einsum("nip,niph->nh", c, db), self._b_pairs(points)
        # in blocks of 1024 points, so that the d^3 dim_g second derivatives
        # per point of a fake-flat b do not set the peak memory
        parts = [self._db_block(*(x[i:i + 1024] for x in (points, a, X, Y, Z)),
                                extras) for i in range(0, len(points), 1024)]
        return tuple(np.concatenate(part) for part in zip(*parts))

    def _db_block(self, points, a, X, Y, Z, extras):
        """:meth:`_db` from exact partials on one block of points."""
        n, d = points.shape
        C = _trivector(X, Y, Z)
        c = C[:, :, self._pair_axes[0], self._pair_axes[1]]
        if self.fake_flat_mode:
            da_field = exact_derivative(self._a)
            da = da_field(points)
            b = self._b_pairs(points, self._F_from(a, da))
            M = C.reshape(n, d * d, d).swapaxes(1, 2) @ da.reshape(n, d * d, -1)
            g_alg = self.family.l2a.g_alg
            # sum_l [M_l, a_l] through the structure constants
            brackets = ((M.swapaxes(1, 2) @ a).reshape(n, -1)
                        @ g_alg.structure.reshape(-1, g_alg.dim))
            dF = (np.einsum("nikl,niklg->ng", C, da_field.derivative()(points))
                  + brackets)
            db = linear(self.family.rep_terms, dF)
        else:
            b = self._b_pairs(points)
            db = np.einsum("nip,niph->nh", c, exact_derivative(self._b)(points))
        for f in extras:
            db = db + np.einsum("nip,niph->nh", c, exact_derivative(f)(points))
        return db, b

    def K_of(self, points, X, Y, Z):
        """3-curvature dB-part plus the alpha_* wedge, full h value (N, dim_h)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        a = self.a_coeffs(points)
        db, b = self._db(points, a, X, Y, Z)
        alpha = self.family.l2a.apply_alpha_star
        wedge = (alpha(_along(a, X), self._b_along(b, Y, Z))
                 - alpha(_along(a, Y), self._b_along(b, X, Z))
                 + alpha(_along(a, Z), self._b_along(b, X, Y)))
        return db + wedge


# --- module operations ---------------------------------------------------------


def fake_flatness_residual(conn: TwoConnection, grid, tol: float) -> dict:
    """Max-norm of t_* b - F_a over the grid, with a pass flag at ``tol``."""
    F = conn.F_pairs(grid)
    tb = conn.family.l2a.apply_t_star(conn._b_pairs(grid, F))
    worst = float(np.max(np.abs(tb - F), initial=0.0))
    return {"residual": worst, "pass": worst <= tol, "grid_points": len(grid)}


class TransitionData:
    """Two-chart gluing datum: a G-valued field on the overlap."""

    def __init__(self, family: MatrixFamily, overlap_chart: Chart, g_field,
                 name="transition"):
        self.family = family
        self.chart = overlap_chart
        self.g_field = group_field(g_field, family.group_G, family.l2a.g_alg,
                                   overlap_chart.dim, name)
        self.name = name


def check_local_data(conn_i: TwoConnection, conn_j: TwoConnection,
                     transition: TransitionData, grid=None,
                     tol=1e-7) -> dict:
    """Verify the two gluing equations on the overlap grid.

        a_i = g^-1 a_j g + g^-1 dg = Ad_{g^-1}(a_j + dg g^-1),
        b_i = (alpha_{g^-1})_* b_j,

    on every chart axis and pair at once.  Returns both max defects and a
    pass flag at ``tol``.
    """
    if grid is None:
        grid = chart_grid(transition.chart)
    if len(np.atleast_2d(grid)) == 0:
        raise DomainError("empty overlap grid")
    fam = conn_i.family
    g, dlog = transition.g_field.log_derivative(grid)
    ginv = fam.group_G.inv(g)[:, None]
    a_i, a_j = conn_i.a_coeffs(grid), conn_j.a_coeffs(grid)
    a_defect = float(np.max(np.abs(a_i - fam.ad_g_vec(ginv, a_j + dlog))))
    b_i, b_j = conn_i._b_pairs(grid), conn_j._b_pairs(grid)
    b_defect = float(np.max(np.abs(b_i - fam.alpha_vec(ginv, b_j)),
                            initial=0.0))
    membership = fam.group_G.membership_defect(g)
    return {"a_defect": a_defect, "b_defect": b_defect,
            "transition_membership_defect": membership,
            "pass": max(a_defect, b_defect) <= tol and membership <= 1e-10,
            "grid_points": int(len(np.atleast_2d(grid)))}
