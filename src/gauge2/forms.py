"""Local 2-connection data and its derived forms.

A TwoConnection stores a g-valued 1-form ``a`` and an h-valued 2-form
``b`` over a chart as coefficient fields.  Every exterior derivative is
a :func:`gauge2.fields.jet`: exact for DSL fields, and for callables the
4th-order central difference with the connection's ``fd_step``, 1e-3
times the chart box size.  For constant tangent vectors

    F(X, Y)    = D_X a(Y) - D_Y a(X) + [a(X), a(Y)],
    K(X, Y, Z) = D_X b(Y, Z) - D_Y b(X, Z) + D_Z b(X, Y)
                 + alpha_*(a(X), b(Y,Z)) - alpha_*(a(Y), b(X,Z))
                 + alpha_*(a(Z), b(X,Y)).

``b`` may be given explicitly (one field per k<l pair and h-basis element)
or derived as the fake-flat lift of the curvature plus a ker t_* part.
Only the local forms are computed: the bundle-level B at (x, g) is
(alpha_{g^-1})_* b_x, and surface transport applies that conjugation to
b at the frames of its horizontal lifts.

F is computed on every coordinate pair from one jet of ``a`` (its
values and axis derivatives) and contracted with the tangents.  K is the
sum over triples i < k < l of m_ikl K_ikl, m_ikl the minor of the
tangent rows [X; Y; Z] at columns (i, k, l) (none on a 2-d chart, where
K is exactly 0), with the coordinate component

    K_ikl = rep_*(dF_ikl) + (d_i b_kl - d_k b_il + d_l b_ik)
            + alpha_*(a_i, b_kl) - alpha_*(a_k, b_il) + alpha_*(a_l, b_ik).

The wedge takes no contraction with the tangents: it is the sum over i
and pairs k < l of alpha_*(a_i, b_kl) weighted by the cofactor expansion
of m_ikl, whose terms with i in {k, l} cancel and the rest regroup per
sorted triple as above.  rep_* dF is the derivative of a fake-flat b,
where the second derivatives of ``a`` cancel: dF_ikl = [d_ik, a_l] -
[d_il, a_k] + [d_kl, a_i] on the pair differences d_kl = d_k a_l -
d_l a_k that F is built from.  A jet of a DSL field is one program run;
one of a callable on a d-dimensional chart costs 1 + 4d evaluations (13
for d = 3).  K takes one each of ``a`` (fake-flat b), ``b`` and
``b_extra``.  K_of and fake_flatness_residual run in blocks of ``_BLOCK``
points.  Gluing takes the transition's dg g^-1 from its ``log_derivative``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DomainError
from .families import MatrixFamily
from .fields import FD_STEP, chart_grid, group_field, jet, tensor_field
from .geometry import Chart
from .lie2 import linear

__all__ = ["TwoConnection", "TransitionData", "fake_flatness_residual",
           "check_local_data", "pair_index"]


_BLOCK = 4096


def pair_index(dim: int):
    """The k<l coordinate pairs indexing stored 2-form components."""
    return [(k, l) for k in range(dim) for l in range(k + 1, dim)]


def _blocks(n):
    """Slices of ``_BLOCK`` points covering n points (one for n = 0):
    pointwise forms keep their bits and bound their temporaries."""
    return [slice(i, i + _BLOCK) for i in range(0, max(n, 1), _BLOCK)]


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
        return np.einsum("...kg,...k->...g", self.a_coeffs(points),
                         np.asarray(X, dtype=float))

    def F_of(self, points, X, Y):
        """Curvature F = da + 1/2 [a, a] on constant tangents (N, dim_g)."""
        return self._b_along(self.F_pairs(points), X, Y)   # a 2-form like b

    def F_pairs(self, points):
        """(N, npairs, dim_g) curvature F(e_k, e_l) of every pair k < l, from
        one jet of ``a``."""
        return self._F_from(*jet(self._a, points, step=self.fd_step))[0]

    def _F_from(self, a, da):
        """F_pairs and the pair differences D_k a_l - D_l a_k from a and its
        derivatives da[:, i, j] = D_{e_i} a(e_j), one pair at a time into
        arrays whose components are rows of points, as a jet's are."""
        bracket = self.family.l2a.g_alg.bracket
        F, curl = (np.moveaxis(np.empty((len(self.pairs), a.shape[-1], len(a))),
                               -1, 0) for _ in range(2))
        for p, (k, l) in enumerate(self.pairs):
            curl[:, p] = da[:, k, l] - da[:, l, k]
            F[:, p] = curl[:, p] + bracket(a[:, k], a[:, l])
        return F, curl

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

    def K_of(self, points, X, Y, Z):
        """3-curvature dB-part plus the alpha_* wedge, full h value (N, dim_h),
        in blocks of ``_BLOCK`` points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        X, Y, Z = (np.broadcast_to(np.asarray(T, dtype=float), points.shape)
                   for T in (X, Y, Z))
        return np.concatenate([self._K_block(*(x[s] for x in (points, X, Y, Z)))
                               for s in _blocks(len(points))])

    def _K_block(self, points, X, Y, Z):
        """K_of on one block: the sum over triples i < k < l of the minor
        m_ikl times the coordinate component K_ikl, from one jet each of
        ``a`` (fake-flat b), ``b`` and ``b_extra``."""
        rep = self.family.rep_terms
        if self.fake_flat_mode:
            a, da = jet(self._a, points, step=self.fd_step)
            F, curl = self._F_from(a, da)
            b = linear(rep, F)
            del da, F
        else:
            a, b = self.a_coeffs(points), None
        diffs = []
        for f in (self._b, self._b_extra):
            if f is not None:
                values, partials = jet(f, points, step=self.fd_step)
                b = values if b is None else b + values
                diffs.append(partials)
                del values      # kept past the sum, it raises the peak memory
        slot = {pair: p for p, pair in enumerate(self.pairs)}
        bracket = self.family.l2a.g_alg.bracket
        alpha = self.family.l2a.apply_alpha_star

        def bivector(U, V, k, l):      # U^k V^l - U^l V^k
            return U[:, k] * V[:, l] - V[:, k] * U[:, l]

        K = np.zeros(b[:, 0].shape)
        for i, k, l in itertools.combinations(range(self.chart.dim), 3):
            ik, il, kl = slot[i, k], slot[i, l], slot[k, l]
            parts = [(dc[:, i, kl] - dc[:, k, il]) + dc[:, l, ik] for dc in diffs]
            if self.fake_flat_mode:
                parts.insert(0, linear(rep, (bracket(curl[:, ik], a[:, l])
                                             - bracket(curl[:, il], a[:, k]))
                                       + bracket(curl[:, kl], a[:, i])))
            parts.append((alpha(a[:, i], b[:, kl]) - alpha(a[:, k], b[:, il]))
                         + alpha(a[:, l], b[:, ik]))
            m = (X[:, i] * bivector(Y, Z, k, l) - Y[:, i] * bivector(X, Z, k, l)
                 + Z[:, i] * bivector(X, Y, k, l))
            K += m[:, None] * sum(parts[1:], parts[0])
        return K


# --- module operations ---------------------------------------------------------


def fake_flatness_residual(conn: TwoConnection, grid) -> dict:
    """Max-norm of t_* b - F_a over the grid: the max of the residuals of
    blocks of ``_BLOCK`` points."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    worst = 0.0
    for s in _blocks(len(grid)):
        F = conn.F_pairs(grid[s])
        tb = conn.family.l2a.apply_t_star(conn._b_pairs(grid[s], F))
        worst = max(worst, float(np.max(np.abs(tb - F), initial=0.0)))
    return {"residual": worst, "grid_points": len(grid)}


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
                     transition: TransitionData, grid=None) -> dict:
    """Verify the two gluing equations on the overlap grid.

        a_i = g^-1 a_j g + g^-1 dg = Ad_{g^-1}(a_j + dg g^-1),
        b_i = (alpha_{g^-1})_* b_j,

    on every chart axis and pair at once.  Returns both max defects and
    the transition's group membership defect.
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
            "grid_points": int(len(np.atleast_2d(grid)))}
