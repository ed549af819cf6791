"""Coefficient fields on a chart and the one derivative layer.

Scalar coefficient fields come from the expression DSL (variables x1..xd)
or from plain callables; everything evaluates on (N, d) point batches.
A CoefficientField runs its expressions as one ``dsl.program``, built once
per process, and its ``jet`` gives the values and partials from one run.

Every derivative of a field is taken here.  ``axis_diffs`` gives the
derivatives along every axis as (N, d, ...), ``directional_diff`` along
one direction or a stack of them, and ``jet`` a field with them: exact
for a CoefficientField of DSL expressions, whose ``derivative()`` is the
field of its partials, and otherwise the 4-point stencil, which calls the
function once, on 4 shifted copies of the points per direction.
``GroupValuedField.log_derivative`` gives a group-valued field with
dg g^-1 along every axis: for g = exp(X(x)) built by ``group_field`` the
closed form dexp_X(dX) of ``LieAlgebra.dexp``, with dX exact for a DSL
X, and by the stencil of g for any other group-valued field.

A group-valued field is a function from points to matrices;
``group_field`` builds exp(lambda(x)) of an algebra-valued coefficient
field, which lands on the group manifold by construction.
"""

from __future__ import annotations

import numpy as np

from . import dsl
from .errors import DomainError

__all__ = ["CoefficientField", "GroupValuedField", "tensor_field",
           "group_field", "directional_diff", "axis_diffs", "jet",
           "exact_derivative", "chart_grid"]

FD_STEP = 1e-3


def directional_diff(fn, points, direction, step=FD_STEP):
    """Derivative of fn along a constant direction (d,), or (N, k, ...)
    along each of a stack (k, d) of them: exact for a CoefficientField of
    DSL expressions, else the 4th-order central difference with ``step``,
    whose 4 k shifted copies of the points take one call of fn.

    ``fn`` maps (N, d) points to arrays with leading axis N.
    """
    p = np.asarray(points, dtype=float)
    v = np.asarray(direction, dtype=float)
    stack = v.reshape(-1, p.shape[-1])
    exact = exact_derivative(fn)
    if exact is not None:
        out = np.einsum("nk...,jk->nj...", exact(p), stack)
        return out if v.ndim > 1 else out[:, 0]
    shifts = np.array([-2.0, -1.0, 1.0, 2.0])[:, None, None, None] * step
    f = np.asarray(fn((p + shifts * stack[:, None]).reshape(-1, p.shape[-1])))
    f = f.reshape(4, len(stack), len(p), *f.shape[1:])
    # weights (1, -8, 8, -1) / 12h at -2h, -h, h, 2h, summed in that order
    acc = f[0] - 8.0 * f[1]
    acc = acc + 8.0 * f[2]
    out = np.moveaxis((acc - f[3]) / (12.0 * step), 0, 1)
    return out if v.ndim > 1 else out[:, 0]


def axis_diffs(fn, points, step=FD_STEP):
    """(N, d, ...) derivatives of fn along every axis e_k of the (N, d)
    points: one :func:`directional_diff` along the stack of axes."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    exact = exact_derivative(fn)
    if exact is not None:
        return exact(p)
    return directional_diff(fn, p, np.eye(p.shape[-1]), step)


def jet(fn, points, step=FD_STEP):
    """fn and its (N, d, ...) derivatives along every axis at the (N, d)
    points: one program run for a CoefficientField of DSL expressions, else
    fn and the stencil of :func:`axis_diffs`."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(fn, CoefficientField) and not fn._calls:
        return fn.jet(p)
    return fn(p), axis_diffs(fn, p, step)


def exact_derivative(fn):
    """The derivative field of a CoefficientField of DSL expressions; None
    for anything else."""
    return fn.derivative() if isinstance(fn, CoefficientField) else None


def chart_grid(chart, per_axis=5, pad=0.15):
    """Uniform grid of points over the chart's box (default [0,1]^d),
    shrunk by ``pad`` so finite-difference stencils stay inside."""
    if chart.box is None:
        box = np.stack([np.zeros(chart.dim), np.ones(chart.dim)], axis=-1)
    else:
        box = chart.box
    axes = [np.linspace(lo + pad * (hi - lo), hi - pad * (hi - lo), per_axis)
            for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, chart.dim)


class CoefficientField:
    """Array of scalar fields evaluated together: points (N, d) -> (N, *shape).

    Expressions read the chart variables x1..xd, or the given names, and
    run as one :func:`gauge2.dsl.program`, shared by every field of the
    same expressions; :meth:`jet` adds their partials to the same run."""

    def __init__(self, exprs, chart_dim: int, shape, variables=None):
        self.shape = tuple(shape)
        self.chart_dim = chart_dim
        self.variables = tuple(variables or (f"x{i + 1}" for i in range(chart_dim)))
        size = int(np.prod(self.shape)) if self.shape else 1
        items = list(np.asarray(exprs, dtype=object).reshape(-1))
        if len(items) != size:
            raise DomainError(
                f"expected {size} coefficient fields, got {len(items)}")
        # plain callables read the (N, d) points; the program skips them
        self._calls = [(i, e) for i, e in enumerate(items) if callable(e)]
        for i, item in enumerate(items):
            if callable(item):
                items[i] = None
            elif isinstance(item, (int, float)):
                items[i] = dsl.Num(float(item))
            elif not isinstance(item, (str, dsl.Expr)):
                raise DomainError(f"bad coefficient field {item!r}")
        self._program = dsl.program(items, self.variables)
        for extra in (free - set(self.variables) for free in self._program.free):
            if extra:
                raise DomainError(f"field uses {sorted(extra)}; its variables "
                                  f"are {sorted(self.variables)}")
        self._derivative = None

    def __call__(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        out = self._program.run(self._bindings(p), p.shape[:-1])[0]
        for i, fn in self._calls:
            out[..., i] = fn(p)
        return out.reshape(*p.shape[:-1], *self.shape)

    def jet(self, points, axes=None):
        """The values (N, *shape) and the partials (N, len(axes), *shape)
        along the variables ``axes`` (all by default), from one run of the
        program; for a field of expressions only."""
        if self._calls:
            raise DomainError("a field with plain callables has no jet")
        p = np.atleast_2d(np.asarray(points, dtype=float))
        axes = tuple(range(len(self.variables)) if axes is None else axes)
        values, partials = self._program.run(self._bindings(p), p.shape[:-1], axes)
        return (values.reshape(*p.shape[:-1], *self.shape),
                partials.reshape(*p.shape[:-1], len(axes), *self.shape))

    def _bindings(self, p):
        return {name: p[..., i] for i, name in enumerate(self.variables)}

    def derivative(self):
        """The (d, *shape) field of the partials d/dx_k, k first, built once;
        None if a coefficient is a plain callable."""
        if self._derivative is None and not self._calls:
            self._derivative = CoefficientField(
                self._program.partials, self.chart_dim,
                (self.chart_dim, *self.shape), self.variables)
        return self._derivative


def tensor_field(value, chart_dim, shape, what="field"):
    """A callable giving the whole (N, *shape) tensor passes through;
    anything else becomes, or must be, a CoefficientField of ``shape``."""
    if callable(value) and not isinstance(value, CoefficientField):
        return value
    if not isinstance(value, CoefficientField):
        value = CoefficientField(value, chart_dim, shape)
    if value.shape != tuple(shape):
        raise DomainError(f"{what} needs shape {tuple(shape)} coefficient fields")
    return value


class GroupValuedField:
    """Group-valued field on a chart: ``value_fn`` maps (N, d) points to
    (N, n, n) matrices of ``group``, whose Lie algebra is ``algebra``.
    :func:`group_field` builds the exponential of coefficient fields and
    keeps the exponent as ``generator``."""

    def __init__(self, group, algebra, value_fn, name="g", generator=None):
        self.group = group
        self.algebra = algebra
        self.name = name
        self.generator = generator
        self._value_fn = value_fn

    def __call__(self, points):
        return self._value_fn(np.atleast_2d(np.asarray(points, dtype=float)))

    def log_derivative(self, points):
        """g and (d g / d x_k) g^-1 along every chart axis, the latter as
        (N, d, dim) algebra coefficient vectors: for g = exp(X) the closed
        form ``algebra.dexp`` of the derivatives of X, else the stencil of
        g (step ``FD_STEP``)."""
        if self.generator is None:
            g = self(points)
            dg = axis_diffs(self, points)
            return g, self.algebra.from_matrix(dg @ self.group.inv(g)[:, None])
        X, dX = jet(self.generator, points)
        return (self.group.exp(self.algebra.to_matrix(X)),
                self.algebra.dexp(X[:, None], dX))


def group_field(value, group, algebra, chart_dim, name="g"):
    """A GroupValuedField passes through; anything else is, or becomes, a
    field lambda of one coefficient per algebra basis element (see
    :func:`tensor_field`), and the result is x -> exp(lambda(x))."""
    if isinstance(value, GroupValuedField):
        return value
    coeffs = tensor_field(value, chart_dim, (algebra.dim,), name)
    return GroupValuedField(
        group, algebra, lambda p: group.exp(algebra.to_matrix(coeffs(p))), name,
        generator=coeffs)
