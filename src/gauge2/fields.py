"""Coefficient fields on a chart and the one derivative entry point.

Scalar coefficient fields come from the expression DSL (variables x1..xd)
and evaluate on (N, d) point batches.  A CoefficientField runs its
expressions as one ``dsl.program``, built once per process, and its
``jet`` gives the values and partials from one run.  Both are (N, ...)
arrays with the points axis innermost in memory: each component is one
contiguous row of N points, so a slice such as ``a[:, k]`` of a jet is a
unit-stride point vector for every component.

:func:`jet` takes every partial of a field or map, and is the one place
that chooses exact partials or finite differences: a CoefficientField
and a ParamMap give their own ``jet`` (exact for DSL expressions and for
every map a command builds), and any other callable (the coefficients
of a gauge-transformed connection, a group-valued field built by
composition) is called once and differenced by the 4-point stencil of
:func:`directional_diff`, which calls it once more, on 4 shifted copies
of the points per direction.

A group-valued field maps points to matrices; ``group_field`` builds
exp(lambda(x)) of an algebra-valued coefficient field, which lands on
the group by construction.  ``GroupValuedField.log_derivative`` gives
dg g^-1 along every axis: for g = exp(X) the closed form dexp_X(dX) of
``LieAlgebra.dexp`` on the jet of X, else the jet of g.
"""

from __future__ import annotations

import numpy as np

from . import dsl
from .errors import DomainError

__all__ = ["CoefficientField", "GroupValuedField", "tensor_field",
           "group_field", "directional_diff", "jet", "chart_grid"]

FD_STEP = 1e-3


def directional_diff(fn, points, directions, step=FD_STEP):
    """(N, k, ...) derivatives of fn along each of a stack (k, d) of
    constant directions: the 4th-order central difference with ``step``,
    whose 4 k shifted copies of the points take one call of fn.

    ``fn`` maps (N, d) points to arrays with leading axis N.
    """
    p = np.asarray(points, dtype=float)
    stack = np.asarray(directions, dtype=float)
    shifts = np.array([-2.0, -1.0, 1.0, 2.0])[:, None, None, None] * step
    f = np.asarray(fn((p + shifts * stack[:, None]).reshape(-1, p.shape[-1])))
    f = f.reshape(4, len(stack), len(p), *f.shape[1:])
    # weights (1, -8, 8, -1) / 12h at -2h, -h, h, 2h, summed in that order
    acc = f[0] - 8.0 * f[1]
    acc = acc + 8.0 * f[2]
    return np.moveaxis((acc - f[3]) / (12.0 * step), 0, 1)


def jet(fn, points, axes=None, step=FD_STEP):
    """fn and its (N, len(axes), ...) partials along the coordinate
    ``axes`` (all by default) at the (N, d) points: ``fn.jet`` where fn has
    one (a CoefficientField, a ParamMap), else one call of fn and the
    stencil of :func:`directional_diff` with ``step``."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    if hasattr(fn, "jet"):
        return fn.jet(p, axes)
    eye = np.eye(p.shape[-1])
    directions = eye if axes is None else eye[list(axes)]
    return fn(p), directional_diff(fn, p, directions, step)


def chart_grid(chart, per_axis=5):
    """Uniform grid of points over the chart's box (default [0,1]^d),
    shrunk by 15 % of each side so finite-difference stencils stay inside."""
    if chart.box is None:
        box = np.stack([np.zeros(chart.dim), np.ones(chart.dim)], axis=-1)
    else:
        box = chart.box
    axes = [np.linspace(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo), per_axis)
            for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, chart.dim)


class CoefficientField:
    """Array of scalar fields evaluated together: points (N, d) -> (N, *shape),
    the points axis innermost in memory.

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
        for i, item in enumerate(items):
            if isinstance(item, (int, float)):
                items[i] = dsl.Num(float(item))
            elif not isinstance(item, (str, dsl.Expr)):
                raise DomainError(f"bad coefficient field {item!r}")
        self._program = dsl.program(items, self.variables)
        for extra in (free - set(self.variables) for free in self._program.free):
            if extra:
                raise DomainError(f"field uses {sorted(extra)}; its variables "
                                  f"are {sorted(self.variables)}")

    def __call__(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return self._program.run(self._bindings(p), p.shape[:-1], (),
                                 self.shape)[0]

    def jet(self, points, axes=None):
        """The values (N, *shape) and the exact partials (N, len(axes),
        *shape) along the variables ``axes`` (all by default), from one run
        of the program."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        axes = tuple(range(len(self.variables)) if axes is None else axes)
        return self._program.run(self._bindings(p), p.shape[:-1], axes,
                                 self.shape)

    def _bindings(self, p):
        return {name: p[..., i] for i, name in enumerate(self.variables)}


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
        form ``algebra.dexp`` of the :func:`jet` of X, else the jet of g,
        which differences g with step ``FD_STEP``."""
        if self.generator is None:
            g, dg = jet(self, points)
            return g, self.algebra.from_matrix(dg @ self.group.inv(g)[:, None])
        X, dX = jet(self.generator, points)
        return self.group.exp(X, self.algebra), self.algebra.dexp(X[:, None], dX)


def group_field(value, group, algebra, chart_dim, name="g"):
    """A GroupValuedField passes through; anything else is, or becomes, a
    field lambda of one coefficient per algebra basis element (see
    :func:`tensor_field`), and the result is x -> exp(lambda(x))."""
    if isinstance(value, GroupValuedField):
        return value
    coeffs = tensor_field(value, chart_dim, (algebra.dim,), name)
    return GroupValuedField(
        group, algebra, lambda p: group.exp(coeffs(p), algebra), name,
        generator=coeffs)
