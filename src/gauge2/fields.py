"""Coefficient fields on a chart and finite-difference helpers.

Scalar coefficient fields come from the expression DSL (variables x1..xd)
or from plain callables; everything evaluates on (N, d) point batches.
A CoefficientField compiles its expressions once and fills one (N, *shape)
array per call; ``directional_diff`` calls its function 4 times (8 with
Richardson extrapolation).
Group-valued fields are stored as the exponential of an algebra-valued
coefficient field, which keeps them on the group manifold by construction.
"""

from __future__ import annotations

import numpy as np

from . import dsl
from .errors import DomainError

__all__ = ["CoefficientField", "GroupValuedField", "tensor_field",
           "directional_diff", "partial_diff", "chart_grid"]

FD_STEP = 1e-3
_STENCIL = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))


def directional_diff(fn, points, direction, step=FD_STEP, richardson=False):
    """4th-order central difference of fn along a constant direction.

    ``fn`` maps (N, d) points to arrays with leading axis N.  With
    ``richardson`` one extrapolation level combines the step and half-step
    stencils, raising the order to six.
    """
    p = np.asarray(points, dtype=float)
    v = np.asarray(direction, dtype=float)

    def stencil(h):
        acc = None
        for k, w in _STENCIL:
            term = w * np.asarray(fn(p + (k * h) * v))
            acc = term if acc is None else acc + term
        return acc / (12.0 * h)

    if not richardson:
        return stencil(step)
    return (16.0 * stencil(step / 2.0) - stencil(step)) / 15.0


def partial_diff(fn, points, axis, dim, step=FD_STEP, richardson=False):
    e = np.zeros(dim)
    e[axis] = 1.0
    return directional_diff(fn, points, e, step, richardson)


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
    """Array of scalar fields evaluated together: points (N, d) -> (N, *shape)."""

    def __init__(self, exprs, chart_dim: int, shape):
        self.shape = tuple(shape)
        self.chart_dim = chart_dim
        size = int(np.prod(self.shape)) if self.shape else 1
        items = list(np.asarray(exprs, dtype=object).reshape(-1))
        if len(items) != size:
            raise DomainError(
                f"expected {size} coefficient fields, got {len(items)}")
        allowed = {f"x{i + 1}" for i in range(chart_dim)}
        # one (function, takes_bindings) per column: compiled expressions
        # read the x1..xd bindings, plain callables the (N, d) points
        self._cols = []
        for item in items:
            if isinstance(item, str):
                item = dsl.parse(item)
            if isinstance(item, (int, float)):
                item = dsl.Num(float(item))
            if isinstance(item, dsl.Expr):
                extra = item.variables() - allowed
                if extra:
                    raise DomainError(
                        f"field uses {sorted(extra)}; chart variables are "
                        f"{sorted(allowed)}")
                self._cols.append((dsl.compile_expr(item), True))
            elif callable(item):
                self._cols.append((item, False))
            else:
                raise DomainError(f"bad coefficient field {item!r}")

    def __call__(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        bindings = {f"x{i + 1}": p[..., i] for i in range(self.chart_dim)}
        out = np.empty((*p.shape[:-1], len(self._cols)))
        for i, (fn, takes_bindings) in enumerate(self._cols):
            out[..., i] = fn(bindings if takes_bindings else p)
        return out.reshape(*p.shape[:-1], *self.shape)


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
    """Group-valued field on a chart.

    Constructed either as exp(lambda(x)) of an algebra-valued coefficient
    field (which lands on the manifold by construction) or from a direct
    matrix-valued callable (used for pointwise products of group fields).
    """

    def __init__(self, group, algebra, coeffs=None, value_fn=None,
                 chart_dim=None, name="g"):
        self.group = group
        self.algebra = algebra
        self.name = name
        if coeffs is not None:
            if not isinstance(coeffs, CoefficientField):
                raise DomainError("coeffs must be a CoefficientField")
            if coeffs.shape != (algebra.dim,):
                raise DomainError("group field needs one coefficient per basis")
            self.coeffs = coeffs
            self.chart_dim = coeffs.chart_dim
            self._value_fn = lambda p: group.exp(algebra.to_matrix(coeffs(p)))
        elif value_fn is not None:
            if chart_dim is None:
                raise DomainError("value_fn fields need an explicit chart_dim")
            self.coeffs = None
            self.chart_dim = chart_dim
            self._value_fn = value_fn
        else:
            raise DomainError("provide coeffs or value_fn")

    def __call__(self, points):
        return self._value_fn(np.atleast_2d(np.asarray(points, dtype=float)))

    def inv(self, points):
        return self.group.inv(self(points))

    def partial(self, points, axis, step=FD_STEP):
        """d/dx_axis of the matrix entries (4th-order central)."""
        return partial_diff(self.__call__, points, axis, self.chart_dim, step)

    def maurer_cartan(self, points, axis, step=FD_STEP):
        """g^-1 (d g / d x_axis) as algebra coefficient vectors."""
        g = self(points)
        dg = self.partial(points, axis, step)
        return self.algebra.from_matrix(self.group.inv(g) @ dg)

    def right_log_derivative(self, points, axis, step=FD_STEP):
        """(d g / d x_axis) g^-1 as algebra coefficient vectors."""
        g = self(points)
        dg = self.partial(points, axis, step)
        return self.algebra.from_matrix(dg @ self.group.inv(g))
