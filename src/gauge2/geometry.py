"""Parametrized paths, bigons and cubes in a coordinate chart.

A ParamMap is a smooth map I^m -> chart (m = 1 path, 2 bigon, 3 cube)
with vectorized evaluation and finite-difference partial derivatives.
Concatenation and bigon composition insert a fixed C-infinity smoothing
step of width 0.1 in parameter space, so composites have sitting instants
and stay smooth across the junction while boundary values are preserved
exactly.

Bigon convention: the first parameter u is the homotopy direction (u = 0
is the source path, u = 1 the target path), the second parameter v runs
along the paths.  Cubes add a leading family parameter, so slicing a cube
at fixed first coordinate yields a bigon.
"""

from __future__ import annotations

import numpy as np

from .errors import ChartError, DomainError
from . import dsl

__all__ = [
    "Chart", "ParamMap", "SMOOTH_STEP_WIDTH", "smooth_step",
    "concat_paths", "compose_bigons_vertical", "compose_bigons_horizontal",
    "canonical_bigon", "reparameterize",
    "straight_path", "bigon_between",
    "reverse_path", "reverse_bigon", "source_path", "target_path",
]

SMOOTH_STEP_WIDTH = 0.1
PARAM_VARS = ("u", "v", "w")
FD_STEP = 1e-3


class Chart:
    """Coordinate chart: a dimension and an optional bounding box."""

    def __init__(self, dim: int, box=None):
        if dim < 1:
            raise DomainError("chart dimension must be >= 1")
        self.dim = dim
        if box is not None:
            box = np.asarray(box, dtype=float)
            if box.shape != (dim, 2):
                raise DomainError("bounding box must have shape (dim, 2)")
        self.box = box

    @property
    def scale(self) -> float:
        if self.box is None:
            return 1.0
        return float(np.max(self.box[:, 1] - self.box[:, 0]))

    def check_points(self, points, pad=0.0):
        if self.box is None:
            return points
        p = np.asarray(points)
        lo = self.box[:, 0] - pad
        hi = self.box[:, 1] + pad
        if np.any(p < lo) or np.any(p > hi):
            raise ChartError("evaluation point outside the chart bounding box")
        return points

    def __repr__(self):
        return f"Chart(dim={self.dim})"


def smooth_step(x, width=SMOOTH_STEP_WIDTH):
    """C-infinity step: 0 on (-inf, width], 1 on [1-width, inf), monotone."""
    x = np.asarray(x, dtype=float)
    y = (x - width) / (1.0 - 2.0 * width)
    y = np.clip(y, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        f = np.where(y > 0.0, np.exp(-1.0 / np.maximum(y, 1e-300)), 0.0)
        g = np.where(y < 1.0, np.exp(-1.0 / np.maximum(1.0 - y, 1e-300)), 0.0)
    return f / (f + g)


class ParamMap:
    """Smooth map I^m -> R^d with vectorized evaluation.

    ``fn`` maps an (N, m) parameter array to an (N, d) point array.  The
    evaluation must extend smoothly to a neighbourhood of I^m (DSL fields
    do; composites built here are flat near the boundary), which keeps the
    4th-order central differences in :meth:`partial` valid everywhere.
    """

    def __init__(self, arity: int, dim: int, fn, name="map"):
        if arity not in (1, 2, 3):
            raise DomainError("arity must be 1 (path), 2 (bigon) or 3 (cube)")
        self.arity = arity
        self.dim = dim
        self._fn = fn
        self.name = name

    @classmethod
    def from_exprs(cls, exprs, arity: int, name="map") -> "ParamMap":
        """Build from DSL component expressions in the variables u, v, w."""
        parsed = [dsl.parse(e) if isinstance(e, str) else e for e in exprs]
        allowed = set(PARAM_VARS[:arity])
        for e in parsed:
            extra = e.variables() - allowed
            if extra:
                raise DomainError(
                    f"expression uses {sorted(extra)}; a {arity}-ary map "
                    f"may only use {sorted(allowed)}")

        compiled = [dsl.compile_expr(e) for e in parsed]

        def fn(params):
            bindings = {PARAM_VARS[i]: params[..., i] for i in range(arity)}
            out = np.empty((*params.shape[:-1], len(compiled)))
            for i, component in enumerate(compiled):
                out[..., i] = component(bindings)
            return out

        return cls(arity, len(parsed), fn, name=name)

    def __call__(self, params):
        p = np.atleast_2d(np.asarray(params, dtype=float))
        squeeze = np.asarray(params).ndim == 1
        out = self._fn(p)
        return out[0] if squeeze else out

    def partial(self, index: int, params, step: float = FD_STEP):
        """4th-order central difference of the map along parameter ``index``."""
        p = np.asarray(params, dtype=float)
        h = np.zeros(self.arity)
        h[index] = step
        return (-self(p + 2 * h) + 8 * self(p + h)
                - 8 * self(p - h) + self(p - 2 * h)) / (12 * step)

    # -- derived maps ----------------------------------------------------------

    def compose_params(self, phi, name=None) -> "ParamMap":
        """Precompose with a parameter map phi: I^m -> I^m."""
        def fn(params):
            return self._fn(np.atleast_2d(phi(params)))
        return ParamMap(self.arity, self.dim, fn,
                        name=name or f"{self.name}*")

    def affine_image(self, origin, basis, name=None) -> "ParamMap":
        """Postcompose with y -> origin + sum_k y_k basis_k."""
        origin = np.asarray(origin, dtype=float)
        basis = np.asarray(basis, dtype=float)   # (dim, len(origin))

        def fn(params):
            return origin + self._fn(params) @ basis

        return ParamMap(self.arity, origin.shape[0], fn,
                        name=name or f"{self.name}@affine")

    def slice_first(self, value: float, name=None) -> "ParamMap":
        """Fix the leading parameter; a cube slices to a bigon, a bigon
        to a path."""
        if self.arity == 1:
            raise DomainError("cannot slice a path")

        def fn(params):
            full = np.concatenate(
                [np.full((*params.shape[:-1], 1), value), params], axis=-1)
            return self._fn(full)

        return ParamMap(self.arity - 1, self.dim, fn,
                        name=name or f"{self.name}[{value},...]")

    def __repr__(self):
        return f"ParamMap({self.name}, arity={self.arity}, dim={self.dim})"


# --- constructors ----------------------------------------------------------------


def straight_path(a, b, name=None) -> ParamMap:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def fn(params):
        u = params[..., 0][..., None]
        return (1.0 - u) * a + u * b

    return ParamMap(1, a.shape[0], fn, name=name or "segment")


def bigon_between(gamma0: ParamMap, gamma1: ParamMap, tol=1e-9,
                  name=None) -> ParamMap:
    """Straight-line homotopy between two paths sharing endpoints."""
    for v in (0.0, 1.0):
        d = np.max(np.abs(gamma0([v]) - gamma1([v])))
        if d > tol:
            raise DomainError(f"paths do not share endpoints (defect {d:.2e})")

    def fn(params):
        u = params[..., 0][..., None]
        v = params[..., 1:]
        return (1.0 - u) * gamma0._fn(v) + u * gamma1._fn(v)

    return ParamMap(2, gamma0.dim, fn, name=name or "bigon")


def reverse_path(gamma: ParamMap) -> ParamMap:
    def fn(params):
        return gamma._fn(1.0 - params)
    return ParamMap(1, gamma.dim, fn, name=f"{gamma.name}~")


def reverse_bigon(sigma: ParamMap) -> ParamMap:
    """Vertical inverse: swap source and target paths."""
    def fn(params):
        flipped = params.copy()
        flipped[..., 0] = 1.0 - flipped[..., 0]
        return sigma._fn(flipped)
    return ParamMap(2, sigma.dim, fn, name=f"{sigma.name}~")


def source_path(sigma: ParamMap) -> ParamMap:
    return sigma.slice_first(0.0, name=f"{sigma.name}.src")


def target_path(sigma: ParamMap) -> ParamMap:
    return sigma.slice_first(1.0, name=f"{sigma.name}.tgt")


# --- composition ------------------------------------------------------------------


def _two_piece(first_fn, second_fn, axis: int, width=SMOOTH_STEP_WIDTH):
    """Piecewise map along one parameter axis with smoothing on each half."""

    def fn(params):
        x = params[..., axis]
        left = params.copy()
        left[..., axis] = smooth_step(np.clip(2.0 * x, 0.0, 1.0), width)
        right = params.copy()
        right[..., axis] = smooth_step(np.clip(2.0 * x - 1.0, 0.0, 1.0), width)
        take_left = (x <= 0.5)[..., None]
        return np.where(take_left, first_fn(left), second_fn(right))

    return fn


def concat_paths(gamma: ParamMap, gamma_next: ParamMap, tol=1e-9) -> ParamMap:
    """Half-speed concatenation gamma then gamma_next, smoothed at the seam."""
    d = float(np.max(np.abs(gamma([1.0]) - gamma_next([0.0]))))
    if d > tol:
        raise DomainError(
            f"paths do not meet: endpoint mismatch {d:.3e} exceeds {tol:.1e}")
    fn = _two_piece(gamma._fn, gamma_next._fn, axis=0)
    return ParamMap(1, gamma.dim, fn,
                    name=f"({gamma_next.name}.{gamma.name})")


def compose_bigons_vertical(sigma: ParamMap, sigma_next: ParamMap,
                            tol=1e-9, samples=33) -> ParamMap:
    """Stack bigons in the homotopy direction: target(sigma) must equal
    source(sigma_next) pointwise."""
    v = np.linspace(0.0, 1.0, samples)
    top = sigma(np.stack([np.ones_like(v), v], axis=-1))
    bottom = sigma_next(np.stack([np.zeros_like(v), v], axis=-1))
    d = float(np.max(np.abs(top - bottom)))
    if d > tol:
        raise DomainError(
            f"bigons do not stack: boundary mismatch {d:.3e} exceeds {tol:.1e}")
    fn = _two_piece(sigma._fn, sigma_next._fn, axis=0)
    return ParamMap(2, sigma.dim, fn,
                    name=f"({sigma_next.name}*{sigma.name})")


def compose_bigons_horizontal(sigma: ParamMap, sigma_next: ParamMap,
                              tol=1e-9, samples=33) -> ParamMap:
    """Concatenate bigons along the paths: sigma's paths must end where
    sigma_next's paths start (one common point for genuine bigons)."""
    u = np.linspace(0.0, 1.0, samples)
    ends = sigma(np.stack([u, np.ones_like(u)], axis=-1))
    starts = sigma_next(np.stack([u, np.zeros_like(u)], axis=-1))
    d = float(max(np.max(np.abs(ends - ends[:1])),
                  np.max(np.abs(starts - ends[:1]))))
    if d > tol:
        raise DomainError(
            f"bigons do not connect: endpoint mismatch {d:.3e} exceeds {tol:.1e}")
    fn = _two_piece(sigma._fn, sigma_next._fn, axis=1)
    return ParamMap(2, sigma.dim, fn,
                    name=f"({sigma_next.name}o{sigma.name})")


def canonical_bigon(s: float, t: float) -> ParamMap:
    """Bigon in I^2 filling [0, s] x [0, t].

    The source path runs along the first axis to (s, 0) and then up to
    (s, t); the target path goes up first and then across.  The filling
    slides the corner along the anti-diagonal, which is smooth and has
    image exactly the rectangle; any smooth filling with these boundary
    paths is thinly homotopic to any other.
    """
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise DomainError("canonical bigon extents must lie in [0, 1]")
    corner_a = np.array([s, 0.0])
    corner_b = np.array([0.0, t])
    end = np.array([s, t])

    def fn(params):
        u = params[..., 0][..., None]
        v = params[..., 1]
        corner = (1.0 - u) * corner_a + u * corner_b
        lo = smooth_step(np.clip(2.0 * v, 0.0, 1.0))[..., None] * corner
        hi = corner + smooth_step(np.clip(2.0 * v - 1.0, 0.0, 1.0))[..., None] \
            * (end - corner)
        return np.where((v <= 0.5)[..., None], lo, hi)

    return ParamMap(2, 2, fn, name=f"filling[0,{s}]x[0,{t}]")


def reparameterize(pm: ParamMap, phi, tol=1e-9, samples=17) -> ParamMap:
    """Precompose with a boundary-fixing, orientation-preserving phi.

    ``phi`` maps I^m -> I^m; it must send every boundary face into itself
    and have positive Jacobian determinant (checked on a sample grid).
    """
    if callable(phi) and not isinstance(phi, ParamMap):
        phi = ParamMap(pm.arity, pm.arity, phi, name="phi")
    if phi.arity != pm.arity or phi.dim != pm.arity:
        raise DomainError("phi must be a self-map of the parameter cube")

    grid = np.linspace(0.0, 1.0, samples)
    mesh = np.stack(np.meshgrid(*[grid] * pm.arity, indexing="ij"),
                    axis=-1).reshape(-1, pm.arity)
    for axis in range(pm.arity):
        for value in (0.0, 1.0):
            face = mesh.copy()
            face[:, axis] = value
            d = float(np.max(np.abs(phi(face)[:, axis] - value)))
            if d > tol:
                raise DomainError(
                    f"phi moves the face x{axis}={value:g} by {d:.3e}; "
                    "reparameterizations must fix the boundary")
    interior = mesh[np.all((mesh > 0.2) & (mesh < 0.8), axis=1)]
    if interior.size:
        jac = np.stack([phi.partial(i, interior) for i in range(pm.arity)],
                       axis=-1)
        if np.any(np.linalg.det(jac) <= 0.0):
            raise DomainError("phi is not orientation-preserving")

    return pm.compose_params(phi, name=f"{pm.name}o{phi.name}")
