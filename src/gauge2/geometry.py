"""Parametrized paths, bigons and cubes in a coordinate chart.

A ParamMap is a smooth map I^m -> chart (m = 1 path, 2 bigon, 3 cube)
with vectorized evaluation and a jet: its values and all its partials
from one evaluation, exact for maps of DSL expressions, straight paths
and the slices, affine images and reparameterizations of exact maps (the
chain rule), and finite differences otherwise.
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

from .errors import ComposabilityError, DomainError
from . import fields

__all__ = [
    "Chart", "ParamMap", "SMOOTH_STEP_WIDTH", "smooth_step",
    "concat_paths", "compose_bigons_vertical", "compose_bigons_horizontal",
    "reparameterize", "check_reparameterization",
    "straight_path", "reverse_path", "reverse_bigon", "source_path",
    "target_path", "unit_grid", "check_cube_boundaries",
]

SMOOTH_STEP_WIDTH = 0.1
PARAM_VARS = ("u", "v", "w")


def unit_grid(samples: int, arity: int) -> np.ndarray:
    """The (samples**arity, arity) points of the uniform grid on I^arity,
    ``samples`` per axis including both ends, the first axis slowest."""
    axis = np.linspace(0.0, 1.0, samples)
    return np.stack(np.meshgrid(*[axis] * arity, indexing="ij"),
                    axis=-1).reshape(-1, arity)


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
    4th-order central differences of :meth:`jet` valid everywhere.
    ``jet(params, axes)``, the exact values (N, d) and partials along
    ``axes`` (N, len(axes), d) from one evaluation, comes with
    :meth:`from_exprs` maps (one program run of only what those partials
    need) and straight paths and is carried through :meth:`slice_first`,
    :meth:`affine_image` and :meth:`compose_params`; other maps take those
    differences.
    """

    def __init__(self, arity: int, dim: int, fn, name="map", jet=None):
        if arity not in (1, 2, 3):
            raise DomainError("arity must be 1 (path), 2 (bigon) or 3 (cube)")
        self.arity = arity
        self.dim = dim
        self._fn = fn
        self._jet = jet
        self.name = name

    @classmethod
    def from_exprs(cls, exprs, arity: int, name="map") -> "ParamMap":
        """Build from DSL component expressions in the variables u, v, w,
        and their partials from ``dsl.diff``."""
        field = fields.CoefficientField(list(exprs), arity, (len(exprs),),
                                        PARAM_VARS[:arity])
        return cls(arity, len(exprs), field, name=name, jet=field.jet)

    def __call__(self, params):
        p = np.atleast_2d(np.asarray(params, dtype=float))
        squeeze = np.asarray(params).ndim == 1
        out = self._fn(p)
        return out[0] if squeeze else out

    def jet(self, params, axes=None, step: float = fields.FD_STEP):
        """Values (N, d) and partials (N, len(axes), d) along ``axes`` (all
        parameters by default) at (N, m) parameters: exact where the map
        carries them, else the 4th-order central difference of each axis
        asked for.  Negative axes count from the end."""
        p = np.atleast_2d(np.asarray(params, dtype=float))
        every = range(self.arity)
        axes = tuple(every if axes is None else (every[k] for k in axes))
        if self._jet is None:
            return fields.jet(self._fn, p, axes, step)
        return self._jet(p, axes)

    def partial(self, index: int, params, step: float = fields.FD_STEP):
        """The map's derivative along parameter ``index`` (see :meth:`jet`)."""
        out = self.jet(params, (index,), step)[1][:, 0]
        return out[0] if np.asarray(params).ndim == 1 else out

    # -- derived maps ----------------------------------------------------------

    def compose_params(self, phi, name=None) -> "ParamMap":
        """Precompose with a parameter map phi: I^m -> I^m; exact partials
        D(sigma o phi) = D phi @ D sigma(phi) when both carry them, phi's
        along the asked-for axes only."""
        def fn(params):
            return self._fn(np.atleast_2d(phi(params)))

        def jet(params, axes):
            q, dq = phi.jet(params, axes)
            values, partials = self.jet(q)
            # sum_m d_a phi_m * d_m sigma(phi), one (N, d) plane at a time
            return values, sum(dq[:, :, m, None] * partials[:, None, m]
                               for m in range(self.arity))

        exact = self._jet is not None and getattr(phi, "_jet", None) is not None
        return ParamMap(self.arity, self.dim, fn,
                        name=name or f"{self.name}*", jet=jet if exact else None)

    def affine_image(self, origin, basis, name=None) -> "ParamMap":
        """Postcompose with y -> origin + sum_k y_k basis_k."""
        origin = np.asarray(origin, dtype=float)
        basis = np.asarray(basis, dtype=float)   # (dim, len(origin))

        def fn(params):
            return origin + self._fn(params) @ basis

        # every partial, then the axes: BLAS can round a product of fewer
        # rows differently
        def jet(params, axes):
            values, partials = self.jet(params)
            return origin + values @ basis, (partials @ basis)[:, list(axes)]

        return ParamMap(self.arity, origin.shape[0], fn,
                        name=name or f"{self.name}@affine",
                        jet=None if self._jet is None else jet)

    def slice_first(self, value: float, name=None) -> "ParamMap":
        """Fix the leading parameter; a cube slices to a bigon, a bigon
        to a path."""
        if self.arity == 1:
            raise DomainError("cannot slice a path")

        def full(params):
            return np.concatenate(
                [np.full((*params.shape[:-1], 1), value), params], axis=-1)

        def jet(params, axes):
            return self._jet(full(params), tuple(k + 1 for k in axes))

        return ParamMap(self.arity - 1, self.dim, lambda p: self._fn(full(p)),
                        name=name or f"{self.name}[{value},...]",
                        jet=None if self._jet is None else jet)

    def __repr__(self):
        return f"ParamMap({self.name}, arity={self.arity}, dim={self.dim})"


# --- constructors ----------------------------------------------------------------


def straight_path(a, b, name=None) -> ParamMap:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def fn(params):
        u = params[..., 0][..., None]
        return (1.0 - u) * a + u * b

    return ParamMap(1, a.shape[0], fn, name=name or "segment", jet=lambda p, axes: (
        fn(p), np.broadcast_to(b - a, (len(p), 1, a.shape[0]))[:, list(axes)]))


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


def reparameterize(pm: ParamMap, phi, tol=1e-9, samples=17) -> ParamMap:
    """Precompose with a phi that :func:`check_reparameterization` accepts."""
    phi = check_reparameterization(phi, pm.arity, tol, samples)
    return pm.compose_params(phi, name=f"{pm.name}o{phi.name}")


def check_cube_boundaries(cube: ParamMap, tol=1e-9, samples=9):
    """Slices of the cube must be bigons between common boundary paths."""
    uu, vv = unit_grid(samples, 2).T
    faces = [(axis, value) for axis in (1, 2) for value in (0.0, 1.0)]
    # each face's points, then the same points on the u = 0 slice
    params = np.zeros((2, len(faces), uu.size, 3))
    for f, (axis, value) in enumerate(faces):
        params[:, f, :, axis], params[:, f, :, 3 - axis] = value, vv
    params[0, ..., 0] = uu
    points = cube(params.reshape(-1, 3)).reshape(2, len(faces), uu.size, -1)
    defects = np.max(np.abs(points[0] - points[1]), axis=(1, 2)).tolist()
    for (axis, value), d in zip(faces, defects):
        if d > tol:
            label = "source/target paths" if axis == 1 else "path endpoints"
            raise ComposabilityError(
                f"cube slices disagree on {label} at face {value:g} "
                f"(defect {d:.3e})", mismatch=d)


def check_reparameterization(phi, arity: int, tol=1e-9, samples=17) -> ParamMap:
    """``phi``: I^m -> I^m as a ParamMap, once checked to fix every boundary
    face and to have positive Jacobian determinant on a sample grid."""
    if callable(phi) and not isinstance(phi, ParamMap):
        phi = ParamMap(arity, arity, phi, name="phi")
    if phi.arity != arity or phi.dim != arity:
        raise DomainError("phi must be a self-map of the parameter cube")

    mesh = unit_grid(samples, arity)
    for axis in range(arity):
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
        if np.any(np.linalg.det(phi.jet(interior)[1]) <= 0.0):
            raise DomainError("phi is not orientation-preserving")
    return phi
