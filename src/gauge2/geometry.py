"""Parametrized paths, bigons and cubes in a coordinate chart.

A ParamMap is a smooth map I^m -> chart (m = 1 path, 2 bigon, 3 cube)
with vectorized evaluation and a jet: its values and all its partials
from one evaluation, exact for maps of DSL expressions, straight paths
and the slices, affine images and reparameterizations of exact maps (the
chain rule), and finite differences otherwise.
Composites are not glued here: a composition law is checked on the pieces
of one map, restricted by :meth:`ParamMap.compose_params` with a DSL
parameter map such as the halves ``["u/2", "v"]`` and ``["(1+u)/2", "v"]``
or the reverse ``["1-u", "v"]``, so every piece keeps an exact jet.

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
    "Chart", "ParamMap", "reparameterize", "check_reparameterization",
    "straight_path", "source_path", "target_path", "unit_grid",
    "check_cube_boundaries",
]

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


class ParamMap:
    """Smooth map I^m -> R^d with vectorized evaluation.

    ``fn`` maps an (N, m) parameter array to an (N, d) point array.  The
    evaluation must extend smoothly to a neighbourhood of I^m (DSL fields
    do), which keeps the 4th-order central differences of :meth:`jet`
    valid everywhere.
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

    def jet(self, params, axes=None, step=fields.FD_STEP):
        """Values (N, d) and partials (N, len(axes), d) along ``axes`` (all
        parameters by default) at (N, m) parameters: exact where the map
        carries them, else the 4th-order central difference with ``step``
        of each axis asked for.  Negative axes count from the end."""
        p = np.atleast_2d(np.asarray(params, dtype=float))
        every = range(self.arity)
        axes = tuple(every if axes is None else (every[k] for k in axes))
        if self._jet is None:
            return fields.jet(self._fn, p, axes, step)
        return self._jet(p, axes)

    def partial(self, index: int, params):
        """The map's derivative along parameter ``index`` (see :meth:`jet`)."""
        out = self.jet(params, (index,))[1][:, 0]
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


def source_path(sigma: ParamMap) -> ParamMap:
    return sigma.slice_first(0.0, name=f"{sigma.name}.src")


def target_path(sigma: ParamMap) -> ParamMap:
    return sigma.slice_first(1.0, name=f"{sigma.name}.tgt")


def reparameterize(pm: ParamMap, phi: ParamMap) -> ParamMap:
    """Precompose with a phi that :func:`check_reparameterization` accepts."""
    phi = check_reparameterization(phi, pm.arity)
    return pm.compose_params(phi, name=f"{pm.name}o{phi.name}")


def check_cube_boundaries(cube: ParamMap):
    """Slices of the cube must be bigons between common boundary paths, to
    1e-9 on a 9 x 9 grid of each face."""
    uu, vv = unit_grid(9, 2).T
    faces = [(axis, value) for axis in (1, 2) for value in (0.0, 1.0)]
    # each face's points, then the same points on the u = 0 slice
    params = np.zeros((2, len(faces), uu.size, 3))
    for f, (axis, value) in enumerate(faces):
        params[:, f, :, axis], params[:, f, :, 3 - axis] = value, vv
    params[0, ..., 0] = uu
    points = cube(params.reshape(-1, 3)).reshape(2, len(faces), uu.size, -1)
    defects = np.max(np.abs(points[0] - points[1]), axis=(1, 2)).tolist()
    for (axis, value), d in zip(faces, defects):
        if d > 1e-9:
            label = "source/target paths" if axis == 1 else "path endpoints"
            raise ComposabilityError(
                f"cube slices disagree on {label} at face {value:g} "
                f"(defect {d:.3e})", mismatch=d)


def check_reparameterization(phi: ParamMap, arity: int) -> ParamMap:
    """``phi``: I^m -> I^m, once checked to fix every boundary face to 1e-9
    and to have positive Jacobian determinant, on a grid of 17 per axis."""
    if phi.arity != arity or phi.dim != arity:
        raise DomainError("phi must be a self-map of the parameter cube")

    mesh = unit_grid(17, arity)
    for axis in range(arity):
        for value in (0.0, 1.0):
            face = mesh.copy()
            face[:, axis] = value
            d = float(np.max(np.abs(phi(face)[:, axis] - value)))
            if d > 1e-9:
                raise DomainError(
                    f"phi moves the face x{axis}={value:g} by {d:.3e}; "
                    "reparameterizations must fix the boundary")
    interior = mesh[np.all((mesh > 0.2) & (mesh < 0.8), axis=1)]
    if interior.size:
        if np.any(np.linalg.det(phi.jet(interior)[1]) <= 0.0):
            raise DomainError("phi is not orientation-preserving")
    return phi
