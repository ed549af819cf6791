"""Parametrized paths, bigons and cubes in a coordinate chart.

A ParamMap is a smooth map I^m -> chart (m = 1 path, 2 bigon, 3 cube)
held as its jet: its values and any of its partials from one vectorized
evaluation, exact for maps of DSL expressions and straight paths and
carried by the chain rule through slices, affine images and
reparameterizations.
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
    """Smooth map I^m -> R^d, held as its jet.

    ``jet(params, axes)`` maps an (N, m) parameter array to the values
    (N, d) and the partials along ``axes`` (N, len(axes), d), both from one
    evaluation; ``axes`` ``()`` asks for the values alone, which is what a
    call of the map runs.  :meth:`from_exprs` maps run one program of only
    what those partials need; :meth:`slice_first`, :meth:`affine_image`,
    :meth:`compose_params` and :func:`straight_path` write theirs by the
    chain rule, so every map a command builds has exact partials.  A map
    of a plain callable ``fn`` takes its jet from the stencil, as
    ``ParamMap(m, d, lambda p, axes: fields.jet(fn, p, axes))``.
    """

    def __init__(self, arity: int, dim: int, jet, name="map"):
        if arity not in (1, 2, 3):
            raise DomainError("arity must be 1 (path), 2 (bigon) or 3 (cube)")
        self.arity = arity
        self.dim = dim
        self._jet = jet
        self.name = name

    @classmethod
    def from_exprs(cls, exprs, arity: int, name="map") -> "ParamMap":
        """Build from DSL component expressions in the variables u, v, w,
        and their partials from ``dsl.diff``."""
        field = fields.CoefficientField(list(exprs), arity, (len(exprs),),
                                        PARAM_VARS[:arity])
        return cls(arity, len(exprs), field.jet, name=name)

    def __call__(self, params):
        out = self._jet(np.atleast_2d(np.asarray(params, dtype=float)), ())[0]
        return out[0] if np.asarray(params).ndim == 1 else out

    def jet(self, params, axes=None):
        """Values (N, d) and partials (N, len(axes), d) along ``axes`` (all
        parameters by default) at (N, m) parameters.  Negative axes count
        from the end."""
        p = np.atleast_2d(np.asarray(params, dtype=float))
        every = range(self.arity)
        return self._jet(p, tuple(every if axes is None
                                  else (every[k] for k in axes)))

    def partial(self, index: int, params):
        """The map's derivative along parameter ``index`` (see :meth:`jet`)."""
        out = self.jet(params, (index,))[1][:, 0]
        return out[0] if np.asarray(params).ndim == 1 else out

    # -- derived maps ----------------------------------------------------------

    def compose_params(self, phi, name=None) -> "ParamMap":
        """Precompose with a parameter map phi: I^m -> I^m; the chain rule
        D(sigma o phi) = D phi @ D sigma(phi), phi's partials along the
        asked-for axes only."""
        def jet(params, axes):
            q, dq = phi.jet(params, axes)
            if not axes:
                return self.jet(q, ())
            values, partials = self.jet(q)
            # sum_m d_a phi_m * d_m sigma(phi), one (N, d) plane at a time
            return values, sum(dq[:, :, m, None] * partials[:, None, m]
                               for m in range(self.arity))

        return ParamMap(self.arity, self.dim, jet,
                        name=name or f"{self.name}*")

    def affine_image(self, origin, basis, name=None) -> "ParamMap":
        """Postcompose with y -> origin + sum_k y_k basis_k."""
        origin = np.asarray(origin, dtype=float)
        basis = np.asarray(basis, dtype=float)   # (dim, len(origin))

        # every partial, then the axes: BLAS can round a product of fewer
        # rows differently
        def jet(params, axes):
            values, partials = self.jet(params, None if axes else ())
            return origin + values @ basis, (partials @ basis)[:, list(axes)]

        return ParamMap(self.arity, origin.shape[0], jet,
                        name=name or f"{self.name}@affine")

    def slice_first(self, value: float, name=None) -> "ParamMap":
        """Fix the leading parameter; a cube slices to a bigon, a bigon
        to a path."""
        if self.arity == 1:
            raise DomainError("cannot slice a path")

        def jet(params, axes):
            full = np.concatenate(
                [np.full((*params.shape[:-1], 1), value), params], axis=-1)
            return self._jet(full, tuple(k + 1 for k in axes))

        return ParamMap(self.arity - 1, self.dim, jet,
                        name=name or f"{self.name}[{value},...]")

    def __repr__(self):
        return f"ParamMap({self.name}, arity={self.arity}, dim={self.dim})"


# --- constructors ----------------------------------------------------------------


def straight_path(a, b, name=None) -> ParamMap:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def jet(params, axes):
        u = params[..., 0][..., None]
        return ((1.0 - u) * a + u * b,
                np.broadcast_to(b - a, (len(params), len(axes), a.shape[0])))

    return ParamMap(1, a.shape[0], jet, name=name or "segment")


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
