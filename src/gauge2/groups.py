"""Group backends: finite multiplication tables and matrix Lie groups.

Finite groups hold an explicit multiplication table and are exact; their
operations take integer index arrays, so a batch of elements is one lookup.
Matrix groups are U(1), U(2), SU(2) and SO(3), the built-in families'
groups; each operation is one closed form, batched over leading axes:

* ``project``: m / |m| on U(1), the exact 2x2 polar factor
  (M + |det M| M^-H) / sqrt(|M|_F^2 + 2 |det M|) on U(2) and SU(2), one
  Newton-Schulz step on SO(3); MembershipError where it cannot project.
* ``exp``: of coefficient vectors, by their spin coordinates (a phase and
  a unit quaternion held as the first column of its SU(2) matrix:
  ``LieAlgebra.spin``, :func:`quaternion_exp`, :meth:`MatrixGroup.from_spin`);
  SO(3) through the double cover.  The ordered-exponential kernel
  multiplies such quaternions with :func:`hamilton`, four complex
  products, and a frame held as one acts on vectors by :func:`unrotate`.
* ``log``: i arg g on U(1); on U(2) and SU(2) the eigen-angles phi +- theta
  of g = e^{i phi} (cos theta I + sin theta N); on SO(3) twice the angle of
  the Shepperd quaternion.  BranchError outside the principal branch.
* ``mul``: elementwise on U(1); 2x2 products written out entry by entry
  from ENTRYWISE_MIN_BATCH products on, where they beat numpy's matmul.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchError, MembershipError, StructureError

__all__ = ["FiniteGroup", "MatrixGroup", "cyclic_group"]

_EPS = np.finfo(float).eps
# Batches of at least this many 2x2 products are multiplied entry by entry;
# below it numpy's matmul is faster (crossover measured at 28 to 48
# products on a 2-vCPU Xeon host).
ENTRYWISE_MIN_BATCH = 32


class FiniteGroup:
    """Finite group given by an explicit multiplication table.

    ``table[a, b]`` is the index of the product a*b.  The constructor checks
    that the table is a Latin square with the given identity and that
    multiplication is associative, each as an array identity, and reads
    the inverses off the table.  ``mul`` and ``inv`` take index arrays;
    scalars give ints.
    """

    def __init__(self, table, identity=0, name="finite"):
        table = as_table(table, "table")
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise StructureError("multiplication table must be square")
        n = table.shape[0]
        if np.any(table < 0) or np.any(table >= n):
            bad = np.argwhere((table < 0) | (table >= n))[0]
            raise StructureError(
                f"table entry out of range at row {bad[0]}, column {bad[1]}")
        if not 0 <= identity < n:
            raise StructureError(f"{identity} is not an element of a "
                                 f"{n}-element table", "identity")
        full = np.arange(n)
        rows_ok, cols_ok = (np.all(np.sort(m, axis=1) == full, axis=1)
                            for m in (table, table.T))
        bad = np.flatnonzero(~(rows_ok & cols_ok))
        if bad.size:
            kind = "row" if not rows_ok[bad[0]] else "column"
            raise StructureError(f"table {kind} {bad[0]} is not a permutation")
        if not (np.array_equal(table[identity], full)
                and np.array_equal(table[:, identity], full)):
            raise StructureError(f"index {identity} is not an identity")
        # Latin square + identity does not imply associativity; check it:
        # table[table][a, b, c] = (ab)c and table[:, table][a, b, c] = a(bc).
        bad = np.argwhere(table[table] != table[:, table])
        if bad.size:
            raise StructureError(f"multiplication not associative at row {bad[0][0]}")
        self.table = table
        self.identity = int(identity)
        # each row of a Latin square holds the identity once
        self.inverse_table = np.argmax(table == identity, axis=1)
        self.name = name
        self.order = n

    def mul(self, a, b):
        return lookup(self.table, a, b)

    def inv(self, a):
        return lookup(self.inverse_table, a)

    def distance(self, a, b):
        """Elementwise over broadcast batches: 0 where equal, 1 otherwise."""
        return (np.asarray(a) != np.asarray(b)).astype(float)

    def defect(self, a, b) -> float:
        """Largest distance over a batch: 0 when all equal, 1 otherwise."""
        return float(np.max(self.distance(a, b), initial=0.0))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def as_table(rows, part, dtype=int) -> np.ndarray:
    """``rows`` as an array; ragged rows are a StructureError naming ``part``."""
    try:
        return np.asarray(rows, dtype=dtype)
    except ValueError:
        raise StructureError(f"{part} has rows of different lengths", part) from None


def lookup(table, *index):
    """``table[index]`` over broadcast index arrays; scalar ones give an int."""
    out = table[index]
    return int(out) if np.ndim(out) == 0 else out


def cyclic_group(n: int, name=None) -> FiniteGroup:
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table, identity=0, name=name or f"Z{n}")


# --- matrix groups ----------------------------------------------------------

# 1 and -i sigma_k: the unit quaternion (w, x, y, z) is w I - i (x, y, z).sigma
QUATERNION_UNITS = np.array([[[1, 0], [0, 1]], [[0, -1j], [-1j, 0]],
                             [[0, -1], [1, 0]], [[-1j, 0], [0, 1j]]])
# L_k with hat(x) = x_k L_k, (L_k)_ij = -epsilon_kij
SO3_BASIS = np.zeros((3, 3, 3))
SO3_BASIS[[0, 1, 2], [2, 0, 1], [1, 2, 0]] = 1.0
SO3_BASIS[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = -1.0

# The (kind, dim) pairs with closed forms, and their default names.
_GROUPS = {("unitary", 1): "U(1)", ("unitary", 2): "U(2)",
           ("special_unitary", 2): "SU(2)", ("special_orthogonal", 3): "SO(3)"}


def _sinc(x):
    return np.sinc(x / np.pi)


def spin_coordinates(m):
    """(phase rate, half rotation vector u) of algebra matrices (..., n, n)
    as (..., 4): m = i phase I - i u.sigma on u(1), u(2) and su(2), and
    m = hat(2 u) on so(3), so that exp m is e^{i phase} times the unit
    quaternion :func:`quaternion_exp` of u (through the double cover on
    SO(3))."""
    m = np.asarray(m)
    n = m.shape[-1]
    out = np.zeros(m.shape[:-2] + (4,))
    out[..., 0] = np.trace(m, axis1=-2, axis2=-1).imag / n
    if n > 1:
        units = QUATERNION_UNITS[1:] if n == 2 else 2.0 * SO3_BASIS
        out[..., 1:] = (np.einsum("kij,...ij->...k", units.conj(), m).real
                        / np.sum(np.abs(units[0]) ** 2))
    return out


def quaternion_exp(u):
    """Unit quaternions exp(-i u.sigma) = cos |u| I - i sinc |u| u.sigma of
    half rotation vectors, planes (3, ...) -> (2, ...): each quaternion
    w I - i (x, y, z).sigma is held as the first column (a, b) =
    (w - i z, y - i x) of its SU(2) matrix [[a, -b*], [b, a*]]."""
    theta = np.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    sinc = _sinc(theta)
    out = np.empty((2,) + theta.shape, dtype=complex)
    out.real[0], out.imag[0] = np.cos(theta), -sinc * u[2]
    out.real[1], out.imag[1] = sinc * u[1], -sinc * u[0]
    return out


def hamilton(p, q):
    """Hamilton product of quaternion planes (2, ...) as held by
    :func:`quaternion_exp`, batched: the first column of the product of
    their SU(2) matrices, four complex products."""
    (a1, b1), (a2, b2) = p, q
    return np.stack([a1 * a2 - b1.conj() * b2, b1 * a2 + a1.conj() * b2])


def unrotate(q, v):
    """R(q)^-1 v = v + 2u x (u x v) - 2w (u x v) of vectors (..., 3) by the
    unit quaternions q = (w, u) of planes (2, ...) as held by
    :func:`quaternion_exp`, batched together: the inverse of an SU(2) or
    SO(3) frame acting on what it rotates, with no matrix built."""
    def cross(x, y):        # of planes, x_1 y_2 - x_2 y_1 and its cycles
        return [x[i - 2] * y[i - 1] - x[i - 1] * y[i - 2] for i in range(3)]

    a, b = q
    u, v = (-b.imag, b.real, -a.imag), np.moveaxis(v, -1, 0)
    uv = cross(u, v)
    return np.stack([v[i] + 2.0 * (uuv - a.real * uv[i])
                     for i, uuv in enumerate(cross(u, uv))], axis=-1)


def rotation_quaternion(r):
    """Unit quaternions (w, x, y, z), w >= 0, of rotations, batched.  By
    Shepperd (JGCD 1978): k = 4 q q^T, and its row at the largest diagonal
    entry is a multiple of q that no cancellation has spoilt."""
    r = np.asarray(r, dtype=float)
    tr = np.trace(r, axis1=-2, axis2=-1)
    k = np.empty(r.shape[:-2] + (4, 4))
    k[..., 0, 0] = 1.0 + tr
    k[..., 0, 1:] = k[..., 1:, 0] = np.einsum("kij,...ij->...k", SO3_BASIS, r)
    k[..., 1:, 1:] = (r + np.swapaxes(r, -2, -1)
                      + (1.0 - tr)[..., None, None] * np.eye(3))
    best = np.argmax(np.diagonal(k, axis1=-2, axis2=-1), axis=-1)
    q = np.take_along_axis(k, best[..., None, None], axis=-2)[..., 0, :]
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    return np.where(q[..., :1] < 0.0, -q, q)


class MatrixGroup:
    """Matrix Lie group defined by a membership predicate: ``kind`` is
    'unitary', 'special_unitary' or 'special_orthogonal' (real entries).  A
    (kind, dim) other than U(1), U(2), SU(2) or SO(3) is a StructureError."""

    def __init__(self, kind: str, dim: int, name=None):
        if (kind, dim) not in _GROUPS:
            raise StructureError(
                f"no matrix group {kind!r} of size {dim}; the supported "
                f"groups are {', '.join(_GROUPS.values())}")
        self.kind = kind
        self.dim = dim
        self.real = kind == "special_orthogonal"
        self.name = name or _GROUPS[kind, dim]
        # log g = vec_k units_k (+ i phase I): -i sigma_k, or 2 L_k on SO(3)
        self._log_units = {1: np.zeros((3, 1, 1)), 2: QUATERNION_UNITS[1:],
                           3: 2.0 * SO3_BASIS}[dim]
        self.identity = np.eye(dim, dtype=float if self.real else complex)

    # -- membership and projection ------------------------------------------

    def membership_defect(self, m) -> float:
        m = np.asarray(m)
        if m.shape[-2:] != (self.dim, self.dim):
            raise MembershipError(
                f"expected {self.dim}x{self.dim} matrix for {self.name}")
        d = np.max(np.abs(self.inv(m) @ m - np.eye(self.dim)))
        if self.real:
            d = max(d, np.max(np.abs(m.imag)) if np.iscomplexobj(m) else 0.0)
        if self.kind in ("special_unitary", "special_orthogonal"):
            d = max(d, np.max(np.abs(self._det(m) - 1.0)))
        return float(d)

    def _det(self, m):
        """Batched determinant, written out entry by entry."""
        if self.dim == 1:
            return m[..., 0, 0]
        if self.dim == 2:
            return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(m, (-2, -1), (0, 1))
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    def project(self, m):
        """Polar projection onto the group manifold (batched).

        Closed forms, see the module docstring; each raises MembershipError
        on an input it cannot project.  For SU(2) the unitary factor is
        then rotated by exp(-i arg(det) / 2).
        """
        m = np.asarray(m, dtype=float if self.real else complex)
        if self.dim == 3:
            # one Newton-Schulz step X (3I - X^T X) / 2 (Higham, Functions of
            # Matrices, 2008, ch. 8); its error is about 3/8 d^2 for the
            # drift d = max |X^T X - I|, so d > sqrt(eps) is refused
            gram = np.swapaxes(m, -2, -1) @ m
            drift = np.max(np.abs(gram - np.eye(3)), initial=0.0)
            if not drift <= np.sqrt(_EPS):      # NaN fails as well
                raise MembershipError(
                    f"matrix is {drift:.3e} off the {self.name} manifold, "
                    f"too far for one Newton-Schulz step")
            p = m @ (1.5 * np.eye(3) - 0.5 * gram)
            if np.any(self._det(p) < 0.0):
                raise MembershipError(
                    f"projection landed on the det=-1 sheet of {self.name}")
            return p
        det = self._det(m)
        if self.dim == 1:
            p = m / self._regular_abs_det(det, np.abs(det))[..., None, None]
        else:
            p = self._polar_2x2(m, det)
        if self.kind == "special_unitary":
            p *= np.exp(-1j * np.angle(det) / self.dim)[..., None, None]
        return p

    def _regular_abs_det(self, det, size):
        """|det|, once it is finite and above roundoff relative to ``size``,
        a quantity of the same degree in the entries."""
        absdet = np.abs(det)
        # written so that NaN and infinity fail the comparison as well
        if not np.all(absdet > _EPS * size):
            raise MembershipError(
                f"cannot project a singular or non-finite matrix onto {self.name}")
        return absdet

    def _polar_2x2(self, m, det):
        """Unitary polar factor of a batch of nonsingular complex 2x2
        matrices with determinants ``det``.  For M = [[a, b], [c, d]] with
        det M = |det M| e^{i phi}, |det M| M^-H = e^{i phi} [[d*, -c*],
        [-b*, a*]], and M + |det M| M^-H = (s1 + s2) U for the singular
        values s1, s2 of M, with (s1 + s2)^2 = |M|_F^2 + 2 |det M|."""
        a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
        norm2 = np.einsum("...ij,...ij->...", m, m.conj()).real
        absdet = self._regular_abs_det(det, norm2)
        phase = det / absdet
        out = np.empty(m.shape, dtype=complex)
        out[..., 0, 0] = a + phase * d.conj()
        out[..., 0, 1] = b - phase * c.conj()
        out[..., 1, 0] = c - phase * b.conj()
        out[..., 1, 1] = d + phase * a.conj()
        out *= (1.0 / np.sqrt(norm2 + 2.0 * absdet))[..., None, None]
        return out

    def from_spin(self, phase, quat):
        """The matrices (..., n, n) of spin coordinates: e^{i phase} on U(1);
        e^{i phase} times the unit quaternion quat / |quat| (planes (2, ...)
        as held by :func:`quaternion_exp`, normalized here) on U(2), the
        quaternion alone on SU(2), and its rotation on SO(3)."""
        if self.dim == 1:
            return np.exp(1j * phase)[..., None, None]
        a, b = quat / np.sqrt(np.sum(np.abs(quat) ** 2, axis=0))
        if self.real:       # (w^2 - |v|^2) I + 2 v v^T + 2 w hat(v)
            w, v = a.real, np.stack([-b.imag, b.real, -a.imag])
            return (2.0 * (np.einsum("i...,j...->...ij", v, v)
                           + np.einsum("k...,kij->...ij", w * v, SO3_BASIS))
                    + (w * w - np.sum(v * v, axis=0))[..., None, None] * np.eye(3))
        m = np.empty(a.shape + (2, 2), dtype=complex)
        m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = (
            a, -b.conj(), b, a.conj())
        return m * np.exp(1j * phase)[..., None, None] if self.kind == "unitary" else m

    def mul(self, a, b):
        """Batched product: 1x1 elementwise, 2x2 written out entry by entry
        once the batch reaches ENTRYWISE_MIN_BATCH, else numpy's matmul."""
        if self.dim == 1:
            return np.multiply(a, b)
        if self.dim == 3 or max(np.size(a), np.size(b)) < 4 * ENTRYWISE_MIN_BATCH:
            return np.matmul(a, b)
        a, b = np.asarray(a), np.asarray(b)
        a00, a01, a10, a11 = (a[..., i, j] for i in (0, 1) for j in (0, 1))
        b00, b01, b10, b11 = (b[..., i, j] for i in (0, 1) for j in (0, 1))
        out = np.empty(np.broadcast_shapes(a.shape, b.shape),
                       dtype=np.result_type(a, b))
        out[..., 0, 0] = a00 * b00 + a01 * b10
        out[..., 0, 1] = a00 * b01 + a01 * b11
        out[..., 1, 0] = a10 * b00 + a11 * b10
        out[..., 1, 1] = a10 * b01 + a11 * b11
        return out

    def inv(self, a):
        return np.swapaxes(np.asarray(a).conj(), -2, -1)

    def distance(self, a, b):
        """Elementwise max-abs distance over the batch axes."""
        return np.max(np.abs(np.asarray(a) - np.asarray(b)), axis=(-2, -1))

    def defect(self, a, b) -> float:
        return float(np.max(self.distance(a, b)))

    # -- exponential / logarithm ---------------------------------------------

    def exp(self, x, alg):
        """Group exponential of coefficient vectors x (..., alg.dim) of the
        Lie algebra ``alg``, batched: :meth:`from_spin` of x @ alg.spin, with
        no matrix of x built."""
        spin = np.moveaxis(x @ alg.spin, -1, 0)
        return self.from_spin(spin[0], quaternion_exp(spin[1:]))

    def log(self, g):
        """Principal logarithm, batched over leading axes.  BranchError when
        an eigenvalue angle reaches pi (1 - 1e-12), outside the injectivity
        radius of exp, or when exp(log g) misses g by more than 1e-9."""
        g = np.asarray(g, dtype=float if self.real else complex)
        phase = (np.angle(self._det(g)) / self.dim if self.kind == "unitary"
                 else np.zeros(g.shape[:-2]))
        if self.dim == 3:
            q = rotation_quaternion(g)
        elif self.dim == 2:
            q = np.einsum("aij,...ij->...a", QUATERNION_UNITS.conj(),
                          g * np.exp(-1j * phase)[..., None, None]).real / 2
            # an eigen-angle phase +- theta past +-pi, i.e. cos theta below
            # -cos phase: g = e^{i(phase -+ pi)} (-q)
            flip = q[..., 0] < -np.cos(phase) * np.linalg.norm(q, axis=-1)
            phase = phase - np.pi * np.sign(phase) * flip
            q = np.where(flip[..., None], -q, q)
        else:
            q = np.broadcast_to([1.0, 0.0, 0.0, 0.0], phase.shape + (4,))
        norm = np.linalg.norm(q[..., 1:], axis=-1)
        theta = np.arctan2(norm, q[..., 0])
        # the rotation angle of SO(3) is twice the quaternion angle
        worst = 2.0 * theta if self.real else np.abs(phase) + theta
        if np.max(worst, initial=0.0) >= np.pi * (1.0 - 1e-12):
            raise BranchError(
                f"element of {self.name} outside the principal branch "
                f"(eigenvalue angle {np.max(worst):.6f})")
        vec = q[..., 1:] / (np.hypot(norm, q[..., 0]) * _sinc(theta))[..., None]
        w = np.tensordot(vec, self._log_units, axes=1)
        if self.kind == "unitary":
            w = w + np.multiply.outer(1j * phase, np.eye(self.dim))
        defect = self.defect(
            self.from_spin(phase, quaternion_exp(np.moveaxis(vec, -1, 0))), g)
        if defect > 1e-9:
            raise BranchError(
                f"log round-trip defect {defect:.3e} on {self.name}")
        return w

    def __repr__(self):
        return f"MatrixGroup({self.name})"
