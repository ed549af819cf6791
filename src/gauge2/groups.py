"""Group backends: finite multiplication tables and matrix Lie groups.

Finite groups hold an explicit multiplication table and are exact; their
operations take integer index arrays, so a batch of elements is one lookup.
Matrix groups are U(1), U(2), SU(2) and SO(3), the built-in families'
groups; each operation is one closed form, batched over leading axes:

* ``project``: m / |m| on U(1), the exact 2x2 polar factor
  (M + |det M| M^-H) / sqrt(|M|_F^2 + 2 |det M|) on U(2) and SU(2), one
  Newton-Schulz step on SO(3); MembershipError where it cannot project.
* ``exp``: e^w, the anti-Hermitian 2x2 formula, Rodrigues' formula.
* ``log``: i arg g on U(1); on U(2) and SU(2) the eigen-angles phi +- theta
  of g = e^{i phi} (cos theta I + sin theta N); on SO(3) twice the angle of
  the Shepperd quaternion.  BranchError outside the principal branch.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchError, MembershipError, StructureError

__all__ = ["FiniteGroup", "MatrixGroup", "cyclic_group"]

MEMBERSHIP_TOL = 1e-10
_EPS = np.finfo(float).eps


class FiniteGroup:
    """Finite group given by an explicit multiplication table.

    ``table[a, b]`` is the index of the product a*b.  The constructor checks
    that the table is a Latin square, that identity and inverses are
    consistent, and that multiplication is associative, each as an array
    identity.  ``mul`` and ``inv`` take index arrays; scalars give ints.
    """

    def __init__(self, table, identity=0, inverse=None, name="finite"):
        table = np.asarray(table, dtype=int)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise StructureError("multiplication table must be square")
        n = table.shape[0]
        if np.any(table < 0) or np.any(table >= n):
            bad = np.argwhere((table < 0) | (table >= n))[0]
            raise StructureError(
                f"table entry out of range at row {bad[0]}, column {bad[1]}")
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
        if inverse is None:
            inverse = np.argmax(table == identity, axis=1)
        else:
            inverse = np.asarray(inverse, dtype=int)
            bad = np.flatnonzero((table[full, inverse] != identity)
                                 | (table[inverse, full] != identity))
            if bad.size:
                raise StructureError(f"inverse table wrong at row {bad[0]}")
        # Latin square + identity does not imply associativity; check it:
        # table[table][a, b, c] = (ab)c and table[:, table][a, b, c] = a(bc).
        bad = np.argwhere(table[table] != table[:, table])
        if bad.size:
            raise StructureError(f"multiplication not associative at row {bad[0][0]}")
        self.table = table
        self.identity = int(identity)
        self.inverse_table = inverse
        self.name = name
        self.order = n

    def mul(self, a, b):
        return lookup(self.table, a, b)

    def inv(self, a):
        return lookup(self.inverse_table, a)

    def elements(self):
        return range(self.order)

    def distance(self, a, b):
        """Elementwise over broadcast batches: 0 where equal, 1 otherwise."""
        return (np.asarray(a) != np.asarray(b)).astype(float)

    def defect(self, a, b) -> float:
        """Largest distance over a batch: 0 when all equal, 1 otherwise."""
        return float(np.max(self.distance(a, b), initial=0.0))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


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


def _exp_antihermitian_2x2(w):
    """exp for 2x2 anti-Hermitian matrices, batched over leading axes.

    With w = a I + S, S = [[h, q], [r, -h]] traceless and theta^2 = det S,
    exp(w) = e^a (cos(theta) I + sinc(theta) S).
    """
    p, q, r, s = w[..., 0, 0], w[..., 0, 1], w[..., 1, 0], w[..., 1, 1]
    a = 0.5 * (p + s)
    h = 0.5 * (p - s)
    theta = np.sqrt(np.maximum((-h * h - q * r).real, 0.0))
    scale = np.exp(a)
    cos = scale * np.cos(theta)
    sinc = scale * _sinc(theta)
    out = np.empty(w.shape, dtype=complex)
    out[..., 0, 0] = cos + sinc * h
    out[..., 0, 1] = sinc * q
    out[..., 1, 0] = sinc * r
    out[..., 1, 1] = cos - sinc * h
    return out


def _exp_antisymmetric_3x3(w):
    """Rodrigues formula for real antisymmetric 3x3, batched."""
    vec = np.stack([w[..., 2, 1], w[..., 0, 2], w[..., 1, 0]], axis=-1)
    theta = np.linalg.norm(vec, axis=-1)[..., None, None]
    eye = np.broadcast_to(np.eye(3), w.shape)
    coeff2 = 0.5 * _sinc(theta / 2.0) ** 2
    return eye + _sinc(theta) * w + coeff2 * (w @ w)


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

    def __init__(self, kind: str, dim: int, name=None, tol=MEMBERSHIP_TOL):
        if (kind, dim) not in _GROUPS:
            raise StructureError(
                f"no matrix group {kind!r} of size {dim}; the supported "
                f"groups are {', '.join(_GROUPS.values())}")
        self.kind = kind
        self.dim = dim
        self.real = kind == "special_orthogonal"
        self.tol = tol
        self.name = name or _GROUPS[kind, dim]
        # log g = vec_k units_k (+ i phase I): -i sigma_k, or 2 L_k on SO(3)
        self._log_units = {1: np.zeros((0, 1, 1)), 2: QUATERNION_UNITS[1:],
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

    def check_membership(self, m):
        d = self.membership_defect(m)
        if d > self.tol:
            raise MembershipError(
                f"matrix is off the {self.name} manifold by {d:.3e}")
        return m

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
            p = p * np.exp(-1j * np.angle(det) / self.dim)[..., None, None]
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

    def mul(self, a, b):
        return a @ b

    def inv(self, a):
        return np.swapaxes(np.asarray(a).conj(), -2, -1)

    def distance(self, a, b):
        """Elementwise max-abs distance over the batch axes."""
        return np.max(np.abs(np.asarray(a) - np.asarray(b)), axis=(-2, -1))

    def defect(self, a, b) -> float:
        return float(np.max(self.distance(a, b)))

    # -- exponential / logarithm ---------------------------------------------

    def exp(self, w):
        """Group exponential of algebra matrices, batched over leading axes;
        on the manifold to roundoff, so returned unprojected."""
        w = np.asarray(w, dtype=float if self.real else complex)
        if self.dim == 1:
            return np.exp(w)
        if self.dim == 2:
            return _exp_antihermitian_2x2(w)
        return _exp_antisymmetric_3x3(w)

    def log(self, g, branch_margin=1e-12):
        """Principal logarithm, batched over leading axes.  BranchError when
        an eigenvalue angle reaches pi (1 - margin), outside the injectivity
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
            q = np.ones(phase.shape + (1,))
        norm = np.linalg.norm(q[..., 1:], axis=-1)
        theta = np.arctan2(norm, q[..., 0])
        # the rotation angle of SO(3) is twice the quaternion angle
        worst = 2.0 * theta if self.real else np.abs(phase) + theta
        if np.max(worst, initial=0.0) >= np.pi * (1.0 - branch_margin):
            raise BranchError(
                f"element of {self.name} outside the principal branch "
                f"(eigenvalue angle {np.max(worst):.6f})")
        vec = q[..., 1:] / (np.hypot(norm, q[..., 0]) * _sinc(theta))[..., None]
        w = np.tensordot(vec, self._log_units, axes=1)
        if self.kind == "unitary":
            w = w + np.multiply.outer(1j * phase, np.eye(self.dim))
        defect = self.defect(self.exp(w), g)
        if defect > 1e-9:
            raise BranchError(
                f"log round-trip defect {defect:.3e} on {self.name}")
        return w

    def __repr__(self):
        return f"MatrixGroup({self.name})"
