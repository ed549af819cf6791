"""Group backends: finite multiplication tables and matrix Lie groups.

Finite groups hold an explicit multiplication table and are exact; their
operations take integer index arrays, so a batch of elements is one lookup.
Matrix groups carry a membership predicate (unitary / orthogonal, with an
optional determinant condition), a polar projection back onto the group
manifold, and exponential/logarithm bridges to their Lie algebras.
Projection and exponential have closed forms, written entry by entry, for
the sizes the built-in families use:

* ``project`` on U(1) is m / |m|, and on U(2) and SU(2) the exact 2x2
  polar factor (M + |det M| M^-H) / sqrt(|M|_F^2 + 2 |det M|); real groups
  and complex ones larger than 2x2 take the SVD polar factor.  A closed
  form refuses a singular or non-finite input with MembershipError.
* ``exp`` has closed forms for the 1x1, anti-Hermitian 2x2 and real
  antisymmetric 3x3 cases; everything else falls back to the
  scaling-and-squaring routine in scipy.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

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

    def contains(self, a) -> bool:
        return isinstance(a, (int, np.integer)) and 0 <= int(a) < self.order

    def project(self, a):
        if not self.contains(a):
            raise MembershipError(f"{a!r} is not an element index of {self.name}")
        return int(a)

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


class MatrixGroup:
    """Matrix Lie group defined by a membership predicate.

    ``kind`` selects the predicate: 'unitary' (U(n)), 'special_unitary'
    (SU(n)), or 'special_orthogonal' (SO(n), real entries).
    """

    def __init__(self, kind: str, dim: int, name=None, tol=MEMBERSHIP_TOL):
        if kind not in ("unitary", "special_unitary", "special_orthogonal"):
            raise StructureError(f"unknown matrix group kind {kind!r}")
        self.kind = kind
        self.dim = dim
        self.real = kind == "special_orthogonal"
        self.tol = tol
        self.name = name or f"{kind}({dim})"
        self.identity = np.eye(dim, dtype=float if self.real else complex)

    # -- membership and projection ------------------------------------------

    def membership_defect(self, m) -> float:
        m = np.asarray(m)
        if m.shape[-2:] != (self.dim, self.dim):
            raise MembershipError(
                f"expected {self.dim}x{self.dim} matrix for {self.name}")
        eye = np.eye(self.dim)
        d = np.max(np.abs(np.swapaxes(m.conj(), -2, -1) @ m - eye))
        if self.real:
            d = max(d, np.max(np.abs(m.imag)) if np.iscomplexobj(m) else 0.0)
        if self.kind in ("special_unitary", "special_orthogonal"):
            d = max(d, np.max(np.abs(self._det(m) - 1.0)))
        return float(d)

    def _det(self, m):
        """Batched determinant, written out for complex 1x1 and 2x2."""
        if self.real or self.dim > 2:
            return np.linalg.det(m)
        if self.dim == 1:
            return m[..., 0, 0]
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]

    def check_membership(self, m):
        d = self.membership_defect(m)
        if d > self.tol:
            raise MembershipError(
                f"matrix is off the {self.name} manifold by {d:.3e}")
        return m

    def project(self, m):
        """Polar projection onto the group manifold (batched).

        U(1), U(2) and SU(2) use closed forms (see the module docstring)
        and raise MembershipError on a singular or non-finite input; SO(n)
        and complex groups larger than 2x2 use the SVD polar factor.  For
        SU(n) the unitary factor is then rotated by exp(-i arg(det) / n).
        """
        m = np.asarray(m, dtype=float if self.real else complex)
        if self.real or self.dim > 2:
            u, _, vh = np.linalg.svd(m)
            p = u @ vh
            if self.kind == "special_orthogonal" and np.any(np.linalg.det(p) < 0):
                raise MembershipError(
                    f"projection landed on the det=-1 sheet of {self.name}")
            if self.kind != "special_unitary":
                return p
            det = np.linalg.det(p)
        else:
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
        """Group exponential of an algebra matrix, batched over leading axes.

        The closed forms for the built-in families (1x1, anti-Hermitian
        2x2, antisymmetric 3x3) land on the manifold to roundoff and are
        returned unprojected; other shapes go through scipy's
        scaling-and-squaring expm, whose result is polar-projected.
        """
        w = np.asarray(w, dtype=float if self.real else complex)
        if self.dim == 1:
            return np.exp(w)
        if self.dim == 2 and not self.real:
            return _exp_antihermitian_2x2(w)
        if self.dim == 3 and self.real:
            return _exp_antisymmetric_3x3(w)
        return self.project(scipy.linalg.expm(w))

    def log(self, g, branch_margin=1e-12):
        """Principal matrix logarithm, structure-projected onto the algebra.

        Raises BranchError when an eigenvalue angle reaches pi, i.e. when the
        element is outside the injectivity radius of exp.
        """
        g = np.asarray(g, dtype=float if self.real else complex)
        if g.ndim > 2:
            return np.stack([self.log(x, branch_margin) for x in g])
        angles = np.abs(np.angle(np.linalg.eigvals(g)))
        if np.max(angles) >= np.pi * (1.0 - branch_margin):
            raise BranchError(
                f"element of {self.name} outside the principal branch "
                f"(eigenvalue angle {np.max(angles):.6f})")
        if self.dim == 1:
            return np.array([[1j * np.angle(g[0, 0])]])
        w = scipy.linalg.logm(g)
        # anti-hermitize: exact log of a unitary/orthogonal is skew
        w = 0.5 * (w - w.conj().T)
        if self.real:
            w = w.real
        if self.kind == "special_unitary":
            w = w - (np.trace(w) / self.dim) * np.eye(self.dim)
        defect = float(np.max(np.abs(self.exp(w) - g)))
        if defect > 1e-9:
            raise BranchError(
                f"log round-trip defect {defect:.3e} on {self.name}")
        return w

    def __repr__(self):
        return f"MatrixGroup({self.name})"
