"""Basis-indexed Lie algebras and the infinitesimal crossed module.

Algebra elements are coefficient vectors over a fixed matrix basis; the
bracket is tabulated in structure constants once at construction.  The
differentials t_* and alpha_* of a crossed module are supplied analytically
by the family registry and validated here against central differences of
the group-level maps.

Contractions with a constant table (structure constants, alpha_*, t_*,
rep_*, the ker t_* projector) run over its nonzero entries, listed once
per table by :func:`terms`; a dense ``lie2algebra`` override has more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError
from .groups import as_table, spin_coordinates

__all__ = ["LieAlgebra", "LieTwoAlgebra"]


class LieAlgebra:
    """Matrix Lie algebra with a fixed basis.

    ``basis`` has shape (dim, n, n).  Structure constants are computed from
    the basis and validated (antisymmetry and Jacobi to 1e-10).
    """

    def __init__(self, basis, name="lie-algebra"):
        basis = np.asarray(basis)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise StructureError("basis must have shape (dim, n, n)")
        self.basis = basis
        self.name = name
        self.dim = basis.shape[0]
        self.matrix_dim = basis.shape[1]
        flat = self._flatten(basis)
        self._pinv = np.linalg.pinv(flat.T)
        self._flat_basis = basis.reshape(self.dim, -1)
        # structure[i, j] = [e_i, e_j], all pairs in one from_matrix
        self.structure = self.from_matrix(basis[:, None] @ basis[None]
                                          - basis[None] @ basis[:, None])
        self._check_structure()
        self._structure_terms = terms(self.structure)
        # Killing form tr(ad_{e_i} ad_{e_m}); ad_X has (k, j) entry X_i c_ijk
        self.killing = np.einsum("ijk,mkj->im", self.structure, self.structure)
        # x @ spin: the (phase rate, half rotation vector) of exp(x), see
        # groups.spin_coordinates; the ordered-exponential kernel's input
        self.spin = spin_coordinates(basis)

    @staticmethod
    def _flatten(mats):
        """(..., n, n) -> (..., 2 n^2): real parts, then imaginary parts."""
        m = np.asarray(mats)
        return np.concatenate([m.real.reshape(*m.shape[:-2], -1),
                               m.imag.reshape(*m.shape[:-2], -1)], axis=-1)

    def _check_structure(self):
        c = self.structure
        anti = np.max(np.abs(c + np.swapaxes(c, 0, 1)))
        jac = np.einsum("ijm,mkl->ijkl", c, c)
        jacobi = np.max(np.abs(jac + np.transpose(jac, (1, 2, 0, 3))
                               + np.transpose(jac, (2, 0, 1, 3))))
        if max(anti, jacobi) > 1e-10:
            raise StructureError(
                f"{self.name}: structure constants defect "
                f"antisymmetry={anti:.2e}, Jacobi={jacobi:.2e}")

    def to_matrix(self, vec):
        """Coefficient vector(s) (..., dim) -> matrix (..., n, n)."""
        vec = np.asarray(vec, dtype=float)
        n = self.matrix_dim
        return (vec.reshape(-1, self.dim) @ self._flat_basis).reshape(
            vec.shape[:-1] + (n, n))

    def from_matrix(self, m):
        """Matrix (..., n, n) -> coefficient vector(s); each matrix must lie
        in the span, to 1e-8 relative to its own largest entry."""
        m = np.asarray(m)
        flat = self._flatten(m)
        coeff = flat @ self._pinv.T if flat.ndim > 1 else self._pinv @ flat
        residual = np.max(np.abs(self.to_matrix(coeff) - m), axis=(-2, -1))
        if np.any(residual > 1e-8 * (1.0 + np.max(np.abs(m), axis=(-2, -1)))):
            raise DomainError(
                f"matrix outside the span of the {self.name} basis "
                f"(residual {np.max(residual):.3e})")
        return coeff

    def bracket(self, u, v):
        """Bracket of coefficient vectors, batched over leading axes."""
        return bilinear(self._structure_terms, u, v)

    def dexp(self, X, dX):
        """(d exp(X)) exp(-X) along dX, batched:

            dX + (1 - cos t)/t^2 [X, dX] + (t - sin t)/t^3 [X, [X, dX]],

        t^2 = -tr(ad_X^2)/2, which sums the series ad_X^k dX / (k+1)!
        wherever ad_X^3 = -t^2 ad_X, as in u(1), su(2), u(2) and so(3)
        (Iserles et al., Acta Numerica 2000, sec. 2); a series for t < 0.1."""
        X = np.asarray(X, dtype=float)
        t2 = np.maximum(-0.5 * np.einsum("...i,ij,...j->...", X, self.killing, X), 0.0)
        t = np.where(t2 < 1e-2, 1.0, np.sqrt(t2))     # 1 where the series serves
        f1 = 0.5 * np.sinc(np.sqrt(t2) / (2.0 * np.pi)) ** 2
        f2 = np.where(t2 < 1e-2, 1 / 6 - t2 / 120 + t2 ** 2 / 5040 - t2 ** 3 / 362880,
                      (t - np.sin(t)) / t ** 3)
        inner = self.bracket(X, dX)
        return dX + f1[..., None] * inner + f2[..., None] * self.bracket(X, inner)

    def __repr__(self):
        return f"LieAlgebra({self.name}, dim={self.dim})"


@dataclass
class LieTwoAlgebra:
    """Infinitesimal crossed module (g, h, t_*, alpha_*).

    ``t_star`` is a (dim_g, dim_h) matrix acting on h-coefficient vectors;
    ``alpha_star`` is a (dim_g, dim_h, dim_h) tensor with
    alpha_*(X, eta)_k = X_i eta_j alpha_star[i, j, k].
    """

    g_alg: LieAlgebra
    h_alg: LieAlgebra
    t_star: np.ndarray
    alpha_star: np.ndarray
    name: str = "lie-2-algebra"

    def __post_init__(self):
        self.t_star = as_table(self.t_star, "t_star", float)
        self.alpha_star = as_table(self.alpha_star, "alpha_star", float)
        if self.t_star.shape != (self.g_alg.dim, self.h_alg.dim):
            raise StructureError("t_star has the wrong shape", "t_star")
        if self.alpha_star.shape != (self.g_alg.dim, self.h_alg.dim,
                                     self.h_alg.dim):
            raise StructureError("alpha_star has the wrong shape", "alpha_star")
        self._t_terms = terms(self.t_star)
        self._alpha_terms = terms(self.alpha_star)
        ker = _null_space(self.t_star)
        self._ker_terms = terms(ker.T @ ker)     # the orthogonal projector

    def apply_t_star(self, eta):
        return linear(self._t_terms, eta)

    def apply_alpha_star(self, x, eta):
        return bilinear(self._alpha_terms, x, eta)

    def project_ker_t_star(self, eta):
        return linear(self._ker_terms, eta)

    # -- validation ------------------------------------------------------------

    def homomorphism_defect(self) -> float:
        """t_*[xi, eta] = [t_* xi, t_* eta] on all basis pairs at once."""
        xi, eta = _basis_pairs(self.h_alg.dim)
        lhs = self.apply_t_star(self.h_alg.bracket(xi, eta))
        rhs = self.g_alg.bracket(self.apply_t_star(xi), self.apply_t_star(eta))
        return float(np.max(np.abs(lhs - rhs)))

    def peiffer_defect(self) -> float:
        """alpha_*(t_* xi, eta) = [xi, eta]_h on all basis pairs at once."""
        xi, eta = _basis_pairs(self.h_alg.dim)
        lhs = self.apply_alpha_star(self.apply_t_star(xi), eta)
        return float(np.max(np.abs(lhs - self.h_alg.bracket(xi, eta))))

    def t_star_fd_defect(self, cm, eps=1e-5) -> float:
        """Central-difference consistency of t_star with the group map t."""
        h = cm.H.exp(np.multiply.outer([eps, -eps], self.h_alg.basis))
        plus, minus = cm.G.log(cm.t(h))
        fd = self.g_alg.from_matrix((plus - minus) / (2 * eps))
        return float(np.max(np.abs(fd - self.t_star.T)))

    def alpha_star_fd_defect(self, family, eps=1e-5) -> float:
        """Central-difference consistency of alpha_star with the action:
        alpha_star[i, j, k] = d/de family.alpha_star_of(exp(e X_i))[k, j]."""
        steps = np.multiply.outer([eps, -eps], self.g_alg.basis)
        plus, minus = family.alpha_star_of(family.group_G.exp(steps))
        fd = (plus - minus) / (2 * eps)
        return float(np.max(np.abs(fd.swapaxes(-2, -1) - self.alpha_star)))


def terms(table):
    """(output size, nonzero entries (index, ..., value) in C order) of a
    bilinear table c_ijk, output index last, or a matrix m_kj, first."""
    table = np.asarray(table, dtype=float)
    nz = np.nonzero(table)
    size = table.shape[-1] if table.ndim == 3 else table.shape[0]
    return size, list(zip(*(i.tolist() for i in nz), table[nz].tolist()))


def bilinear(table_terms, u, v):
    """u_i v_j c_ijk over the :func:`terms` of c, batched over the
    broadcast leading axes of u and v; each output sums i-major."""
    u, v = np.asarray(u), np.asarray(v)
    size, entries = table_terms
    out = np.zeros(np.broadcast_shapes(u.shape[:-1], v.shape[:-1]) + (size,))
    for i, j, k, c in entries:
        out[..., k] += c * (u[..., i] * v[..., j])
    return out


def linear(table_terms, x):
    """m_kj x_j over the :func:`terms` of m, batched over leading axes."""
    x = np.asarray(x)
    size, entries = table_terms
    out = np.zeros(x.shape[:-1] + (size,))
    for k, j, m in entries:
        out[..., k] += m * x[..., j]
    return out


def _basis_pairs(dim):
    """Every (e_i, e_j) pair of unit vectors, as two broadcastable arrays."""
    eye = np.eye(dim)
    return eye[:, None], eye[None, :]


def _null_space(a):
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > 1e-12 * max(a.shape)))
    return vh[rank:]
