"""Basis-indexed Lie algebras and the infinitesimal crossed module.

Algebra elements are coefficient vectors over a fixed matrix basis; the
bracket is tabulated in structure constants once at construction.  The
differentials t_* and alpha_* of a crossed module are supplied analytically
by the family registry and validated here against central differences of
the group-level maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError

__all__ = ["LieAlgebra", "LieTwoAlgebra", "semidirect_bracket"]


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
        # residual of projecting the basis onto itself must vanish
        self.structure = np.stack([
            np.stack([self.from_matrix(basis[i] @ basis[j] - basis[j] @ basis[i])
                      for j in range(self.dim)])
            for i in range(self.dim)])
        self._check_structure()

    @staticmethod
    def _flatten(mats):
        m = np.asarray(mats)
        parts = [m.real.reshape(*m.shape[:-2], -1)]
        if np.iscomplexobj(m):
            parts.append(m.imag.reshape(*m.shape[:-2], -1))
        else:
            parts.append(np.zeros_like(parts[0]))
        return np.concatenate(parts, axis=-1)

    def _check_structure(self, tol=1e-10):
        c = self.structure
        anti = np.max(np.abs(c + np.swapaxes(c, 0, 1)))
        jac = np.einsum("ijm,mkl->ijkl", c, c)
        jacobi = np.max(np.abs(jac + np.transpose(jac, (1, 2, 0, 3))
                               + np.transpose(jac, (2, 0, 1, 3))))
        if max(anti, jacobi) > tol:
            raise StructureError(
                f"{self.name}: structure constants defect "
                f"antisymmetry={anti:.2e}, Jacobi={jacobi:.2e}")

    def to_matrix(self, vec):
        """Coefficient vector(s) (..., dim) -> matrix (..., n, n)."""
        vec = np.asarray(vec, dtype=float)
        return np.tensordot(vec, self.basis, axes=([-1], [0]))

    def from_matrix(self, m, tol=1e-8):
        """Matrix (..., n, n) -> coefficient vector(s); m must lie in span."""
        m = np.asarray(m)
        flat = self._flatten(m)
        coeff = flat @ self._pinv.T if flat.ndim > 1 else self._pinv @ flat
        residual = np.max(np.abs(self.to_matrix(coeff) - m))
        if residual > tol * (1.0 + np.max(np.abs(m))):
            raise DomainError(
                f"matrix outside the span of the {self.name} basis "
                f"(residual {residual:.3e})")
        return coeff

    def bracket(self, u, v):
        """Bracket of coefficient vectors, batched over leading axes."""
        return _contract_outer(u, v, self.structure)

    def norm(self, vec):
        return float(np.max(np.abs(vec)))

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
        self.t_star = np.asarray(self.t_star, dtype=float)
        self.alpha_star = np.asarray(self.alpha_star, dtype=float)
        if self.t_star.shape != (self.g_alg.dim, self.h_alg.dim):
            raise StructureError("t_star has the wrong shape")
        if self.alpha_star.shape != (self.g_alg.dim, self.h_alg.dim,
                                     self.h_alg.dim):
            raise StructureError("alpha_star has the wrong shape")
        self._ker_t_star = _null_space(self.t_star)

    def apply_t_star(self, eta):
        return np.einsum("gh,...h->...g", self.t_star, np.asarray(eta))

    def apply_alpha_star(self, x, eta):
        return _contract_outer(x, eta, self.alpha_star)

    def project_ker_t_star(self, eta):
        k = self._ker_t_star
        if k.shape[0] == 0:
            return np.zeros_like(np.asarray(eta, dtype=float))
        return np.einsum("...i,ki,kj->...j", np.asarray(eta), k, k)

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
        worst = 0.0
        for unit, xi_mat in zip(np.eye(self.h_alg.dim), self.h_alg.basis):
            plus = cm.G.log(cm.t(cm.H.exp(eps * xi_mat)))
            minus = cm.G.log(cm.t(cm.H.exp(-eps * xi_mat)))
            fd = self.g_alg.from_matrix((plus - minus) / (2 * eps))
            worst = max(worst, float(np.max(np.abs(fd - self.apply_t_star(unit)))))
        return worst


def _contract_outer(u, v, c):
    """u_i v_j c_ijk batched over leading axes.

    Forming the outer product first and contracting it with one 2-operand
    einsum gives the same bits as the 3-operand einsum, and is faster.
    """
    u, v = np.asarray(u), np.asarray(v)
    return np.einsum("...ij,ijk->...k", u[..., :, None] * v[..., None, :], c)


def _basis_pairs(dim):
    """Every (e_i, e_j) pair of unit vectors, as two broadcastable arrays."""
    eye = np.eye(dim)
    return eye[:, None], eye[None, :]


def _null_space(a, tol=1e-12):
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > tol * max(a.shape)))
    return vh[rank:]


def semidirect_bracket(l2a: LieTwoAlgebra, x, y):
    """Bracket on g + h: ([X,Y], alpha_*(X,eta) - alpha_*(Y,xi) + [xi,eta]).

    ``x`` and ``y`` are (g-vector, h-vector) pairs.
    """
    X, xi = (np.asarray(v, dtype=float) for v in x)
    Y, eta = (np.asarray(v, dtype=float) for v in y)
    if X.shape[-1] != l2a.g_alg.dim or xi.shape[-1] != l2a.h_alg.dim:
        raise DomainError("semidirect element has wrong dimensions")
    g_part = l2a.g_alg.bracket(X, Y)
    h_part = (l2a.apply_alpha_star(X, eta) - l2a.apply_alpha_star(Y, xi)
              + l2a.h_alg.bracket(xi, eta))
    return g_part, h_part
