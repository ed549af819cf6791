"""Registry of concrete crossed-module families.

Matrix families package a crossed module together with its infinitesimal
data and the closed-form action machinery the integrators need:

* ``su2_id_conj``  -- G = H = SU(2), t = id, alpha = conjugation.
* ``u1_id``        -- G = H = U(1), t = id, trivial action.
* ``u1_triv``      -- G = H = U(1), t == e, trivial action (nontrivial ker t).
* ``u2_to_pu2``    -- H = U(2), G = PU(2) realised as SO(3) via the adjoint
                      map; alpha is conjugation by an SU(2) lift.

The action alpha_g(h) = rep(g) h rep(g)^dagger is uniform across families:
``rep`` embeds G into the unitaries of H's size (identity, scalar one, or
the SO(3)->SU(2) lift), so on coefficient vectors each adjoint action is
one real matrix per element: 1, a rotation, or blockdiag(1, rotation).

Finite demo modules used by the exact torsor suite live here as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from .groups import (QUATERNION_UNITS, SO3_BASIS, FiniteGroup, MatrixGroup,
                     cyclic_group, lookup, rotation_quaternion)
from .lie2 import LieAlgebra, LieTwoAlgebra
from .twogroup import CrossedModule

__all__ = ["MatrixFamily", "matrix_family", "FAMILY_NAMES",
           "finite_crossed_module", "finite_demo_module", "FINITE_DEMO_NAMES"]

SU2_BASIS = 0.5 * QUATERNION_UNITS[1:]          # e_k = -i sigma_k / 2
U2_BASIS = np.concatenate(([0.5j * np.eye(2)], SU2_BASIS))   # e_0 = i/2 I
U1_BASIS = np.array([[[1j]]])

# R_kj = -tr(B_k h B_j h^H) / 2, B_k = -i sigma_k, over the h_bc conj(h_ad)
_ADJOINT = -0.5 * np.einsum("kab,jcd->kjabcd", QUATERNION_UNITS[1:],
                            QUATERNION_UNITS[1:])


def su2_lift(rotation):
    """SU(2) lift of SO(3) matrices (batched); defined up to sign."""
    return np.tensordot(rotation_quaternion(rotation), QUATERNION_UNITS, axes=1)


def adjoint_so3(h):
    """The PU(2) = SO(3) image of h in U(2): conjugation on su(2), batched."""
    h = np.asarray(h, dtype=complex)
    pairs = h[..., None, :, :, None] * h.conj()[..., :, None, None, :]
    return np.einsum("kjabcd,...abcd->...kj", _ADJOINT, pairs).real


def _conjugate(u, h):
    return u @ h @ np.swapaxes(np.asarray(u).conj(), -2, -1)


def _centred(r):
    """blockdiag(1, R): a rotation of su(2) acting on u(2) = u(1) + su(2)."""
    out = np.zeros(r.shape[:-2] + (4, 4))
    out[..., 0, 0] = 1.0
    out[..., 1:, 1:] = r
    return out


@dataclass
class MatrixFamily:
    """Crossed module with closed-form action and infinitesimal data.  Its
    actions on coefficient vectors are real matrices per element: ``ad_G``
    (Ad on g), ``ad_H`` (Ad on h) and ``alpha_star_of`` ((alpha_g)_* on h).
    """

    name: str
    cm: CrossedModule
    l2a: LieTwoAlgebra
    rep_star: np.ndarray  # (dim_h, dim_g), the differential of rep
    ad_G: object
    ad_H: object
    alpha_star_of: object

    group_G = property(lambda self: self.cm.G)
    group_H = property(lambda self: self.cm.H)

    def alpha_vec(self, g, eta_vec):
        """(alpha_g)_* on h-coefficient vectors; g and eta batched together."""
        return np.einsum("...ij,...j->...i", self.alpha_star_of(g), eta_vec)

    def ad_g_vec(self, g, x_vec):
        """Ad_g on g-coefficient vectors, batched."""
        return np.einsum("...ij,...j->...i", self.ad_G(g), x_vec)

    def ad_h_vec(self, a, eta_vec):
        """Ad_a on h-coefficient vectors for a in H, batched."""
        return np.einsum("...ij,...j->...i", self.ad_H(a), eta_vec)

    def twisted_rep_star(self, a, x_vec):
        """The map X -> rep_*(X) - Ad_a(rep_*(X)) from g to h: the
        differential at the identity of g -> alpha_g(a) a^-1 with a in H
        held fixed (batched over a and x together)."""
        base = np.einsum("hg,...g->...h", self.rep_star, np.asarray(x_vec))
        return base - self.ad_h_vec(a, base)

    def random_g_vec(self, rng, scale=0.8):
        return _random_vec(rng, self.l2a.g_alg.dim, scale)

    def random_h_vec(self, rng, scale=0.8):
        return _random_vec(rng, self.l2a.h_alg.dim, scale)


def _random_vec(rng, dim, scale):
    v = rng.standard_normal(dim)
    return scale * v / max(1.0, np.linalg.norm(v))


def _sampler(group, alg, dim, scale=0.8):
    return lambda rng: group.exp(alg.to_matrix(_random_vec(rng, dim, scale)))


def _build_su2_id_conj() -> MatrixFamily:
    su2 = MatrixGroup("special_unitary", 2, name="SU(2)")
    alg = LieAlgebra(SU2_BASIS, name="su(2)")
    l2a = LieTwoAlgebra(alg, alg, t_star=np.eye(3), alpha_star=alg.structure,
                        name="su(2) id/conj")
    cm = CrossedModule(
        G=su2, H=su2, t=lambda h: h, alpha=_conjugate, name="su2_id_conj",
        sample_G=_sampler(su2, alg, 3), sample_H=_sampler(su2, alg, 3),
        ker_t_elements=lambda: [su2.identity])
    return MatrixFamily("su2_id_conj", cm, l2a, rep_star=np.eye(3),
                        ad_G=adjoint_so3, ad_H=adjoint_so3,
                        alpha_star_of=adjoint_so3)


def _build_u1(trivial_t: bool) -> MatrixFamily:
    u1 = MatrixGroup("unitary", 1, name="U(1)")
    alg = LieAlgebra(U1_BASIS, name="u(1)")
    t_star = np.zeros((1, 1)) if trivial_t else np.eye(1)
    l2a = LieTwoAlgebra(alg, alg, t_star=t_star,
                        alpha_star=np.zeros((1, 1, 1)),
                        name="u(1)" + (" trivial t" if trivial_t else " id"))
    name = "u1_triv" if trivial_t else "u1_id"
    kernel = (0.3, 1.1, 2.0, -0.7) if trivial_t else (0.0,)
    cm = CrossedModule(
        G=u1, H=u1, t=(lambda h: u1.identity) if trivial_t else (lambda h: h),
        alpha=lambda g, h: h, name=name,
        sample_G=_sampler(u1, alg, 1, scale=1.5),
        sample_H=_sampler(u1, alg, 1, scale=1.5),
        ker_t_elements=lambda: [u1.exp(alg.to_matrix([th])) for th in kernel])
    unit = lambda g: np.ones(np.shape(g))      # abelian: every Ad is 1
    return MatrixFamily(name, cm, l2a, rep_star=t_star, ad_G=unit,
                        ad_H=unit, alpha_star_of=unit)


def _build_u2_to_pu2() -> MatrixFamily:
    so3 = MatrixGroup("special_orthogonal", 3, name="SO(3)")
    u2 = MatrixGroup("unitary", 2, name="U(2)")
    g_alg = LieAlgebra(SO3_BASIS, name="so(3)")
    h_alg = LieAlgebra(U2_BASIS, name="u(2)")
    # t_*: e_0 -> 0, e_k -> L_k; alpha_*(L_i, -) = ad of the su(2) lift e_i
    t_star = np.zeros((3, 4))
    t_star[:, 1:] = np.eye(3)
    rep_star = t_star.T
    alpha_star = np.einsum("hg,hjk->gjk", rep_star, h_alg.structure)
    l2a = LieTwoAlgebra(g_alg, h_alg, t_star=t_star, alpha_star=alpha_star,
                        name="u(2) -> pu(2)")
    cm = CrossedModule(
        G=so3, H=u2, t=adjoint_so3, name="u2_to_pu2",
        alpha=lambda g, h: _conjugate(su2_lift(g), h),
        sample_G=_sampler(so3, g_alg, 3), sample_H=_sampler(u2, h_alg, 4),
        ker_t_elements=lambda: [np.exp(1j * th) * np.eye(2)
                                for th in (0.4, 1.3, -0.9, 2.2)])
    # Ad of R on so(3) is R; alpha_R fixes e_0 and rotates su(2) by
    # adjoint_so3(su2_lift(R)) = R
    return MatrixFamily("u2_to_pu2", cm, l2a, rep_star=rep_star,
                        ad_G=lambda r: np.asarray(r, dtype=float),
                        ad_H=lambda a: _centred(adjoint_so3(a)),
                        alpha_star_of=_centred)


_BUILDERS = {
    "su2_id_conj": _build_su2_id_conj,
    "u1_id": lambda: _build_u1(trivial_t=False),
    "u1_triv": lambda: _build_u1(trivial_t=True),
    "u2_to_pu2": _build_u2_to_pu2,
}

FAMILY_NAMES = tuple(_BUILDERS)


def matrix_family(name: str) -> MatrixFamily:
    if name not in _BUILDERS:
        raise StructureError(
            f"unknown matrix family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    return _BUILDERS[name]()


# --- finite crossed modules ---------------------------------------------------

def finite_crossed_module(G: FiniteGroup, H: FiniteGroup, t_table, alpha_table,
                          name="finite-cm") -> CrossedModule:
    """Crossed module over finite groups from explicit t and alpha tables.

    ``t_table[h]`` is the G-index of t(h); ``alpha_table[g][h]`` the H-index
    of alpha_g(h).  Structural well-formedness (t a map, each alpha_g an
    automorphism, alpha a G-action) is checked exhaustively, as array
    identities over the tables; ``t`` and ``alpha`` take index arrays.  The
    crossed module *axioms* are left to check_crossed_module so that
    intentionally broken examples can be constructed and rejected with a
    witness.
    """
    t_table = np.asarray(t_table, dtype=int)
    alpha_table = np.asarray(alpha_table, dtype=int)
    if t_table.shape != (H.order,):
        raise StructureError("t table must list one G-index per H element")
    if np.any(t_table < 0) or np.any(t_table >= G.order):
        raise StructureError("t table entry out of range")
    if alpha_table.shape != (G.order, H.order):
        raise StructureError("alpha table must be |G| x |H|")
    # non-bijective rows become identity rows, so the indexing stays in range
    ident = np.arange(H.order)
    bijective = np.all(np.sort(alpha_table, axis=1) == ident, axis=1)
    rows = np.where(bijective[:, None], alpha_table, ident)
    # rows[g, h1 h2] = rows[g, h1] rows[g, h2], over all (g, h1, h2)
    not_hom = rows[:, H.table] != H.table[rows[:, :, None], rows[:, None, :]]
    bad = np.argwhere(not_hom | ~bijective[:, None, None])
    if bad.size:
        g, h1, h2 = bad[0]
        if not bijective[g]:
            raise StructureError(f"alpha row {g} is not a bijection of H")
        raise StructureError(f"alpha_{g} is not an automorphism at ({h1},{h2})")
    # alpha[g1 g2, h] = alpha[g1, alpha[g2, h]], over all (g1, g2, h)
    bad = np.argwhere(alpha_table[G.table] != alpha_table[:, alpha_table])
    if bad.size:
        raise StructureError(f"alpha is not an action at ({bad[0][0]},{bad[0][1]})")

    return CrossedModule(
        G=G, H=H,
        t=lambda h: lookup(t_table, h),
        alpha=lambda g, h: lookup(alpha_table, g, h),
        name=name)


def _s3_id_conj():
    # S3 as the permutations of (0, 1, 2); (a b)(i) = a(b(i))
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[i] for i in b)] for b in perms] for a in perms]
    s3 = FiniteGroup(table, name="S3")
    g = np.arange(s3.order)[:, None]
    return s3, s3, np.arange(s3.order), s3.mul(s3.mul(g, g.T), s3.inv(g))


# name -> (G, H, t table, alpha table)
_FINITE_DEMOS = {
    "z2_z3_trivial": lambda: (cyclic_group(2), cyclic_group(3), [0, 0, 0],
                              [list(range(3))] * 2),
    "z4_z4_id": lambda: (cyclic_group(4),) * 2 + (list(range(4)),
                                                  [list(range(4))] * 4),
    "z2_z4_peiffer_broken": lambda: (
        cyclic_group(2), cyclic_group(4), [h % 2 for h in range(4)],
        [list(range(4)), [(-h) % 4 for h in range(4)]]),
    "s3_id_conj": _s3_id_conj,
}

FINITE_DEMO_NAMES = tuple(_FINITE_DEMOS)


def finite_demo_module(which: str) -> CrossedModule:
    """Named finite modules used by the exact suites and the docs."""
    if which not in _FINITE_DEMOS:
        raise StructureError(f"unknown finite demo module {which!r}")
    return finite_crossed_module(*_FINITE_DEMOS[which](), name=which)
