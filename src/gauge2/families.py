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
the SO(3)->SU(2) lift), which keeps every derived map (group action on the
algebra, the mixed differential used by 2-morphisms) in closed form.

Finite demo modules used by the exact torsor suite live here as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

from .errors import StructureError
from .groups import FiniteGroup, MatrixGroup, cyclic_group, lookup
from .lie2 import LieAlgebra, LieTwoAlgebra
from .twogroup import CrossedModule

__all__ = ["MatrixFamily", "matrix_family", "FAMILY_NAMES",
           "finite_crossed_module", "finite_demo_module"]

_SIGMA = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

SU2_BASIS = -0.5j * _SIGMA                      # e_k = -i sigma_k / 2
U2_BASIS = np.concatenate(([0.5j * np.eye(2)], SU2_BASIS))   # e_0 = i/2 I
SO3_BASIS = np.zeros((3, 3, 3))
for _i in range(3):
    for _j in range(3):
        for _k in range(3):
            if len({_i, _j, _k}) == 3:
                sign = 1.0 if (_i, _j, _k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
                SO3_BASIS[_i, _j, _k] = -sign
U1_BASIS = np.array([[[1j]]])

_SU2_ALG = LieAlgebra(SU2_BASIS, name="su(2)")


def su2_lift(rotation):
    """SU(2) lift of SO(3) matrices (batched); defined up to sign."""
    r = np.asarray(rotation, dtype=float)
    single = r.ndim == 2
    quat = Rotation.from_matrix(r if not single else r[None]).as_quat()
    x, y, z, w = (quat[..., i] for i in range(4))
    u = (w[..., None, None] * np.eye(2, dtype=complex)
         + x[..., None, None] * SU2_BASIS[0] * 2
         + y[..., None, None] * SU2_BASIS[1] * 2
         + z[..., None, None] * SU2_BASIS[2] * 2)
    return u[0] if single else u


def adjoint_so3(h):
    """The PU(2) = SO(3) image of h in U(2): conjugation on su(2), batched."""
    h = np.asarray(h, dtype=complex)
    hd = np.swapaxes(h.conj(), -2, -1)
    cols = [(_SU2_ALG.from_matrix(h @ SU2_BASIS[j] @ hd)) for j in range(3)]
    return np.stack(cols, axis=-1)


@dataclass
class MatrixFamily:
    """Crossed module with closed-form action and infinitesimal data."""

    name: str
    cm: CrossedModule
    l2a: LieTwoAlgebra
    rep: object          # G elements -> unitaries of H's matrix size (batched)
    rep_star: np.ndarray  # (dim_h, dim_g), the differential of rep

    @property
    def group_G(self):
        return self.cm.G

    @property
    def group_H(self):
        return self.cm.H

    def alpha_vec(self, g, eta_vec):
        """(alpha_g)_* on h-coefficient vectors; g and eta batched together."""
        u = self.rep(g)
        mats = self.l2a.h_alg.to_matrix(eta_vec)
        conj = u @ mats @ np.swapaxes(np.asarray(u).conj(), -2, -1)
        return self.l2a.h_alg.from_matrix(conj)

    def ad_g_vec(self, g, x_vec):
        """Ad_g on g-coefficient vectors, batched."""
        g = np.asarray(g)
        mats = self.l2a.g_alg.to_matrix(x_vec)
        conj = g @ mats @ np.swapaxes(g.conj(), -2, -1)
        return self.l2a.g_alg.from_matrix(conj)

    def twisted_rep_star(self, a, x_vec):
        """The map X -> rep_*(X) - Ad_a(rep_*(X)) from g to h.

        This is the differential at the identity of g -> alpha_g(a) a^-1
        with a in H held fixed (batched over a and x together).
        """
        base = np.einsum("hg,...g->...h", self.rep_star, np.asarray(x_vec))
        mats = self.l2a.h_alg.to_matrix(base)
        a = np.asarray(a)
        conj = a @ mats @ np.swapaxes(a.conj(), -2, -1)
        return base - self.l2a.h_alg.from_matrix(conj)

    def random_g_vec(self, rng, scale=0.8):
        v = rng.standard_normal(self.l2a.g_alg.dim)
        return scale * v / max(1.0, np.linalg.norm(v))

    def random_h_vec(self, rng, scale=0.8):
        v = rng.standard_normal(self.l2a.h_alg.dim)
        return scale * v / max(1.0, np.linalg.norm(v))


def _sampler(group, alg, dim, scale=0.8):
    def sample(rng):
        v = rng.standard_normal(dim)
        v = scale * v / max(1.0, np.linalg.norm(v))
        return group.exp(alg.to_matrix(v))
    return sample


def _build_su2_id_conj() -> MatrixFamily:
    su2 = MatrixGroup("special_unitary", 2, name="SU(2)")
    alg = LieAlgebra(SU2_BASIS, name="su(2)")
    eps = np.stack([alg.structure[i] for i in range(3)])
    l2a = LieTwoAlgebra(alg, alg, t_star=np.eye(3), alpha_star=eps,
                        name="su(2) id/conj")
    cm = CrossedModule(
        G=su2, H=su2,
        t=lambda h: h,
        alpha=lambda g, h: g @ h @ np.swapaxes(np.asarray(g).conj(), -2, -1),
        name="su2_id_conj",
        sample_G=_sampler(su2, alg, 3), sample_H=_sampler(su2, alg, 3),
        ker_t_elements=lambda: [su2.identity])
    return MatrixFamily("su2_id_conj", cm, l2a,
                        rep=lambda g: np.asarray(g), rep_star=np.eye(3))


def _build_u1(trivial_t: bool) -> MatrixFamily:
    u1 = MatrixGroup("unitary", 1, name="U(1)")
    alg = LieAlgebra(U1_BASIS, name="u(1)")
    t_star = np.zeros((1, 1)) if trivial_t else np.eye(1)
    l2a = LieTwoAlgebra(alg, alg, t_star=t_star,
                        alpha_star=np.zeros((1, 1, 1)),
                        name="u(1)" + (" trivial t" if trivial_t else " id"))
    if trivial_t:
        t_map = lambda h: u1.identity
        kernel = lambda: [u1.exp(alg.to_matrix([th]))
                          for th in (0.3, 1.1, 2.0, -0.7)]
        name = "u1_triv"
    else:
        t_map = lambda h: h
        kernel = lambda: [u1.identity]
        name = "u1_id"
    cm = CrossedModule(
        G=u1, H=u1, t=t_map, alpha=lambda g, h: h, name=name,
        sample_G=_sampler(u1, alg, 1, scale=1.5),
        sample_H=_sampler(u1, alg, 1, scale=1.5),
        ker_t_elements=kernel)
    ones = lambda g: np.ones_like(np.asarray(g)) if trivial_t else np.asarray(g)
    rep_star = np.zeros((1, 1)) if trivial_t else np.eye(1)
    return MatrixFamily(name, cm, l2a, rep=ones, rep_star=rep_star)


def _build_u2_to_pu2() -> MatrixFamily:
    so3 = MatrixGroup("special_orthogonal", 3, name="SO(3)")
    u2 = MatrixGroup("unitary", 2, name="U(2)")
    g_alg = LieAlgebra(SO3_BASIS, name="so(3)")
    h_alg = LieAlgebra(U2_BASIS, name="u(2)")
    # t_*: e_0 -> 0, e_k -> L_k; alpha_*(L_i, -) = ad of the su(2) lift e_i
    t_star = np.zeros((3, 4))
    t_star[:, 1:] = np.eye(3)
    rep_star = np.zeros((4, 3))
    rep_star[1:, :] = np.eye(3)
    alpha_star = np.einsum("hg,hjk->gjk", rep_star, h_alg.structure)
    l2a = LieTwoAlgebra(g_alg, h_alg, t_star=t_star, alpha_star=alpha_star,
                        name="u(2) -> pu(2)")

    def alpha(g, h):
        u = su2_lift(g)
        return u @ h @ np.swapaxes(np.asarray(u).conj(), -2, -1)

    cm = CrossedModule(
        G=so3, H=u2, t=adjoint_so3, alpha=alpha, name="u2_to_pu2",
        sample_G=_sampler(so3, g_alg, 3), sample_H=_sampler(u2, h_alg, 4),
        ker_t_elements=lambda: [np.exp(1j * th) * np.eye(2)
                                for th in (0.4, 1.3, -0.9, 2.2)])
    return MatrixFamily("u2_to_pu2", cm, l2a, rep=su2_lift, rep_star=rep_star)


_BUILDERS = {
    "su2_id_conj": _build_su2_id_conj,
    "u1_id": lambda: _build_u1(trivial_t=False),
    "u1_triv": lambda: _build_u1(trivial_t=True),
    "u2_to_pu2": _build_u2_to_pu2,
}

FAMILY_NAMES = tuple(_BUILDERS)


def matrix_family(name: str) -> MatrixFamily:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise StructureError(
            f"unknown matrix family {name!r}; known: {', '.join(FAMILY_NAMES)}"
        ) from None
    return builder()


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


def finite_demo_module(which: str) -> CrossedModule:
    """Named finite modules used by the exact suites and the docs."""
    if which == "z2_z3_trivial":
        G, H = cyclic_group(2), cyclic_group(3)
        t = [0, 0, 0]
        alpha = [list(range(3)), list(range(3))]
        return finite_crossed_module(G, H, t, alpha, name="z2_z3_trivial")
    if which == "z4_z4_id":
        G = H = cyclic_group(4)
        t = list(range(4))
        alpha = [list(range(4))] * 4
        return finite_crossed_module(G, H, t, alpha, name="z4_z4_id")
    if which == "z2_z4_peiffer_broken":
        G, H = cyclic_group(2), cyclic_group(4)
        t = [h % 2 for h in range(4)]
        alpha = [list(range(4)), [(-h) % 4 for h in range(4)]]
        return finite_crossed_module(G, H, t, alpha,
                                     name="z2_z4_peiffer_broken")
    if which == "s3_id_conj":
        # S3 as the permutations of (0, 1, 2); (a b)(i) = a(b(i))
        perms = list(itertools.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(a[i] for i in b)] for b in perms] for a in perms]
        G = H = FiniteGroup(table, name="S3")
        g = np.arange(G.order)[:, None]
        alpha = G.mul(G.mul(g, np.arange(H.order)), G.inv(g))
        return finite_crossed_module(G, H, list(range(H.order)), alpha,
                                     name="s3_id_conj")
    raise StructureError(f"unknown finite demo module {which!r}")
