"""Crossed modules and exact 2-group arithmetic.

A crossed module (G, H, t, alpha) packages a strict 2-group: 2-cells are
pairs (g, h) in the semidirect product with source g and target t(h)*g,
multiplied by (g,h)(g',h') = (gg', h alpha_g(h')) and composed by
(t(h)g, h') o (g, h) = (g, h'h).  Both finite-table and matrix backends
are supported through the same interface.  The components of a cell may
be broadcastable batches (finite index grids or stacks of matrices), so
each axiom check is one evaluation over all its instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComposabilityError, DomainError, StructureError
from .groups import FiniteGroup, lookup

__all__ = [
    "CrossedModule", "TwoGroupElement", "AXIOMS",
    "two_group_multiply", "two_group_compose", "whisker_scalar",
    "check_crossed_module", "interchange_defect",
]

MATRIX_MATCH_TOL = 1e-9
AXIOMS = ("equivariance", "peiffer", "t_homomorphism", "centrality")


@dataclass
class CrossedModule:
    """Crossed module (G, H, t, alpha).

    ``t`` maps H to G; ``alpha(g, h)`` is the G-action on H.  Matrix-backed
    instances additionally carry samplers and a kernel description, supplied
    by the family registry, so that axiom checks can draw batches of random
    elements and test centrality of ker t.
    """

    G: object
    H: object
    t: object
    alpha: object
    name: str = "crossed-module"
    sample_G: object = None  # (rng, shape=()) -> a shape-batch of G elements,
    sample_H: object = None  # of H; equal to as many single calls, in order
    ker_t_elements: object = None  # () -> iterable of H elements, or None

    @property
    def is_finite(self) -> bool:
        return isinstance(self.G, FiniteGroup)

    # -- element constructors -------------------------------------------------

    def element(self, g, h) -> "TwoGroupElement":
        return TwoGroupElement(self, g, h)

    def identity2(self, g=None) -> "TwoGroupElement":
        """Identity 2-cell on g (defaults to the group identity)."""
        if g is None:
            g = self.G.identity
        return TwoGroupElement(self, g, self.H.identity)

    # -- ker t -----------------------------------------------------------------

    def ker_t(self):
        """Elements of ker t (finite: exact; matrix: family-supplied)."""
        if self.is_finite:
            images = self.t(np.arange(self.H.order))
            return np.flatnonzero(images == self.G.identity).tolist()
        if self.ker_t_elements is None:
            return []
        return list(self.ker_t_elements())


@dataclass(frozen=True)
class TwoGroupElement:
    """2-cell (g, h) of the 2-group G semidirect H over a crossed module."""

    cm: CrossedModule
    g: object
    h: object

    @property
    def source(self):
        return self.g

    @property
    def target(self):
        return self.cm.G.mul(self.cm.t(self.h), self.g)

    def __mul__(self, other: "TwoGroupElement") -> "TwoGroupElement":
        return two_group_multiply(self, other)

    def inverse(self) -> "TwoGroupElement":
        """Inverse for multiplication: (g,h)^-1 = (g^-1, alpha_{g^-1}(h^-1))."""
        cm = self.cm
        ginv = cm.G.inv(self.g)
        return TwoGroupElement(cm, ginv, cm.alpha(ginv, cm.H.inv(self.h)))

    def vertical_inverse(self) -> "TwoGroupElement":
        """Inverse for composition: (t(h)g, h^-1), so x^-1 o x = id."""
        cm = self.cm
        return TwoGroupElement(cm, self.target, cm.H.inv(self.h))

    def compose(self, other: "TwoGroupElement") -> "TwoGroupElement":
        """self o other (other applied first)."""
        return two_group_compose(self, other)

    def defect(self, other: "TwoGroupElement") -> float:
        return max(self.cm.G.defect(self.g, other.g),
                   self.cm.H.defect(self.h, other.h))

    def distance(self, other: "TwoGroupElement"):
        """Elementwise distance over a batch of cells."""
        return np.maximum(self.cm.G.distance(self.g, other.g),
                          self.cm.H.distance(self.h, other.h))


def _require_same_module(x: TwoGroupElement, y: TwoGroupElement):
    if x.cm is not y.cm:
        raise DomainError(
            f"elements belong to different crossed modules "
            f"({x.cm.name!r} vs {y.cm.name!r})")


def two_group_multiply(x: TwoGroupElement, y: TwoGroupElement) -> TwoGroupElement:
    """(g,h)(g',h') = (gg', h alpha_g(h'))."""
    _require_same_module(x, y)
    cm = x.cm
    return TwoGroupElement(cm, cm.G.mul(x.g, y.g),
                           cm.H.mul(x.h, cm.alpha(x.g, y.h)))


def two_group_compose(y: TwoGroupElement, x: TwoGroupElement) -> TwoGroupElement:
    """Vertical composition y o x, defined when source(y) = target(x)."""
    _require_same_module(x, y)
    cm = x.cm
    mismatch = cm.G.defect(y.source, x.target)
    if mismatch > (0.0 if cm.is_finite else MATRIX_MATCH_TOL):
        raise ComposabilityError(
            f"cells are not composable: source/target mismatch {mismatch:.3e}",
            mismatch=mismatch)
    return TwoGroupElement(cm, x.g, cm.H.mul(y.h, x.h))


def whisker_scalar(cm: CrossedModule, h, h_prime):
    """The composition/multiplication bridge 1_{t(h)} h' o h = h' h in H."""
    return cm.H.mul(h_prime, h)


# --- axiom checking ----------------------------------------------------------

def check_crossed_module(cm: CrossedModule, samples: int = 200,
                         rng=None) -> dict:
    """Max defects of both crossed-module axioms, homomorphy of t and
    centrality of ker t, with the module's ``tolerance``: 0 for finite
    backends, which are checked exactly, and ``MATRIX_MATCH_TOL`` for
    matrix ones.

    Each axiom is one evaluation over all (g, h, h') of a finite module or
    ``samples`` drawn triples; its witness is the first of largest defect,
    recorded, as a string, only when that defect exceeds the tolerance.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    tolerance = 0.0 if cm.is_finite else MATRIX_MATCH_TOL
    G, H, t, alpha = cm.G, cm.H, cm.t, cm.alpha

    if cm.is_finite:
        g, h, hp = np.indices((G.order, H.order, H.order)).reshape(3, -1)
        others = np.arange(H.order)
    else:
        if cm.sample_G is None or cm.sample_H is None:
            raise StructureError(f"{cm.name!r} has no samplers configured")
        g, h, hp = (sample(rng, (samples,))
                    for sample in (cm.sample_G, cm.sample_H, cm.sample_H))
        others = cm.sample_H(rng, (min(samples, 50),))
    laws = {
        # t(alpha_g h) = g t(h) g^-1
        "equivariance": (G.distance(t(alpha(g, h)),
                                    G.mul(G.mul(g, t(h)), G.inv(g))), (g, h)),
        # alpha_{t(h)} h' = h h' h^-1
        "peiffer": (H.distance(alpha(t(h), hp),
                               H.mul(H.mul(h, hp), H.inv(h))), (h, hp)),
        # t(h h') = t(h) t(h')
        "t_homomorphism": (G.distance(t(H.mul(h, hp)), G.mul(t(h), t(hp))),
                           (h, hp)),
    }
    kernel = cm.ker_t()
    if len(kernel):
        i, j = np.indices((len(kernel), len(others))).reshape(2, -1)
        k, o = np.asarray(kernel)[i], others[j]
        laws["centrality"] = (H.distance(H.mul(k, o), H.mul(o, k)), (k, o))

    defects, witnesses = {"centrality": 0.0}, {}
    for name, (d, args) in laws.items():
        d = np.broadcast_to(d, np.shape(args[0])[:1])
        i = int(np.argmax(d))
        defects[name] = float(d[i])
        if defects[name] > tolerance:
            witnesses[name] = str(tuple(lookup(a, i) for a in args))

    return {**defects, "tolerance": tolerance, "samples": len(g),
            "witnesses": witnesses}


# composable quadruples the interchange law samples on a matrix backend
INTERCHANGE_SAMPLES = 1000


def interchange_defect(cm: CrossedModule, rng=None) -> float:
    """Max defect of (y o x)(y' o x') = (y y') o (x x') over composable
    quadruples: exhaustive for finite backends, ``INTERCHANGE_SAMPLES``
    sampled for matrix ones."""
    if rng is None:
        rng = np.random.default_rng(0)
    if cm.is_finite:
        nG, nH = cm.G.order, cm.H.order
        xg, xh, yh, xpg, xph, yph = np.indices((nG, nH, nH) * 2, sparse=True)
    else:
        sG, sH = cm.sample_G, cm.sample_H
        xg, xh, xpg, xph, yh, yph = (sample(rng, (INTERCHANGE_SAMPLES,))
                                     for sample in (sG, sH, sG, sH, sH, sH))
    x, xp = cm.element(xg, xh), cm.element(xpg, xph)
    y, yp = cm.element(x.target, yh), cm.element(xp.target, yph)
    lhs = two_group_compose(y, x) * two_group_compose(yp, xp)
    rhs = two_group_compose(y * yp, x * xp)
    return lhs.defect(rhs)
