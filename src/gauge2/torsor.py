"""2-torsor calculus over a crossed module.

Torsors are represented concretely as labelled copies of the 2-group
acting on itself by right multiplication (the regular model).  Every
2-torsor over a point is isomorphic to this model, which turns division
into a closed-form solve while the label keeps distinct fibers apart.

The module implements division, the unique extension of an equivariant
point map to a functor (a :class:`TorsorMorphism`, built directly;
``check_equivariance`` checks a finite one), the H-valued presentation
of 2-morphisms and its composition laws, and an exhaustive self-test of
all of these for finite crossed modules.

Objects, arrows, functors and 2-morphisms may carry index arrays, so each
exhaustive law is one evaluation on an ``np.indices`` grid of its instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EquivarianceError
from .twogroup import (MATRIX_MATCH_TOL, CrossedModule, TwoGroupElement,
                       two_group_compose)

__all__ = [
    "Torsor2", "TorsorObject", "TorsorArrow", "TorsorMorphism", "EtaH",
    "torsor_divide", "eta_to_etaH", "etaH_to_eta",
    "vertical_compose_etaH", "horizontal_compose_etaH", "selftest",
]


class Torsor2:
    """Labelled regular model of a 2-torsor for the given crossed module."""

    def __init__(self, cm: CrossedModule, label: str):
        self.cm = cm
        self.label = label

    def object(self, g) -> "TorsorObject":
        return TorsorObject(self, g)

    def arrow(self, g, h) -> "TorsorArrow":
        return TorsorArrow(self, self.cm.element(g, h))

    def identity_arrow(self, obj: "TorsorObject") -> "TorsorArrow":
        return TorsorArrow(self, self.cm.identity2(obj.g))

    def basepoint(self) -> "TorsorObject":
        return self.object(self.cm.G.identity)

    def __repr__(self):
        return f"Torsor2({self.label!r}, {self.cm.name})"


@dataclass(frozen=True)
class TorsorObject:
    torsor: Torsor2
    g: object

    def act(self, g) -> "TorsorObject":
        return TorsorObject(self.torsor, self.torsor.cm.G.mul(self.g, g))

    def defect(self, other) -> float:
        return self.torsor.cm.G.defect(self.g, other.g)

    def __eq__(self, other):
        return (isinstance(other, TorsorObject)
                and self.torsor is other.torsor and self.defect(other) == 0.0)

    def __hash__(self):
        return hash((id(self.torsor), str(self.g)))


@dataclass(frozen=True)
class TorsorArrow:
    torsor: Torsor2
    cell: TwoGroupElement

    @property
    def source(self) -> TorsorObject:
        return TorsorObject(self.torsor, self.cell.source)

    @property
    def target(self) -> TorsorObject:
        return TorsorObject(self.torsor, self.cell.target)

    def act(self, q: TwoGroupElement) -> "TorsorArrow":
        return TorsorArrow(self.torsor, self.cell * q)

    def compose(self, other: "TorsorArrow") -> "TorsorArrow":
        """self o other (other applied first)."""
        if self.torsor is not other.torsor:
            raise DomainError("cannot compose arrows of different torsors")
        return TorsorArrow(self.torsor, two_group_compose(self.cell, other.cell))

    def defect(self, other) -> float:
        return self.cell.defect(other.cell)


def torsor_divide(x, y):
    """The unique q with x . q = y, written y : x.

    Objects divide to a G element, arrows to a 2-group element; mixing
    torsors or levels is a domain error.  Exact in the regular model.
    """
    if isinstance(x, TorsorObject) and isinstance(y, TorsorObject):
        if x.torsor is not y.torsor:
            raise DomainError(
                f"objects of different torsors "
                f"({x.torsor.label!r} vs {y.torsor.label!r})")
        G = x.torsor.cm.G
        return G.mul(G.inv(x.g), y.g)
    if isinstance(x, TorsorArrow) and isinstance(y, TorsorArrow):
        if x.torsor is not y.torsor:
            raise DomainError(
                f"arrows of different torsors "
                f"({x.torsor.label!r} vs {y.torsor.label!r})")
        return x.cell.inverse() * y.cell
    raise DomainError("division needs two objects or two arrows of one torsor")


# --- morphisms ----------------------------------------------------------------


class TorsorMorphism:
    """Equivariant functor between torsors, extended from its point map.

    The arrow map is forced by equivariance: F(X: p -> q) is the identity
    arrow at F0(p) acted on by the division X : id_p.
    """

    def __init__(self, source: Torsor2, target: Torsor2, point_map):
        if source.cm is not target.cm:
            raise DomainError("torsors live over different crossed modules")
        self.source = source
        self.target = target
        self._point_map = point_map

    def __call__(self, p: TorsorObject) -> TorsorObject:
        return self._point_map(p)

    def on_arrow(self, x: TorsorArrow) -> TorsorArrow:
        idp = x.torsor.identity_arrow(x.source)
        q = torsor_divide(idp, x)
        return self.target.identity_arrow(self(x.source)).act(q)

    def check_equivariance(self):
        cm = self.source.cm
        p, g = np.indices((cm.G.order,) * 2, sparse=True)
        p = self.source.object(p)
        d = cm.G.distance(self(p.act(g)).g, self(p).act(g).g)
        _raise_first(False, d > 0.0, cm.G.order, None,
                     "point map is not equivariant at ({}, {})")
        return self

    def functoriality_defect(self) -> float:
        """Max defect of F(Y o X) = F(Y) o F(X) over composable arrow pairs."""
        cm = self.source.cm
        g, h, hy = np.indices((cm.G.order, cm.H.order, cm.H.order), sparse=True)
        x = self.source.arrow(g, h)
        y = self.source.arrow(x.cell.target, hy)
        lhs = self.on_arrow(y.compose(x))
        rhs = self.on_arrow(y).compose(self.on_arrow(x))
        return lhs.defect(rhs)


def _raise_first(point_bad, pair_bad, n, point_msg, pair_msg):
    """Raise EquivarianceError at the first object p of the (p, g) grid where
    ``point_bad[..., p, 0]``, then ``pair_bad[..., p, g]``, is set."""
    shape = np.broadcast_shapes(np.shape(point_bad), np.shape(pair_bad), (n, n))
    point, pair = (np.broadcast_to(bad, shape).reshape(-1, n, n).any(axis=0)
                   for bad in (point_bad, pair_bad))
    rows = np.flatnonzero(point[:, 0] | pair.any(axis=1))
    if rows.size:
        p = int(rows[0])
        if point[p, 0]:
            raise EquivarianceError(point_msg.format(p), witness=p)
        witness = (p, int(np.argmax(pair[p])))
        raise EquivarianceError(pair_msg.format(*witness), witness=witness)


def translation_functor(source: Torsor2, target: Torsor2, g0) -> TorsorMorphism:
    """The functor sending the basepoint to (target, g0); in the regular
    model every equivariant functor is of this form."""
    cm = source.cm

    def point_map(p):
        return target.object(cm.G.mul(g0, p.g))

    return TorsorMorphism(source, target, point_map)


# --- 2-morphisms in H-valued form ----------------------------------------------


@dataclass
class EtaH:
    """2-morphism F => F_prime presented as a map eta_H: objects -> H."""

    F: TorsorMorphism
    F_prime: TorsorMorphism
    mapping: object  # TorsorObject -> H element

    def __call__(self, p: TorsorObject):
        return self.mapping(p)

    def _law_distances(self):
        """The two laws on the (p, g) grid: t(eta_H(p)) = F'(p) : F(p) per
        object, and eta_H(p.g) = alpha_{g^-1} eta_H(p) per pair."""
        cm = self.F.source.cm
        p, g = np.indices((cm.G.order,) * 2, sparse=True)
        p = self.F.source.object(p)
        return (cm.G.distance(cm.t(self(p)),
                              torsor_divide(self.F(p), self.F_prime(p))),
                cm.H.distance(self(p.act(g)), cm.alpha(cm.G.inv(g), self(p))))

    def laws_defect(self) -> float:
        """Max defect of the two eta_H laws over all objects and elements."""
        return float(max(np.max(d, initial=0.0) for d in self._law_distances()))

    def check_laws(self):
        """Raise EquivarianceError at the first object where a law fails."""
        _raise_first(*(d > 0.0 for d in self._law_distances()),
                     self.F.source.cm.G.order,
                     "t(eta_H) does not match the functor division at {}",
                     "eta_H equivariance fails at ({}, {})")
        return self


def eta_to_etaH(eta, F: TorsorMorphism, F_prime: TorsorMorphism,
                check=True) -> EtaH:
    """Convert a natural transformation (objects -> arrows) to eta_H form.

    ``eta(p)`` must be an arrow F(p) -> F'(p) satisfying
    eta(p.g) = eta(p).id_g; violations raise with a witness.
    """
    cm = F.source.cm
    tol = 0.0 if cm.is_finite else MATRIX_MATCH_TOL

    if check and cm.is_finite:
        p, g = np.indices((cm.G.order,) * 2, sparse=True)
        p = F.source.object(p)
        arrow = eta(p)
        ends = np.maximum(cm.G.distance(arrow.source.g, F(p).g),
                          cm.G.distance(arrow.target.g, F_prime(p).g))
        equivariance = eta(p.act(g)).cell.distance(
            arrow.act(cm.identity2(g)).cell)
        _raise_first(ends > tol, equivariance > tol, cm.G.order,
                     "eta({}) is not an arrow F(p) -> F'(p)",
                     "eta violates eta(p.g) = eta(p).id_g at ({}, {})")

    def mapping(p):
        q = torsor_divide(F.target.identity_arrow(F(p)), eta(p))
        if cm.G.defect(q.g, cm.G.identity) > tol:
            raise DomainError("division by the identity arrow left a G part")
        return q.h

    return EtaH(F, F_prime, mapping)


def etaH_to_eta(eta_h: EtaH):
    """Inverse presentation: eta(p) = id_{F(p)} . (e, eta_H(p))."""
    F = eta_h.F
    cm = F.source.cm

    def eta(p):
        cell = cm.element(cm.G.identity, eta_h(p))
        return F.target.identity_arrow(F(p)).act(cell)

    return eta


def vertical_compose_etaH(eta_h: EtaH, eta_h_prime: EtaH) -> EtaH:
    """(eta' after eta)_H(p) = eta_H(p) . eta'_H(p)."""
    cm = eta_h.F.source.cm
    return EtaH(eta_h.F, eta_h_prime.F_prime,
                lambda p: cm.H.mul(eta_h(p), eta_h_prime(p)))


def horizontal_compose_etaH(eta1_h: EtaH, eta2_h: EtaH,
                            check_alternative=False):
    """Horizontal composite of eta1: F1 => F1' and eta2: F2 => F2'.

    Returns (eta2 o eta1)_H(p) = eta1_H(p) . eta2_H(F1'(p)); when
    ``check_alternative`` is set, also returns the max defect against
    the equivalent formula eta2_H(F1(p)) . eta1_H(p).
    """
    cm = eta1_h.F.source.cm
    F1, F1p = eta1_h.F, eta1_h.F_prime
    composite = EtaH(
        _compose_functors(eta2_h.F, F1),
        _compose_functors(eta2_h.F_prime, F1p),
        lambda p: cm.H.mul(eta1_h(p), eta2_h(F1p(p))))
    if not check_alternative:
        return composite
    p = F1.source.object(np.arange(cm.G.order))
    alt = cm.H.mul(eta2_h(F1(p)), eta1_h(p))
    return composite, cm.H.defect(composite(p), alt)


def _compose_functors(outer: TorsorMorphism, inner: TorsorMorphism):
    return TorsorMorphism(inner.source, outer.target,
                          lambda p: outer(inner(p)))


def _pinned(F, F_prime, h0) -> EtaH:
    """The 2-morphism F => F' with eta_H(p) = alpha_{p^-1}(h0)."""
    cm = F.source.cm
    return EtaH(F, F_prime, lambda p: cm.alpha(cm.G.inv(p.g), h0))


def _out_of(F: TorsorMorphism, h0) -> EtaH:
    """The 2-morphism out of a translation functor F with basepoint value
    h0; its target is forced to be the translation by F(p0) t(h0)."""
    cm = F.source.cm
    g0 = cm.G.mul(F(F.source.basepoint()).g, cm.t(h0))
    return _pinned(F, translation_functor(F.source, F.target, g0), h0)


# --- exhaustive self-test -------------------------------------------------------


def _batch_grid(*sizes):
    """Open index grids over ``sizes``, left of four axes kept for the laws."""
    return [axis[(..., None, None, None, None)]
            for axis in np.indices(sizes, sparse=True)]


def selftest(cm: CrossedModule) -> dict:
    """Exhaustive verification of the torsor laws for a finite crossed module.

    Returns a law -> max-defect table (all values must be exactly 0.0).
    Each law is one evaluation over all its instances: functors are the
    translations by g0 in G, 2-morphisms out of one are pinned by h0 in H.
    """
    if not cm.is_finite:
        raise DomainError("selftest is exhaustive and needs a finite backend")
    H, nG, nH = cm.H, cm.G.order, cm.H.order
    t1, t2, t3 = (Torsor2(cm, label) for label in "XYZ")
    p = t1.object(np.arange(nG))
    report: dict[str, float] = {}

    # division solves and is unique, at both levels: objects on (x, y, g),
    # arrows on (x, y, q) with each arrow on a pair of (g, h) axes
    a = np.indices((nG,) * 3, sparse=True)
    x, y = t1.object(a[0]), t1.object(a[1])
    worst = x.act(torsor_divide(x, y)).defect(y)
    unique = np.all(np.sum(x.act(a[2]).g == y.g, axis=-1) == 1)
    a = np.indices((nG, nH) * 3, sparse=True)
    x, y, q = t1.arrow(a[0], a[1]), t1.arrow(a[2], a[3]), cm.element(a[4], a[5])
    worst = max(worst, x.act(torsor_divide(x, y)).defect(y))
    hits = x.act(q).cell.distance(y.cell) == 0.0
    unique &= np.all(np.sum(hits, axis=(-2, -1)) == 1)
    report["division_solves"] = worst
    report["division_unique"] = 0.0 if unique else 1.0

    def composable_pair(g, h, hy):
        x = t1.arrow(g, h)
        return x, t1.arrow(x.cell.target, hy)

    # (Y:Y') o (X:X') = (Y o X) : (Y' o X')
    a = np.indices((nG, nH, nH) * 2, sparse=True)
    x, y = composable_pair(*a[:3])
    xp, yp = composable_pair(*a[3:])
    lhs = two_group_compose(torsor_divide(yp, y), torsor_divide(xp, x))
    rhs = torsor_divide(yp.compose(xp), y.compose(x))
    report["division_functorial"] = lhs.defect(rhs)

    # (X.g) o (Y.h) = (X o Y).(g o h)
    y, x = composable_pair(*a[:3])   # x o y defined
    h = cm.element(a[3], a[4])
    g = cm.element(h.target, a[5])   # g o h defined
    lhs = x.act(g).compose(y.act(h))
    rhs = x.compose(y).act(two_group_compose(g, h))
    report["action_composition_equivariance"] = lhs.defect(rhs)

    # functor extension: equivariance and functoriality for every point map
    F = translation_functor(t1, t2, *_batch_grid(nG))
    F.check_equivariance()
    a = np.indices((nG, nH) * 2, sparse=True)
    x, q = t1.arrow(a[0], a[1]), cm.element(a[2], a[3])
    report["functor_extension"] = max(
        F.functoriality_defect(),
        F.on_arrow(x.act(q)).defect(F.on_arrow(x).act(q)))

    # eta_H laws and round trip, over every 2-morphism out of every functor
    g0, h0 = _batch_grid(nG, nH)
    eta_h = _out_of(translation_functor(t1, t2, g0), h0)
    report["etaH_laws"] = eta_h.laws_defect()
    back = eta_to_etaH(etaH_to_eta(eta_h), eta_h.F, eta_h.F_prime)
    report["etaH_round_trip"] = H.defect(back(p), eta_h(p))

    # vertical composition against composing the arrows of eta and eta'
    g0, h1, h2 = _batch_grid(nG, nH, nH)
    e1 = _out_of(translation_functor(t1, t2, g0), h1)
    e2 = _out_of(e1.F_prime, h2)
    ver = vertical_compose_etaH(e1, e2)
    honest = eta_to_etaH(
        lambda p: etaH_to_eta(e2)(p).compose(etaH_to_eta(e1)(p)),
        e1.F, e2.F_prime, check=False)
    report["vertical_composition"] = H.defect(ver(p), honest(p))

    # horizontal composition: both formulas, and against whiskered arrows
    g1, h1, g2, h2 = _batch_grid(nG, nH, nG, nH)
    e1 = _out_of(translation_functor(t1, t2, g1), h1)
    e2 = _out_of(translation_functor(t2, t3, g2), h2)
    hor, alt = horizontal_compose_etaH(e1, e2, check_alternative=True)
    F1, F1p, F2, F2p = e1.F, e1.F_prime, e2.F, e2.F_prime
    honest = eta_to_etaH(
        lambda p: F2p.on_arrow(etaH_to_eta(e1)(p)).compose(
            etaH_to_eta(e2)(F1(p))),
        _compose_functors(F2, F1), _compose_functors(F2p, F1p), check=False)
    report["horizontal_composition"] = max(alt, H.defect(hor(p), honest(p)))

    # interchange: (e2' . e2) o (e1' . e1) = (e2' o e1') . (e2 o e1)
    g1, h1, h1p, g2, h2, h2p = _batch_grid(nG, nH, nH, nG, nH, nH)
    e1 = _out_of(translation_functor(t1, t2, g1), h1)
    e1p = _out_of(e1.F_prime, h1p)
    e2 = _out_of(translation_functor(t2, t3, g2), h2)
    e2p = _out_of(e2.F_prime, h2p)
    lhs = horizontal_compose_etaH(vertical_compose_etaH(e1, e1p),
                                  vertical_compose_etaH(e2, e2p))
    rhs = vertical_compose_etaH(horizontal_compose_etaH(e1, e2),
                                horizontal_compose_etaH(e1p, e2p))
    report["interchange"] = H.defect(lhs(p), rhs(p))
    return report
