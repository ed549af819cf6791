import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gauge2.errors import ComposabilityError, DomainError, EquivarianceError
from gauge2.families import (finite_crossed_module, finite_demo_module,
                             matrix_family)
from gauge2.groups import FiniteGroup
from gauge2.torsor import (EtaH, Torsor2, _pinned, eta_to_etaH, etaH_to_eta,
                           extend_functor, horizontal_compose_etaH, selftest,
                           torsor_divide, translation_functor,
                           vertical_compose_etaH)
from gauge2.twogroup import check_crossed_module, interchange_defect

S3 = list(itertools.permutations(range(3)))
A3 = [0, 3, 4]      # the even permutations in S3's listing order


def s3_module(h_elements=tuple(range(6)), conjugation=True):
    """S3 acting on its normal subgroup H (given by S3 indices) by
    conjugation, or trivially; t is the inclusion."""
    index = {p: i for i, p in enumerate(S3)}
    mul = [[index[tuple(a[b[i]] for i in range(3))] for b in S3] for a in S3]
    inv = [row.index(0) for row in mul]
    pos = {g: i for i, g in enumerate(h_elements)}
    h_table = [[pos[mul[a][b]] for b in h_elements] for a in h_elements]
    alpha = [[pos[mul[mul[g][h]][inv[g]]] if conjugation else pos[h]
              for h in h_elements] for g in range(6)]
    return finite_crossed_module(FiniteGroup(mul), FiniteGroup(h_table),
                                 list(h_elements), alpha, name="s3")


def relabel(cm, sigma, tau):
    """The same module with G element a renamed sigma[a], H's h tau[h]."""
    sigma, tau = np.asarray(sigma), np.asarray(tau)
    si, ti = np.argsort(sigma), np.argsort(tau)    # new label -> old
    G = FiniteGroup(sigma[cm.G.table[np.ix_(si, si)]],
                    identity=sigma[cm.G.identity])
    H = FiniteGroup(tau[cm.H.table[np.ix_(ti, ti)]],
                    identity=tau[cm.H.identity])
    return finite_crossed_module(G, H, sigma[cm.t(ti)],
                                 tau[cm.alpha(si[:, None], ti[None, :])])


def brute_force_witnesses(cm):
    """First failing triple of each axiom, by scalar loops."""
    G, H, t, alpha = cm.G, cm.H, cm.t, cm.alpha
    found = {}
    for g in range(G.order):
        for h in range(H.order):
            for hp in range(H.order):
                if t(alpha(g, h)) != G.mul(G.mul(g, t(h)), G.inv(g)):
                    found.setdefault("equivariance", (g, h))
                if alpha(t(h), hp) != H.mul(H.mul(h, hp), H.inv(h)):
                    found.setdefault("peiffer", (h, hp))
                if t(H.mul(h, hp)) != G.mul(t(h), t(hp)):
                    found.setdefault("t_homomorphism", (h, hp))
    for k in range(H.order):
        for hp in range(H.order):
            if t(k) == G.identity and H.mul(k, hp) != H.mul(hp, k):
                found.setdefault("centrality", (k, hp))
    return found


# --- exhaustive enumerations over finite regular torsors ----------------------


def objects(torsor):
    return [torsor.object(g) for g in range(torsor.cm.G.order)]


def arrows(torsor):
    return [torsor.arrow(g, h) for g in range(torsor.cm.G.order)
            for h in range(torsor.cm.H.order)]


def all_equivariant_functors(source, target):
    """All equivariant functors between finite regular torsors."""
    return [translation_functor(source, target, g0)
            for g0 in range(source.cm.G.order)]


def all_two_morphisms(F, F_prime):
    """All 2-morphisms F => F' of finite regular torsors.

    eta_H is pinned by its basepoint value h0, which ranges over the
    t-preimage of F'(p0) : F(p0); the rest follows by equivariance.
    """
    cm = F.source.cm
    p0 = F.source.basepoint()
    needed = torsor_divide(F(p0), F_prime(p0))
    return [_pinned(F, F_prime, h0) for h0 in range(cm.H.order)
            if cm.G.defect(cm.t(h0), needed) == 0.0]


EXACT_MODULES = {"z4_z4_id": finite_demo_module("z4_z4_id"),
                 "s3_a3": s3_module(A3), "s3_s3": s3_module()}


@pytest.fixture(scope="module")
def z2z3():
    return finite_demo_module("z2_z3_trivial")


def test_division_examples(z2z3):
    t1 = Torsor2(z2z3, "X")
    x = t1.object(1)
    assert torsor_divide(x, x) == z2z3.G.identity
    y = t1.object(0)
    q = torsor_divide(x, y)
    assert q == z2z3.G.mul(z2z3.G.inv(1), 0)
    assert x.act(q) == y
    arrow = t1.arrow(1, 2)
    cell = torsor_divide(arrow, arrow)
    assert cell.defect(z2z3.identity2()) == 0.0


def test_division_rejects_mixed_torsors(z2z3):
    t1, t2 = Torsor2(z2z3, "X"), Torsor2(z2z3, "Y")
    with pytest.raises(DomainError):
        torsor_divide(t1.object(0), t2.object(0))
    with pytest.raises(DomainError):
        torsor_divide(t1.object(0), t1.arrow(0, 0))


def test_identity_functor_and_translation(z2z3):
    t1, t2 = Torsor2(z2z3, "X"), Torsor2(z2z3, "Y")
    ident = extend_functor(t1, t1, lambda p: p)
    for x in arrows(t1):
        assert ident.on_arrow(x).defect(x) == 0.0
    trans = translation_functor(t1, t2, 1)
    # the arrow map is forced: F(X) = id_{F0(p)} . (X : id_p)
    for x in arrows(t1):
        idp = t1.identity_arrow(x.source)
        expected = t2.identity_arrow(trans(x.source)).act(
            torsor_divide(idp, x))
        assert trans.on_arrow(x).defect(expected) == 0.0
    assert trans.functoriality_defect() == 0.0


def test_non_equivariant_point_map_rejected(z2z3):
    t1 = Torsor2(z2z3, "X")

    def bad(p):   # collapses everything to the basepoint
        return t1.object(0)

    with pytest.raises(EquivarianceError) as err:
        extend_functor(t1, t1, bad)
    assert err.value.witness is not None


def test_functoriality_all_point_maps_exhaustive(z2z3):
    t1, t2 = Torsor2(z2z3, "X"), Torsor2(z2z3, "Y")
    for functor in all_equivariant_functors(t1, t2):
        assert functor.functoriality_defect() == 0.0


def test_eta_round_trip_and_laws(z2z3):
    t1, t2 = Torsor2(z2z3, "X"), Torsor2(z2z3, "Y")
    functors = all_equivariant_functors(t1, t2)
    count = 0
    for F in functors:
        for Fp in functors:
            for eta_h in all_two_morphisms(F, Fp):
                eta_h.check_laws()
                back = eta_to_etaH(etaH_to_eta(eta_h), F, Fp)
                for p in objects(t1):
                    assert z2z3.H.defect(back(p), eta_h(p)) == 0.0
                count += 1
    assert count > 0


def test_identity_transformation_has_trivial_etaH(z2z3):
    t1 = Torsor2(z2z3, "X")
    ident = extend_functor(t1, t1, lambda p: p)
    eta = eta_to_etaH(lambda p: t1.identity_arrow(p), ident, ident)
    for p in objects(t1):
        assert eta(p) == z2z3.H.identity


def test_vertical_with_trivial_second_factor(z2z3):
    t1, t2 = Torsor2(z2z3, "X"), Torsor2(z2z3, "Y")
    F = translation_functor(t1, t2, 1)
    etas = all_two_morphisms(F, F)
    trivial = next(e for e in etas
                   if all(e(p) == z2z3.H.identity for p in objects(t1)))
    for eta in etas:
        composed = vertical_compose_etaH(eta, trivial)
        for p in objects(t1):
            assert composed(p) == eta(p)


def test_horizontal_formulas_agree(z2z3):
    t1, t2, t3 = (Torsor2(z2z3, lab) for lab in "XYZ")
    for F1 in all_equivariant_functors(t1, t2):
        for F2 in all_equivariant_functors(t2, t3):
            for e1 in all_two_morphisms(F1, F1):
                for e2 in all_two_morphisms(F2, F2):
                    _, defect = horizontal_compose_etaH(
                        e1, e2, check_alternative=True)
                    assert defect == 0.0


def test_selftest_z2z3_and_z4z4_under_five_seconds():
    start = time.time()
    for cm in (finite_demo_module("z2_z3_trivial"),
               finite_demo_module("z4_z4_id"), s3_module(), s3_module(A3)):
        table = selftest(cm)
        assert all(v == 0.0 for v in table.values()), (cm.name, table)
    assert time.time() - start < 5.0


def test_selftest_peiffer_broken_law_table():
    table = selftest(finite_demo_module("z2_z4_peiffer_broken"))
    assert table == {
        "division_solves": 0.0, "division_unique": 0.0,
        "division_functorial": 1.0, "action_composition_equivariance": 1.0,
        "functor_extension": 0.0, "etaH_laws": 0.0, "etaH_round_trip": 0.0,
        "vertical_composition": 1.0, "horizontal_composition": 1.0,
        "interchange": 1.0}
    assert list(table) == [
        "division_solves", "division_unique", "division_functorial",
        "action_composition_equivariance", "functor_extension", "etaH_laws",
        "etaH_round_trip", "vertical_composition", "horizontal_composition",
        "interchange"]


def test_s3_with_trivial_action_is_rejected():
    cm = s3_module(conjugation=False)
    report = check_crossed_module(cm)
    assert not report.passed
    assert report.witnesses["equivariance"] == (1, 2)
    assert report.witnesses["peiffer"] == (1, 2)
    assert report.as_dict()["witnesses"]["peiffer"] == "(1, 2)"
    for check in (selftest, interchange_defect):
        with pytest.raises(ComposabilityError) as err:
            check(cm)
        assert err.value.mismatch == 1.0


def test_etaH_laws_measure_a_constant_non_identity_value():
    cm = finite_demo_module("z4_z4_id")
    t1 = Torsor2(cm, "X")
    ident = extend_functor(t1, t1, lambda p: p)
    constant = EtaH(ident, ident, lambda p: 1)   # t(1) != F(p) : F(p) = 0
    assert constant.laws_defect() == 1.0
    with pytest.raises(EquivarianceError) as err:
        constant.check_laws()
    assert err.value.witness == 0
    identity = EtaH(ident, ident, lambda p: cm.H.identity)
    assert identity.laws_defect() == 0.0


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_relabelled_modules_give_identical_tables(data):
    cm = EXACT_MODULES[data.draw(st.sampled_from(sorted(EXACT_MODULES)))]
    sigma = data.draw(st.permutations(range(cm.G.order)))
    tau = data.draw(st.permutations(range(cm.H.order)))
    other = relabel(cm, sigma, tau)
    assert list(selftest(other).items()) == list(selftest(cm).items())
    assert (check_crossed_module(other).as_dict()
            == check_crossed_module(cm).as_dict())


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_perturbed_t_table_rejected_with_first_witness(data):
    cm = EXACT_MODULES[data.draw(st.sampled_from(sorted(EXACT_MODULES)))]
    t = cm.t(np.arange(cm.H.order))
    h = data.draw(st.integers(0, cm.H.order - 1))
    t[h] = data.draw(st.sampled_from(
        [g for g in range(cm.G.order) if g != t[h]]))
    alpha = cm.alpha(np.arange(cm.G.order)[:, None], np.arange(cm.H.order))
    bad = finite_crossed_module(cm.G, cm.H, t, alpha)
    report = check_crossed_module(bad)
    assert not report.passed
    expected = brute_force_witnesses(bad)
    assert report.witnesses == expected
    assert report.as_dict()["witnesses"] == {k: str(v)
                                             for k, v in expected.items()}


def test_selftest_requires_finite_backend():
    fam = matrix_family("u1_id")
    with pytest.raises(DomainError):
        selftest(fam.cm)


def test_matrix_torsor_division_sampled():
    fam = matrix_family("su2_id_conj")
    t1 = Torsor2(fam.cm, "X")
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = t1.arrow(fam.cm.sample_G(rng), fam.cm.sample_H(rng))
        y = t1.arrow(fam.cm.sample_G(rng), fam.cm.sample_H(rng))
        q = torsor_divide(x, y)
        assert x.act(q).defect(y) <= 1e-10


def test_s3_id_conj_demo_is_the_conjugation_module():
    demo, ref = finite_demo_module("s3_id_conj"), s3_module()
    g, h = np.arange(6)[:, None], np.arange(6)
    assert np.array_equal(demo.G.table, ref.G.table)
    assert np.array_equal(demo.H.table, ref.H.table)
    assert np.array_equal(demo.t(h), ref.t(h))
    assert np.array_equal(demo.alpha(g, h), ref.alpha(g, h))
