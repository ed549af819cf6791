import numpy as np
import pytest

from gauge2.errors import ComposabilityError, DomainError, StructureError
from gauge2.families import (FAMILY_NAMES, finite_crossed_module,
                             finite_demo_module, matrix_family)
from gauge2.groups import cyclic_group
from gauge2.twogroup import (AXIOMS, check_crossed_module,
                             interchange_defect, two_group_compose,
                             two_group_multiply, whisker_scalar)


def _axioms_hold(report):
    """The CLI's verdict on the axioms, at the module's own tolerance."""
    return max(report[law] for law in AXIOMS) <= report["tolerance"]


@pytest.fixture(scope="module")
def z2z3():
    return finite_demo_module("z2_z3_trivial")


@pytest.fixture(scope="module")
def su2():
    return matrix_family("su2_id_conj")


def test_axioms_pass_z2z3_exhaustively(z2z3):
    report = check_crossed_module(z2z3)
    assert _axioms_hold(report)
    assert report["samples"] == 2 * 3 * 3
    assert max(report[law] for law in AXIOMS) == 0.0


@pytest.mark.parametrize("name", FAMILY_NAMES)
@pytest.mark.parametrize("group", ["G", "H"])
def test_a_sampled_batch_is_the_sequential_draws(name, group):
    """One batched draw holds the values of as many single draws, bit for
    bit, and a single draw keeps its shape."""
    sample = getattr(matrix_family(name).cm, f"sample_{group}")
    rng = np.random.default_rng(17)
    sequential = np.stack([sample(rng) for _ in range(60)])
    batch = sample(np.random.default_rng(17), (60,))
    assert batch.shape == sequential.shape
    assert np.array_equal(batch, sequential)
    assert sample(rng).shape == sequential.shape[1:]


def test_axioms_pass_su2_sampled(su2):
    report = check_crossed_module(su2.cm, samples=200,
                                  rng=np.random.default_rng(0))
    assert _axioms_hold(report)
    assert max(report[law] for law in AXIOMS) <= 1e-12


def test_counterexample_rejected_with_peiffer_witness():
    bad = finite_demo_module("z2_z4_peiffer_broken")
    report = check_crossed_module(bad)
    assert not _axioms_hold(report)
    assert report["peiffer"] > 0
    # alpha_{t(1)}(1) = 3 while 1*1*1^-1 = 1
    assert report["witnesses"]["peiffer"] == "(1, 1)"


def test_passing_matrix_report_has_no_roundoff_witnesses():
    # u2_to_pu2 axioms hold to roundoff (~1e-16), which is not a witness
    report = check_crossed_module(matrix_family("u2_to_pu2").cm)
    assert _axioms_hold(report)
    assert 0.0 < report["t_homomorphism"] <= report["tolerance"]
    assert report["witnesses"] == {}


def test_multiply_identity_and_formula(z2z3):
    e = z2z3.identity2()
    x = z2z3.element(1, 2)
    assert (e * x).defect(x) == 0.0
    # (1,2)*(1,1) = (0, 0): gg' = 1+1 mod 2, h alpha_g(h') = 2+1 mod 3
    y = z2z3.element(1, 1)
    assert (x * y).defect(z2z3.element(0, 0)) == 0.0


def test_multiply_su2_inverse_collapse(su2):
    rng = np.random.default_rng(1)
    g = su2.cm.sample_G(rng)
    h = su2.cm.sample_H(rng)
    x = su2.cm.element(g, h)
    y = su2.cm.element(su2.cm.G.inv(g), su2.cm.H.identity)
    prod = x * y
    assert su2.cm.G.defect(prod.g, su2.cm.G.identity) <= 1e-12
    assert su2.cm.H.defect(prod.h, h) <= 1e-12


def test_compose_examples(z2z3):
    x = z2z3.element(1, 1)
    idt = z2z3.identity2(x.target)
    assert two_group_compose(idt, x).defect(x) == 0.0
    y = z2z3.element(1, 2)
    # composable since t == e makes source = target = g
    assert two_group_compose(y, x).defect(z2z3.element(1, 0)) == 0.0
    assert two_group_compose(x.vertical_inverse(), x).defect(
        z2z3.identity2(1)) == 0.0


def test_compose_rejects_mismatched_cells():
    cm = finite_demo_module("z4_z4_id")
    x = cm.element(1, 1)     # target = 2
    y = cm.element(1, 0)     # source = 1 != 2
    with pytest.raises(ComposabilityError) as err:
        two_group_compose(y, x)
    assert err.value.mismatch == 1.0


def test_mixed_modules_rejected(z2z3):
    other = finite_demo_module("z4_z4_id")
    with pytest.raises(DomainError):
        two_group_multiply(z2z3.identity2(), other.identity2())


def test_whisker_scalar(z2z3, su2):
    assert whisker_scalar(z2z3, 1, z2z3.H.identity) == 1
    assert whisker_scalar(z2z3, 1, 2) == 0
    rng = np.random.default_rng(2)
    h = su2.cm.sample_H(rng)
    hp = su2.cm.sample_H(rng)
    # oracle: compose (t(h), h') after (e, h) and read off the H part
    lhs = whisker_scalar(su2.cm, h, hp)
    upper = su2.cm.element(su2.cm.t(h), hp)
    lower = su2.cm.element(su2.cm.G.identity, h)
    assert su2.cm.H.defect(lhs, two_group_compose(upper, lower).h) <= 1e-12


def test_source_target_functorial(z2z3):
    cells = [z2z3.element(g, h) for g in range(z2z3.G.order)
             for h in range(z2z3.H.order)]
    for x in cells:
        for y in cells:
            prod = x * y
            assert prod.source == z2z3.G.mul(x.source, y.source)
            assert prod.target == z2z3.G.mul(x.target, y.target)


def test_interchange_exhaustive_finite():
    assert interchange_defect(finite_demo_module("z2_z3_trivial")) == 0.0
    assert interchange_defect(finite_demo_module("z4_z4_id")) == 0.0


def test_interchange_sampled_matrix(su2):
    defect = interchange_defect(su2.cm, samples=1000,
                                rng=np.random.default_rng(3))
    assert defect <= 1e-9


def test_kernel_centrality(su2):
    z2z3 = finite_demo_module("z2_z3_trivial")
    kernel = z2z3.ker_t()
    assert kernel == [0, 1, 2]      # t == e, whole H is the kernel
    u2p = matrix_family("u2_to_pu2")
    rng = np.random.default_rng(4)
    for k in u2p.cm.ker_t():
        for _ in range(5):
            h = u2p.cm.sample_H(rng)
            comm = u2p.cm.H.mul(k, h) - u2p.cm.H.mul(h, k)
            assert np.max(np.abs(comm)) <= 1e-9


@pytest.mark.parametrize("order_h,alpha,message", [
    (3, [[0, 1, 2], [0, 0, 0]], r"alpha row 1 is not a bijection of H"),
    # row 1 moves the identity: alpha_1(0 + 0) = 1 but alpha_1(0) + alpha_1(0) = 2
    (3, [[0, 1, 2], [1, 0, 2]], r"alpha_1 is not an automorphism at \(0,0\)"),
    # h -> 2h is an automorphism of Z5, but applying it twice is not alpha_0
    (5, [[0, 1, 2, 3, 4], [0, 2, 4, 1, 3]], r"alpha is not an action at \(1,1\)"),
])
def test_finite_constructor_names_first_failure(order_h, alpha, message):
    with pytest.raises(StructureError, match=message):
        finite_crossed_module(cyclic_group(2), cyclic_group(order_h),
                              [0] * order_h, alpha)
