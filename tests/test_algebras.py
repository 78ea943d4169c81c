from fractions import Fraction

from qta import (
    A, APRIME, AssociativeAlgebra, AssociativeRepresentation, MultilinearMap,
    RepresentationPair, check_associative, regular_representation,
)

from conftest import (
    dual_numbers, one_dim_algebra, regular_assoc_rep, regular_matched_pair,
)
from oracles import (
    check_associative_representation, check_matched_pair,
    check_representation,
)


def test_one_dim_always_associative():
    for c in (0, 1, -2, Fraction(3, 7)):
        alg = AssociativeAlgebra.from_table([[[c]]], 1)
        assert check_associative(alg).is_zero()


def test_from_table_puts_dim_on_the_label_block():
    from conftest import DUAL_TABLE
    alg = AssociativeAlgebra.from_table(DUAL_TABLE, 2, label=APRIME)
    assert alg.label is APRIME and alg.dim == 2
    assert alg.product.dims == (0, 2)
    assert alg.product.coeffs == dual_numbers().product.coeffs
    assert check_associative(alg).is_zero()


def test_square_zero_pattern_associative():
    # e1*e1 = e2, all other products zero
    alg = AssociativeAlgebra.from_table(
        [[[0, 1], [0, 0]], [[0, 0], [0, 0]]], 2)
    assert check_associative(alg).is_zero()


def test_nonassociative_flagged():
    # e1e1 = e2, e2e1 = e1, rest zero: (e1e1)e1 = e1 but e1(e1e1) = 0
    alg = AssociativeAlgebra.from_table(
        [[[0, 1], [0, 0]], [[1, 0], [0, 0]]], 2)
    res = check_associative(alg)
    assert not res.is_zero()
    assert res.first_witness() == ((0, 0, 0), 0, 1)


def test_check_associative_agrees_with_direct_triples():
    # independent oracle: compare pi(pi(x,y),z) with pi(x,pi(y,z)) directly
    for alg in (one_dim_algebra(), dual_numbers(),
                AssociativeAlgebra.from_table(
                    [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], 2),
                AssociativeAlgebra.from_table(
                    [[[0, 1], [0, 0]], [[1, 0], [0, 0]]], 2)):
        res = check_associative(alg)
        pi = alg.product
        direct_zero = True
        d = alg.dim
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    left = [sum((pi.entry((i, j), a) * pi.entry((a, k), c)
                                 for a in range(d)), Fraction(0))
                            for c in range(d)]
                    right = [sum((pi.entry((j, k), b) * pi.entry((i, b), c)
                                  for b in range(d)), Fraction(0))
                             for c in range(d)]
                    if left != right:
                        direct_zero = False
        assert res.is_zero() == direct_zero


def test_regular_representation_valid():
    for alg in (one_dim_algebra(), dual_numbers()):
        rep = regular_representation(alg)
        assert check_representation(rep).is_zero
    # structure constants of left multiplication on the dual numbers
    rep = regular_representation(dual_numbers())
    assert rep.rho.value((1, 0)) == (0, 1)   # t * 1 = t
    assert rep.rho.value((1, 1)) == (0, 0)   # t * t = 0
    # zero-product algebra: both actions vanish
    zero_alg = AssociativeAlgebra(
        MultilinearMap.zero((A, A), A, (2, 0)))
    zrep = regular_representation(zero_alg)
    assert zrep.rho.is_zero() and zrep.mu.is_zero()
    assert check_representation(zrep).is_zero


def test_zero_actions_are_a_representation(alg1):
    dims = (1, 1)
    rho = MultilinearMap.zero((A, APRIME), APRIME, dims)
    mu = MultilinearMap.zero((APRIME, A), APRIME, dims)
    rep = RepresentationPair(
        AssociativeAlgebra(alg1.product.with_dims(dims), alg1.basis_names),
        rho, mu)
    assert check_representation(rep).is_zero


def test_scaled_action_fails(alg1):
    # rho(e) = 2 id, mu = 0: rho(e.e) = 2 but rho(e)rho(e) = 4
    dims = (1, 1)
    rho = MultilinearMap.from_table([[[2]]], (A, APRIME), APRIME, dims)
    mu = MultilinearMap.zero((APRIME, A), APRIME, dims)
    rep = RepresentationPair(
        AssociativeAlgebra(alg1.product.with_dims(dims), alg1.basis_names),
        rho, mu)
    rep_report = check_representation(rep)
    assert not rep_report.is_zero
    assert rep_report.nonzero_names() == ["rho(x.y) - rho(x)rho(y)"]


def test_associative_representation_zero_prime_product(alg1):
    # with a zero product on the module, the three extra identities vanish
    dims = (1, 1)
    rep = regular_representation(alg1)
    star = MultilinearMap.zero((APRIME, APRIME), APRIME, dims)
    ar = AssociativeRepresentation(rep.algebra, rep.rho, rep.mu, star)
    report = check_associative_representation(ar)
    extras = list(report)[3:]
    assert all(m.is_zero() for _, m in extras)


def test_associative_representation_regular():
    for alg in (one_dim_algebra(), dual_numbers()):
        ar = regular_assoc_rep(alg)
        assert check_associative_representation(ar).is_zero


def test_associative_representation_scaled_rho_fails(alg1):
    ar = regular_assoc_rep(alg1)
    ar2 = AssociativeRepresentation(ar.algebra, ar.rho.scale(2), ar.mu,
                                    ar.prime_product)
    report = check_associative_representation(ar2)
    assert not report.is_zero
    assert report.nonzero_names() == [
        "rho(x.y) - rho(x)rho(y)", "u.(rho(x)v) - (mu(x)u).v"]


def test_matched_pair_trivial_actions():
    # zero products and zero actions: everything vanishes
    dims = (1, 1)
    zero_a = AssociativeAlgebra(MultilinearMap.zero((A, A), A, dims))
    zero_p = AssociativeAlgebra(
        MultilinearMap.zero((APRIME, APRIME), APRIME, dims))
    mp = regular_matched_pair(one_dim_algebra())
    assert check_matched_pair(mp).is_zero
    from qta import MatchedPairData
    mp0 = MatchedPairData(zero_a, zero_p,
                          MultilinearMap.zero((A, APRIME), APRIME, dims),
                          MultilinearMap.zero((APRIME, A), APRIME, dims),
                          MultilinearMap.zero((APRIME, A), A, dims),
                          MultilinearMap.zero((A, APRIME), A, dims))
    assert check_matched_pair(mp0).is_zero


def test_matched_pair_cross_oracle():
    # a matched pair is valid iff the bowtie product is associative
    from qta import build_standard, check_associative as chk, total_product
    from qta import AssociativeAlgebra as AA
    for alg in (one_dim_algebra(), dual_numbers()):
        mp = regular_matched_pair(alg)
        assert check_matched_pair(mp).is_zero
        q = build_standard("matched_pair", matched_pair=mp)
        bowtie = total_product(q)
        assert chk(AA(bowtie, q.total_basis_names())).is_zero()


def test_matched_pair_violation_detected():
    mp = regular_matched_pair(dual_numbers())
    bad_rho = mp.rho + MultilinearMap.from_function(
        (A, APRIME), APRIME, mp.dims,
        lambda t: [1 if (t == (1, 1) and k == 0) else 0 for k in range(2)])
    from qta import MatchedPairData
    mp_bad = MatchedPairData(mp.alg_a, mp.alg_prime, bad_rho, mp.mu,
                             mp.eta, mp.xi)
    assert not check_matched_pair(mp_bad).is_zero
