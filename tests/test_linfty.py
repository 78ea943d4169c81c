import re
from fractions import Fraction
from itertools import product as iterproduct
from math import comb

import pytest

from qta import linfty, quasitwilled
from qta import (
    A, APRIME, TOTAL, BlockError, DegreeError, DimensionError, InvalidQTA,
    MultilinearMap, NotMaurerCartan, QuasiTwilledAlgebra, VData,
    build_standard, catalog_names, cohomology_dims, conjugation_twist,
    controlling_structure, emit_example, explicit_formula, get_entry,
    gerstenhaber, insert, left_residual, lift, msum, project,
    random_map, regular_representation, require_quasi_twilled,
    right_residual, seeded_rng, total_product, validate,
)
from qta.io import build_quasi_twilled, parse, side_map
from qta.multilinear import _label_size

import oracles
from conftest import (
    builder_instances, conjugated_structure, deformation_map_cases,
    dense_frame, dual_numbers, left_map, one_dim_algebra, right_map,
    t2_deformation_map_cases, trunc3, twisted_structure, upper_triangular,
)


MAP_CASES = [pytest.param(*case, id=f"{case[0]} {case[3]}")
             for case in deformation_map_cases()]

# the paper's top bracket orders: l_0, l_1, l_2 on the right and l_1, l_2,
# l_3 on the left; every higher l_k is zero
TOPS = {"right": 2, "left": 3}


def rcochain(rng, q, arity):
    return random_map(rng, (A,) * arity, APRIME, q.dims)


def lcochain(rng, q, arity):
    return random_map(rng, (APRIME,) * arity, A, q.dims)


# -- V-data --------------------------------------------------------------------

def test_vdata_projection_of_total():
    for alg in (one_dim_algebra(), dual_numbers()):
        for kind, q in builder_instances(alg).items():
            vr = VData(q, "right")
            assert vr.project(vr.delta) == q.theta, kind
            vl = VData(q, "left")
            assert vl.project(vl.delta).is_zero(), kind


def test_vdata_semidirect_delta_components():
    q = build_standard("semidirect", rep=regular_representation(dual_numbers()))
    v = VData(q, "right")
    assert v.delta == lift(q.pi) + lift(q.rho) + lift(q.mu)


def test_vdata_rejects_invalid_structure():
    q = build_standard("reynolds", algebra=one_dim_algebra())
    bad_mu = q.mu.scale(3)
    qbad = QuasiTwilledAlgebra(q.pi, q.xi, q.eta, q.beta, q.rho, bad_mu,
                               q.theta)
    with pytest.raises(InvalidQTA):
        VData(qbad, "right")


def _count_validate(monkeypatch):
    calls = []

    def counting(q):
        calls.append(q)
        return validate(q)

    monkeypatch.setattr(quasitwilled, "validate", counting)
    return calls


def _count_msum(monkeypatch):
    # Delta is the one msum of the quasitwilled module (`total_product`)
    builds = []

    def counting(maps):
        builds.append(maps)
        return msum(maps)

    monkeypatch.setattr(quasitwilled, "msum", counting)
    return builds


def test_equal_structure_is_verified_once(monkeypatch):
    # the verdict lives on the structure: building it validates it once,
    # every later caller reads that pass, and an equal but distinct object
    # is validated once, on its own
    calls = _count_validate(monkeypatch)
    builds = _count_msum(monkeypatch)
    q = build_standard("reynolds", algebra=dual_numbers())
    assert calls == [q]
    b = left_map(q, [[-1, 0], [0, -1]])
    cohomology_dims(q, b, "left", 1)
    controlling_structure(q, "left")
    controlling_structure(q, "right")
    conjugation_twist(q, b, "left")
    assert calls == [q]
    assert len(builds) == 1
    again = build_standard("reynolds", algebra=dual_numbers())
    assert again is not q
    s = controlling_structure(again, "left")
    controlling_structure(again, "right")
    assert calls == [q, again]
    assert len(builds) == 2
    assert s.vdata.q is again


def test_bumped_structure_is_verified_again(monkeypatch):
    q = build_standard("reynolds", algebra=dual_numbers())
    controlling_structure(q, "right")
    coeffs = list(q.pi.coeffs)
    coeffs[1] += 1
    bumped = QuasiTwilledAlgebra(**{
        **q.components(),
        "pi": MultilinearMap(q.pi.domain, q.pi.codomain, q.pi.dims, coeffs)})
    calls = _count_validate(monkeypatch)
    for _ in range(2):  # a failing verdict is never remembered
        with pytest.raises(InvalidQTA):
            controlling_structure(bumped, "right")
    assert len(calls) == 2


def test_verdict_is_shared_by_both_sides(monkeypatch):
    q = build_standard("semidirect", rep=regular_representation(trunc3()))
    controlling_structure(q, "right")
    calls = _count_validate(monkeypatch)
    controlling_structure(q, "left")
    assert calls == []


def test_cohomology_and_controlling_algebra_share_one_verdict(monkeypatch):
    # the cohomology of a deformation map and the controlling algebra read
    # the same verdict, kept on the structure: by its build, or else by the
    # first reader; an equal but distinct structure is validated on its own
    calls = _count_validate(monkeypatch)
    builds = _count_msum(monkeypatch)
    q = build_standard("semidirect", rep=regular_representation(trunc3()))
    assert calls == [q]
    d = right_map(q, [[0, 0, 0], [0, 1, 0], [0, 1, 2]])
    cohomology_dims(q, d, "right", 1)
    controlling_structure(q, "right")
    controlling_structure(q, "left")
    conjugation_twist(q, d, "right")
    assert calls == [q]
    again = QuasiTwilledAlgebra(**q.components())  # no build, no verdict
    cohomology_dims(again, d, "right", 1)
    assert calls == [q, again]
    controlling_structure(again, "right")
    controlling_structure(again, "left")
    conjugation_twist(again, d, "right")
    assert calls == [q, again]
    assert len(builds) == 2


def test_delta_is_built_once_per_structure(monkeypatch):
    calls = _count_validate(monkeypatch)
    builds = _count_msum(monkeypatch)
    q = build_standard("semidirect", rep=regular_representation(trunc3()))
    d = right_map(q, [[0, 0, 0], [0, 1, 0], [0, 1, 2]])
    delta = require_quasi_twilled(q)
    conjugation_twist(q, d, "right")
    assert oracles.graph_residual(q, d).is_zero()
    for side in ("right", "left"):
        assert VData(q, side).delta is delta
    assert total_product(q) is delta
    assert len(builds) == 1
    assert calls == [q]


@pytest.mark.parametrize("side", ["right", "left"])
def test_prime_block_must_be_a_subalgebra(side):
    # a structure has no A'A' -> A component: a map on that block is
    # refused at construction and cannot be put in later, so the left
    # P(Delta) is zero by construction
    q = QuasiTwilledAlgebra.from_components((2, 2))
    prime_block = MultilinearMap.unit((APRIME, APRIME), A, q.dims, 0)
    with pytest.raises(DimensionError):
        QuasiTwilledAlgebra(**{**q.components(), "eta": prime_block})
    with pytest.raises(AttributeError):
        q.eta = prime_block
    v = VData(q, side)
    assert project(v.delta, (APRIME, APRIME), A).is_zero()


def _units(domain, codomain, dims):
    n = _label_size(codomain, dims)
    for label in domain:
        n *= _label_size(label, dims)
    return [MultilinearMap.unit(domain, codomain, dims, i) for i in range(n)]


def test_f_block_abelian_exhaustive_low_arity():
    # V-data facts fixed by the dims and the side, so checked here for the
    # dims of every catalog document rather than for each structure: F is
    # abelian, and ker P is a subalgebra
    all_dims = {build_quasi_twilled(parse(emit_example(name))).dims
                for name in catalog_names()}
    for dims in sorted(all_dims):
        q = QuasiTwilledAlgebra.from_components(dims)
        for side in ("right", "left"):
            v = VData(q, side)
            cochains = []
            for arity in (1, 2):
                dom, cod = v.f_signature(arity)
                cochains += [oracles.basis_cochain(v, arity, r, k)
                             for r in range(_label_size(dom[0], dims) ** arity)
                             for k in range(_label_size(cod, dims))]
            for f in cochains:
                for g in cochains:
                    assert gerstenhaber(lift(f), lift(g)).is_zero()
            outside = [m for arity in (1, 2)
                       for dom in iterproduct((A, APRIME), repeat=arity)
                       for cod in (A, APRIME)
                       if (dom, cod) != v.f_signature(arity)
                       for m in _units(dom, cod, dims)]
            for m1 in outside:
                for m2 in outside:
                    bracket = gerstenhaber(lift(m1), lift(m2))
                    assert v.project(bracket).is_zero(), (dims, side)


def test_derived_bracket_rejects_foreign_args():
    # at every order, above the top too, and in the Jacobi sum, whether
    # or not any of its terms is computed
    q = build_standard("reynolds", algebra=dual_numbers())
    for side, other in (("right", "left"), ("left", "right")):
        s = controlling_structure(q, side)
        v = s.vdata
        wrong = VData(q, other).zero(1)
        good = v.zero(1)
        with pytest.raises(BlockError):
            oracles.derived_bracket(v, [wrong])
        for k in range(1, 6):
            with pytest.raises(BlockError):
                s.bracket(k, [good] * (k - 1) + [wrong])
            with pytest.raises(BlockError):
                s.jacobi_residual(k, [good] * (k - 1) + [wrong])
        with pytest.raises(DegreeError):
            s.bracket(5, [good] * 4)


# -- bracket structure ------------------------------------------------------------

def test_right_l1_is_bracket_with_pi_rho_mu():
    rng = seeded_rng(61)
    q = build_standard("semidirect", rep=regular_representation(dual_numbers()))
    s = controlling_structure(q, "right")
    v = s.vdata
    for arity in (1, 2):
        f = rcochain(rng, q, arity)
        direct = v.project(gerstenhaber(
            lift(q.pi) + lift(q.rho) + lift(q.mu), lift(f)))
        assert s.bracket(1, [f]) == direct


def test_left_l1_is_bracket_with_xi_eta_beta():
    rng = seeded_rng(62)
    q = builder_instances(dual_numbers())["matched_pair"]
    s = controlling_structure(q, "left")
    v = s.vdata
    for arity in (1, 2):
        f = lcochain(rng, q, arity)
        direct = v.project(gerstenhaber(
            lift(q.xi) + lift(q.eta) + lift(q.beta), lift(f)))
        assert s.bracket(1, [f]) == direct


def test_right_l2_degree0_matches_residual_cross_terms():
    # l2(D1, D2) + l2(D2, D1) is the bilinear part of the residual:
    # residual(D1 + D2) - residual(D1) - residual(D2) + residual(0)
    rng = seeded_rng(63)
    q = build_standard("reynolds", algebra=dual_numbers())
    s = controlling_structure(q, "right")
    d1 = rcochain(rng, q, 1)
    d2 = rcochain(rng, q, 1)
    zero = MultilinearMap.zero((A,), APRIME, q.dims)
    cross = (right_residual(q, d1 + d2) - right_residual(q, d1)
             - right_residual(q, d2) + right_residual(q, zero))
    assert s.bracket(2, [d1, d2]) == cross
    # degree-0 symmetry: l2(d1,d2) = l2(d2,d1)
    assert s.bracket(2, [d1, d2]) == s.bracket(2, [d2, d1])


def test_brackets_vanish_beyond_range(monkeypatch):
    # one order above the top, bracket returns the zero cochain without a
    # bracket, and the full derived bracket of the element is zero there
    rng = seeded_rng(64)
    q = build_standard("reynolds", algebra=dual_numbers())
    semi = build_standard("semidirect",
                          rep=regular_representation(dual_numbers()))
    euler = right_map(semi, [[0, 0], [0, 1]])
    sL = controlling_structure(q, "left")
    # base structures, then structures twisted by a deformation map
    cases = [(s, rcochain, (1, 2, 1))
             for s in (controlling_structure(q, "right"),
                       controlling_structure(semi, "right").twist(euler))]
    cases += [(s, lcochain, (1, 1, 2, 1))
              for s in (sL, sL.twist(left_map(q, [[-1, 0], [0, -1]])))]
    calls = _count_brackets(monkeypatch)
    for s, cochain, arities in cases:
        args = [cochain(rng, q, a) for a in arities]
        del calls[:]
        assert s.bracket(len(args), args).is_zero(), s
        assert calls == [], s
        assert oracles.derived_bracket(s.vdata, args, s.delta).is_zero(), s


def _bracket_cases(group):
    """Base and twisted controlling structures of one group, both sides."""
    sides = ("right", "left")
    if group == "catalog":
        out = []
        for name in catalog_names():
            doc = parse(emit_example(name))
            q = build_quasi_twilled(doc)
            out += [controlling_structure(q, side) for side in sides]
            out += [controlling_structure(q, side).twist(
                        side_map(doc, q, map_name, side))
                    for map_name, side in get_entry(name).deformation_maps]
        return out
    if group == "twisted":
        return [controlling_structure(twisted_structure(dual_numbers(), seed),
                                      side)
                for seed in (0, 1, 2) for side in sides]
    return [controlling_structure(q, side)
            for q in builder_instances(upper_triangular()).values()
            for side in sides] + [
        controlling_structure(q, side).twist(m)
        for _, q, m, side in t2_deformation_map_cases()]


@pytest.mark.parametrize("group", ["catalog", "twisted", "T2"])
def test_bracket_is_the_full_bracket_and_zero_above_the_top(group,
                                                            monkeypatch):
    # l_0 .. l_4 equal the full derived bracket of the structure's element;
    # l_1 is the coboundary of the element's triple and takes no bracket,
    # l_k takes k brackets for 2 <= k <= the side's top and none above it,
    # and the full bracket vanishes there too.  l_1 of an explicit element
    # (the structure's element plus a random binary map) is the
    # coboundary of its projected triple, with no bracket either
    rng = seeded_rng(81)
    calls = _count_brackets(monkeypatch)
    nonzero = set()
    for s in _bracket_cases(group):
        v = s.vdata
        assert s.top == TOPS[s.side]
        for k, arities in [(0, [])] + [
                (k, [a] + [1] * (k - 1)) for k in range(1, 5) for a in (1, 2)]:
            args = [random_map(rng, *v.f_signature(a), v.dims)
                    for a in arities]
            del calls[:]
            got = s.bracket(k, args)
            assert len(calls) == (k if 2 <= k <= s.top else 0), (s, k)
            assert got == oracles.derived_bracket(v, args, s.delta), (s, k)
            assert got.signature() == v.f_signature(2 + sum(arities) - k)
            if k > s.top:
                assert got.is_zero(), (s, k)
            elif not got.is_zero():
                nonzero.add((s.side, k))
        explicit = linfty.CurvedLInftyStructure(v, delta=s.delta + random_map(
            rng, (TOTAL, TOTAL), TOTAL, v.dims, bound=1))
        for a in (1, 2):
            f = random_map(rng, *v.f_signature(a), v.dims)
            del calls[:]
            got = explicit.bracket(1, [f])
            assert calls == [], (s, a)
            assert got == oracles.derived_bracket(v, [f], explicit.delta)
            if not got.is_zero():
                nonzero.add(("explicit", 1))
    # the top order itself is nonzero on some structure of each side, and
    # so is some explicit l_1
    assert {(side, top) for side, top in TOPS.items()} <= nonzero, nonzero
    assert ("explicit", 1) in nonzero


@pytest.mark.parametrize("side", ["right", "left"])
def test_explicit_element_keeps_every_bracket(side):
    # the broken element has an A'A' -> A block, which feeds l_3 on the
    # right and l_0 on the left: nothing is zero by the side's top.  Its
    # l_4 is computed, and is zero only because the element is binary
    rng = seeded_rng(82)
    *_, explicit = _jacobi_structures(side)
    v = explicit.vdata
    assert explicit.top is None
    for k in {"right": (3, 4), "left": (0, 4)}[side]:
        args = [random_map(rng, *v.f_signature(1), v.dims)
                for _ in range(k)]
        got = explicit.bracket(k, args)
        assert got == oracles.derived_bracket(v, args, explicit.delta)
        assert got.is_zero() == (k == 4), k


def test_bracket_lands_in_block_with_degree_plus_one():
    rng = seeded_rng(65)
    q = build_standard("reynolds", algebra=dual_numbers())
    s = controlling_structure(q, "left")
    f = lcochain(rng, q, 2)
    g = lcochain(rng, q, 1)
    out = s.bracket(2, [f, g])
    assert out.domain == (APRIME,) * 3 and out.codomain == A
    assert out.degree == f.degree + g.degree + 1


def test_graded_symmetry_of_l2_and_l3():
    rng = seeded_rng(66)
    q = build_standard("reynolds", algebra=dual_numbers())
    s = controlling_structure(q, "left")
    for m, n in [(1, 2), (2, 2), (2, 3)]:
        f = lcochain(rng, q, m)
        g = lcochain(rng, q, n)
        sign = -1 if ((m - 1) * (n - 1)) % 2 else 1
        assert s.bracket(2, [g, f]) == s.bracket(2, [f, g]).scale(sign)
    f1, f2, f3 = (lcochain(rng, q, a) for a in (2, 1, 2))
    from qta import koszul_sign
    degs = [f1.degree, f2.degree, f3.degree]
    eps = koszul_sign((1, 0, 2), degs)
    assert s.bracket(3, [f2, f1, f3]) == s.bracket(
        3, [f1, f2, f3]).scale(eps)


# -- Maurer-Cartan -----------------------------------------------------------------

def test_mc_grids_match_residuals():
    alg = one_dim_algebra()
    q = build_standard("modified_direct_sum", algebra=alg, weight=4)
    s = controlling_structure(q, "right")
    for d in range(-3, 4):
        m = right_map(q, [[d]])
        assert s.mc_residual(m) == right_residual(q, m)
        assert s.mc_residual(m).is_zero() == (d in (2, -2))
    qr = build_standard("reynolds", algebra=alg)
    sl = controlling_structure(qr, "left")
    for b in range(-3, 4):
        m = left_map(qr, [[b]])
        assert sl.mc_residual(m) == left_residual(qr, m)
        assert sl.mc_residual(m).is_zero() == (b in (0, -1))
    qs = build_standard("semidirect", rep=regular_representation(alg))
    sl2 = controlling_structure(qs, "left")
    for b in range(-3, 4):
        m = left_map(qs, [[b]])
        assert sl2.mc_residual(m).is_zero() == (b == 0)


def test_mc_requires_degree_zero():
    rng = seeded_rng(67)
    q = build_standard("reynolds", algebra=dual_numbers())
    s = controlling_structure(q, "right")
    with pytest.raises(DegreeError):
        s.mc_residual(rcochain(rng, q, 2))


# -- twisting ---------------------------------------------------------------------

def test_twist_requires_maurer_cartan():
    q = build_standard("modified_direct_sum", algebra=one_dim_algebra(),
                       weight=4)
    s = controlling_structure(q, "right")
    with pytest.raises(NotMaurerCartan):
        s.twist(right_map(q, [[1]]))


def test_twist_by_zero_drops_curvature():
    # theta = 0 (semidirect): twisting by 0 keeps l1, l2 and zeroes l0
    rng = seeded_rng(68)
    q = build_standard("semidirect", rep=regular_representation(dual_numbers()))
    s = controlling_structure(q, "right")
    z = right_map(q, [[0, 0], [0, 0]])
    tw = s.twist(z)
    assert tw.l0().is_zero()
    f = rcochain(rng, q, 2)
    g = rcochain(rng, q, 1)
    assert tw.bracket(1, [f]) == s.bracket(1, [f])
    assert tw.bracket(2, [f, g]) == s.bracket(2, [f, g])


def test_twisted_bracket_formulas():
    # right: l1^D(f) = l1(f) + l2(D, f); left: l1^B(f) = l1 + l2(B,.) +
    # (1/2) l3(B,B,.), l2^B = l2 + l3(B,.,.), l3^B = l3
    rng = seeded_rng(69)
    q = build_standard("semidirect", rep=regular_representation(dual_numbers()))
    s = controlling_structure(q, "right")
    d = right_map(q, [[0, 0], [0, 1]])
    tw = s.twist(d)
    for arity in (1, 2):
        f = rcochain(rng, q, arity)
        assert tw.bracket(1, [f]) == s.bracket(1, [f]) + s.bracket(2, [d, f])
        g = rcochain(rng, q, 1)
        assert tw.bracket(2, [f, g]) == s.bracket(2, [f, g])

    qb = build_standard("reynolds", algebra=dual_numbers())
    sb = controlling_structure(qb, "left")
    b = left_map(qb, [[-1, 0], [0, -1]])
    twb = sb.twist(b)
    for arity in (1, 2):
        f = lcochain(rng, qb, arity)
        want = (sb.bracket(1, [f]) + sb.bracket(2, [b, f])
                + sb.bracket(3, [b, b, f]).scale(Fraction(1, 2)))
        assert twb.bracket(1, [f]) == want
        g = lcochain(rng, qb, 1)
        assert twb.bracket(2, [f, g]) == (
            sb.bracket(2, [f, g]) + sb.bracket(3, [b, f, g]))
        h = lcochain(rng, qb, 1)
        assert twb.bracket(3, [f, g, h]) == sb.bracket(3, [f, g, h])


@pytest.mark.parametrize("label,q,m,side", MAP_CASES)
def test_twisted_element_is_the_twisted_product(label, q, m, side):
    # the twisted element, the series e^(ad m) Delta, the conjugation
    # twist and the closed formulas agree
    s = controlling_structure(q, side)
    tw = s.twist(m)
    conj = conjugation_twist(q, m, side)
    assert tw.delta == conj
    assert oracles.exp_series(s, m) == conj
    closed = (oracles.twist_right if side == "right"
              else oracles.twist_left)(q, m)
    assert closed.reassemble() == conj


@pytest.mark.parametrize("side,first,second", [
    # two derivations of the dual numbers (semidirect, regular rep)
    ("right", [[0, 0], [0, 1]], [[0, 0], [0, -3]]),
    # Reynolds operators -id and 0 of the dual numbers: -id then +id
    ("left", [[-1, 0], [0, -1]], [[1, 0], [0, 1]]),
])
def test_twist_of_twist_is_twist_by_the_sum(side, first, second):
    rng = seeded_rng(77)
    if side == "right":
        q = build_standard("semidirect",
                           rep=regular_representation(dual_numbers()))
        m1, m2 = right_map(q, first), right_map(q, second)
    else:
        q = build_standard("reynolds", algebra=dual_numbers())
        m1, m2 = left_map(q, first), left_map(q, second)
    s = controlling_structure(q, side)
    first_twist = s.twist(m1)
    twice = first_twist.twist(m2)
    once = s.twist(m1 + m2)
    assert twice.x == once.x == m1 + m2
    assert twice.delta == once.delta
    # the series of the first twist's element and of Delta itself
    series = oracles.exp_series(first_twist, m2)
    assert series == once.delta == oracles.exp_series(s, m1 + m2)
    v = s.vdata
    for k in range(4):
        args = [random_map(rng, *v.f_signature(rng.choice((1, 2))), q.dims)
                for _ in range(k)]
        want = oracles.derived_bracket(v, args, series)
        assert twice.bracket(k, args) == once.bracket(k, args) == want, k


def _count_brackets(monkeypatch):
    calls = []

    def counting(f, g):
        calls.append(f)
        return gerstenhaber(f, g)

    monkeypatch.setattr(linfty, "gerstenhaber", counting)
    return calls


@pytest.mark.parametrize("label,q,m,side", MAP_CASES)
def test_brackets_per_mc_residual_and_twisted_l1(label, q, m, side,
                                                 monkeypatch):
    # a residual and a twist are blocks of the twisted product, with no
    # bracket on the total space; a twisted l_1 is the coboundary of the
    # twisted triple, with no bracket either, and equals the full bracket
    # with the twisted element
    rng = seeded_rng(78)
    s = controlling_structure(q, side)
    v = s.vdata
    x = random_map(rng, *v.f_signature(1), q.dims)
    f = random_map(rng, *v.f_signature(2), q.dims)
    calls = _count_brackets(monkeypatch)
    tw = s.twist(m)
    s.mc_residual(x)
    tw.mc_residual(x)
    assert calls == []
    for arg in (x, f):
        got = tw.bracket(1, [arg])
        assert calls == []
        assert got == oracles.derived_bracket(v, [arg], tw.delta)


# -- the series oracle -----------------------------------------------------------

def _series_cases(group):
    """(structure, side, deformation map or None) for one group of cases."""
    sides = ("right", "left")
    if group == "deformation maps":
        return [(q, side, m) for _, q, m, side in
                deformation_map_cases() + t2_deformation_map_cases()]
    if group == "twisted":
        return [(twisted_structure(dual_numbers(), seed), side, None)
                for seed in (0, 1, 2) for side in sides]
    alg = {"builders dual": dual_numbers, "builders trunc3": trunc3,
           "builders T2": upper_triangular}[group]()
    return [(q, side, None) for q in builder_instances(alg).values()
            for side in sides]


@pytest.mark.parametrize("basis", ["natural", "changed"])
@pytest.mark.parametrize("group", [
    "deformation maps", "builders dual", "builders trunc3", "builders T2",
    "twisted"])
def test_mc_residual_and_twist_against_the_series(group, basis):
    # the MC residual of the case's map, the zero map and random maps is
    # P(e^(ad y) Delta) by the series; a twist by each MC one has the
    # series element, its brackets l_0..l_3 and, at a random z, the
    # residual P(e^(ad z) delta) of its own element; a twist by any other
    # raises with the series residual's first witness
    rng = seeded_rng(79)
    seen = {"twisted": 0, "refused": 0}
    for q, side, m in _series_cases(group):
        if basis == "changed":
            push = dense_frame(q.dims)
            q = conjugated_structure(q, push)
            m = m if m is None else push(m)
        s = controlling_structure(q, side)
        v = s.vdata

        def cochain(arity):
            return random_map(rng, *v.f_signature(arity), q.dims)

        maps = [MultilinearMap.zero(*v.f_signature(1), q.dims),
                cochain(1), cochain(1)] + ([] if m is None else [m])
        for y in maps:
            res = s.mc_residual(y)
            assert res == oracles.mc_residual(s, y)
            if not res.is_zero():
                witness = res.first_witness()
                with pytest.raises(NotMaurerCartan,
                                   match=re.escape(f"nonzero at {witness}")):
                    s.twist(y)
                seen["refused"] += 1
                continue
            tw = s.twist(y)
            seen["twisted"] += 1
            series = oracles.exp_series(s, y)
            assert tw.delta == series
            for k in range(4):
                args = [cochain(rng.choice((1, 2))) for _ in range(k)]
                assert tw.bracket(k, args) == oracles.derived_bracket(
                    v, args, series), k
            z = cochain(1)
            assert tw.mc_residual(z) == oracles.mc_residual(tw, z)
        assert m is None or s.mc_residual(m).is_zero()
    assert seen["twisted"] and seen["refused"], seen


@pytest.mark.parametrize("side", ["right", "left"])
def test_explicit_element_has_brackets_but_no_twisting_map(side):
    rng = seeded_rng(80)
    *_, explicit = _jacobi_structures(side)
    v = explicit.vdata
    assert "explicit" in repr(explicit)
    f = random_map(rng, *v.f_signature(2), v.dims)
    assert explicit.bracket(1, [f]) == oracles.derived_bracket(
        v, [f], explicit.delta)
    zero = MultilinearMap.zero(*v.f_signature(1), v.dims)
    for call in (explicit.mc_residual, explicit.twist):
        with pytest.raises(TypeError):
            call(zero)


def test_shifted_mc_right():
    rng = seeded_rng(70)
    q = build_standard("semidirect", rep=regular_representation(dual_numbers()))
    s = controlling_structure(q, "right")
    d = right_map(q, [[0, 0], [0, 1]])
    tw = s.twist(d)
    for _ in range(10):
        dp = rcochain(rng, q, 1)
        assert right_residual(q, d + dp) == tw.mc_residual(dp)


def test_shifted_mc_left():
    rng = seeded_rng(71)
    q = build_standard("reynolds", algebra=dual_numbers())
    s = controlling_structure(q, "left")
    b = left_map(q, [[-1, 0], [0, -1]])
    tw = s.twist(b)
    for _ in range(10):
        bp = lcochain(rng, q, 1)
        assert left_residual(q, b + bp) == tw.mc_residual(bp)


# -- jacobi ------------------------------------------------------------------------

@pytest.mark.parametrize("side,max_n", [("right", 3), ("left", 4)])
def test_jacobi_residuals_vanish(side, max_n):
    rng = seeded_rng(72)
    q = build_standard("reynolds", algebra=dual_numbers())
    s = controlling_structure(q, side)
    pools = {0: [()], 1: [(0,), (1,)], 2: [(0, 0), (1, 0), (1, 1)],
             3: [(0, 0, 0), (1, 0, 0), (1, 1, 0)],
             4: [(0, 0, 0, 0), (1, 1, 0, 0)]}
    v = s.vdata
    for n in range(max_n + 1):
        for degrees in pools[n]:
            args = [random_map(rng, v.f_signature(dd + 1)[0],
                               v.f_signature(dd + 1)[1], q.dims)
                    for dd in degrees]
            assert s.jacobi_residual(n, args).is_zero(), (side, n, degrees)


def test_jacobi_on_twisted_structure():
    # after twisting, the n=1 identity for degree-0 args is d o d = 0
    rng = seeded_rng(73)
    q = build_standard("semidirect", rep=regular_representation(dual_numbers()))
    s = controlling_structure(q, "right").twist(right_map(q, [[0, 0], [0, 1]]))
    f = rcochain(rng, q, 1)
    assert s.jacobi_residual(1, [f]).is_zero()
    g = rcochain(rng, q, 2)
    assert s.jacobi_residual(2, [f, g]).is_zero()


def _jacobi_structures(side):
    """A base structure, a twisted one and one whose delta is not square
    zero, on one side; the last has nonzero Jacobi sums."""
    rng = seeded_rng(74)
    if side == "right":
        q = build_standard("semidirect",
                           rep=regular_representation(dual_numbers()))
        m = right_map(q, [[0, 0], [0, 1]])
    else:
        q = build_standard("reynolds", algebra=dual_numbers())
        m = left_map(q, [[-1, 0], [0, -1]])
    s = controlling_structure(q, side)
    v = s.vdata
    broken = v.delta + random_map(rng, (TOTAL, TOTAL), TOTAL, q.dims, bound=1)
    return [s, s.twist(m), linfty.CurvedLInftyStructure(v, delta=broken)]


@pytest.mark.parametrize("side", ["right", "left"])
def test_jacobi_lifts_once_and_equals_the_per_bracket_sum(side, monkeypatch):
    # n arguments and one inner bracket per kept term (one per unshuffle
    # of an inner order i with l_i and l_(n-i+1) at most the side's top,
    # every i on the explicit element), each lifted once; the sum equals
    # the oracle that keeps every term and brackets each one in full
    rng = seeded_rng(75)
    lifted = []

    def counting(f):
        lifted.append(f)
        return lift(f)

    *valid, broken = _jacobi_structures(side)
    nonzero = 0
    for s in valid + [broken]:
        v = s.vdata
        for degrees in ((0, 0), (1, 0), (0, 0, 0), (1, 0, 0)):
            n = len(degrees)
            args = [random_map(rng, *v.f_signature(d + 1), v.dims)
                    for d in degrees]
            with monkeypatch.context() as patch:
                patch.setattr(linfty, "lift", counting)
                del lifted[:]
                got = s.jacobi_residual(n, args)
            top = n + 1 if s is broken else TOPS[side]
            kept = sum(comb(n, i) for i in range(n + 1)
                       if i <= top and n - i + 1 <= top)
            assert len(lifted) == n + kept, (side, degrees)
            assert all(x is y for x, y in zip(lifted, args))
            want = oracles.jacobi_residual(s, n, args)
            assert got == want, (side, degrees)
            if s is broken:
                nonzero += not got.is_zero()
            else:
                assert got.is_zero(), (side, degrees)
    assert nonzero == 4


# -- suspended bracket --------------------------------------------------------------

def test_suspended_bracket_crossed_hom_pattern():
    # on the associative-representation semidirect structure the suspended
    # bracket is (-1)^(mn+1) f .' g + g .' f, and it is (-1)^(m-1) times
    # the general closed l_2
    rng = seeded_rng(74)
    q = builder_instances(dual_numbers())["semidirect_assoc"]
    s = controlling_structure(q, "right")
    for m, n in [(1, 1), (1, 2), (2, 2)]:
        f = rcochain(rng, q, m)
        g = rcochain(rng, q, n)
        out = oracles.suspended_bracket(s, f, g)
        fg = insert(insert(q.beta, f, 0), g, m)
        gf = insert(insert(q.beta, g, 0), f, n)
        assert out == fg.scale((-1) ** (m * n + 1)) + gf
        assert out == explicit_formula(q, "right", 2, [f, g]).scale(
            (-1) ** (m - 1))


def test_suspended_bracket_homomorphism_mc_pattern():
    # degree-0 D on the direct product: [[D,D]](x,y) = 2 D(x).'D(y), so the
    # homomorphism equation is the suspended MC equation d D + [[D,D]]/2 = 0
    rng = seeded_rng(75)
    q = builder_instances(dual_numbers())["direct_product"]
    s = controlling_structure(q, "right")
    d = rcochain(rng, q, 1)
    out = oracles.suspended_bracket(s, d, d)
    dd = insert(insert(q.beta, d, 0), d, 1)
    assert out == dd.scale(2)
    mc = s.mc_residual(d)
    assert mc == s.bracket(1, [d]) + dd


def test_suspended_bracket_antisymmetry_in_suspended_degrees():
    # [[f,g]] = -(-1)^(mn) [[g,f]] with the suspended degree of an arity-m
    # cochain equal to m; so self-brackets vanish exactly in even arity
    # (odd-arity, i.e. odd suspended degree, self-brackets may survive)
    rng = seeded_rng(76)
    q = builder_instances(dual_numbers())["semidirect_assoc"]
    s = controlling_structure(q, "right")

    def bracket(f, g):
        return oracles.suspended_bracket(s, f, g)

    for m, n in [(2, 2), (1, 2), (2, 3)]:
        f = rcochain(rng, q, m)
        g = rcochain(rng, q, n)
        sign = -1 if (m * n) % 2 == 0 else 1
        assert bracket(f, g) == bracket(g, f).scale(sign)
    f2 = rcochain(rng, q, 2)
    assert bracket(f2, f2).is_zero()
    d = rcochain(rng, q, 1)
    assert not bracket(d, d).is_zero()


def test_mc_matches_residual_on_all_builders():
    # random degree-0 candidates: the MC residual restates the matching
    # deformation residual on every builder kind
    from qta import left_residual as lres, right_residual as rres
    rng = seeded_rng(90)
    for q in builder_instances(dual_numbers()).values():
        sR = controlling_structure(q, "right")
        sL = controlling_structure(q, "left")
        for _ in range(3):
            d = random_map(rng, (A,), APRIME, q.dims)
            assert sR.mc_residual(d) == rres(q, d)
            b = random_map(rng, (APRIME,), A, q.dims)
            assert sL.mc_residual(b) == lres(q, b)


def test_right_l2_graded_symmetry():
    rng = seeded_rng(91)
    q = build_standard("reynolds", algebra=dual_numbers())
    s = controlling_structure(q, "right")
    for m, n in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        f = rcochain(rng, q, m)
        g = rcochain(rng, q, n)
        sign = -1 if ((m - 1) * (n - 1)) % 2 else 1
        assert s.bracket(2, [g, f]) == s.bracket(2, [f, g]).scale(sign)


def test_zero_dimensional_prime_block():
    # a structure with an empty A' side is just an associative algebra;
    # everything degenerates gracefully
    from qta import QuasiTwilledAlgebra, structure_residuals, validate
    pi = dual_numbers().product  # dims (2, 0)
    q = QuasiTwilledAlgebra.from_components((2, 0), pi=pi)
    assert validate(q).is_zero()
    assert all(r.residual.is_zero() for r in structure_residuals(q))
