from collections import OrderedDict
from fractions import Fraction
from itertools import product as iterproduct

import pytest

from qta import linfty
from qta import (
    A, APRIME, BlockError, DegreeError, InvalidQTA, MultilinearMap,
    NotMaurerCartan, QuasiTwilledAlgebra, VData, build_standard,
    catalog_names, conjugation_twist, controlling_structure, derived_bracket,
    emit_example, explicit_formula, gerstenhaber, insert, left_residual,
    lift, random_map, regular_representation, right_residual, seeded_rng,
    validate,
)
from qta.deformation import side_spec
from qta.io import build_quasi_twilled, parse
from qta.multilinear import _label_size

from conftest import (
    builder_instances, deformation_map_cases, dual_numbers, left_map,
    one_dim_algebra, right_map, trunc3,
)


MAP_CASES = [pytest.param(*case, id=f"{case[0]} {case[3]}")
             for case in deformation_map_cases()]


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

    monkeypatch.setattr(linfty, "validate", counting)
    return calls


def test_equal_structure_is_verified_once(monkeypatch):
    q = build_standard("reynolds", algebra=dual_numbers())
    controlling_structure(q, "left")
    calls = _count_validate(monkeypatch)
    again = build_standard("reynolds", algebra=dual_numbers())
    assert again is not q
    s = controlling_structure(again, "left")
    assert calls == []
    assert s.vdata.q is again


def test_bumped_structure_is_verified_again(monkeypatch):
    q = build_standard("reynolds", algebra=dual_numbers())
    controlling_structure(q, "right")
    coeffs = list(q.pi.coeffs)
    coeffs[1] += 1
    q.pi = MultilinearMap(q.pi.domain, q.pi.codomain, q.pi.dims, coeffs)
    calls = _count_validate(monkeypatch)
    for _ in range(2):  # a failing verdict is never remembered
        with pytest.raises(InvalidQTA):
            controlling_structure(q, "right")
    assert len(calls) == 2


def test_verdict_is_shared_by_both_sides(monkeypatch):
    monkeypatch.setattr(linfty, "_VERIFIED", OrderedDict())
    q = build_standard("semidirect", rep=regular_representation(trunc3()))
    controlling_structure(q, "right")
    calls = _count_validate(monkeypatch)
    controlling_structure(q, "left")
    assert calls == []


@pytest.mark.parametrize("side", ["right", "left"])
def test_prime_block_must_be_a_subalgebra(side):
    # validate is zero, yet Delta has an A'A' -> A block: P(Delta) is not
    # zero on the left, and A' is not a subalgebra on either side
    q = QuasiTwilledAlgebra.from_components((2, 2))
    q.eta = MultilinearMap.unit((APRIME, APRIME), A, q.dims, 0)
    assert validate(q).is_zero()
    with pytest.raises(InvalidQTA, match="A' is not a subalgebra"):
        VData(q, side)


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
                cochains += [v.basis_cochain(arity, r, k)
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
    q = build_standard("reynolds", algebra=dual_numbers())
    v = VData(q, "right")
    wrong = MultilinearMap.zero((APRIME,), A, q.dims)
    with pytest.raises(BlockError):
        derived_bracket(v, [wrong])


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


def test_brackets_vanish_beyond_range():
    rng = seeded_rng(64)
    q = build_standard("reynolds", algebra=dual_numbers())
    semi = build_standard("semidirect",
                          rep=regular_representation(dual_numbers()))
    euler = right_map(semi, [[0, 0], [0, 1]])
    # base structures, then structures twisted by a deformation map
    for sR in (controlling_structure(q, "right"),
               controlling_structure(semi, "right").twist(euler)):
        args = [rcochain(rng, q, a) for a in (1, 2, 1)]
        assert sR.bracket(3, args).is_zero(), sR
    sL = controlling_structure(q, "left")
    for s in (sL, sL.twist(left_map(q, [[-1, 0], [0, -1]]))):
        argsL = [lcochain(rng, q, a) for a in (1, 1, 2, 1)]
        assert s.bracket(4, argsL).is_zero(), s


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
    # e^(ad m) Delta, the conjugation twist and the closed formulas agree
    tw = controlling_structure(q, side).twist(m)
    conj = conjugation_twist(q, m, side)
    assert tw.delta == conj
    assert side_spec(side).twist(q, m).reassemble() == conj


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
    twice = s.twist(m1).twist(m2)
    once = s.twist(m1 + m2)
    assert twice.delta == once.delta
    v = s.vdata
    for k in range(4):
        args = [random_map(rng, *v.f_signature(rng.choice((1, 2))), q.dims)
                for _ in range(k)]
        assert twice.bracket(k, args) == once.bracket(k, args), k


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
    # ad_m^n Delta = 0 for n > 3, and the right side stops one term
    # earlier; a twisted l_1 is one bracket with the twisted element
    rng = seeded_rng(78)
    s = controlling_structure(q, side)
    tw = s.twist(m)
    v = s.vdata
    x = random_map(rng, *v.f_signature(1), q.dims)
    f = random_map(rng, *v.f_signature(2), q.dims)
    bound = {"right": 3, "left": 4}[side]
    calls = _count_brackets(monkeypatch)
    s.mc_residual(x)
    assert len(calls) <= bound
    tw.mc_residual(x)
    assert len(calls) <= 2 * bound
    for arg in (x, f):
        del calls[:]
        tw.bracket(1, [arg])
        assert len(calls) == 1


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
        out = s.suspended_bracket(f, g)
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
    out = s.suspended_bracket(d, d)
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
    for m, n in [(2, 2), (1, 2), (2, 3)]:
        f = rcochain(rng, q, m)
        g = rcochain(rng, q, n)
        sign = -1 if (m * n) % 2 == 0 else 1
        assert s.suspended_bracket(f, g) == s.suspended_bracket(g, f).scale(
            sign)
    f2 = rcochain(rng, q, 2)
    assert s.suspended_bracket(f2, f2).is_zero()
    d = rcochain(rng, q, 1)
    assert not s.suspended_bracket(d, d).is_zero()


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
