from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qta import (
    A, APRIME, AssociativeAlgebra, DimensionError, NotDeformationMap,
    RepresentationPair, SingularMap, UnknownKind, build_standard, catalog_names,
    check_associative, coboundary_apply, coboundary_matrix, cohomology_dims,
    conjugation_twist, controlling_structure, emit_example,
    explicit_formula, get_entry, left_residual, mc_residual, operator_name,
    random_map, regular_representation, right_residual, seeded_rng,
    twist_left, twist_right, validate,
)
from qta.deformation import side_spec
from qta.io import build_quasi_twilled, parse, side_map

from conftest import (
    builder_instances, change_of_basis, conjugated_structure,
    deformation_map_cases, dual_numbers, left_map, one_dim_algebra,
    opposite_structure, right_map, t2_deformation_map_cases,
)
from oracles import (
    check_representation, classify_operator, duality_check, graph_residual,
)


# -- residual grids (scalar substitutions, frozen) ---------------------------

def test_right_residual_modified_grid():
    q = build_standard("modified_direct_sum", algebra=one_dim_algebra(),
                       weight=4)
    for d in range(-3, 4):
        res = right_residual(q, right_map(q, [[d]]))
        # residual(e,e) = (weight - d^2) e'
        assert res.value((0, 0)) == (4 - d * d,)
        assert res.is_zero() == (d in (2, -2))


def test_right_residual_zero_map_semidirect():
    q = build_standard("semidirect", rep=regular_representation(dual_numbers()))
    assert right_residual(q, right_map(q, [[0, 0], [0, 0]])).is_zero()


def test_left_residual_semidirect_grid():
    q = build_standard("semidirect", rep=regular_representation(one_dim_algebra()))
    for b in range(-3, 4):
        res = left_residual(q, left_map(q, [[b]]))
        assert res.value((0, 0)) == (-b * b,)


def test_left_residual_reynolds_grid():
    q = build_standard("reynolds", algebra=one_dim_algebra())
    for b in range(-3, 4):
        res = left_residual(q, left_map(q, [[b]]))
        assert res.value((0, 0)) == (-b * b - b ** 3,)
        assert res.is_zero() == (b in (0, -1))


def test_left_residual_zero_map_any_theta():
    q = build_standard("reynolds", algebra=dual_numbers())
    assert left_residual(q, left_map(q, [[0, 0], [0, 0]])).is_zero()


def test_dimension_errors():
    q = build_standard("semidirect", rep=regular_representation(dual_numbers()))
    with pytest.raises(DimensionError):
        right_residual(q, left_map(q, [[0, 0], [0, 0]]))


# -- graph characterization ----------------------------------------------------

def test_graph_residual_matches_right_residual():
    rng = seeded_rng(31)
    q = build_standard("reynolds", algebra=dual_numbers())
    for _ in range(5):
        d = random_map(rng, (A,), APRIME, q.dims)
        assert graph_residual(q, d) == right_residual(q, d)


def test_graph_residual_zero_map_reynolds():
    # D = 0 on a structure with nonzero theta: the graph is not closed
    q = build_standard("reynolds", algebra=one_dim_algebra())
    res = graph_residual(q, right_map(q, [[0]]))
    assert res == q.theta
    assert not res.is_zero()


# -- twisting -------------------------------------------------------------------

def test_twist_right_components_modified():
    # pi^D(x,y) = D(x).y + x.D(y) on the modified structure
    alg = dual_numbers()
    q = build_standard("modified_direct_sum", algebra=alg, weight=4)
    rng = seeded_rng(17)
    d = random_map(rng, (A,), APRIME, q.dims)
    tw = twist_right(q, d)
    prod = alg.product.with_dims(q.dims)
    from qta import insert
    dd = d.relabel((A,), A)  # A' is the copy of A here
    expect = insert(prod, dd, 0) + insert(prod, dd, 1)
    assert tw.pi == q.pi + expect
    # xi, eta, beta unchanged
    assert tw.xi == q.xi and tw.eta == q.eta and tw.beta == q.beta
    assert tw.theta == right_residual(q, d)
    # rho^D(x)(y) = D(x).y - D(x.y) and mu^D(x)(y) = y.D(x) - D(y.x)
    dxy = insert(q.beta, d, 0)                 # D(x).u with u in the copy
    dxdoty = insert(d, q.xi, 0)                # D(x.u)
    assert tw.rho == q.rho + dxy - dxdoty
    assert tw.mu == q.mu + insert(q.beta, d, 1) - insert(d, q.eta, 0)


def test_twist_right_zero_map_is_identity():
    q = build_standard("reynolds", algebra=dual_numbers())
    z = right_map(q, [[0, 0], [0, 0]])
    tw = twist_right(q, z)
    assert tw.components() == q.components()
    assert tw.gamma.is_zero()


def test_twist_left_zero_map_is_identity():
    q = build_standard("reynolds", algebra=dual_numbers())
    z = left_map(q, [[0, 0], [0, 0]])
    tw = twist_left(q, z)
    assert tw.components() == q.components()
    assert tw.gamma.is_zero()


def test_twist_left_reynolds_minus_identity():
    # at B = -id on the 1-dim algebra: gamma^B = 0 and
    # beta^B(u,v) = 0 + rho(Bu,v) + mu(u,Bv) + theta(Bu,Bv) = -uv
    q = build_standard("reynolds", algebra=one_dim_algebra())
    b = left_map(q, [[-1]])
    tw = twist_left(q, b)
    assert tw.gamma.is_zero()
    assert tw.beta.value((0, 0)) == (-1,)
    assert tw.theta == q.theta
    assert validate(tw.to_quasi_twilled()).is_zero()


@pytest.mark.parametrize("side", ["right", "left"])
def test_twist_equals_conjugation_random(side):
    rng = seeded_rng(41)
    for kind in ("reynolds", "matched_pair", "modified_direct_sum"):
        q = builder_instances(dual_numbers())[kind]
        for _ in range(5):
            if side == "right":
                f = random_map(rng, (A,), APRIME, q.dims)
                tw = twist_right(q, f)
            else:
                f = random_map(rng, (APRIME,), A, q.dims)
                tw = twist_left(q, f)
            assert tw.reassemble() == conjugation_twist(q, f, side)


def test_conjugation_preserves_associativity():
    rng = seeded_rng(43)
    q = build_standard("reynolds", algebra=dual_numbers())
    for side, dom, cod in (("right", (A,), APRIME), ("left", (APRIME,), A)):
        f = random_map(rng, dom, cod, q.dims)
        omega_f = conjugation_twist(q, f, side)
        from qta import circle
        assert circle(omega_f, omega_f).is_zero()


def test_double_twist_is_additive():
    # twisting by D then D' equals twisting by D + D'
    rng = seeded_rng(47)
    q = build_standard("reynolds", algebra=dual_numbers())
    d1 = random_map(rng, (A,), APRIME, q.dims)
    d2 = random_map(rng, (A,), APRIME, q.dims)
    once = twist_right(q, d1).to_quasi_twilled()
    twice = twist_right(once, d2)
    direct = twist_right(q, d1 + d2)
    assert twice.reassemble() == direct.reassemble()


def test_right_twist_of_deformation_map_is_matched_pair_shape():
    # theta^D = 0, (A, pi^D) and (A', beta) associative, total associative
    q = build_standard("semidirect", rep=regular_representation(dual_numbers()))
    d = right_map(q, [[0, 0], [0, 1]])  # Euler derivation
    tw = twist_right(q, d)
    assert tw.theta.is_zero()
    assert check_associative(AssociativeAlgebra(tw.pi)).is_zero()
    assert check_associative(
        AssociativeAlgebra(tw.beta)).is_zero()
    new_q = tw.to_quasi_twilled()
    assert validate(new_q).is_zero()


# -- duality ---------------------------------------------------------------------

def test_duality_modified_scaled_identity():
    q = build_standard("modified_direct_sum", algebra=one_dim_algebra(),
                       weight=4)
    assert duality_check(q, right_map(q, [[2]]))
    assert duality_check(q, right_map(q, [[1]]))
    assert duality_check(q, right_map(q, [[Fraction(1, 3)]]))


def test_duality_direct_product_identity():
    q = build_standard("direct_product", algebra=one_dim_algebra(),
                       algebra_prime=one_dim_algebra())
    assert duality_check(q, right_map(q, [[1]]))
    assert right_residual(q, right_map(q, [[1]])).is_zero()


def test_duality_random_invertible():
    rng = seeded_rng(53)
    q = build_standard("reynolds", algebra=dual_numbers())
    found = 0
    while found < 5:
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(2)]
                for _ in range(2)]
        if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] == 0:
            continue
        found += 1
        assert duality_check(q, right_map(q, rows))


def test_duality_singular_rejected():
    q = build_standard("reynolds", algebra=dual_numbers())
    with pytest.raises(SingularMap):
        duality_check(q, right_map(q, [[1, 0], [0, 0]]))


# -- induced structures ------------------------------------------------------------
#
# A deformation map's induced algebra and representation are its checked
# twisted triple (product, left action, right action); the oracles that
# take objects get it wrapped in the test.

def test_induced_right_modified():
    # weight 4, D = 2 id on the 1-dim algebra: pi^D(e,e) = 4e, rho^D = 0
    q = build_standard("modified_direct_sum", algebra=one_dim_algebra(),
                       weight=4)
    d = right_map(q, [[2]])
    prod, rho, mu = side_spec("right").checked_triple(q, d)
    assert prod.value((0, 0)) == (4,)
    assert rho.is_zero() and mu.is_zero()
    alg = AssociativeAlgebra(prod)
    assert check_associative(alg).is_zero()
    assert check_representation(RepresentationPair(alg, rho, mu)).is_zero


def test_induced_right_derivation_keeps_structure():
    q = build_standard("semidirect", rep=regular_representation(dual_numbers()))
    d = right_map(q, [[0, 0], [0, 1]])
    prod, rho, mu = side_spec("right").checked_triple(q, d)
    assert prod == q.pi
    assert rho == q.rho and mu == q.mu


def test_induced_right_requires_deformation_map():
    q = build_standard("modified_direct_sum", algebra=one_dim_algebra(),
                       weight=4)
    with pytest.raises(NotDeformationMap):
        side_spec("right").checked_triple(q, right_map(q, [[1]]))


def test_induced_left_relative_rota_baxter():
    # beta^B(u,v) = rho(Bu)v + mu(Bv)u for the semidirect structure
    q = build_standard("semidirect", rep=regular_representation(dual_numbers()))
    b = left_map(q, [[0, 0], [0, 0]])
    prod, eta, xi = side_spec("left").checked_triple(q, b)
    assert prod.is_zero()
    alg = AssociativeAlgebra(prod)
    assert check_representation(RepresentationPair(alg, eta, xi)).is_zero


def test_induced_left_reynolds_minus_identity():
    # eta^B(x)(y) = -xy and beta^B(u,v) = -uv at B = -id on the 1-dim
    # Reynolds structure
    q = build_standard("reynolds", algebra=one_dim_algebra())
    b = left_map(q, [[-1]])
    prod, eta, xi = side_spec("left").checked_triple(q, b)
    assert prod.value((0, 0)) == (-1,)
    alg = AssociativeAlgebra(prod)
    assert check_associative(alg).is_zero()
    assert eta.value((0, 0)) == (-1,)  # eta^B(e')(e) = -e
    assert xi.value((0, 0)) == (-1,)
    assert check_representation(RepresentationPair(alg, eta, xi)).is_zero


# -- classification ------------------------------------------------------------------

def test_classify_table():
    alg1 = one_dim_algebra()
    dual = dual_numbers()
    qs = builder_instances(alg1)
    cases = [
        (build_standard("modified_direct_sum", algebra=alg1, weight=4),
         "right", [[2]], "modified Rota-Baxter operator of weight 4"),
        (qs["semidirect"], "right", [[0]], "derivation"),
        (qs["semidirect_assoc"], "right", [[-1]], "crossed homomorphism"),
        (qs["direct_product"], "right", [[1]],
         "associative algebra homomorphism"),
        (qs["semidirect"], "left", [[0]],
         "relative Rota-Baxter operator of weight 0"),
        (qs["abelian_extension"], "left", [[-1]], "twisted Rota-Baxter operator"),
        (qs["reynolds"], "left", [[-1]], "Reynolds operator"),
        (qs["matched_pair"], "left", [[-1]], "deformation map of a matched pair"),
    ]
    for q, side, rows, want in cases:
        m = right_map(q, rows) if side == "right" else left_map(q, rows)
        assert classify_operator(q, m, side) == want
    # Euler derivation on the dual numbers
    q = build_standard("semidirect", rep=regular_representation(dual))
    assert classify_operator(q, right_map(q, [[0, 0], [0, 1]]),
                             "right") == "derivation"


def test_classify_failures_and_unknowns():
    q = build_standard("modified_direct_sum", algebra=one_dim_algebra(),
                       weight=4)
    assert classify_operator(q, right_map(q, [[1]]),
                             "right") == "not a deformation map"
    # an unnamed but valid combination reports the generic side name
    assert classify_operator(q, left_map(q, [[Fraction(1, 2)]]),
                             "left") == "left deformation map"
    # hand-built structures have no provenance
    from qta import QuasiTwilledAlgebra
    bare = QuasiTwilledAlgebra(q.pi, q.xi, q.eta, q.beta, q.rho, q.mu, q.theta)
    with pytest.raises(UnknownKind):
        classify_operator(bare, right_map(q, [[2]]), "right")


def test_operator_name_is_classify_given_the_residual():
    for name in catalog_names():
        doc = parse(emit_example(name))
        q = build_quasi_twilled(doc)
        for map_name in doc.maps:
            for side, residual in (("right", right_residual),
                                   ("left", left_residual)):
                m = side_map(doc, q, map_name, side)
                assert operator_name(q, side, residual(q, m)) == \
                    classify_operator(q, m, side), (name, map_name, side)
    # provenance is checked before the residual: a hand-built structure
    # with a map of the wrong side raises UnknownKind, not DimensionError
    from qta import QuasiTwilledAlgebra
    q = build_standard("reynolds", algebra=one_dim_algebra())
    bare = QuasiTwilledAlgebra(q.pi, q.xi, q.eta, q.beta, q.rho, q.mu, q.theta)
    with pytest.raises(UnknownKind):
        classify_operator(bare, left_map(q, [[2]]), "right")
    with pytest.raises(UnknownKind):
        operator_name(bare, "left", left_residual(q, left_map(q, [[-1]])))


# -- unknown sides ---------------------------------------------------------

_SIDEWAYS_CALLS = {
    "cohomology_dims": lambda q, doc, b: cohomology_dims(q, b, "sideways", 2),
    "coboundary_matrix":
        lambda q, doc, b: coboundary_matrix(q, b, "sideways", 1),
    "coboundary_apply":
        lambda q, doc, b: coboundary_apply(q, b, "sideways", b),
    "conjugation_twist":
        lambda q, doc, b: conjugation_twist(q, b, "sideways"),
    "explicit_formula":
        lambda q, doc, b: explicit_formula(q, "sideways", 1, [b]),
    "controlling_structure":
        lambda q, doc, b: controlling_structure(q, "sideways"),
    "mc_residual": lambda q, doc, b: mc_residual(q, "sideways", b),
    "side_map": lambda q, doc, b: side_map(doc, q, "B", "sideways"),
}


@pytest.mark.parametrize("name", sorted(_SIDEWAYS_CALLS))
def test_unknown_side_raises_valueerror(name):
    doc = parse(emit_example("reynolds-dim1"))
    q = build_quasi_twilled(doc)
    b = side_map(doc, q, "B", "left")
    with pytest.raises(ValueError, match="side must be 'right' or 'left'"):
        _SIDEWAYS_CALLS[name](q, doc, b)


# -- naturality under a change of basis ---------------------------------------

def _unimodular(data, n):
    """Rows of S L U for a diagonal of signs S and unitriangular integer L
    (lower) and U (upper), so the inverse is integral too."""
    def unitriangular(below):
        return [[1 if i == j else
                 data.draw(st.integers(-2, 2)) if (i > j) == below else 0
                 for j in range(n)] for i in range(n)]
    lower, upper = unitriangular(True), unitriangular(False)
    signs = [data.draw(st.sampled_from((1, -1))) for _ in range(n)]
    return [[signs[i] * sum(lower[i][k] * upper[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


def _verdicts(q, m, side):
    return (validate(q).is_zero(), mc_residual(q, side, m).is_zero(),
            operator_name(q, side, side_spec(side).residual(q, m)),
            cohomology_dims(q, m, side, max_n=3))


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_verdicts_survive_a_change_of_basis(data):
    for name in catalog_names():
        doc = parse(emit_example(name))
        q = build_quasi_twilled(doc)
        push = change_of_basis(q.dims, _unimodular(data, q.dims[0]),
                               _unimodular(data, q.dims[1]))
        qc = conjugated_structure(q, push)
        qop = opposite_structure(qc)
        for map_name, side in get_entry(name).deformation_maps:
            m = side_map(doc, q, map_name, side)
            want = _verdicts(q, m, side)
            assert want[0]
            assert _verdicts(qc, push(m), side) == want, (
                name, map_name, side)
            # the opposite structure sees argument order, which a change
            # of basis cannot
            assert _verdicts(qop, push(m), side) == want, (
                name, map_name, side, "op")


@pytest.mark.parametrize("label,q,m,side", [
    pytest.param(*case, id=f"{case[0]} {case[3]}")
    for case in deformation_map_cases() + t2_deformation_map_cases()])
def test_verdicts_survive_the_opposite_structure(label, q, m, side):
    # q^op is quasi-twilled, the map keeps its residual verdict, operator
    # name and cohomology table; twice is q again
    qop = opposite_structure(q)
    assert _verdicts(qop, m, side) == _verdicts(q, m, side)
    assert opposite_structure(qop).components() == q.components()
