import pytest

from qta import (
    A, APRIME, BUILDER_KINDS, DegreeError, QuasiTwilledAlgebra, build_standard,
    controlling_structure, explicit_formula, explicit_formula_check,
    random_map, seeded_rng,
)
from qta.io import build_quasi_twilled, document_from_components

import oracles
from conftest import (
    builder_instances, change_of_basis, conjugated_structure, dual_numbers,
    one_dim_algebra, twisted_structure,
)

# every bracket order: right l_3 and left l_0, l_4 are the zero rule
RIGHT_KS = (0, 1, 2, 3)
LEFT_KS = (0, 1, 2, 3, 4)
STRUCTURES = BUILDER_KINDS + ("twisted",)
# invertible frames g_A, g_A' per dim, for the change of basis
FRAMES = {1: ([[2]], [[-3]]),
          2: ([[1, 2], [0, -1]], [[2, 0], [1, 1]])}


def _args(rng, q, side, k):
    dom = A if side == "right" else APRIME
    cod = APRIME if side == "right" else A
    arities = [rng.choice([1, 2, 3]) for _ in range(k)]
    while sum(arities) > 5:
        arities = [rng.choice([1, 2]) for _ in range(k)]
    return [random_map(rng, (dom,) * a, cod, q.dims) for a in arities]


def _structures(name, algname):
    """The named structure (a builder kind, or the all-seven-blocks
    twisted one) and its image under a change of basis.  The image keeps
    the kind and the natural-basis ingredients, which the formulas must
    not read."""
    alg = one_dim_algebra() if algname == "one" else dual_numbers()
    if name == "twisted":
        q = twisted_structure(alg)
    else:
        q = builder_instances(alg)[name]
    push = change_of_basis(q.dims, *FRAMES[alg.dim])
    return q, conjugated_structure(q, push)


def _check_side(rng, qs, side, ks, samples=4):
    # l_1 of the formula and of the structure are the one coboundary
    # evaluator, so each formula is also checked against the full bracket
    for q in qs:
        v = controlling_structure(q, side).vdata
        for k in ks:
            for _ in range(samples):
                args = _args(rng, q, side, k)
                assert explicit_formula_check(q, side, k, args), (side, k)
                assert explicit_formula(q, side, k, args) == \
                    oracles.derived_bracket(v, args), (side, k)


@pytest.mark.parametrize("algname", ["one", "dual"])
@pytest.mark.parametrize("kind", STRUCTURES)
def test_right_formulas(algname, kind):
    rng = seeded_rng(f"right {algname} {kind}")
    _check_side(rng, _structures(kind, algname), "right", RIGHT_KS)


@pytest.mark.parametrize("algname", ["one", "dual"])
@pytest.mark.parametrize("kind", STRUCTURES)
def test_left_formulas(algname, kind):
    rng = seeded_rng(f"left {algname} {kind}")
    _check_side(rng, _structures(kind, algname), "left", LEFT_KS)


def test_twisted_structure_has_seven_blocks():
    q = twisted_structure(dual_numbers())
    assert q.kind is None
    assert not any(m.is_zero() for m in q.components().values())


def test_modified_curvature_value():
    q = build_standard("modified_direct_sum", algebra=dual_numbers(), weight=4)
    l0 = explicit_formula(q, "right", 0, [])
    assert l0 == q.theta
    # theta of the builder is weight * product
    product = q.ingredients["algebra"].product.with_dims(q.dims)
    assert l0 == product.relabel((A, A), APRIME).scale(4)
    assert explicit_formula_check(q, "right", 0, [])
    # l1 = 0 for the modified structure
    rng = seeded_rng(5)
    f = random_map(rng, (A, A), APRIME, q.dims)
    s = controlling_structure(q, "right")
    assert s.bracket(1, [f]).is_zero()
    assert explicit_formula(q, "right", 1, [f]).is_zero()


def test_formula_without_provenance():
    """No builder kind, the same formulas: a structure assembled by hand
    from the components, and one read back from a components-form
    document."""
    q = build_standard("reynolds", algebra=dual_numbers())
    bare = QuasiTwilledAlgebra(q.pi, q.xi, q.eta, q.beta, q.rho, q.mu, q.theta)
    read = build_quasi_twilled(document_from_components(q))
    assert bare.kind is None and read.kind is None
    assert read.components() == q.components()
    rng = seeded_rng(1)
    _check_side(rng, (bare, read), "right", RIGHT_KS, samples=2)
    _check_side(rng, (bare, read), "left", LEFT_KS, samples=2)


@pytest.mark.parametrize("kind, side, k", [
    ("semidirect", "right", 2),        # the six-sum
    ("semidirect", "right", 1),        # the coboundary
    ("reynolds", "left", 3),           # the theta term
    ("semidirect", "left", 4),         # the zero rule
])
def test_formula_argument_count(kind, side, k):
    """explicit_formula, like the derived bracket, needs exactly k
    arguments; a zero bracket would otherwise take its arity from the
    arguments it was given."""
    q = builder_instances(one_dim_algebra())[kind]
    rng = seeded_rng(3)
    for count in (k - 1, k + 1):
        args = _args(rng, q, side, count)
        with pytest.raises(DegreeError):
            explicit_formula(q, side, k, args)
        with pytest.raises(DegreeError):
            controlling_structure(q, side).bracket(k, args)
