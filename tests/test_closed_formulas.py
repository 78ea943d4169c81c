import pytest

from qta import (
    A, APRIME, DegreeError, UnknownKind, build_standard, controlling_structure,
    explicit_formula, explicit_formula_check, random_map, seeded_rng,
)
from qta.closed_formulas import modified_l0

from conftest import builder_instances, dual_numbers, one_dim_algebra

RIGHT_KINDS = ("modified_direct_sum", "semidirect", "semidirect_assoc",
               "direct_product")
LEFT_KINDS = ("semidirect", "abelian_extension", "reynolds", "matched_pair")


def _args(rng, q, side, k):
    dom = A if side == "right" else APRIME
    cod = APRIME if side == "right" else A
    arities = [rng.choice([1, 2, 3]) for _ in range(k)]
    while sum(arities) > 5:
        arities = [rng.choice([1, 2]) for _ in range(k)]
    return [random_map(rng, (dom,) * a, cod, q.dims) for a in arities]


@pytest.mark.parametrize("algname", ["one", "dual"])
@pytest.mark.parametrize("kind", RIGHT_KINDS)
def test_right_formulas(algname, kind):
    alg = one_dim_algebra() if algname == "one" else dual_numbers()
    q = builder_instances(alg)[kind]
    rng = seeded_rng(hash((algname, kind)) % (2 ** 31))
    for k in (0, 1, 2):
        for _ in range(4):
            args = _args(rng, q, "right", k)
            assert explicit_formula_check(q, "right", k, args), (kind, k)


@pytest.mark.parametrize("algname", ["one", "dual"])
@pytest.mark.parametrize("kind", LEFT_KINDS)
def test_left_formulas(algname, kind):
    alg = one_dim_algebra() if algname == "one" else dual_numbers()
    q = builder_instances(alg)[kind]
    rng = seeded_rng(hash(("L", algname, kind)) % (2 ** 31))
    for k in (1, 2, 3):
        for _ in range(4):
            args = _args(rng, q, "left", k)
            assert explicit_formula_check(q, "left", k, args), (kind, k)


def test_modified_curvature_value():
    q = build_standard("modified_direct_sum", algebra=dual_numbers(), weight=4)
    l0 = modified_l0(q)
    assert l0 == q.theta  # theta of the builder is weight * product
    assert explicit_formula_check(q, "right", 0, [])
    # l1 = 0 for the modified structure
    rng = seeded_rng(5)
    f = random_map(rng, (A, A), APRIME, q.dims)
    s = controlling_structure(q, "right")
    assert s.bracket(1, [f]).is_zero()


def test_formula_unknown_kind():
    q = build_standard("reynolds", algebra=one_dim_algebra())
    with pytest.raises(UnknownKind):
        explicit_formula(q, "right", 2, _args(seeded_rng(1), q, "right", 2))
    from qta import QuasiTwilledAlgebra
    bare = QuasiTwilledAlgebra(q.pi, q.xi, q.eta, q.beta, q.rho, q.mu, q.theta)
    with pytest.raises(UnknownKind):
        explicit_formula(bare, "left", 2, _args(seeded_rng(2), q, "left", 2))


@pytest.mark.parametrize("kind, side, k", [
    ("semidirect", "right", 2),        # a zero bracket
    ("semidirect", "right", 1),        # a formula
    ("reynolds", "left", 3),
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
