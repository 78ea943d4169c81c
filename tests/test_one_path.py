"""The one production path of each object against the closed formulas it
replaced (`tests/oracles.py`): the blockwise twist and its residual blocks
against the four component formulas, and the sixteen equation rows read
off the half-bracket against their literal evaluation.  Every comparison
is `==` on maps, on valid structures and deformation maps as on invalid
ones."""

import pytest

from qta import (
    A, APRIME, MultilinearMap, QuasiTwilledAlgebra, catalog_names,
    emit_example, get_entry, left_residual, random_map, right_residual,
    seeded_rng, structure_residuals, twist_left, twist_right, validate,
)
from qta.deformation import side_spec
from qta.io import build_quasi_twilled, parse, side_map
from qta.quasitwilled import COMPONENT_SIGNATURES

import oracles
from conftest import (
    builder_instances, conjugated_structure, deformation_map_cases,
    dense_frame, dual_numbers, one_dim_algebra, trunc3, twisted_structure,
)

SIDES = {
    "right": (A, APRIME, twist_right, right_residual,
              oracles.twist_right, oracles.right_residual),
    "left": (APRIME, A, twist_left, left_residual,
             oracles.twist_left, oracles.left_residual),
}

BLOCK_NAMES = ("pi", "xi", "eta", "beta", "rho", "mu", "theta", "gamma")


def assert_twists_agree(q, m, side):
    """Twist and residual of m, production against the oracle, and the
    checked triple wherever the hypotheses hold."""
    _, _, twist, residual, oracle_twist, oracle_residual = SIDES[side]
    got, want = twist(q, m), oracle_twist(q, m)
    assert got.side == want.side == side
    for name in BLOCK_NAMES:
        assert getattr(got, name) == getattr(want, name), (side, name)
    res = residual(q, m)
    assert res == oracle_residual(q, m)
    spec = side_spec(side)
    assert spec.residual(q, m) == res == getattr(got, spec.residual_part)
    if validate(q).is_zero() and res.is_zero():
        assert spec.checked_triple(q, m) == spec.induced(want)


def assert_rows_agree(q):
    got, want = structure_residuals(q), oracles.structure_residuals(q)
    assert [(r.name, r.block) for r in got] == \
        [(r.name, r.block) for r in want]
    for g, w in zip(got, want):
        assert g.residual == w.residual, g.name


def random_structure(rng, dims):
    """Random components on dims, each zero with probability 1/3: almost
    never quasi-twilled."""
    comps = {}
    for name, (dom, cod) in COMPONENT_SIGNATURES.items():
        comps[name] = (MultilinearMap.zero(dom, cod, dims)
                       if rng.random() < 1 / 3
                       else random_map(rng, dom, cod, dims))
    return QuasiTwilledAlgebra(**comps)


RANDOM_DIMS = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 2), (3, 3)]


@pytest.mark.parametrize("dims", RANDOM_DIMS, ids=str)
def test_random_structures_and_maps(dims):
    rng = seeded_rng(sum(dims) * 10 + dims[0])
    invalid = 0
    for _ in range(4):
        q = random_structure(rng, dims)
        invalid += not validate(q).is_zero()
        assert_rows_agree(q)
        for side, (slot, cod, *_) in SIDES.items():
            for _ in range(2):
                assert_twists_agree(q, random_map(rng, (slot,), cod, dims),
                                    side)
            assert_twists_agree(q, MultilinearMap.zero((slot,), cod, dims),
                                side)
    assert invalid >= 3


@pytest.mark.parametrize("alg", [one_dim_algebra, dual_numbers, trunc3],
                         ids=lambda f: f.__name__)
def test_builder_kinds(alg):
    rng = seeded_rng(7)
    for kind, q in builder_instances(alg()).items():
        assert_rows_agree(q)
        for side, (slot, cod, *_) in SIDES.items():
            assert_twists_agree(q, random_map(rng, (slot,), cod, q.dims),
                                side)


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_documents(name):
    doc = parse(emit_example(name))
    q = build_quasi_twilled(doc)
    assert_rows_agree(q)
    rng = seeded_rng(11)
    for map_name, side in get_entry(name).deformation_maps:
        assert_twists_agree(q, side_map(doc, q, map_name, side), side)
    for side, (slot, cod, *_) in SIDES.items():
        assert_twists_agree(q, random_map(rng, (slot,), cod, q.dims), side)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_twisted_structures(seed):
    q = twisted_structure(dual_numbers(), seed)
    assert_rows_agree(q)
    rng = seeded_rng(seed)
    for side, (slot, cod, *_) in SIDES.items():
        assert_twists_agree(q, random_map(rng, (slot,), cod, q.dims), side)


def test_after_change_of_basis():
    # every deformation map case, and a random map, in a dense basis
    rng = seeded_rng(5)
    for label, q, m, side in deformation_map_cases():
        push = dense_frame(q.dims)
        qc, mc = conjugated_structure(q, push), push(m)
        assert_rows_agree(qc)
        assert_twists_agree(qc, mc, side)
        slot, cod, *_ = SIDES[side]
        assert_twists_agree(qc, random_map(rng, (slot,), cod, q.dims), side)
