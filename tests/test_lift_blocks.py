"""The one-pass total product against the sum of lifts.

`total_product` and `TwistResult.reassemble` write every block's
nonzeros into one store (`lift_blocks`).  `tests/oracles.py` keeps the
construction they replaced, one `lift` per block and an `msum`.  Both
must give the same store, entry for entry and in the same order, with no
zero entry, and projecting the result onto each block must give that
block back.  The data: the catalog, every builder kind over the dual
numbers and T_2, the `twisted_structure` seeds, and each of these after a
dense change of basis and as the opposite structure.
"""

import pytest

from qta import (
    A, APRIME, QuasiTwilledAlgebra, catalog_names, emit_example, project,
    random_map, seeded_rng, total_product,
)
from qta.deformation import BLOCKS, side_spec
from qta.io import build_quasi_twilled, parse
from qta.multilinear import TOTAL, MultilinearMap, lift_blocks

import oracles
from conftest import (
    builder_instances, conjugated_structure, dense_frame, dual_numbers,
    opposite_structure, twisted_structure, upper_triangular,
)


def _base_structures():
    out = {name: build_quasi_twilled(parse(emit_example(name)))
           for name in catalog_names()}
    for alg_name, alg in (("dual", dual_numbers()),
                          ("T2", upper_triangular())):
        for kind, q in builder_instances(alg).items():
            out[f"{kind} {alg_name}"] = q
        for seed in (0, 1):
            out[f"twisted {alg_name} seed {seed}"] = twisted_structure(
                alg, seed)
    return out


BASES = _base_structures()
FRAMES = {
    "natural": lambda q: q,
    "dense": lambda q: conjugated_structure(q, dense_frame(q.dims)),
    "opposite": opposite_structure,
}
CASES = [pytest.param(name, frame, id=f"{name} {frame}")
         for name in BASES for frame in FRAMES]


def _same_store(got, want):
    assert got == want
    assert list(got.store.items()) == list(want.store.items())
    assert all(got.store.values())
    assert got.signature() == ((TOTAL, TOTAL), TOTAL)


def _projects_back(total, blocks):
    for name, (dom, cod) in BLOCKS.items():
        assert project(total, dom, cod) == blocks[name], name


@pytest.mark.parametrize("name, frame", CASES)
def test_total_product_is_the_sum_of_lifts(name, frame):
    q = FRAMES[frame](BASES[name])
    fresh = QuasiTwilledAlgebra(**q.components())  # Delta not built yet
    delta = total_product(fresh)
    _same_store(delta, oracles.lifted_total_product(fresh))
    _projects_back(delta, {**fresh.components(),
                           "gamma": MultilinearMap.zero(*BLOCKS["gamma"],
                                                        q.dims)})


def _twists(q):
    """The right and left twists of q by seeded random maps: (almost
    surely) no deformation maps, so every block of a twist is in play."""
    rng = seeded_rng(7)
    return [side_spec(side).twist(q, random_map(rng, (x,), y, q.dims))
            for side, (x, y) in (("right", (A, APRIME)),
                                 ("left", (APRIME, A)))]


@pytest.mark.parametrize("name, frame", CASES)
def test_reassemble_is_the_sum_of_lifts(name, frame):
    for tw in _twists(FRAMES[frame](BASES[name])):
        total = tw.reassemble()
        _same_store(total, oracles.lifted_reassemble(tw))
        _projects_back(total, {name: getattr(tw, name) for name in BLOCKS})


def test_left_twists_have_a_gamma_block():
    # the cases above reassemble a nonzero gamma: the left twist's
    # residual block, which a right twist never has
    right, left = zip(*(_twists(q) for q in BASES.values()))
    assert all(tw.gamma.is_zero() for tw in right)
    assert sum(not tw.gamma.is_zero() for tw in left) >= len(BASES) // 2


def test_no_blocks_give_the_zero_map():
    for dims in ((1, 1), (2, 3), (0, 2)):
        zero = lift_blocks([], dims)
        assert zero == oracles.lifted_total_product(
            QuasiTwilledAlgebra.from_components(dims))
        assert zero.store == {} and zero.slot_sizes == (sum(dims),) * 2
