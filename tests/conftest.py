"""Shared instances: the stock algebras, one structure per builder kind and
a twisted structure with all seven blocks nonzero, a block-diagonal change
of basis, and the literal dense elimination and product that the library's
sparse ones are checked against."""

from fractions import Fraction
from typing import NamedTuple

import pytest

from qta import (
    A, APRIME, AssociativeAlgebra, AssociativeRepresentation, Cocycle2,
    ExactMatrix, MatchedPairData, MultilinearMap, QuasiTwilledAlgebra,
    build_standard, catalog_names, emit_example, get_entry, insert, invert,
    linear_map_from_matrix, random_map, regular_representation, seeded_rng,
    twist_right,
)
from qta.io import build_quasi_twilled, parse, side_map

# 1-dim algebra e.e = e
ONE_DIM_TABLE = [[[1]]]
# dual numbers K[t]/(t^2), basis (1, t)
DUAL_TABLE = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
# truncated polynomials K[t]/(t^3), basis (1, t, t^2)
TRUNC3_TABLE = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
]


def one_dim_algebra():
    return AssociativeAlgebra.from_table(ONE_DIM_TABLE, 1, basis_names=["e"])


def dual_numbers():
    return AssociativeAlgebra.from_table(DUAL_TABLE, 2, basis_names=["1", "t"])


def trunc3():
    return AssociativeAlgebra.from_table(TRUNC3_TABLE, 3,
                                         basis_names=["1", "t", "t2"])


@pytest.fixture
def alg1():
    return one_dim_algebra()


@pytest.fixture
def dual():
    return dual_numbers()


def right_map(q, rows):
    return linear_map_from_matrix(rows, A, APRIME, q.dims)


def left_map(q, rows):
    return linear_map_from_matrix(rows, APRIME, A, q.dims)


def scaled_identity_rows(n, scalar):
    return [[scalar if i == j else 0 for j in range(n)] for i in range(n)]


def regular_assoc_rep(alg):
    """The regular representation viewed as an associative representation."""
    rep = regular_representation(alg)
    dims = rep.rho.dims
    star = alg.product.relabel((APRIME, APRIME), APRIME, dims)
    return AssociativeRepresentation(rep.algebra, rep.rho, rep.mu, star)


def product_cocycle(alg):
    """omega = the product itself, over the regular representation."""
    rep = regular_representation(alg)
    dims = rep.rho.dims
    omega = alg.product.with_dims(dims).relabel((A, A), APRIME, dims)
    return Cocycle2(rep, omega)


def regular_matched_pair(alg):
    """rho/mu regular, eta/xi zero; a matched pair for any algebra."""
    dims = (alg.dim, alg.dim)
    alg_a = AssociativeAlgebra(alg.product.with_dims(dims), alg.basis_names)
    alg_p = AssociativeAlgebra(
        alg.product.relabel((APRIME, APRIME), APRIME, dims))
    rho = alg.product.with_dims(dims).relabel((A, APRIME), APRIME, dims)
    mu = alg.product.with_dims(dims).relabel((APRIME, A), APRIME, dims)
    eta = MultilinearMap.zero((APRIME, A), A, dims)
    xi = MultilinearMap.zero((A, APRIME), A, dims)
    return MatchedPairData(alg_a, alg_p, rho, mu, eta, xi)


def builder_instances(alg):
    """One structure per builder kind over the given base algebra."""
    rep = regular_representation(alg)
    return {
        "modified_direct_sum": build_standard(
            "modified_direct_sum", algebra=alg, weight=4),
        "semidirect": build_standard("semidirect", rep=rep),
        "semidirect_assoc": build_standard(
            "semidirect_assoc", assoc_rep=regular_assoc_rep(alg)),
        "direct_product": build_standard(
            "direct_product", algebra=alg, algebra_prime=alg),
        "abelian_extension": build_standard(
            "abelian_extension", cocycle=product_cocycle(alg)),
        "reynolds": build_standard("reynolds", algebra=alg),
        "matched_pair": build_standard(
            "matched_pair", matched_pair=regular_matched_pair(alg)),
    }


def twisted_structure(alg, seed=0):
    """The modified direct sum of alg (weight 4) twisted by a seeded random
    D: A -> A'.  D is no deformation map, so the twist keeps a nonzero
    theta (its residual) and gains pi, rho and mu; on the dual numbers
    all seven blocks are nonzero (on a one-dim algebra rho and mu cancel).
    It has no builder provenance."""
    q = build_standard("modified_direct_sum", algebra=alg, weight=4)
    d = random_map(seeded_rng(seed), (A,), APRIME, q.dims)
    return twist_right(q, d).to_quasi_twilled()


def deformation_map_cases():
    """(label, structure, map, side) for every deformation map of the
    catalog, plus two on K[t]/(t^3) at dims (3,3): the derivation
    D(t) = t + t^2, D(t^2) = 2 t^2 of the semidirect product with the
    regular representation (right) and the Reynolds operator B = -id
    (left)."""
    alg = trunc3()
    semi = build_standard("semidirect", rep=regular_representation(alg))
    rey = build_standard("reynolds", algebra=alg)
    out = [
        ("trunc3-derivation", semi,
         right_map(semi, [[0, 0, 0], [0, 1, 0], [0, 1, 2]]), "right"),
        ("trunc3-reynolds", rey, left_map(rey, scaled_identity_rows(3, -1)),
         "left"),
    ]
    for name in catalog_names():
        doc = parse(emit_example(name))
        q = build_quasi_twilled(doc)
        for map_name, side in get_entry(name).deformation_maps:
            out.append((f"{name} {map_name}", q,
                        side_map(doc, q, map_name, side), side))
    return out


# -- change of basis ----------------------------------------------------------

def change_of_basis(dims, rows_a, rows_aprime):
    """The push m -> g^-1 . m . (g x ... x g) of block maps to the basis
    given by the invertible matrices g_A and g_A' (as row lists)."""
    fwd, inv = {}, {}
    for label, rows in ((A, rows_a), (APRIME, rows_aprime)):
        inverse = invert(ExactMatrix.from_rows(rows)).rows()
        fwd[label] = linear_map_from_matrix(rows, label, label, dims)
        inv[label] = linear_map_from_matrix(inverse, label, label, dims)

    def push(m):
        out = m
        for slot, label in enumerate(m.domain):
            out = insert(out, fwd[label], slot)
        return insert(inv[m.codomain], out, 0)

    return push


def conjugated_structure(q, push):
    """q with every component pushed; kind and ingredients are kept, so the
    operator names stay those of q."""
    comps = {name: push(m) for name, m in q.components().items()}
    return QuasiTwilledAlgebra(kind=q.kind, ingredients=q.ingredients,
                               basis_a=q.basis_a,
                               basis_aprime=q.basis_aprime, **comps)


# -- dense elimination and product oracles ------------------------------------

class RowReduction(NamedTuple):
    rank: int
    kernel_basis: list      # vectors spanning the null space
    image_basis: list       # pivot columns of the original matrix
    pivots: tuple           # pivot column indices
    rref: list              # reduced row echelon rows


def row_reduce(rows, ncols=None):
    """Literal Gauss-Jordan elimination of a matrix given as a row list.

    rank + len(kernel_basis) == ncols; every kernel vector v satisfies
    m.v == 0 exactly; image_basis consists of the pivot columns of m.
    ncols is needed only when there are no rows.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    original = [[Fraction(x) for x in r] for r in rows]
    assert all(len(r) == ncols for r in original), "ragged rows"
    rows = [r[:] for r in original]
    nr, nc = len(rows), ncols
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        p = None
        for i in range(r, nr):
            if rows[i][c]:
                p = i
                break
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    pivot_set = set(pivots)
    kernel = []
    for fc in range(nc):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        kernel.append(v)
    image = [[row[c] for row in original] for c in pivots]
    return RowReduction(len(pivots), kernel, image, tuple(pivots), rows)


def matmul_rows(left, right, ncols):
    """Literal product of two matrices given as row lists.

    ncols is the column count of `right`, needed when it has no rows.
    """
    return [[sum((row[k] * right[k][j] for k in range(len(right))),
                 Fraction(0)) for j in range(ncols)] for row in left]


def quotient_dim(z, b):
    """dim span(z) - dim span(b) for two lists of vectors.

    Fails with AssertionError unless every vector of b lies in span(z).
    """
    rank_z = row_reduce(z).rank
    if b:
        assert row_reduce(z + b).rank == rank_z, "b does not lie in span(z)"
    return rank_z - row_reduce(b).rank
