from fractions import Fraction

import pytest

import qta.deformation
from qta import (
    A, APRIME, DegreeError, ExactMatrix, MultilinearMap, NotDeformationMap,
    build_standard, coboundary_apply, coboundary_apply_expanded,
    coboundary_matrix, cochain_complex, cohomology_dims, l1_vs_d,
    emit_example, quotient_dim, random_map, regular_representation,
    row_reduce, seeded_rng,
)
from qta.cohomology import MAX_DEGREE_CAP, cochain_space
from qta.deformation import side_spec
from qta.io import build_quasi_twilled, parse, side_map

from conftest import (
    deformation_map_cases, dual_numbers, left_map, one_dim_algebra, right_map,
)


def semidirect_one():
    return build_standard("semidirect",
                          rep=regular_representation(one_dim_algebra()))


def test_degree0_coboundary_semidirect_one():
    # (d a)(x) = xa - ax = 0 in the commutative 1-dim case
    q = semidirect_one()
    d0 = coboundary_matrix(q, right_map(q, [[0]]), "right", 0)
    assert d0.is_zero()


def test_degree1_coboundary_semidirect_one():
    # d f(e,e) = e f(e) - f(ee) + f(e) e = f(e): the 1x1 matrix (1)
    q = semidirect_one()
    d1 = coboundary_matrix(q, right_map(q, [[0]]), "right", 1)
    assert d1.rows() == [[1]]


def test_cohomology_table_semidirect_one():
    q = semidirect_one()
    assert cohomology_dims(q, right_map(q, [[0]]), "right", 2) == [1, 0, 0]


def test_structural_equals_expanded_both_sides():
    rng = seeded_rng(81)
    qd = build_standard("semidirect",
                        rep=regular_representation(dual_numbers()))
    d = right_map(qd, [[0, 0], [0, 1]])
    for n in (1, 2, 3):
        f = random_map(rng, (A,) * n, APRIME, qd.dims)
        assert coboundary_apply(qd, d, "right", f) == \
            coboundary_apply_expanded(qd, d, "right", f)
    qb = build_standard("reynolds", algebra=dual_numbers())
    b = left_map(qb, [[-1, 0], [0, -1]])
    for n in (1, 2, 3):
        f = random_map(rng, (APRIME,) * n, A, qb.dims)
        assert coboundary_apply(qb, b, "left", f) == \
            coboundary_apply_expanded(qb, b, "left", f)


def test_d_squared_zero_catalog_style():
    cases = [
        (semidirect_one(), [[0]], "right"),
        (build_standard("reynolds", algebra=one_dim_algebra()), [[-1]], "left"),
        (build_standard("semidirect",
                        rep=regular_representation(dual_numbers())),
         [[0, 0], [0, 1]], "right"),
        (build_standard("reynolds", algebra=dual_numbers()),
         [[-1, 0], [0, -1]], "left"),
    ]
    for q, rows, side in cases:
        m = right_map(q, rows) if side == "right" else left_map(q, rows)
        mats = [coboundary_matrix(q, m, side, n) for n in range(4)]
        for n in range(3):
            assert mats[n + 1].matmul(mats[n]).is_zero()


def test_cohomology_two_path_agreement():
    # rank subtraction vs kernel/image quotient through quotient_dim
    q = build_standard("reynolds", algebra=one_dim_algebra())
    b = left_map(q, [[-1]])
    dims = cohomology_dims(q, b, "left", 2)
    mats = [coboundary_matrix(q, b, "left", n) for n in range(3)]
    for n in range(3):
        red = row_reduce(mats[n])
        z = ExactMatrix.from_columns(red.kernel_basis, nrows=mats[n].ncols)
        if n == 0:
            b_cols = ExactMatrix(mats[n].ncols, 0, [])
        else:
            prev = row_reduce(mats[n - 1])
            b_cols = ExactMatrix.from_columns(prev.image_basis,
                                              nrows=mats[n].ncols)
        assert quotient_dim(z, b_cols) == dims[n]


def test_euler_derivation_cohomology():
    # frozen from the rank computation, cross-verified by the independent
    # kernel/image quotient path (see two-path test below)
    q = build_standard("semidirect",
                       rep=regular_representation(dual_numbers()))
    d = right_map(q, [[0, 0], [0, 1]])
    assert cohomology_dims(q, d, "right", 3) == [2, 1, 1, 1]
    mats = [coboundary_matrix(q, d, "right", n) for n in range(4)]
    for n in range(4):
        red = row_reduce(mats[n])
        z = ExactMatrix.from_columns(red.kernel_basis, nrows=mats[n].ncols)
        if n == 0:
            b = ExactMatrix(mats[n].ncols, 0, [])
        else:
            b = ExactMatrix.from_columns(row_reduce(mats[n - 1]).image_basis,
                                         nrows=mats[n].ncols)
        assert quotient_dim(z, b) == [2, 1, 1, 1][n]


def test_l1_vs_d_all_arities():
    rng = seeded_rng(83)
    qd = build_standard("semidirect",
                        rep=regular_representation(dual_numbers()))
    d = right_map(qd, [[0, 0], [0, 1]])
    for m in (1, 2, 3):
        f = random_map(rng, (A,) * m, APRIME, qd.dims)
        assert l1_vs_d(qd, d, "right", f)
    qb = build_standard("reynolds", algebra=dual_numbers())
    b = left_map(qb, [[-1, 0], [0, -1]])
    for m in (1, 2, 3):
        f = random_map(rng, (APRIME,) * m, A, qb.dims)
        assert l1_vs_d(qb, b, "left", f)


def test_nondeformation_map_rejected():
    q = build_standard("modified_direct_sum", algebra=one_dim_algebra(),
                       weight=4)
    with pytest.raises(NotDeformationMap):
        cohomology_dims(q, right_map(q, [[1]]), "right", 2)
    with pytest.raises(NotDeformationMap):
        coboundary_matrix(q, right_map(q, [[1]]), "right", 1)


def test_degree_cap():
    q = semidirect_one()
    with pytest.raises(DegreeError):
        cohomology_dims(q, right_map(q, [[0]]), "right", 6)
    with pytest.raises(DegreeError):
        cohomology_dims(q, right_map(q, [[0]]), "right", -1)


def test_coboundary_matrix_degree_cap():
    """coboundary_matrix refuses degrees above the cap, like cochain_complex,
    instead of assembling and densely exporting d_n."""
    doc = parse(emit_example("reynolds-dim1"))
    q = build_quasi_twilled(doc)
    b = side_map(doc, q, "B", "left")
    assert coboundary_matrix(q, b, "left", MAX_DEGREE_CAP).nrows == 1
    with pytest.raises(DegreeError):
        coboundary_matrix(q, b, "left", MAX_DEGREE_CAP + 1)


def _degree0_column(q, m, side, k):
    """(d a)(x) = act_l(x, a) - act_r(a, x) for the k-th basis vector a."""
    _, act_l, act_r = side_spec(side).twisted_triple(q, m)
    out = []
    for x in range(act_l.slot_sizes[0]):
        out.extend(u - v for u, v in zip(act_l.value((x, k)),
                                          act_r.value((k, x))))
    return out


@pytest.mark.parametrize("label,q,m,side", [
    pytest.param(*case, id=f"{case[0]} {case[3]}")
    for case in deformation_map_cases()])
def test_coboundary_columns_equal_the_slow_paths(label, q, m, side):
    # every column of the sparse assembly, against d applied to the basis
    # cochain through dense insertion, twisted and expanded
    for n in range(4):
        mat = coboundary_matrix(q, m, side, n)
        if n == 0:
            for k in range(mat.ncols):
                assert mat.column(k) == _degree0_column(q, m, side, k)
            continue
        dom, cod = cochain_space(q, side, n)
        for j in range(mat.ncols):
            f = MultilinearMap.unit(dom, cod, q.dims, j)
            col = mat.column(j)
            assert col == list(coboundary_apply(q, m, side, f).coeffs)
            assert col == list(
                coboundary_apply_expanded(q, m, side, f).coeffs)


def test_ranks_and_tables_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    qq = sympy.QQ
    for label, q, m, side in deformation_map_cases():
        mats = cochain_complex(q, m, side, 5)
        ranks = []
        for mat in mats:
            rows = {i: {j: qq(v.numerator, v.denominator)
                        for j, v in row.items()}
                    for i, row in mat.rows.items()}
            oracle = DomainMatrix(rows, (mat.nrows, mat.ncols), qq).rank()
            assert mat.rank() == oracle, (label, mat)
            ranks.append(oracle)
        table = [mat.ncols - r - prev for mat, r, prev
                 in zip(mats, ranks, [0] + ranks)]
        assert cohomology_dims(q, m, side, 5) == table, label
        if label.startswith("trunc3"):
            assert table == [3, 2, 2, 2, 2, 2], label


@pytest.mark.parametrize("side,twist_name,component", [
    ("right", "twist_right", "pi"),
    ("left", "twist_left", "xi"),
])
def test_perturbed_twist_fails_the_expanded_check(monkeypatch, side,
                                                  twist_name, component):
    q = build_standard("semidirect",
                       rep=regular_representation(dual_numbers()))
    m = (right_map(q, [[0, 0], [0, 1]]) if side == "right"
         else left_map(q, [[0, 0], [0, 0]]))
    assert cohomology_dims(q, m, side, 2)
    honest = getattr(qta.deformation, twist_name)

    def perturbed(q, m):
        tw = honest(q, m)
        g = getattr(tw, component)
        coeffs = list(g.coeffs)
        coeffs[0] += Fraction(1)
        setattr(tw, component, MultilinearMap(g.domain, g.codomain, g.dims,
                                              coeffs))
        return tw

    monkeypatch.setattr(qta.deformation, twist_name, perturbed)
    with pytest.raises(AssertionError,
                       match="structural and expanded coboundaries disagree"):
        cohomology_dims(q, m, side, 2)
