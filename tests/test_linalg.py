import random
from fractions import Fraction

import pytest

from conftest import quotient_dim, row_reduce
from qta import DimensionError, ExactMatrix, SingularMap, SparseMatrix, invert
from qta.linalg import _echelon


def _identity_rows(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _columns(rows, ncols):
    return [[r[j] for r in rows] for j in range(ncols)]


# -- the dense oracle (tests/conftest.py) -------------------------------------

def test_identity_rank_kernel_image():
    red = row_reduce(_identity_rows(2))
    assert red.rank == 2
    assert red.kernel_basis == []
    assert red.image_basis == [[1, 0], [0, 1]]


def test_zero_matrix():
    red = row_reduce([[0]])
    assert red.rank == 0
    assert red.kernel_basis == [[1]]


def test_rank_one_kernel():
    red = row_reduce([[1, 2], [2, 4]])
    assert red.rank == 1
    assert red.kernel_basis == [[-2, 1]]
    assert red.image_basis == [[1, 2]]


def test_kernel_vectors_annihilate():
    rng = random.Random(42)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = [[Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
              for _ in range(nc)] for _ in range(nr)]
        red = row_reduce(m)
        assert red.rank + len(red.kernel_basis) == nc
        for v in red.kernel_basis:
            image = [sum((m[i][j] * v[j] for j in range(nc)), Fraction(0))
                     for i in range(nr)]
            assert all(x == 0 for x in image)


def test_quotient_dim_cases():
    plane = _identity_rows(2)
    assert quotient_dim(plane, []) == 2
    line = [[1, 0]]
    assert quotient_dim(line, line) == 0
    diag = [[1, 1]]
    assert quotient_dim(plane, diag) == 1


def test_quotient_dim_containment():
    line = [[1, 0]]
    other = [[0, 1]]
    with pytest.raises(AssertionError):
        quotient_dim(line, other)


def test_image_basis_spans_all_columns():
    rng = random.Random(11)
    for _ in range(20):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(nc)]
             for _ in range(nr)]
        red = row_reduce(m)
        if red.rank == 0:
            assert all(e == 0 for r in m for e in r)
            continue
        columns = _columns(m, nc)
        # containment both ways pins span(image_basis) == column space
        assert quotient_dim(red.image_basis, columns) == \
            red.rank - row_reduce(columns).rank
        assert row_reduce(red.image_basis).rank == red.rank


def test_rref_idempotent():
    rng = random.Random(12)
    for _ in range(10):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = [[Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
              for _ in range(nc)] for _ in range(nr)]
        red = row_reduce(m)
        again = row_reduce(red.rref)
        assert again.rref == red.rref
        assert again.rank == red.rank


# -- the sparse elimination: rank and inverse ---------------------------------

def _random_sparse_dense(rng, nr, nc, density):
    return ExactMatrix(nr, nc, [
        Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
        if rng.random() < density else 0 for _ in range(nr * nc)])


def test_echelon_pivot_order():
    # shortest rows first, each under its smallest column, leading entry 1;
    # ties keep the input order
    f = Fraction
    rows = [{0: f(1), 1: f(1), 2: f(1)}, {2: f(3)}, {0: f(2)}, {1: f(4)}]
    assert _echelon(rows) == {2: {2: f(1)}, 0: {0: f(1)}, 1: {1: f(1)}}
    rows = [{0: f(1), 1: f(1)}, {0: f(2), 2: f(2)}]
    assert _echelon(rows) == {0: {0: f(1), 1: f(1)}, 1: {1: f(1), 2: f(-1)}}
    assert _echelon([]) == {}


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    shapes = [(0, 4), (4, 0), (0, 0)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(40)]
    for nr, nc in shapes:
        for density in (0.0, 0.3, 1.0):
            m = SparseMatrix.from_dense(_random_sparse_dense(rng, nr, nc,
                                                             density))
            transposed = {}
            for i, row in m.rows.items():
                for j, v in row.items():
                    transposed.setdefault(j, {})[i] = v
            mt = SparseMatrix(nc, nr, transposed)
            assert m.rank() == mt.rank()
            assert m.rank() == row_reduce(m.to_dense().rows(), nc).rank


def _square_cases(seed):
    """Seeded n x n matrices, n = 0..7: dense, sparse, and singular by
    construction (one row a combination of the others)."""
    rng = random.Random(seed)
    for n in range(8):
        for density in (1.0, 0.4):
            for _ in range(6):
                yield _random_sparse_dense(rng, n, n, density)
            if n:
                rows = _random_sparse_dense(rng, n, n, density).rows()
                rows[rng.randrange(n)] = [
                    sum((Fraction(rng.randint(-2, 2)) * r[j] for r in rows),
                        Fraction(0)) for j in range(n)]
                yield ExactMatrix.from_rows(rows)


def test_invert_against_sympy():
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError
    singular = regular = 0
    for m in _square_cases(2026):
        n = m.nrows
        dm = DomainMatrix([[QQ(e.numerator, e.denominator) for e in row]
                           for row in m.rows()], (n, n), QQ)
        try:
            expected = [[Fraction(int(e.numerator), int(e.denominator))
                         for e in row] for row in dm.inv().to_list()]
        except DMNonInvertibleMatrixError:
            with pytest.raises(SingularMap):
                invert(m)
            singular += 1
            continue
        inv = invert(m)
        assert (inv.nrows, inv.ncols) == (n, n)
        assert inv.rows() == expected
        assert all(type(e) is Fraction for e in inv.entries)
        regular += 1
    assert singular >= 20 and regular >= 50


def test_invert_times_matrix_is_identity():
    for m in _square_cases(7):
        try:
            inv = invert(m)
        except SingularMap:
            assert SparseMatrix.from_dense(m).rank() < m.nrows
            continue
        ident = ExactMatrix.from_rows(_identity_rows(m.nrows))
        assert m.matmul(inv) == ident
        assert inv.matmul(m) == ident


def test_invert_rejects_non_square():
    for nr, nc in ((2, 3), (3, 2), (0, 2), (2, 0)):
        with pytest.raises(SingularMap):
            invert(ExactMatrix(nr, nc, [1] * (nr * nc)))


def test_invert_and_singular():
    m = ExactMatrix.from_rows([[2, 1], [1, 1]])
    mi = invert(m)
    ident = ExactMatrix.from_rows(_identity_rows(2))
    assert m.matmul(mi) == ident
    assert mi.matmul(m) == ident
    with pytest.raises(SingularMap):
        invert(ExactMatrix.from_rows([[1, 2], [2, 4]]))


def test_sparse_product_and_rank_equal_dense():
    rng = random.Random(2024)
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (4, 4, 4)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7))
               for _ in range(40)]
    for nr, inner, nc in shapes:
        for density in (0.0, 0.3, 1.0):
            left = _random_sparse_dense(rng, nr, inner, density)
            right = _random_sparse_dense(rng, inner, nc, density)
            sl, sr = SparseMatrix.from_dense(left), SparseMatrix.from_dense(right)
            assert sl.to_dense() == left
            assert sl.nnz == sum(1 for e in left.entries if e)
            product = sl.matmul(sr)
            assert product.to_dense() == left.matmul(right)
            assert product == SparseMatrix.from_dense(left.matmul(right))
            assert product.is_zero() == left.matmul(right).is_zero()
            assert sl.rank() == row_reduce(left.rows(), left.ncols).rank
            assert sr.rank() == row_reduce(right.rows(), right.ncols).rank


def test_sparse_rank_of_dependent_rows():
    # rows built as combinations of a few, so the elimination must cancel
    rng = random.Random(5)
    for _ in range(20):
        base = [[Fraction(rng.randint(-2, 2)) for _ in range(6)]
                for _ in range(rng.randint(1, 3))]
        rows = [[sum((c * b[j] for c, b in zip(coef, base)), Fraction(0))
                 for j in range(6)]
                for coef in ([Fraction(rng.randint(-2, 2), rng.choice([1, 3]))
                              for _ in base] for _ in range(5))]
        dense = ExactMatrix.from_rows(rows)
        assert SparseMatrix.from_dense(dense).rank() == row_reduce(rows).rank


def test_sparse_shape_mismatch():
    with pytest.raises(DimensionError):
        SparseMatrix(2, 3, {}).matmul(SparseMatrix(2, 3, {}))
