import random
from fractions import Fraction

import pytest

from qta import (
    ContainmentViolation, DimensionError, ExactMatrix, SingularMap,
    SparseMatrix, invert,
    quotient_dim, rank, row_reduce,
)


def test_identity_rank_kernel_image():
    red = row_reduce(ExactMatrix.identity(2))
    assert red.rank == 2
    assert red.kernel_basis == []
    assert red.image_basis == [[1, 0], [0, 1]]


def test_zero_matrix():
    red = row_reduce(ExactMatrix.from_rows([[0]]))
    assert red.rank == 0
    assert red.kernel_basis == [[1]]


def test_rank_one_kernel():
    red = row_reduce(ExactMatrix.from_rows([[1, 2], [2, 4]]))
    assert red.rank == 1
    assert red.kernel_basis == [[-2, 1]]
    assert red.image_basis == [[1, 2]]


def test_kernel_vectors_annihilate():
    rng = random.Random(42)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = ExactMatrix(nr, nc, [Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                                 for _ in range(nr * nc)])
        red = row_reduce(m)
        assert red.rank + len(red.kernel_basis) == nc
        for v in red.kernel_basis:
            image = [sum((m[i, j] * v[j] for j in range(nc)), Fraction(0))
                     for i in range(nr)]
            assert all(x == 0 for x in image)


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = ExactMatrix(nr, nc, [Fraction(rng.randint(-2, 2))
                                 for _ in range(nr * nc)])
        assert rank(m) == rank(m.transpose())


def test_quotient_dim_cases():
    plane = ExactMatrix.identity(2)
    origin = ExactMatrix(2, 0, [])
    assert quotient_dim(plane, origin) == 2
    line = ExactMatrix.from_rows([[1], [0]])
    assert quotient_dim(line, line) == 0
    diag = ExactMatrix.from_rows([[1], [1]])
    assert quotient_dim(plane, diag) == 1


def test_quotient_dim_containment():
    line = ExactMatrix.from_rows([[1], [0]])
    other = ExactMatrix.from_rows([[0], [1]])
    with pytest.raises(ContainmentViolation):
        quotient_dim(line, other)


def test_invert_and_singular():
    m = ExactMatrix.from_rows([[2, 1], [1, 1]])
    mi = invert(m)
    assert m.matmul(mi) == ExactMatrix.identity(2)
    assert mi.matmul(m) == ExactMatrix.identity(2)
    with pytest.raises(SingularMap):
        invert(ExactMatrix.from_rows([[1, 2], [2, 4]]))


def test_image_basis_spans_all_columns():
    rng = random.Random(11)
    for _ in range(20):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        m = ExactMatrix(nr, nc, [Fraction(rng.randint(-2, 2))
                                 for _ in range(nr * nc)])
        red = row_reduce(m)
        if red.rank == 0:
            assert all(e == 0 for e in m.entries)
            continue
        img = ExactMatrix.from_columns(red.image_basis, nrows=nr)
        # containment both ways pins span(image_basis) == column space
        assert quotient_dim(img, m) == red.rank - rank(m)
        assert rank(img) == red.rank


def test_rref_idempotent():
    rng = random.Random(12)
    for _ in range(10):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = ExactMatrix(nr, nc, [Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                                 for _ in range(nr * nc)])
        red = row_reduce(m)
        again = row_reduce(ExactMatrix.from_rows(red.rref))
        assert again.rref == red.rref
        assert again.rank == red.rank


def _random_sparse_dense(rng, nr, nc, density):
    return ExactMatrix(nr, nc, [
        Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
        if rng.random() < density else 0 for _ in range(nr * nc)])


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
            assert sl.rank() == row_reduce(left).rank
            assert sr.rank() == row_reduce(right).rank


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
        assert SparseMatrix.from_dense(dense).rank() == row_reduce(dense).rank


def test_sparse_shape_mismatch():
    with pytest.raises(DimensionError):
        SparseMatrix(2, 3, {}).matmul(SparseMatrix(2, 3, {}))
