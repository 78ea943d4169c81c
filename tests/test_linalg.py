import random
from fractions import Fraction

import pytest

from conftest import matmul_rows, quotient_dim, row_reduce
from qta import DimensionError, ExactMatrix, SingularMap, invert
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

def _matrix(rows, ncols):
    """ExactMatrix of a row list; unlike from_rows, keeps ncols when there
    are no rows."""
    return ExactMatrix(len(rows), ncols,
                       {i: dict(enumerate(r)) for i, r in enumerate(rows)})


def _random_sparse_dense(rng, nr, nc, density):
    entries = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
               if rng.random() < density else 0 for _ in range(nr * nc)]
    return _matrix([entries[i * nc:(i + 1) * nc] for i in range(nr)], nc)


def test_echelon_pivot_order():
    # shortest rows first, each under its smallest column; ties keep the
    # input order.  Pivot rows are primitive integer rows with a positive
    # leading entry, each a multiple of the Fraction pivot row (the same
    # leads as a Fraction elimination).
    rows = [{0: 1, 1: 1, 2: 1}, {2: 3}, {0: 2}, {1: 4}]
    assert _echelon(rows) == {2: {2: 1}, 0: {0: 1}, 1: {1: 1}}
    assert list(_echelon(rows)) == [2, 0, 1]
    rows = [{0: 1, 1: 1}, {0: 2, 2: 2}]
    assert _echelon(rows) == {0: {0: 1, 1: 1}, 1: {1: 1, 2: -1}}
    # a pivot with leading entry 2 scales the row it reduces:
    # 2 (3, 0, 1) - 3 (2, 1, 0) = (0, -3, 2), made positive
    rows = [{0: 2, 1: 1}, {0: 3, 2: 1}]
    assert _echelon(rows) == {0: {0: 2, 1: 1}, 1: {1: 3, 2: -2}}
    # content and sign are divided out; the input rows are not modified
    rows = [{0: -4, 3: 6}, {1: -3}]
    pivots = _echelon(rows)
    assert pivots == {1: {1: 1}, 0: {0: 2, 3: -3}}
    assert rows == [{0: -4, 3: 6}, {1: -3}]
    assert all(type(v) is int for piv in pivots.values()
               for v in piv.values())
    assert _echelon([]) == {}


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    shapes = [(0, 4), (4, 0), (0, 0)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(40)]
    for nr, nc in shapes:
        for density in (0.0, 0.3, 1.0):
            m = _random_sparse_dense(rng, nr, nc, density)
            transposed = {}
            for i, row in m.store.items():
                for j, v in row.items():
                    transposed.setdefault(j, {})[i] = v
            mt = ExactMatrix(nc, nr, transposed)
            assert m.rank() == mt.rank()
            assert m.rank() == row_reduce(m.rows(), nc).rank


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
        assert all(type(e) is Fraction for row in inv.rows() for e in row)
        regular += 1
    assert singular >= 20 and regular >= 50


def test_invert_times_matrix_is_identity():
    for m in _square_cases(7):
        try:
            inv = invert(m)
        except SingularMap:
            assert m.rank() < m.nrows
            continue
        ident = ExactMatrix.from_rows(_identity_rows(m.nrows))
        assert m.matmul(inv) == ident
        assert inv.matmul(m) == ident
        assert matmul_rows(m.rows(), inv.rows(), m.nrows) == ident.rows()


def test_invert_rejects_non_square():
    for nr, nc in ((2, 3), (3, 2), (0, 2), (2, 0)):
        with pytest.raises(SingularMap):
            invert(_matrix([[1] * nc for _ in range(nr)], nc))


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
            dense = left.rows()
            assert len(dense) == nr and all(len(r) == inner for r in dense)
            assert _matrix(dense, inner) == left
            if nr:
                assert ExactMatrix.from_rows(dense) == left
            assert left.nnz == sum(1 for r in dense for e in r if e)
            product = left.matmul(right)
            oracle = matmul_rows(dense, right.rows(), nc)
            assert product.rows() == oracle
            assert product == _matrix(oracle, nc)
            assert product.is_zero() == all(e == 0 for r in oracle for e in r)
            assert left.rank() == row_reduce(dense, inner).rank
            assert right.rank() == row_reduce(right.rows(), nc).rank


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
        assert ExactMatrix.from_rows(rows).rank() == row_reduce(rows).rank


def test_sparse_shape_mismatch():
    with pytest.raises(DimensionError):
        ExactMatrix(2, 3, {}).matmul(ExactMatrix(2, 3, {}))


def test_constructor_makes_int_entries_fractions():
    # int values divided as ints would turn into floats in the elimination
    m = ExactMatrix(3, 3, {0: {0: 7, 1: 9, 2: 5}, 1: {0: 2, 1: -1, 2: -6},
                           2: {0: -40, 1: -30, 2: 16, 3: "0"}})
    assert all(type(v) is Fraction for row in m.store.values()
               for v in row.values())
    assert m == ExactMatrix.from_rows(m.rows())
    assert m.rank() == 2
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 1)]
        coef = [rng.randint(-3, 3) for _ in rows]
        rows.append([sum(c * r[j] for c, r in zip(coef, rows))
                     for j in range(n)])
        m = ExactMatrix(n, n, {i: dict(enumerate(r))
                               for i, r in enumerate(rows)})
        assert m.rank() == row_reduce(rows).rank


@pytest.mark.parametrize("store", [
    {0: {3: Fraction(1)}}, {1: {0: Fraction(1)}}, {0: {-1: 2}},
    {-1: {0: 2}}])
def test_constructor_rejects_entries_outside_the_shape(store):
    with pytest.raises(DimensionError):
        ExactMatrix(1, 1, store)


# -- the fraction-free elimination against independent oracles -----------------

MERSENNE_61 = 2 ** 61 - 1


def _rank_mod_p(rows, ncols, p=MERSENNE_61):
    """Rank over GF(p) of a Fraction row list whose denominators are
    prime to p; a lower bound of the rank over Q."""
    m = [[x.numerator * pow(x.denominator, -1, p) % p for x in r]
         for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _oracle_rows(rng):
    """A seeded sparse rational row list: every row with denominators of
    its own, among them zero rows, duplicates and combinations of earlier
    rows."""
    nr, nc = rng.randint(0, 9), rng.randint(1, 9)
    rows = []
    for _ in range(nr):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))
        elif rows and kind < 0.35:
            coef = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5]))
                    for _ in rows]
            rows.append([sum((c * r[j] for c, r in zip(coef, rows)),
                             Fraction(0)) for j in range(nc)])
        elif kind < 0.45:
            rows.append([Fraction(0)] * nc)
        else:
            dens = rng.choice([(1,), (1, 2, 3), (6, 35, 2 ** 40), (7, 49)])
            density = rng.choice([0.2, 0.5, 1.0])
            rows.append([Fraction(rng.randint(-9, 9), rng.choice(dens))
                         if rng.random() < density else Fraction(0)
                         for _ in range(nc)])
    rng.shuffle(rows)
    return rows, nc


def test_fraction_free_rank_against_oracles():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(1968)
    lower = 0
    for _ in range(600):
        rows, nc = _oracle_rows(rng)
        m = _matrix(rows, nc)
        rank = m.rank()
        dm = DomainMatrix([[sympy.QQ(x.numerator, x.denominator) for x in r]
                           for r in rows], (len(rows), nc), sympy.QQ)
        assert rank == row_reduce(rows, nc).rank == dm.rank()
        transposed = _columns(rows, nc)
        assert rank == _matrix(transposed, len(rows)).rank()
        mod_p = _rank_mod_p(rows, nc)
        assert mod_p <= rank
        lower += mod_p < rank
    assert lower == 0   # no denominator or minor here vanishes mod 2^61-1


def test_fraction_free_invert_against_gauss_jordan():
    rng = random.Random(22)
    checked = 0
    while checked < 150:
        n = rng.randint(1, 7)
        dens = rng.choice([(1,), (1, 2, 3), (6, 35, 2 ** 40)])
        rows = [[Fraction(rng.randint(-9, 9), rng.choice(dens))
                 if rng.random() < 0.6 else Fraction(0) for _ in range(n)]
                for _ in range(n)]
        oracle = _oracle_inverse(rows)
        if oracle is None:
            with pytest.raises(SingularMap):
                invert(ExactMatrix.from_rows(rows))
            continue
        inverse = invert(ExactMatrix.from_rows(rows)).rows()
        assert inverse == oracle
        assert all(type(x) is Fraction for r in inverse for x in r)
        checked += 1


def _unimodular(rng, n):
    """L U for random unitriangular L (lower) and U (upper): invertible,
    with an integral inverse."""
    def unitriangular(below):
        return ExactMatrix.from_rows([
            [1 if i == j else rng.randint(-2, 2) if (i > j) == below else 0
             for j in range(n)] for i in range(n)])
    return unitriangular(True).matmul(unitriangular(False))


def _oracle_inverse(rows):
    """Inverse by Gauss-Jordan on [m | I], or None if m is singular."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)]
           for i, r in enumerate(rows)]
    red = row_reduce(aug, 2 * n)
    if red.pivots[:n] != tuple(range(n)):
        return None
    return [r[n:] for r in red.rref[:n]]


def test_change_of_basis_keeps_rank_and_inverse():
    # P M Q has the rank of M, and (P M)^-1 = M^-1 P^-1 exactly, with
    # SingularMap on exactly the singular M
    rng = random.Random(31)
    singular = regular = 0
    for m in _square_cases(31):
        n = m.nrows
        p, q = _unimodular(rng, n), _unimodular(rng, n)
        pm = p.matmul(m)
        assert pm.matmul(q).rank() == m.rank()
        assert m.rank() == row_reduce(m.rows(), n).rank
        oracle = _oracle_inverse(m.rows())
        if oracle is None:
            with pytest.raises(SingularMap):
                invert(m)
            with pytest.raises(SingularMap):
                invert(pm)
            singular += 1
            continue
        inv_m = invert(m)
        assert inv_m.rows() == oracle
        assert invert(pm) == inv_m.matmul(invert(p))
        assert invert(pm).rows() == _oracle_inverse(pm.rows())
        regular += 1
    assert singular >= 10 and regular >= 50
    for _ in range(20):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_sparse_dense(rng, nr, nc, rng.choice((0.3, 1.0)))
        pmq = _unimodular(rng, nr).matmul(m).matmul(_unimodular(rng, nc))
        assert pmq.rank() == m.rank() == row_reduce(m.rows(), nc).rank
