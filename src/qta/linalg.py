"""Exact rational linear algebra: row reduction, kernels, images, quotients.

Plain Gaussian elimination over fractions.Fraction on dense matrices, and
a sparse matrix (nonzero entries only) with product and rank for the
large, mostly-zero coboundary matrices.  Everything here is
basis-explicit and exact; the contracts (ranks, dimensions, membership)
are basis-independent.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ContainmentViolation, DimensionError, SingularMap

ZERO = Fraction(0)
ONE = Fraction(1)


class ExactMatrix:
    """Dense rational matrix, stored row-major."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries):
        entries = [Fraction(e) for e in entries]
        if len(entries) != nrows * ncols:
            raise DimensionError("entries length != nrows * ncols")
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        return cls(nrows, ncols, [e for r in rows for e in r])

    @classmethod
    def from_columns(cls, columns, nrows=None):
        if not columns:
            if nrows is None:
                raise DimensionError("empty column list needs explicit nrows")
            return cls(nrows, 0, [])
        nrows = len(columns[0])
        rows = [[col[i] for col in columns] for i in range(nrows)]
        return cls.from_rows(rows)

    @classmethod
    def zero(cls, nrows, ncols):
        return cls(nrows, ncols, [ZERO] * (nrows * ncols))

    @classmethod
    def identity(cls, n):
        return cls(n, n, [ONE if i == j else ZERO
                          for i in range(n) for j in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.ncols + j]

    def row(self, i):
        return self.entries[i * self.ncols:(i + 1) * self.ncols]

    def rows(self):
        return [self.row(i) for i in range(self.nrows)]

    def column(self, j):
        return [self.entries[i * self.ncols + j] for i in range(self.nrows)]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self):
        return ExactMatrix.from_rows(self.columns())

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise DimensionError("hstack needs equal row counts")
        return ExactMatrix.from_rows(
            [self.row(i) + other.row(i) for i in range(self.nrows)])

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise DimensionError("matmul shape mismatch")
        entries = []
        for i in range(self.nrows):
            ri = self.row(i)
            entries.extend(
                sum((ri[k] * other.entries[k * other.ncols + j]
                     for k in range(self.ncols)), ZERO)
                for j in range(other.ncols))
        return ExactMatrix(self.nrows, other.ncols, entries)

    def is_zero(self):
        return not any(self.entries)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self.entries == other.entries)

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols})"


class SparseMatrix:
    """Rational matrix that stores only its nonzero entries, by row.

    `rows` maps a row index to {column index: nonzero Fraction}; rows
    without entries are absent.  The constructor drops zero values, so
    equal matrices have equal `rows`.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows):
        kept = {}
        for i, row in rows.items():
            row = {j: v for j, v in row.items() if v}
            if row:
                kept[i] = row
        self.nrows = nrows
        self.ncols = ncols
        self.rows = kept

    @classmethod
    def from_dense(cls, m):
        return cls(m.nrows, m.ncols,
                   {i: dict(enumerate(m.row(i))) for i in range(m.nrows)})

    def to_dense(self):
        entries = [ZERO] * (self.nrows * self.ncols)
        for i, row in self.rows.items():
            base = i * self.ncols
            for j, v in row.items():
                entries[base + j] = v
        return ExactMatrix(self.nrows, self.ncols, entries)

    @property
    def nnz(self):
        return sum(len(row) for row in self.rows.values())

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise DimensionError("matmul shape mismatch")
        out = {}
        for i, row in self.rows.items():
            acc = {}
            for k, a in row.items():
                for j, b in other.rows.get(k, {}).items():
                    acc[j] = acc.get(j, ZERO) + a * b
            out[i] = acc
        return SparseMatrix(self.nrows, other.ncols, out)

    def is_zero(self):
        return not self.rows

    def rank(self):
        """Rank by exact elimination that touches only nonzero entries.

        Rows are reduced one at a time against the pivot rows found so
        far, each kept under its leading (smallest) column with leading
        entry 1; shorter rows go first, which keeps the fill-in small.
        """
        pivots = {}
        for row in sorted(self.rows.values(), key=len):
            row = dict(row)
            while row:
                lead = min(row)
                piv = pivots.get(lead)
                if piv is None:
                    scale = row[lead]
                    pivots[lead] = {j: v / scale for j, v in row.items()}
                    break
                f = row[lead]
                for j, v in piv.items():
                    w = row.get(j, ZERO) - f * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
        return len(pivots)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


class RowReduction(NamedTuple):
    rank: int
    kernel_basis: list      # column vectors spanning the null space
    image_basis: list       # pivot columns of the original matrix
    pivots: tuple           # pivot column indices
    rref: list              # reduced row echelon rows


def row_reduce(m: ExactMatrix) -> RowReduction:
    """Reduced row echelon form with rank, kernel and image bases.

    rank + len(kernel_basis) == ncols; every kernel vector v satisfies
    m.v == 0 exactly; image_basis consists of the pivot columns of m.
    """
    rows = [r[:] for r in m.rows()]
    nr, nc = m.nrows, m.ncols
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
    rank = len(pivots)
    pivot_set = set(pivots)
    kernel = []
    for fc in range(nc):
        if fc in pivot_set:
            continue
        v = [ZERO] * nc
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        kernel.append(v)
    image = [m.column(c) for c in pivots]
    return RowReduction(rank, kernel, image, tuple(pivots), rows)


def rank(m: ExactMatrix) -> int:
    return row_reduce(m).rank


def quotient_dim(z: ExactMatrix, b: ExactMatrix) -> int:
    """dim(span of z's columns) - dim(span of b's columns).

    Raises ContainmentViolation unless every column of b lies in the
    column span of z.
    """
    if z.nrows != b.nrows:
        raise DimensionError("subspaces of different ambient dimension")
    rank_z = rank(z)
    if b.ncols:
        if rank(z.hstack(b)) != rank_z:
            raise ContainmentViolation("columns of b do not lie in span(z)")
    return rank_z - rank(b)


def invert(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse; raises SingularMap if m is not invertible."""
    if m.nrows != m.ncols:
        raise SingularMap("only square matrices can be inverted")
    n = m.nrows
    aug = m.hstack(ExactMatrix.identity(n))
    red = row_reduce(aug)
    if red.rank != n or red.pivots != tuple(range(n)):
        raise SingularMap("matrix is singular")
    return ExactMatrix.from_rows([row[n:] for row in red.rref[:n]])
