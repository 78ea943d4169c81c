"""Exact rational linear algebra: sparse rank and inverse, dense export.

One exact elimination, `_echelon`, works on sparse rows (nonzero entries
only) over fractions.Fraction.  `SparseMatrix.rank` counts its pivots
for the large, mostly-zero coboundary matrices, and `invert` runs it on
[M | I] and back-substitutes.  `ExactMatrix` is the dense form that
`coboundary_matrix` exports and `invert` takes and returns.  Everything
here is basis-explicit and exact; the contracts (ranks, dimensions) are
basis-independent.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionError, SingularMap

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

    def row(self, i):
        return self.entries[i * self.ncols:(i + 1) * self.ncols]

    def rows(self):
        return [self.row(i) for i in range(self.nrows)]

    def column(self, j):
        return [self.entries[i * self.ncols + j] for i in range(self.nrows)]

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
        """Number of pivots of the exact elimination `_echelon`."""
        return len(_echelon(self.rows.values()))

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def _echelon(rows):
    """Exact echelon form of sparse rows ({column: nonzero Fraction}).

    Returns {lead column: pivot row}, each pivot row scaled to leading
    entry 1.  Rows are reduced one at a time against the pivot rows
    found so far, shorter rows first, which keeps the fill-in small; the
    lead of a row is its smallest column.  Only nonzero entries are
    touched, and the order is fixed, so the result is reproducible bit
    for bit.
    """
    pivots = {}
    for row in sorted(rows, key=len):
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
    return pivots


def invert(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse; raises SingularMap if m is not invertible.

    The echelon form of [m | I] has its leads at 0..n-1 exactly when m is
    invertible; back-substitution from the last lead up then leaves the
    inverse in the right block.
    """
    if m.nrows != m.ncols:
        raise SingularMap("only square matrices can be inverted")
    n = m.nrows
    aug = []
    for i in range(n):
        row = {j: v for j, v in enumerate(m.row(i)) if v}
        row[n + i] = ONE
        aug.append(row)
    pivots = _echelon(aug)
    if any(c not in pivots for c in range(n)):
        raise SingularMap("matrix is singular")
    inverse = [None] * n
    for c in reversed(range(n)):
        row = pivots[c]
        out = {j - n: v for j, v in row.items() if j >= n}
        for j, f in row.items():
            if c < j < n:
                for k, v in inverse[j].items():
                    out[k] = out.get(k, ZERO) - f * v
        inverse[c] = out
    return ExactMatrix.from_rows([[r.get(k, ZERO) for k in range(n)]
                                  for r in inverse])
