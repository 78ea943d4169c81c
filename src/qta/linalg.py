"""Exact rational linear algebra: one sparse matrix, its rank and inverse.

`ExactMatrix` keeps only the nonzero entries of a matrix over
fractions.Fraction, by row, like the store of a MultilinearMap.  One
exact elimination, `_echelon`, works on those rows: `ExactMatrix.rank`
counts its pivots, and `invert` runs it on [M | I] and back-substitutes.
`from_rows` and `rows` are the one dense way in and out.  Everything
here is basis-explicit and exact; the contracts (ranks, dimensions) are
basis-independent.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionError, SingularMap

ZERO = Fraction(0)
ONE = Fraction(1)


class ExactMatrix:
    """Rational matrix that stores only its nonzero entries, by row.

    `store` maps a row index to {column index: nonzero Fraction}; rows
    without entries are absent.  The constructor drops zero values and
    makes the others Fractions, so equal matrices have equal stores; a
    nonzero entry outside the shape is a DimensionError.
    """

    __slots__ = ("nrows", "ncols", "store")

    def __init__(self, nrows, ncols, store):
        kept = {}
        for i, row in store.items():
            row = {j: f for j, v in row.items()
                   if (f := v if isinstance(v, Fraction) else Fraction(v))}
            if not row:
                continue
            if not (0 <= i < nrows and 0 <= min(row) and max(row) < ncols):
                raise DimensionError(
                    f"entry in row {i} outside a {nrows} x {ncols} matrix")
            kept[i] = row
        self.nrows = nrows
        self.ncols = ncols
        self.store = kept

    @classmethod
    def from_rows(cls, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        return cls(nrows, ncols, {i: dict(enumerate(r))
                                  for i, r in enumerate(rows)})

    def rows(self):
        out = [[ZERO] * self.ncols for _ in range(self.nrows)]
        for i, row in self.store.items():
            for j, v in row.items():
                out[i][j] = v
        return out

    @property
    def nnz(self):
        return sum(len(row) for row in self.store.values())

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise DimensionError("matmul shape mismatch")
        out = {}
        for i, row in self.store.items():
            acc = {}
            for k, a in row.items():
                for j, b in other.store.get(k, {}).items():
                    acc[j] = acc.get(j, ZERO) + a * b
            out[i] = acc
        return ExactMatrix(self.nrows, other.ncols, out)

    def is_zero(self):
        return not self.store

    def rank(self):
        """Number of pivots of the exact elimination `_echelon`."""
        return len(_echelon(self.store.values()))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self.store == other.store)

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


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
    aug = [{**m.store.get(i, {}), n + i: ONE} for i in range(n)]
    pivots = _echelon(aug)
    if any(c not in pivots for c in range(n)):
        raise SingularMap("matrix is singular")
    inverse = {}
    for c in reversed(range(n)):
        row = pivots[c]
        out = {j - n: v for j, v in row.items() if j >= n}
        for j, f in row.items():
            if c < j < n:
                for k, v in inverse[j].items():
                    out[k] = out.get(k, ZERO) - f * v
        inverse[c] = out
    return ExactMatrix(n, n, inverse)
