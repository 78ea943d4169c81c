"""Exact rational linear algebra: one sparse matrix, its rank and inverse.

`ExactMatrix` keeps only the nonzero entries of a rational matrix, as
fractions.Fraction, by row, like the store of a MultilinearMap.  The
arithmetic underneath runs on integer rows: a row, or a whole matrix,
is scaled by the lcm of its denominators, and Fractions appear again
only in what is returned.  One fraction-free elimination, `_echelon`,
works on integer rows: `ExactMatrix.rank` counts its pivots, and
`invert` runs it on [M | I], normalizes the pivots and back-substitutes.
`_row_products` is the one sparse product, behind `ExactMatrix.matmul`.
`from_rows` and `rows` are the one dense way in and out.  Everything
here is basis-explicit and exact; the contracts (ranks, dimensions) are
basis-independent.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionError, SingularMap

ZERO = Fraction(0)


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
        """The exact product, over integers with one denominator per
        factor."""
        if self.ncols != other.nrows:
            raise DimensionError("matmul shape mismatch")
        lden = _denominator(self.store.values())
        rden = _denominator(other.store.values())
        left = {i: _ints(row, lden) for i, row in self.store.items()}
        right = {k: _ints(row, rden) for k, row in other.store.items()}
        den = lden * rden
        return ExactMatrix(self.nrows, other.ncols, {
            i: {j: Fraction(v, den) for j, v in acc.items()}
            for i, acc in _row_products(left, right)})

    def is_zero(self):
        return not self.store

    def rank(self):
        """Number of pivots of `_echelon` on the rows, each cleared of its
        denominators."""
        return len(_echelon(_ints(row, _denominator((row,)))
                            for row in self.store.values()))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self.store == other.store)

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def _denominator(rows):
    """The lcm of the denominators of the Fractions in some sparse rows."""
    return lcm(*{v.denominator for row in rows for v in row.values()})


def _ints(row, den):
    """den * row as ints, for a common denominator den of the row."""
    return {j: v.numerator * (den // v.denominator) for j, v in row.items()}


def _row_products(left, right):
    """(i, row i of left * right) for every row of `left`, lazily.

    Both are sparse rows {index: {column: value}} of ints or Fractions.
    A product row may hold zeros, where terms cancel; a caller that only
    asks whether the product vanishes can stop at its first nonzero row.
    """
    for i, row in left.items():
        acc = {}
        for k, a in row.items():
            other = right.get(k)
            if other:
                for j, b in other.items():
                    acc[j] = acc.get(j, 0) + a * b
        yield i, acc


def _echelon(rows):
    """Fraction-free echelon form of sparse integer rows ({column:
    nonzero int}); the rows given are not modified.

    Returns {lead column: pivot row}, each pivot row primitive (its
    entries have gcd 1) with a positive leading entry.  Rows are reduced
    one at a time against the pivot rows found so far, shorter rows
    first, which keeps the fill-in small; the lead of a row is its
    smallest column.  Against a pivot p with lead l a row r becomes

        (p[l] / g) r - (r[l] / g) p,    g = gcd(p[l], r[l]),

    and whenever that step scaled r, its content is divided out, so the
    entries stay small.  Each row stays a nonzero rational multiple of
    the row a Fraction elimination in the same order would hold, so the
    leads, and the rank over Q, are the same.  Only nonzero entries are
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
                _divide_content(row, -1 if row[lead] < 0 else 1)
                pivots[lead] = row
                break
            f, p = row[lead], piv[lead]
            g = gcd(f, p)
            scale, f = p // g, f // g
            if scale != 1:
                for j in row:
                    row[j] *= scale
            for j, v in piv.items():
                w = row.get(j, 0) - f * v
                if w:
                    row[j] = w
                else:
                    del row[j]
            if scale != 1 and row:
                _divide_content(row, 1)
    return pivots


def _divide_content(row, sign):
    """Divide a nonzero integer row, in place, by sign * gcd of its
    entries."""
    content = sign * gcd(*row.values())
    if content != 1:
        for j in row:
            row[j] //= content


def invert(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse; raises SingularMap if m is not invertible.

    The echelon form of [m | I], each row cleared of its denominators,
    has its leads at 0..n-1 exactly when m is invertible; with each
    pivot row scaled to leading entry 1, back-substitution from the last
    lead up then leaves the inverse in the right block.
    """
    if m.nrows != m.ncols:
        raise SingularMap("only square matrices can be inverted")
    n = m.nrows
    aug = []
    for i in range(n):
        row = m.store.get(i, {})
        den = _denominator((row,))
        aug.append({**_ints(row, den), n + i: den})
    pivots = _echelon(aug)
    if any(c not in pivots for c in range(n)):
        raise SingularMap("matrix is singular")
    inverse = {}
    for c in reversed(range(n)):
        row = pivots[c]
        lead = row[c]
        out = {j - n: Fraction(v, lead) for j, v in row.items() if j >= n}
        for j, v in row.items():
            if c < j < n:
                f = Fraction(v, lead)
                for k, w in inverse[j].items():
                    out[k] = out.get(k, ZERO) - f * w
        inverse[c] = out
    return ExactMatrix(n, n, inverse)
