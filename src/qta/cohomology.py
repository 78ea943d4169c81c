"""Cochain complexes of deformation maps and their cohomology dimensions.

Right side of a deformation map D: C^0 = A', C^n = Hom((x)^n A, A'), with

    d f(x_1,...,x_{n+1}) = rho^D(x_1) f(x_2,...)
        + sum_i (-1)^i f(..., pi^D(x_i, x_{i+1}), ...)
        + (-1)^(n+1) mu^D(x_{n+1}) f(...,x_n)

built from the twisted components; the left side mirrors this with
(beta^B; eta^B, xi^B) on C^n = Hom((x)^n A', A), C^0 = A.

This is the Hochschild complex of the twisted product with coefficients
in the twisted bimodule, and `hochschild_complex(product, left, right)`
assembles it for any such triple.  The twist is computed once per call;
the map is a deformation map exactly when the twist's residual component
(theta^D on the right, gamma^B on the left) vanishes, so the deformation
check reads that component (`checked_twist` of the side table) instead of
computing the residual again.  The expanded form of d (the original
components and the map, never the twist) is checked once per call: its
term table, summed group by group, must equal the twisted triple as
bilinear maps, and since d_n is linear in the triple this covers every
degree.  The complex runs over the integers: the nonzero structure
constants of the triple are cleared to ints over one common denominator
L (the lcm of their denominators, 1 for integral tables), each d_n is
assembled once, sparsely, as L d_n in integer rows, and d_(n+1) d_n = 0
is asserted as an integer sparse product that stops at its first
nonzero row.  `cohomology_dims` ranks those rows with the fraction-free
elimination `linalg._echelon` and builds no Fraction matrix; the
functions that return matrices wrap the same rows as `linalg.ExactMatrix`
with entries v / L, which keeps only its nonzeros.  The dense
`coboundary_apply` (twisted components) and `coboundary_apply_expanded`
(the same sum spelled out) apply d to one cochain; they are the slow
oracles the sparse assembly is tested against, and each evaluates a
(left, inner, right) table of plugged binary maps.  Degrees are ints,
capped at MAX_DEGREE_CAP, for one matrix as for a complex.

Basis order of C^n: lexicographic over domain basis tuples, crossed with
the codomain index (the flat coefficient layout of MultilinearMap), so
matrices are reproducible bit for bit.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm

from .deformation import side_spec
from .errors import DegreeError, DimensionError
from .linalg import ExactMatrix, _echelon, _row_products
from .multilinear import _label_size, _sign, insert, msum
from .linfty import controlling_structure

MAX_DEGREE_CAP = 5


def cochain_space(q, side, n):
    """(domain labels, codomain label) of C^n; C^0 is the codomain space."""
    return side_spec(side).signature(n)


def _check_cochain(q, side, f):
    n = f.arity
    if f.signature() != cochain_space(q, side, n) or f.dims != q.dims:
        raise DegreeError(f"not a {side}-side {n}-cochain")


def coboundary_apply(q, m, side, f):
    """d f via the twisted components, for f in C^n, n >= 1."""
    spec = side_spec(side)
    terms = _structural_terms(spec, spec.twist(q, m))
    _check_cochain(q, side, f)
    return _evaluate(terms, f)


def coboundary_apply_expanded(q, m, side, f):
    """d f spelled out through the original components and the map.

    Must agree with coboundary_apply.  Both evaluate a term table with
    `_evaluate`; summed, the same tables check the sparse assembly.
    """
    _check_cochain(q, side, f)
    return _evaluate(_expanded_terms(q, m, side), f)


def _evaluate(terms, f):
    """d f, evaluated densely from a (left, inner, right) term table:

        d f(x_1, ..., x_{n+1})
            = sum over (g, s, post) in left of s post(g(x_1, f(x_2, ...)))
            + sum_i (-1)^i sum over g in inner of f(..., g(x_i, x_{i+1}), ...)
            + (-1)^(n+1) sum over (g, s, post) in right of
              s post(g(f(..., x_n), x_{n+1}))

    with s = +1 or -1 and post a linear map or None (the identity).
    """
    left, inner, right = terms
    n = f.arity

    def post(p, m):
        return m if p is None else insert(p, m, 0)

    return msum(
        [post(p, insert(g, f, 1)).scale(s) for g, s, p in left]
        + [insert(f, g, i - 1).scale(_sign(i))
           for i in range(1, n + 1) for g in inner]
        + [post(p, insert(g, f, 0)).scale(s * _sign(n + 1))
           for g, s, p in right])


def _structural_terms(spec, tw):
    """d from the (product, left action, right action) of tw: a twist, or
    any structure (the closed l_1 of `qta.closed_formulas`)."""
    prod, act_l, act_r = spec.induced(tw)
    return ((act_l, 1, None),), (prod,), ((act_r, 1, None),)


def _expanded_terms(q, m, side):
    """d spelled out summand by summand: the terms of
    coboundary_apply_expanded.

    Built from the seven original components and the map alone; the
    twist is never computed.
    """
    if side == "right":
        d = m
        return (
            ((q.rho, 1, None), (insert(q.beta, d, 0), 1, None),
             (q.xi, -1, d)),
            (q.pi, insert(q.eta, d, 0), insert(q.xi, d, 1)),
            ((q.mu, 1, None), (insert(q.beta, d, 1), 1, None),
             (q.eta, -1, d)))
    b = m
    theta_b0 = insert(q.theta, b, 0)
    return (
        ((q.eta, 1, None), (insert(q.pi, b, 0), 1, None), (q.mu, -1, b),
         (theta_b0, -1, b)),
        (q.beta, insert(q.rho, b, 0), insert(q.mu, b, 1),
         insert(theta_b0, b, 1)),
        ((q.xi, 1, None), (insert(q.pi, b, 1), 1, None), (q.rho, -1, b),
         (insert(q.theta, b, 1), -1, b)))


def _nonzeros(g):
    """(a, b, l, v) for every nonzero coefficient v of e_l in g(e_a, e_b)."""
    second, cod = g.slot_sizes[1], g.cod_size
    out = []
    for idx in sorted(g.store):
        row, l = divmod(idx, cod)
        a, b = divmod(row, second)
        out.append((a, b, l, g.store[idx]))
    return out


def _summed(plugs):
    """One binary map: the sum of s post(g) over the plugs (g, s, post)."""
    return msum(g.scale(s) if post is None else insert(post, g, 0).scale(s)
                for g, s, post in plugs)


def _checked_triple(q, m, side):
    """The twisted (product, left action, right action) of a deformation
    map, checked against the expanded form.

    The twist is computed once, and raises NotDeformationMap unless m is
    a deformation map (`checked_twist`).  The expanded term table, summed
    group by group, must give the same three bilinear maps; d_n is linear
    in them, so this one check covers every degree.
    """
    spec = side_spec(side)
    triple = spec.induced(spec.checked_twist(q, m))
    left, inner, right = _expanded_terms(q, m, side)
    if (msum(inner), _summed(left), _summed(right)) != triple:
        raise AssertionError("structural and expanded coboundaries disagree")
    return triple


def _table(product, left, right):
    """The nonzeros `_assemble` reads, cleared to ints, with their common
    denominator and the slot and codomain sizes.

    Every structure constant is an int over the lcm of the denominators
    of all nonzero constants of the triple (1 for integral tables).
    Raises DimensionError unless product is L L -> L, left is L M -> M
    and right is M L -> M for one pair of labels (L, M), on equal dims.
    """
    slot, cod = product.codomain, left.codomain
    if (product.domain != (slot, slot) or left.domain != (slot, cod)
            or right.signature() != ((cod, slot), cod)
            or not product.dims == left.dims == right.dims):
        raise DimensionError(
            "a Hochschild triple needs a product L L -> L, a left action "
            "L M -> M and a right action M L -> M on equal dims")
    nonzeros = (_nonzeros(left), _nonzeros(product), _nonzeros(right))
    den = lcm(*{v.denominator for nz in nonzeros for *_, v in nz})
    table = tuple([(a, b, l, v.numerator * (den // v.denominator))
                   for a, b, l, v in nz] for nz in nonzeros)
    dims = product.dims
    return table, den, _label_size(slot, dims), _label_size(cod, dims)


def _assemble(table, n, d, c):
    """Sparse integer rows of the Hochschild coboundary C^n -> C^(n+1).

    `table` holds the `_nonzeros` of the left action, the product and the
    right action of the triple, cleared to ints by `_table`, which give d
    (times their common denominator) as

        d f(x_1, ..., x_{n+1}) = left(x_1, f(x_2, ...))
            + sum_i (-1)^i f(..., product(x_i, x_{i+1}), ...)
            + (-1)^(n+1) right(f(..., x_n), x_{n+1}).

    The argument d is the dimension of the slot space and c that of the
    codomain, so the matrix is d^(n+1) c x d^n c.  The basis cochain
    sending the S-th slot basis tuple (lexicographic) to the k-th
    codomain vector is column S * c + k, and rows are laid out alike in
    degree n+1.  One pass over (basis tuple, slot, nonzero structure
    constant); degree 0 is the same formula with the empty tuple.
    Returns {row: {column: nonzero int}}, without the entries that
    cancel.
    """
    left, inner, right = table
    rows = defaultdict(dict)
    dn = d ** n
    for a, b, l, v in left:                     # left(e_a, f(S) = e_b)
        for s in range(dn):
            row = rows[(a * dn + s) * c + l]
            j = s * c + b
            row[j] = row.get(j, 0) + v
    sign = _sign(n + 1)
    for a, b, l, v in right:                    # right(f(S) = e_a, e_b)
        val = sign * v
        for s in range(dn):
            row = rows[(s * d + b) * c + l]
            j = s * c + a
            row[j] = row.get(j, 0) + val
    for a, b, p, v in inner:
        for i in range(1, n + 1):
            # column tuple (pre, p, suf) -> row tuple (pre, a, b, suf)
            lo = d ** (n - i)
            val = _sign(i) * v
            for pre in range(d ** (i - 1)):
                for suf in range(lo):
                    col = ((pre * d + p) * lo + suf) * c
                    first = (((pre * d + a) * d + b) * lo + suf) * c
                    for k in range(c):
                        row = rows[first + k]
                        row[col + k] = row.get(col + k, 0) + val
    return {i: kept for i, row in rows.items()
            if (kept := {j: v for j, v in row.items() if v})}


def _matrix(rows, den, n, d, c):
    """The ExactMatrix of d_n: the integer rows of `_assemble` over den."""
    return ExactMatrix(d ** (n + 1) * c, d ** n * c,
                       {i: {j: Fraction(v, den) for j, v in row.items()}
                        for i, row in rows.items()})


def _complex(triple, max_n):
    """(integer rows of d_0 .. d_max_n, den, d, c) of a Hochschild triple.

    Each degree is assembled once, and d_(n+1) d_n = 0 is asserted for
    every consecutive pair, over the integers (the product is den^2
    times the rational one), stopping at the first nonzero row.
    """
    table, den, d, c = _table(*triple)
    stores = [_assemble(table, n, d, c) for n in range(max_n + 1)]
    for n in range(max_n):
        if any(any(row.values())
               for _, row in _row_products(stores[n + 1], stores[n])):
            raise AssertionError(f"d o d != 0 between degrees {n} and {n+2}")
    return stores, den, d, c


def _check_degree(n):
    if not isinstance(n, int) or isinstance(n, bool):
        raise DegreeError(f"degree must be an int, not {type(n).__name__}")
    if n < 0:
        raise DegreeError("max degree must be >= 0")
    if n > MAX_DEGREE_CAP:
        raise DegreeError(f"max degree capped at {MAX_DEGREE_CAP}")


def hochschild_complex(product, left, right, max_n=3):
    """d_0 .. d_max_n of the Hochschild complex of an algebra with
    coefficients in a bimodule.

    C^0 = M and C^n = Hom((x)^n L, M), where `product` is L L -> L and
    `left`, `right` are the actions L M -> M, M L -> M (see `_assemble`);
    raises DimensionError for any other signatures or unequal dims.
    d_(n+1) d_n is asserted zero for every consecutive pair, so the
    product must be associative and the actions a bimodule.  max_n is
    an int, hard-capped at 5.
    """
    _check_degree(max_n)
    stores, den, d, c = _complex((product, left, right), max_n)
    return [_matrix(rows, den, n, d, c) for n, rows in enumerate(stores)]


def coboundary_matrix(q, m, side, n):
    """Matrix of d: C^n -> C^(n+1) in the lexicographic cochain basis.

    The d_n of `cochain_complex`, from the same checked triple.  Requires
    the map to be a deformation map; n is an int, hard-capped at 5.
    """
    _check_degree(n)
    table, den, d, c = _table(*_checked_triple(q, m, side))
    return _matrix(_assemble(table, n, d, c), den, n, d, c)


def cochain_complex(q, m, side, max_n=3):
    """d_0 .. d_max_n of a deformation map: the Hochschild complex of its
    twisted (product, left action, right action), once that triple is
    checked against the expanded form.  max_n is an int, hard-capped at
    5.
    """
    _check_degree(max_n)
    return hochschild_complex(*_checked_triple(q, m, side), max_n)


def cohomology_dims(q, m, side, max_n=3):
    """Dimensions of H^0 .. H^max_n for a deformation map.

    dim H^n = dim ker(d_n) - rank(d_{n-1}), on the complex of
    `cochain_complex` with the same checks; the ranks come from the
    fraction-free elimination of its integer rows, and no Fraction
    matrix is built.  max_n is an int, defaults to 3 and is hard-capped
    at 5 (the matrix at degree n has dim^n * dim' columns).
    """
    _check_degree(max_n)
    stores, _, d, c = _complex(_checked_triple(q, m, side), max_n)
    dims = [0] * (max_n + 1)    # sized once: callers may keep many tables
    prev_rank = 0
    for n, rows in enumerate(stores):
        rank = len(_echelon(rows.values()))
        dims[n] = d ** n * c - rank - prev_rank
        prev_rank = rank
    return dims


def l1_vs_d(q, m, side, f):
    """Whether the twisted l_1 equals (-1)^(m-1) d on a cochain of arity m.

    This is a theorem for deformation maps, so the return value is always
    True; the function is a verification harness.
    """
    spec = side_spec(side)
    terms = _structural_terms(spec, spec.checked_twist(q, m))
    s = controlling_structure(q, side).twist(m)
    lhs = s.bracket(1, [f])
    _check_cochain(q, side, f)
    rhs = _evaluate(terms, f).scale(_sign(f.arity - 1))
    return lhs == rhs
