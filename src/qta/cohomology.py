"""Cochain complexes of deformation maps and their cohomology dimensions.

Right side of a deformation map D: C^0 = A', C^n = Hom((x)^n A, A'), with

    d f(x_1,...,x_{n+1}) = rho^D(x_1) f(x_2,...)
        + sum_i (-1)^i f(..., pi^D(x_i, x_{i+1}), ...)
        + (-1)^(n+1) mu^D(x_{n+1}) f(...,x_n)

built from the twisted components; the left side mirrors this with
(beta^B; eta^B, xi^B) on C^n = Hom((x)^n A', A), C^0 = A.

The matrices d_n are assembled sparsely: the twist is computed once, and
each entry comes from one nonzero structure constant plugged in as a left
action, an inner product or a right action.  Two checks stay on for
every degree computed: each d_n is assembled a second time from the
expanded sum (the original components and the map, never the twist) and
asserted equal entry for entry, and d_(n+1) d_n = 0 is asserted as a
sparse product.  Ranks come from sparse exact elimination.  The dense
`coboundary_apply` (twisted components) and `coboundary_apply_expanded`
(the same sum spelled out) apply d to one cochain; they are the slow
oracles the sparse assembly is tested against.  Each form of d is written
once, as a (left, inner, right) table of plugged binary maps that both
the sparse assembly and the dense evaluator read.  Degrees are capped at
MAX_DEGREE_CAP, for one matrix as for a complex.

Basis order of C^n: lexicographic over domain basis tuples, crossed with
the codomain index (the flat coefficient layout of MultilinearMap), so
matrices are reproducible bit for bit.
"""

from __future__ import annotations

from .deformation import side_spec
from .errors import DegreeError
from .linalg import ZERO, SparseMatrix
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
    terms = _structural_terms(q, m, side)
    _check_cochain(q, side, f)
    return _evaluate(terms, f)


def coboundary_apply_expanded(q, m, side, f):
    """d f spelled out through the original components and the map.

    Must agree with coboundary_apply.  Both evaluate a term table with
    `_evaluate`, and the sparse assembly reads the same tables.
    """
    _check_cochain(q, side, f)
    return _evaluate(_expanded_terms(q, m, side), f)


def _evaluate(terms, f):
    """d f, evaluated densely from the (left, inner, right) terms of
    `_assemble`."""
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


def _structural_terms(q, m, side):
    """d from the twisted (product, left action, right action)."""
    prod, act_l, act_r = side_spec(side).twisted_triple(q, m)
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
    for idx, v in enumerate(g.coeffs):
        if v:
            row, l = divmod(idx, cod)
            a, b = divmod(row, second)
            out.append((a, b, l, v))
    return out


def _images(post, c):
    """For each basis vector e_l: the (l', w) with post(e_l) = sum w e_l'."""
    if post is None:
        return [[(l, 1)] for l in range(c)]
    return [[(l2, w) for l2, w in enumerate(post.value((l,))) if w]
            for l in range(post.slot_sizes[0])]


def _assemble(terms, n, d, c):
    """Sparse matrix of the coboundary C^n -> C^(n+1) given by `terms`.

    `terms` = (left, inner, right) writes d as binary maps plugged around
    a cochain f:

        d f(x_1, ..., x_{n+1})
            = sum over (g, s, post) in left of s post(g(x_1, f(x_2, ...)))
            + sum_i (-1)^i sum over g in inner of f(..., g(x_i, x_{i+1}), ...)
            + (-1)^(n+1) sum over (g, s, post) in right of
              s post(g(f(..., x_n), x_{n+1}))

    with s = +1 or -1 and post a linear map or None (the identity).

    The argument d is the dimension of the slot space and c that of the
    codomain.  The basis cochain sending the S-th slot basis tuple
    (lexicographic) to the k-th codomain vector is column S * c + k, and
    rows are laid out alike in degree n+1.  One pass over (basis tuple,
    slot, nonzero structure constant); degree 0 is the same formula with
    the empty tuple.
    """
    left, inner, right = terms
    rows = {}

    def add(i, j, v):
        row = rows.get(i)
        if row is None:
            rows[i] = {j: v}
        else:
            row[j] = row.get(j, ZERO) + v

    dn = d ** n
    for plugs, sign, on_left in ((left, 1, True),
                                 (right, _sign(n + 1), False)):
        for g, coef, post in plugs:
            images = _images(post, c)
            for a, b, l, v in _nonzeros(g):
                for l2, w in images[l]:
                    val = sign * coef * v * w
                    if on_left:                 # g(e_a, f(S) = e_b)
                        for s in range(dn):
                            add((a * dn + s) * c + l2, s * c + b, val)
                    else:                       # g(f(S) = e_a, e_b)
                        for s in range(dn):
                            add((s * d + b) * c + l2, s * c + a, val)
    for g in inner:
        for a, b, p, v in _nonzeros(g):
            for i in range(1, n + 1):
                # column tuple (pre, p, suf) -> row tuple (pre, a, b, suf)
                lo = d ** (n - i)
                val = _sign(i) * v
                for pre in range(d ** (i - 1)):
                    for suf in range(lo):
                        col = ((pre * d + p) * lo + suf) * c
                        row = (((pre * d + a) * d + b) * lo + suf) * c
                        for k in range(c):
                            add(row + k, col + k, val)
    return SparseMatrix(dn * d * c, dn * c, rows)


def _coboundaries(q, m, side, degrees):
    """Sparse d_n for each n in `degrees`, checked against the expanded form.

    The twisted triple is computed once.  Each d_n is assembled from it
    and, independently, from the expanded terms; the two must be equal
    entry for entry.
    """
    spec = side_spec(side)
    d, c = _label_size(spec.slot, q.dims), _label_size(spec.cod, q.dims)
    structural = _structural_terms(q, m, side)
    expanded = _expanded_terms(q, m, side)
    mats = []
    for n in degrees:
        mat = _assemble(structural, n, d, c)
        if mat != _assemble(expanded, n, d, c):
            raise AssertionError(
                "structural and expanded coboundaries disagree")
        mats.append(mat)
    return mats


def coboundary_matrix(q, m, side, n):
    """Matrix of d: C^n -> C^(n+1) in the lexicographic cochain basis.

    The dense export of the sparse matrix, asserted equal to its expanded
    form.  Requires the map to be a deformation map; n is hard-capped at 5,
    like the degrees of `cochain_complex`.
    """
    side_spec(side).require_deformation(q, m)
    if n < 0:
        raise DegreeError("cochain degree must be >= 0")
    if n > MAX_DEGREE_CAP:
        raise DegreeError(f"cochain degree capped at {MAX_DEGREE_CAP}")
    return _coboundaries(q, m, side, [n])[0].to_dense()


def cochain_complex(q, m, side, max_n=3):
    """Sparse d_0 .. d_max_n of a deformation map.

    Every d_n is asserted equal to its expanded form, and d_(n+1) d_n to
    be zero for every consecutive pair.  max_n is hard-capped at 5.
    """
    if max_n < 0:
        raise DegreeError("max degree must be >= 0")
    if max_n > MAX_DEGREE_CAP:
        raise DegreeError(f"max degree capped at {MAX_DEGREE_CAP}")
    side_spec(side).require_deformation(q, m)
    mats = _coboundaries(q, m, side, range(max_n + 1))
    for n in range(max_n):
        if not mats[n + 1].matmul(mats[n]).is_zero():
            raise AssertionError(f"d o d != 0 between degrees {n} and {n+2}")
    return mats


def cohomology_dims(q, m, side, max_n=3):
    """Dimensions of H^0 .. H^max_n for a deformation map.

    dim H^n = dim ker(d_n) - rank(d_{n-1}), with the ranks taken by sparse
    exact elimination on the checked complex of `cochain_complex`.
    max_n defaults to 3 and is hard-capped at 5 (the matrix at degree n
    has dim^n * dim' columns).
    """
    dims = []
    prev_rank = 0
    for mat in cochain_complex(q, m, side, max_n):
        rank = mat.rank()
        dims.append(mat.ncols - rank - prev_rank)
        prev_rank = rank
    return dims


def l1_vs_d(q, m, side, f):
    """Whether the twisted l_1 equals (-1)^(m-1) d on a cochain of arity m.

    This is a theorem for deformation maps, so the return value is always
    True; the function is a verification harness.
    """
    side_spec(side).require_deformation(q, m)
    s = controlling_structure(q, side).twist(m)
    lhs = s.bracket(1, [f])
    rhs = coboundary_apply(q, m, side, f).scale(_sign(f.arity - 1))
    return lhs == rhs
