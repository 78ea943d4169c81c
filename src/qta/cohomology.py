"""Cochain complexes of deformation maps and their cohomology dimensions.

Right side of a deformation map D: C^0 = A', C^n = Hom((x)^n A, A'), with

    d f(x_1,...,x_{n+1}) = rho^D(x_1) f(x_2,...)
        + sum_i (-1)^i f(..., pi^D(x_i, x_{i+1}), ...)
        + (-1)^(n+1) mu^D(x_{n+1}) f(...,x_n)

built from the twisted components; the left side mirrors this with
(beta^B; eta^B, xi^B) on C^n = Hom((x)^n A', A), C^0 = A.  Each operator
is implemented twice: `coboundary_apply` uses the twisted components,
`coboundary_apply_expanded` spells the same sum out through the original
components and the deformation map; matrix assembly asserts they agree.

Basis order of C^n: lexicographic over domain basis tuples, crossed with
the codomain index (the flat coefficient layout of MultilinearMap), so
matrices are reproducible bit for bit.
"""

from __future__ import annotations

from .deformation import side_spec
from .errors import DegreeError
from .linalg import ExactMatrix, row_reduce
from .multilinear import MultilinearMap, _label_size, _sign, insert
from .linfty import controlling_structure

MAX_DEGREE_CAP = 5


def cochain_space(q, side, n):
    """(domain labels, codomain label) of C^n; C^0 is the codomain space."""
    return side_spec(side).signature(n)


def cochain_dim(q, side, n):
    spec = side_spec(side)
    return _label_size(spec.slot, q.dims) ** n * _label_size(spec.cod, q.dims)


def coboundary_apply(q, m, side, f):
    """d f via the twisted components, for f in C^n, n >= 1."""
    prod, act_l, act_r = side_spec(side).twisted_triple(q, m)
    n = f.arity
    if f.signature() != cochain_space(q, side, n) or f.dims != q.dims:
        raise DegreeError(f"not a {side}-side {n}-cochain")
    out = insert(act_l, f, 1)
    for i in range(1, n + 1):
        out = out + insert(f, prod, i - 1).scale(_sign(i))
    out = out + insert(act_r, f, 0).scale(_sign(n + 1))
    return out


def coboundary_apply_degree0(q, m, side, k):
    """d of the k-th basis vector of C^0, as a 1-cochain.

    (d a)(x) = act_l(x, a) - act_r(a, x).
    """
    prod, act_l, act_r = side_spec(side).twisted_triple(q, m)
    dom, cod = cochain_space(q, side, 1)

    def fn(t):
        left, right = act_l.value((t[0], k)), act_r.value((k, t[0]))
        return [a - b for a, b in zip(left, right)]

    return MultilinearMap.from_function(dom, cod, q.dims, fn)


def coboundary_apply_expanded(q, m, side, f):
    """d f spelled out through the original components and the map.

    Must agree with coboundary_apply; matrix assembly asserts it does.
    """
    n = f.arity
    if f.signature() != cochain_space(q, side, n) or f.dims != q.dims:
        raise DegreeError(f"not a {side}-side {n}-cochain")
    if side == "right":
        d = m
        # action from the left: rho(x1, f(...)) + beta(D x1, f(...)) - D(xi(x1, f(...)))
        out = (insert(q.rho, f, 1)
               + insert(insert(q.beta, d, 0), f, 1)
               - insert(d, insert(q.xi, f, 1), 0))
        for i in range(1, n + 1):
            mid = (insert(f, q.pi, i - 1)
                   + insert(f, insert(q.eta, d, 0), i - 1)
                   + insert(f, insert(q.xi, d, 1), i - 1))
            out = out + mid.scale(_sign(i))
        tail = (insert(q.mu, f, 0)
                + insert(insert(q.beta, d, 1), f, 0)
                - insert(d, insert(q.eta, f, 0), 0))
        return out + tail.scale(_sign(n + 1))
    b = m
    # action from the left: eta(u1, f(...)) + pi(B u1, f(...))
    #   - B(mu(u1, f(...))) - B(theta(B u1, f(...)))
    out = (insert(q.eta, f, 1)
           + insert(insert(q.pi, b, 0), f, 1)
           - insert(b, insert(q.mu, f, 1), 0)
           - insert(b, insert(insert(q.theta, b, 0), f, 1), 0))
    for i in range(1, n + 1):
        mid = (insert(f, q.beta, i - 1)
               + insert(f, insert(q.rho, b, 0), i - 1)
               + insert(f, insert(q.mu, b, 1), i - 1)
               + insert(f, insert(insert(q.theta, b, 0), b, 1), i - 1))
        out = out + mid.scale(_sign(i))
    tail = (insert(q.xi, f, 0)
            + insert(insert(q.pi, b, 1), f, 0)
            - insert(b, insert(q.rho, f, 0), 0)
            - insert(b, insert(insert(q.theta, b, 1), f, 0), 0))
    return out + tail.scale(_sign(n + 1))


def coboundary_matrix(q, m, side, n, _checked=False):
    """Matrix of d: C^n -> C^(n+1) in the lexicographic cochain basis.

    Columns are indexed by basis cochains of C^n; the structural and
    expanded forms of the operator are computed for every column and
    asserted equal.  Requires the map to be a deformation map.
    """
    if not _checked:
        side_spec(side).require_deformation(q, m)
    if n < 0:
        raise DegreeError("cochain degree must be >= 0")
    rows = cochain_dim(q, side, n + 1)
    cols = cochain_dim(q, side, n)
    columns = []
    if n == 0:
        for k in range(cols):
            img = coboundary_apply_degree0(q, m, side, k)
            columns.append(img.coeffs)
    else:
        dom, cod = cochain_space(q, side, n)
        for j in range(cols):
            f = MultilinearMap.unit(dom, cod, q.dims, j)
            img = coboundary_apply(q, m, side, f)
            expanded = coboundary_apply_expanded(q, m, side, f)
            if img != expanded:
                raise AssertionError(
                    "structural and expanded coboundaries disagree")
            columns.append(img.coeffs)
    entries = [col[i] for i in range(rows) for col in columns]
    return ExactMatrix(rows, cols, entries)


def cohomology_dims(q, m, side, max_n=3):
    """Dimensions of H^0 .. H^max_n for a deformation map.

    dim H^n = dim ker(d_n) - rank(d_{n-1}); d o d = 0 is asserted for all
    computed degrees.  max_n defaults to 3 and is hard-capped at 5 (the
    matrix at degree n has dim^n * dim' columns).
    """
    if max_n < 0:
        raise DegreeError("max degree must be >= 0")
    if max_n > MAX_DEGREE_CAP:
        raise DegreeError(f"max degree capped at {MAX_DEGREE_CAP}")
    side_spec(side).require_deformation(q, m)
    mats = [coboundary_matrix(q, m, side, n, _checked=True)
            for n in range(max_n + 1)]
    for n in range(max_n):
        if not mats[n + 1].matmul(mats[n]).is_zero():
            raise AssertionError(f"d o d != 0 between degrees {n} and {n+2}")
    dims = []
    prev_rank = 0
    for n in range(max_n + 1):
        red = row_reduce(mats[n])
        ker_dim = mats[n].ncols - red.rank
        dims.append(ker_dim - prev_rank)
        prev_rank = red.rank
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
