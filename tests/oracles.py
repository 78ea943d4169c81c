"""Second derivations that production no longer evaluates, kept as
reference oracles for the tests.

`right_residual`, `left_residual`, `twist_right` and `twist_left` spell
out the twist by a deformation map component by component, one formula
per side and kind of result; `structure_residuals` evaluates the sixteen
displayed block equations of associativity literally, on lifted
components with the circle-product calculus.  The library derives all of
these from one rule each (`qta.deformation.twist_blocks` and the blocks of
`qta.quasitwilled.validate`); the tests assert that both agree exactly.
`derived_bracket` is the full derived bracket P([...[[delta, x_1], ...],
x_k]) on the whole element at every order; the library returns the
zero cochain above the highest order that a nonzero block of the
element feeds, without a bracket.
`jacobi_residual` is the generalized Jacobi sum with every term kept,
each bracket a full `derived_bracket`, which lifts every argument again
for each bracket it enters; the library lifts each argument and each
inner bracket once, and skips the terms above the top.  `exp_series` is
e^(ad x) of a structure's element as the series sum_n ad_x^n delta / n!
of brackets on the total space, and `mc_residual` its projection; the
library reads both off the one blockwise twist of the total product.

`lifted_total_product` and `lifted_reassemble` build a binary element
on A + A' as the sum (`msum`) of one `lift` per block: Delta from the
nonzero components (one zero lift if all are zero) and the twisted
product from all eight blocks; the library writes the same store, entry
for entry and in the same order, in one `lift_blocks` pass.

`graph_residual` tests the graph {(x, Dx)} against the total product,
and `classify_operator` names a map from its residual; the library has
only `operator_name`, which the CLI calls on the residual it has.
`coboundary_apply_expanded` applies d to one cochain through the
original components and the map (`expanded_terms`, one term table per
side, evaluated by `evaluate_terms`), where the library assembles d
sparsely from the twisted triple.
`cochain_space`, `circle_parts`, `matrix_from_linear_map`,
`basis_cochain` and `suspended_bracket` are small derived helpers that
production never needed.

The ingredient checks (`check_representation`,
`check_associative_representation`, `check_matched_pair`,
`cocycle_residual`, with `require` and `require_assoc` raising the
builders' IngredientError texts) evaluate each classical identity on its
own ingredients; `build_standard` reads the same verdicts off rows of the
one bracket.  `l1_vs_d` and `duality_check` return True by theorem;
`l1_vs_d` checks the library's l_1, the coboundary of the twisted
triple, against the full bracket and the sparse matrix of d.
"""

from fractions import Fraction

from qta.algebras import (
    AssociativeAlgebra, RepresentationPair, check_associative,
)
from qta.cohomology import _check_cochain, coboundary_matrix
from qta import deformation
from qta.deformation import (
    BLOCKS, TwistResult, _check_side_map, operator_name, side_spec,
)
from qta.errors import (
    ArityError, DegreeError, DimensionError, IngredientError, UnknownKind,
)
from qta.linalg import ExactMatrix, invert
from qta.linfty import controlling_structure
from qta.multilinear import (
    A, APRIME, TOTAL, MultilinearMap, _label_size, _sign, circle,
    gerstenhaber, insert, koszul_sign, lift, linear_map_from_matrix, msum,
    project, unshuffles,
)
from qta.quasitwilled import StructureResidual, total_product


def right_residual(q, d):
    """rho(x,Dy) + mu(Dx,y) + beta(Dx,Dy) + theta(x,y)
       - D(pi(x,y) + xi(x,Dy) + eta(Dx,y)); zero iff D is a right
       deformation map."""
    _check_side_map(q, d, "right")
    return (insert(q.rho, d, 1) + insert(q.mu, d, 0)
            + insert(insert(q.beta, d, 0), d, 1) + q.theta
            - insert(d, q.pi, 0)
            - insert(d, insert(q.xi, d, 1), 0)
            - insert(d, insert(q.eta, d, 0), 0))


def left_residual(q, b):
    """pi(Bu,Bv) + xi(Bu,v) + eta(u,Bv)
       - B(beta(u,v) + rho(Bu,v) + mu(u,Bv) + theta(Bu,Bv)); zero iff B
       is a left deformation map."""
    _check_side_map(q, b, "left")
    return (insert(insert(q.pi, b, 0), b, 1)
            + insert(q.xi, b, 0) + insert(q.eta, b, 1)
            - insert(b, q.beta, 0)
            - insert(b, insert(q.rho, b, 0), 0)
            - insert(b, insert(q.mu, b, 1), 0)
            - insert(b, insert(insert(q.theta, b, 0), b, 1), 0))


def twist_right(q, d):
    """Closed component formulas for the twist by D: A -> A'.

    xi, eta, beta are unchanged; the new theta equals right_residual(q, D),
    so D is a right deformation map iff the twisted theta vanishes.
    """
    _check_side_map(q, d, "right")
    pi_d = q.pi + insert(q.eta, d, 0) + insert(q.xi, d, 1)
    rho_d = q.rho + insert(q.beta, d, 0) - insert(d, q.xi, 0)
    mu_d = q.mu + insert(q.beta, d, 1) - insert(d, q.eta, 0)
    theta_d = right_residual(q, d)
    gamma = MultilinearMap.zero((APRIME, APRIME), A, q.dims)
    return TwistResult("right", pi_d, q.xi, q.eta, q.beta,
                       rho_d, mu_d, theta_d, gamma)


def twist_left(q, b):
    """Closed component formulas for the twist by B: A' -> A.

    theta is unchanged; the new A'A' -> A block gamma equals
    left_residual(q, B).
    """
    _check_side_map(q, b, "left")
    pi_b = q.pi - insert(b, q.theta, 0)
    xi_b = (q.xi + insert(q.pi, b, 1) - insert(b, q.rho, 0)
            - insert(b, insert(q.theta, b, 1), 0))
    eta_b = (q.eta + insert(q.pi, b, 0) - insert(b, q.mu, 0)
             - insert(b, insert(q.theta, b, 0), 0))
    beta_b = (q.beta + insert(q.rho, b, 0) + insert(q.mu, b, 1)
              + insert(insert(q.theta, b, 0), b, 1))
    rho_b = q.rho + insert(q.theta, b, 1)
    mu_b = q.mu + insert(q.theta, b, 0)
    gamma = left_residual(q, b)
    return TwistResult("left", pi_b, xi_b, eta_b, beta_b,
                       rho_b, mu_b, q.theta, gamma)


def lifted_total_product(q):
    """Delta of q as the sum of the lifts of its nonzero components, or
    one zero lift if all are zero."""
    comps = q.components().values()
    return msum([lift(m) for m in comps if not m.is_zero()] or [lift(q.pi)])


def lifted_reassemble(tw):
    """The twisted total product of a `TwistResult` as the sum of the
    lifts of its eight blocks, gamma included."""
    return msum([lift(getattr(tw, name)) for name in BLOCKS])


def graph_residual(q, d):
    """Failure of the graph of D to be closed under the total product.

    Evaluates the total product on pairs of graph vectors (x, Dx) and
    returns (A'-part) - D(A-part); zero iff right_residual(q, d) is zero.
    """
    _check_side_map(q, d, "right")
    da, dap = q.dims

    def graph(t):       # the graph embedding x |-> (x, Dx)
        x = t[0]
        col = [0] * (da + dap)
        col[x] = 1
        col[da:] = d.value((x,))
        return col

    j = MultilinearMap.from_function((A,), TOTAL, q.dims, graph)
    on_graph = insert(insert(total_product(q), j, 0), j, 1)
    apart = project(on_graph, (A, A), A)
    appart = project(on_graph, (A, A), APRIME)
    return appart - insert(d, apart, 0)


def classify_operator(q, m, side):
    """The operator name of a map: `qta.deformation.operator_name` of its
    residual.  A hand-built structure (no provenance) raises UnknownKind
    before the residual is computed."""
    if q.kind is None:
        raise UnknownKind("structure was not produced by build_standard")
    return operator_name(q, side, side_spec(side).residual(q, m))


def structure_residuals(q):
    """The sixteen block equations equivalent to associativity.

    Each entry evaluates one displayed left-hand side literally (lifted
    components, circle-product calculus) and restricts it to its block.
    The last entry is the A'A'A' -> A block, which carries no component
    equation and vanishes structurally.
    """
    pi, xi, eta = lift(q.pi), lift(q.xi), lift(q.eta)
    beta, rho, mu, theta = lift(q.beta), lift(q.rho), lift(q.mu), lift(q.theta)

    def p1(f, g):       # (f o g)_1(x1,x2,x3) = f(g(x1,x2),x3)
        return insert(f, g, 0)

    def p2(f, g):       # (f o g)_2(x1,x2,x3) = f(x1,g(x2,x3))
        return insert(f, g, 1)

    half = circle  # (1/2)[f,f] = f o f for binary f

    rows = [
        ("1/2[pi,pi] - (xi o theta)_2 + (eta o theta)_1",
         ((A, A, A), A),
         half(pi, pi) - p2(xi, theta) + p1(eta, theta)),
        ("(rho o pi)_1 + 1/2[rho,rho] - (theta o xi)_2 + (beta o theta)_1",
         ((A, A, APRIME), APRIME),
         p1(rho, pi) + half(rho, rho) - p2(theta, xi) + p1(beta, theta)),
        ("-(mu o pi)_2 + 1/2[mu,mu] + (theta o eta)_1 - (beta o theta)_2",
         ((APRIME, A, A), APRIME),
         -p2(mu, pi) + half(mu, mu) + p1(theta, eta) - p2(beta, theta)),
        ("(pi o xi)_1 - (pi o eta)_2 + (eta o rho)_1 - (xi o mu)_2",
         ((A, APRIME, A), A),
         p1(pi, xi) - p2(pi, eta) + p1(eta, rho) - p2(xi, mu)),
        ("-(pi o xi)_2 + (xi o pi)_1 - (xi o rho)_2",
         ((A, A, APRIME), A),
         -p2(pi, xi) + p1(xi, pi) - p2(xi, rho)),
        ("(pi o eta)_1 - (eta o pi)_2 + (eta o mu)_1",
         ((APRIME, A, A), A),
         p1(pi, eta) - p2(eta, pi) + p1(eta, mu)),
        ("theta o pi - (rho o theta)_2 + (mu o theta)_1",
         ((A, A, A), APRIME),
         circle(theta, pi) - p2(rho, theta) + p1(mu, theta)),
        ("[rho,mu] + (theta o xi)_1 - (theta o eta)_2",
         ((A, APRIME, A), APRIME),
         gerstenhaber(rho, mu) + p1(theta, xi) - p2(theta, eta)),
        ("(rho o xi)_1 + (beta o rho)_1 - (rho o beta)_2",
         ((A, APRIME, APRIME), APRIME),
         p1(rho, xi) + p1(beta, rho) - p2(rho, beta)),
        ("(rho o eta)_1 - (beta o rho)_2 - (mu o xi)_2 + (beta o mu)_1",
         ((APRIME, A, APRIME), APRIME),
         p1(rho, eta) - p2(beta, rho) - p2(mu, xi) + p1(beta, mu)),
        ("-(mu o eta)_2 + (mu o beta)_1 - (beta o mu)_2",
         ((APRIME, APRIME, A), APRIME),
         -p2(mu, eta) + p1(mu, beta) - p2(beta, mu)),
        ("1/2[xi,xi] - (xi o beta)_2",
         ((A, APRIME, APRIME), A),
         half(xi, xi) - p2(xi, beta)),
        ("[xi,eta]",
         ((APRIME, A, APRIME), A),
         gerstenhaber(xi, eta)),
        ("1/2[eta,eta] + (eta o beta)_1",
         ((APRIME, APRIME, A), A),
         half(eta, eta) + p1(eta, beta)),
        ("[beta,beta]",
         ((APRIME, APRIME, APRIME), APRIME),
         gerstenhaber(beta, beta)),
        ("A'A'A' -> A block (zero: A' is a subalgebra)",
         ((APRIME, APRIME, APRIME), A),
         None),
    ]
    out = []
    for name, block, total_map in rows:
        dom, cod = block
        if total_map is None:
            res = MultilinearMap.zero(dom, cod, q.dims)
        else:
            res = project(total_map, dom, cod)
        out.append(StructureResidual(name, block, res))
    return out


# -- the coboundary spelled out, and small derived helpers --------------------


def cochain_space(q, side, n):
    """(domain labels, codomain label) of C^n; C^0 is the codomain space."""
    return side_spec(side).signature(n)


def coboundary_apply_expanded(q, m, side, f):
    """d f spelled out through the original components and the map, for f
    in C^n, n >= 1: the term table of `expanded_terms`, evaluated densely
    by `evaluate_terms`.  Must agree with
    `qta.cohomology.coboundary_apply`, which twists first."""
    _check_cochain(q, side, f)
    return evaluate_terms(expanded_terms(q, m, side), f)


def evaluate_terms(terms, f):
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


def expanded_terms(q, m, side):
    """d spelled out summand by summand, as a (left, inner, right) table
    of `evaluate_terms`, from the seven original components and the map
    alone; the twist is never computed."""
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


def circle_parts(f, g):
    """The split f o g = (f o g)_1 - (f o g)_2 for binary maps.

    Returns ((f o g)_1, (f o g)_2) with
    (f o g)_1(x1,x2,x3) = f(g(x1,x2),x3) and
    (f o g)_2(x1,x2,x3) = f(x1,g(x2,x3)).
    """
    if f.arity != 2 or g.arity != 2:
        raise ArityError("circle_parts needs two binary maps")
    return insert(f, g, 0), insert(f, g, 1)


def matrix_from_linear_map(f):
    """Inverse of `qta.linear_map_from_matrix`: the rows of an arity-1 map,
    column j the image of basis vector j."""
    if f.arity != 1:
        raise ArityError("expected an arity-1 map")
    dom = f.slot_sizes[0]
    cod = f.cod_size
    return [[f.entry((j,), k) for j in range(dom)] for k in range(cod)]


def basis_cochain(v, arity, row, k):
    """The block cochain of the V-data v sending the row-th domain basis
    tuple to the k-th basis vector."""
    dom, cod = v.f_signature(arity)
    index = row * _label_size(cod, v.dims) + k
    return MultilinearMap.unit(dom, cod, v.dims, index)


def suspended_bracket(s, f, g):
    """(-1)^(m-1) l_2(f, g) of the structure s, for f of arity m: the graded
    Lie bracket on the degree-shifted cochain space."""
    sign = 1 if f.arity % 2 else -1
    return s.bracket(2, [f, g]).scale(sign)


def derived_bracket(v, args, delta=None):
    """P([...[[delta, x_1], x_2],...,x_k]) of the V-data v, with delta its
    Delta unless given: the full derived bracket, every order bracketed
    on the whole element.  The library returns the structural zero above
    the top order of the element's own blocks instead."""
    delta = v.delta if delta is None else delta
    for x in args:
        v.check_arg(x)
    for x in args:
        delta = gerstenhaber(delta, lift(x))
    return v.project(delta)


def jacobi_residual(s, n, args):
    """sum_{i=0}^{n} sum_{(i,n-i)-unshuffles sigma} eps(sigma)
        l_{n-i+1}(l_i(x_{sigma(1)},...,x_{sigma(i)}), x_{sigma(i+1)},...)
    of the (curved) L-infinity structure s, every term kept and each
    bracket a full `derived_bracket` of s's element."""
    args = list(args)
    if len(args) != n:
        raise DegreeError(f"need {n} arguments")
    v = s.vdata
    for x in args:
        v.check_arg(x)
    degrees = [x.degree for x in args]
    total = None
    for i in range(0, n + 1):
        for sigma in unshuffles(i, n):
            eps = koszul_sign(sigma, degrees)
            inner = derived_bracket(v, [args[j] for j in sigma[:i]], s.delta)
            outer = derived_bracket(
                v, [inner] + [args[j] for j in sigma[i:]], s.delta)
            term = outer.scale(eps)
            total = term if total is None else total + term
    return total


def exp_series(s, x):
    """e^(ad x) delta = sum_n ad_x^n delta / n! for the element delta of
    the structure s and a degree-0 cochain x (ad x = [-, lift(x)]); lift(x)
    squares to zero, so ad_x^n delta = 0 for n > arity + 1."""
    s.vdata.check_arg(x)
    if x.arity != 1:
        raise DegreeError("Maurer-Cartan candidates have degree 0")
    xhat = lift(x)
    term = total = s.delta
    for n in range(1, term.arity + 3):
        term = gerstenhaber(term, xhat).scale(Fraction(1, n))
        if term.is_zero():
            return total
        total = total + term
    raise AssertionError("ad_x^n delta nonzero for n > arity + 1")


def mc_residual(s, x):
    """P(e^(ad x) delta): the Maurer-Cartan residual of x in s, by the
    series."""
    return s.vdata.project(exp_series(s, x))


# -- the ingredient identities, one check per ingredient ----------------------


class ResidualReport:
    """Named residual maps; zero iff the checked identities hold."""

    def __init__(self, named_residuals):
        self.residuals = list(named_residuals)

    @property
    def is_zero(self):
        return all(m.is_zero() for _, m in self.residuals)

    def nonzero_names(self):
        return [name for name, m in self.residuals if not m.is_zero()]

    def __iter__(self):
        return iter(self.residuals)

    def __repr__(self):
        bad = self.nonzero_names()
        return "ResidualReport(zero)" if not bad else f"ResidualReport(nonzero={bad})"


def check_representation(rep):
    """Residuals of the three representation identities.

    rho(x.y) = rho(x)rho(y),  mu(x.y) = mu(y)mu(x),  rho(x)mu(y) = mu(y)rho(x).
    """
    pi = rep.algebra.product.with_dims(rep.rho.dims)
    rho, mu = rep.rho, rep.mu
    r_left = insert(rho, pi, 0) - insert(rho, rho, 1)
    r_right = insert(mu, pi, 1) - insert(mu, mu, 0)
    r_mixed = insert(rho, mu, 1) - insert(mu, rho, 0)
    return ResidualReport([
        ("rho(x.y) - rho(x)rho(y)", r_left),
        ("mu(x.y) - mu(y)mu(x)", r_right),
        ("rho(x)mu(y) - mu(y)rho(x)", r_mixed),
    ])


def check_associative_representation(ar):
    """Representation residuals plus the three product compatibilities.

    rho(x)(u.v) = (rho(x)u).v,  u.(rho(x)v) = (mu(x)u).v,
    u.(mu(x)v) = mu(x)(u.v).
    """
    base = check_representation(ar)
    rho, mu, star = ar.rho, ar.mu, ar.prime_product
    # domains: c1 (alg, sp, sp); c2 (sp, alg, sp); c3 (sp, sp, alg)
    c1 = insert(rho, star, 1) - insert(star, rho, 0)
    c2 = insert(star, rho, 1) - insert(star, mu, 0)
    c3 = insert(star, mu, 1) - insert(mu, star, 0)
    return ResidualReport(list(base) + [
        ("rho(x)(u.v) - (rho(x)u).v", c1),
        ("u.(rho(x)v) - (mu(x)u).v", c2),
        ("u.(mu(x)v) - mu(x)(u.v)", c3),
    ])


def representation_on_prime(mp):
    """The representation (rho, mu) of A on A' of a `MatchedPairData`."""
    return RepresentationPair(
        AssociativeAlgebra(mp.alg_a.product.with_dims(mp.dims),
                           mp.alg_a.basis_names),
        mp.rho, mp.mu)


def representation_on_a(mp):
    """The representation (eta, xi) of A' on A of a `MatchedPairData`."""
    return RepresentationPair(
        AssociativeAlgebra(mp.alg_prime.product.with_dims(mp.dims),
                           mp.alg_prime.basis_names),
        mp.eta, mp.xi)


def check_matched_pair(mp):
    """Residuals of the six matched-pair compatibility identities."""
    pi = mp.alg_a.product.with_dims(mp.dims)
    beta = mp.alg_prime.product.with_dims(mp.dims)
    rho, mu, eta, xi = mp.rho, mp.mu, mp.eta, mp.xi
    # domain (A, A', A'): rho(x)(u.v) = rho(xi(u)x)v + (rho(x)u).v
    r1 = insert(rho, beta, 1) - insert(rho, xi, 0) - insert(beta, rho, 0)
    # domain (A', A', A): mu(x)(u.v) = mu(eta(v)x)u + u.(mu(x)v)
    r2 = insert(mu, beta, 0) - insert(mu, eta, 1) - insert(beta, mu, 1)
    # domain (A', A, A): eta(u)(x.y) = eta(mu(x)u)y + (eta(u)x).y
    r3 = insert(eta, pi, 1) - insert(eta, mu, 0) - insert(pi, eta, 0)
    # domain (A, A, A'): xi(u)(x.y) = xi(rho(y)u)x + x.(xi(u)y)
    r4 = insert(xi, pi, 0) - insert(xi, rho, 1) - insert(pi, xi, 1)
    # domain (A', A, A'): rho(eta(u)x)v + (mu(x)u).v = mu(xi(v)x)u + u.(rho(x)v)
    r5 = (insert(rho, eta, 0) + insert(beta, mu, 0)
          - insert(mu, xi, 1) - insert(beta, rho, 1))
    # domain (A, A', A): eta(rho(x)u)y + (xi(u)x).y = xi(mu(y)u)x + x.(eta(u)y)
    r6 = (insert(eta, rho, 0) + insert(pi, xi, 0)
          - insert(xi, mu, 1) - insert(pi, eta, 1))
    return ResidualReport([
        ("rho(x)(u.v) - rho(xi(u)x)v - (rho(x)u).v", r1),
        ("mu(x)(u.v) - mu(eta(v)x)u - u.(mu(x)v)", r2),
        ("eta(u)(x.y) - eta(mu(x)u)y - (eta(u)x).y", r3),
        ("xi(u)(x.y) - xi(rho(y)u)x - x.(xi(u)y)", r4),
        ("rho(eta(u)x)v + (mu(x)u).v - mu(xi(v)x)u - u.(rho(x)v)", r5),
        ("eta(rho(x)u)y + (xi(u)x).y - xi(mu(y)u)x - x.(eta(u)y)", r6),
    ])


def cocycle_residual(cocycle):
    """rho(x)w(y,z) - w(x.y,z) + w(x,y.z) - mu(z)w(x,y), the Hochschild
    coboundary of w = omega: zero iff omega is a 2-cocycle."""
    rep, omega = cocycle.rep, cocycle.omega
    pi = rep.algebra.product.with_dims(omega.dims)
    return (insert(rep.rho, omega, 1) - insert(omega, pi, 0)
            + insert(omega, pi, 1) - insert(rep.mu, omega, 0))


def require(check_report, what):
    if not check_report.is_zero:
        raise IngredientError(
            f"{what} fails: {check_report.nonzero_names()}")


def require_assoc(alg, what):
    if not check_associative(alg).is_zero():
        raise IngredientError(f"{what} is not associative")


# -- harnesses that return True by theorem ------------------------------------


def l1_vs_d(q, m, side, f):
    """Whether the twisted l_1 equals (-1)^(m-1) d on a cochain of arity m.

    The library reads l_1 off the twisted triple with the evaluator of
    `qta.cohomology`, so both sides here are computed another way: the
    full derived bracket of the twisted element, and the sparse matrix
    of d_m (`coboundary_matrix`, assembled from the checked triple)
    applied to the coefficients of f.  This is a theorem for deformation
    maps, so the return value is always True; the function is a
    verification harness.
    """
    matrix = coboundary_matrix(q, m, side, f.arity)
    _check_cochain(q, side, f)
    s = controlling_structure(q, side).twist(m)
    lhs = s.bracket(1, [f])
    sign = _sign(f.arity - 1)
    d_f = MultilinearMap(
        *side_spec(side).signature(f.arity + 1), q.dims,
        {i: sign * sum(v * f.store.get(j, 0) for j, v in row.items())
         for i, row in matrix.store.items()})
    return lhs == derived_bracket(s.vdata, [f], s.delta) == d_f


def duality_check(q, d):
    """Right residual of D vanishes iff the left residual of D^{-1} does.

    This is a theorem, so the returned value is always True; the function
    exists as a verification harness.  Raises SingularMap when D is not
    invertible and DimensionError when dim A != dim A'.
    """
    _check_side_map(q, d, "right")
    if q.dim_a != q.dim_aprime:
        raise DimensionError("duality needs dim A == dim A'")
    mat = ExactMatrix.from_rows(matrix_from_linear_map(d))
    inv = invert(mat)  # SingularMap if not invertible
    b = linear_map_from_matrix(inv.rows(), APRIME, A, q.dims)
    return (deformation.right_residual(q, d).is_zero()
            == deformation.left_residual(q, b).is_zero())
