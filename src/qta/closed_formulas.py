"""Explicit controlling-algebra formulas for the stock structures.

Each builder kind admits closed formulas for the derived brackets on its
side: sign-weighted sums of products and action insertions over index
windows.  They are transcribed here literally and compared against the
derived-bracket evaluators; `explicit_formula_check` returns whether the
two agree (it always should -- a False is a sign bug somewhere).

All formula evaluators take block cochains (the F-side signature of the
structure) and return block cochains, so results compare directly with
CurvedLInftyStructure.bracket output.

`explicit_formula` reads one table keyed by (builder kind, side) that maps
each k either to a formula or to "zero"; the (kind, side) pairs it covers
are exactly those the builder-kind table in `qta.quasitwilled` names an
operator for.
"""

from __future__ import annotations

from .deformation import side_spec
from .errors import DegreeError, UnknownKind
from .linfty import controlling_structure
from .multilinear import A, APRIME, MultilinearMap, _sign, insert


def _pair_product(prod, f, g):
    """prod(f(x_1..x_m), g(x_{m+1}..x_{m+n})) as one map."""
    return insert(insert(prod, f, 0), g, f.arity)


def _window(outer, inner, i):
    """outer with `inner` consuming the argument window starting at slot i
    (1-based, as in the displayed sums)."""
    return insert(outer, inner, i - 1)


# -- right side: modified direct sum ----------------------------------------

def modified_l0(q):
    """l_0(x,y) = weight * (x . y)."""
    prod = q.ingredients["algebra"].product.with_dims(q.dims)
    return prod.relabel((A, A), APRIME).scale(q.ingredients["weight"])


def modified_l2(q, f, g):
    """The six-sum closed formula for l_2 on Hom((x)^m A, A) cochains."""
    m, n = f.arity, g.arity
    prod = q.ingredients["algebra"].product.with_dims(q.dims)
    both = prod.relabel((APRIME, APRIME), APRIME)   # value . value
    left = prod.relabel((A, APRIME), A)             # argument . value
    right = prod.relabel((APRIME, A), A)            # value . argument
    out = _pair_product(both, g, f).scale(_sign(m - 1))
    out = out + _pair_product(both, f, g).scale(_sign(m * (n - 1)))
    for i in range(1, m + 1):
        out = out - _window(f, insert(left, g, 1), i).scale(_sign(i * n + m))
        out = out + _window(f, insert(right, g, 0), i).scale(
            _sign((i - 1) * n + m))
    for i in range(1, n + 1):
        out = out - _window(g, insert(right, f, 0), i).scale(
            _sign((i - 1) * m + m * (n - 1)))
        out = out + _window(g, insert(left, f, 1), i).scale(
            _sign((i - 1) * m + m * n))
    return out


# -- right side: semidirect products and the direct product ------------------

def action_coboundary(rho, mu, pi, f):
    """d f = (-1)^(m-1) rho(x_1)f(...) + mu(x_{m+1})f(...)
             + (-1)^(m-1) sum_i (-1)^i f(..., x_i . x_{i+1}, ...)."""
    m = f.arity
    out = insert(rho, f, 1).scale(_sign(m - 1)) + insert(mu, f, 0)
    for i in range(1, m + 1):
        out = out + _window(f, pi, i).scale(_sign(m - 1 + i))
    return out


def product_coboundary(pi, f):
    """d f = (-1)^(m-1) sum_i (-1)^i f(..., x_i . x_{i+1}, ...)."""
    m = f.arity
    out = None
    for i in range(1, m + 1):
        term = _window(f, pi, i).scale(_sign(m - 1 + i))
        out = term if out is None else out + term
    return out


def prime_product_bracket(prime_prod, f, g):
    """[[f,g]] = (-1)^(mn+1) f(...) .' g(...) + g(...) .' f(...)."""
    m, n = f.arity, g.arity
    return (_pair_product(prime_prod, f, g).scale(_sign(m * n + 1))
            + _pair_product(prime_prod, g, f))


# -- left side: relative operators -------------------------------------------

def oop_bracket(pi, rho, mu, f1, f2):
    """The graded Lie bracket controlling relative Rota-Baxter operators.

    [[f1,f2]] = f2(...) . f1(...) - (-1)^(m1 m2) f1(...) . f2(...)
      + sum_i (-1)^(i m2)      f1(..., mu(u_i, f2(...)), ...)
      - sum_i (-1)^((i-1) m2)  f1(..., rho(f2(...), u), ...)
      + (-1)^(m1 m2) sum_i (-1)^((i-1) m1) f2(..., rho(f1(...), u), ...)
      - (-1)^(m1 (m2+1)) sum_i (-1)^((i-1) m1) f2(..., mu(u_i, f1(...)), ...)
    """
    m1, m2 = f1.arity, f2.arity
    out = _pair_product(pi, f2, f1)
    out = out - _pair_product(pi, f1, f2).scale(_sign(m1 * m2))
    for i in range(1, m1 + 1):
        out = out + _window(f1, insert(mu, f2, 1), i).scale(_sign(i * m2))
        out = out - _window(f1, insert(rho, f2, 0), i).scale(
            _sign((i - 1) * m2))
    for i in range(1, m2 + 1):
        out = out + _window(f2, insert(rho, f1, 0), i).scale(
            _sign((i - 1) * m1 + m1 * m2))
        out = out - _window(f2, insert(mu, f1, 1), i).scale(
            _sign((i - 1) * m1 + m1 * (m2 + 1)))
    return out


def extension_l2(pi, rho, mu, f1, f2):
    """Closed l_2 of the cocycle-extension controlling algebra."""
    m1, m2 = f1.arity, f2.arity
    out = _pair_product(pi, f2, f1).scale(_sign(m1 - 1))
    out = out + _pair_product(pi, f1, f2).scale(_sign(m1 * (m2 - 1)))
    for i in range(1, m1 + 1):
        out = out - _window(f1, insert(mu, f2, 1), i).scale(
            _sign(i * m2 + m1))
        out = out + _window(f1, insert(rho, f2, 0), i).scale(
            _sign((i - 1) * m2 + m1))
    for i in range(1, m2 + 1):
        out = out - _window(f2, insert(rho, f1, 0), i).scale(
            _sign((i - 1) * m1 + m1 * (m2 - 1)))
        out = out + _window(f2, insert(mu, f1, 1), i).scale(
            _sign((i - 1) * m1 + m1 * m2))
    return out


def extension_l3(omega, f1, f2, f3):
    """Closed l_3 of the cocycle-extension controlling algebra.

    Six window sums f_a(..., omega(f_b(...), f_c(...)), ...) over the
    permutations of the three cochains.  The sign exponents are the ones
    forced by graded symmetry of l_3 (each term's sign is accumulated
    from the three insertion steps of the derived bracket); they are
    verified against the derived-bracket evaluator by the test suite.
    """
    m1, m2, m3 = f1.arity, f2.arity, f3.arity

    def ins(fa, fb):
        return insert(insert(omega, fa, 0), fb, fa.arity)

    out = None

    def acc(term):
        nonlocal out
        out = term if out is None else out + term

    for i in range(1, m1 + 1):
        acc(_window(f1, ins(f2, f3), i).scale(
            _sign(m1 + m2 + m2 * m3 + (i - 1) * (m2 + m3 + 1))))
        acc(_window(f1, ins(f3, f2), i).scale(
            _sign(m1 + i * (m2 + 1) + (i - 1) * m3)))
    for j in range(1, m2 + 1):
        acc(_window(f2, ins(f1, f3), j).scale(
            _sign(1 + m1 * m2 + m1 * m3 + (j - 1) * (m1 + m3 + 1))))
        acc(_window(f2, ins(f3, f1), j).scale(
            _sign(m1 * m2 + (j - 1) * (m1 + m3 + 1))))
    for k in range(1, m3 + 1):
        acc(_window(f3, ins(f1, f2), k).scale(
            _sign(m1 * m2 + m1 * m3 + m2 * m3 + m2 + m3
                  + (k - 1) * (m1 + m2 + 1))))
        acc(_window(f3, ins(f2, f1), k).scale(
            _sign(1 + m1 * m3 + m2 * m3 + m2 + m3
                  + (k - 1) * (m1 + m2 + 1))))
    return out


def matched_pair_coboundary(xi, eta, beta, f):
    """d f = xi(f(...), u_{m+1}) + (-1)^(m-1) eta(u_1, f(...))
             + (-1)^(m-1) sum_i (-1)^i f(..., u_i .' u_{i+1}, ...)."""
    m = f.arity
    out = insert(xi, f, 0) + insert(eta, f, 1).scale(_sign(m - 1))
    for i in range(1, m + 1):
        out = out + _window(f, beta, i).scale(_sign(m - 1 + i))
    return out


# -- the table ----------------------------------------------------------------
#
# (kind, side) -> {k: formula(q, *args) or _ZERO}.  The formulas call the
# public functions above through their module-global names at call time,
# so a wrapper installed over one of them (the perfbench tracer) sees the
# call.  A zero l_k on cochains of arities a_1..a_k has arity
# a_1 + ... + a_k - k + 2.

_ZERO = "zero"


def _action_d(q, f):
    return action_coboundary(q.rho, q.mu, q.pi, f)


def _prime_bracket(q, f, g):
    return prime_product_bracket(q.beta, f, g).scale(_sign(f.arity - 1))


def _oop(q, f1, f2):
    return oop_bracket(q.pi, q.rho, q.mu, f1, f2).scale(_sign(f1.arity - 1))


_EXTENSION = {
    1: _ZERO,
    2: lambda q, f1, f2: extension_l2(q.pi, q.rho, q.mu, f1, f2),
    3: lambda q, f1, f2, f3: extension_l3(q.theta, f1, f2, f3),
}

_FORMULAS = {
    ("modified_direct_sum", "right"): {
        0: lambda q: modified_l0(q),
        1: _ZERO,
        2: lambda q, f, g: modified_l2(q, f, g)},
    ("semidirect", "right"): {0: _ZERO, 1: _action_d, 2: _ZERO},
    ("semidirect_assoc", "right"): {
        0: _ZERO, 1: _action_d, 2: _prime_bracket},
    ("direct_product", "right"): {
        0: _ZERO,
        1: lambda q, f: product_coboundary(q.pi, f),
        2: _prime_bracket},
    ("semidirect", "left"): {1: _ZERO, 2: _oop, 3: _ZERO},
    ("abelian_extension", "left"): _EXTENSION,
    ("reynolds", "left"): _EXTENSION,
    ("matched_pair", "left"): {
        1: lambda q, f: matched_pair_coboundary(q.xi, q.eta, q.beta, f),
        2: _oop,
        3: _ZERO},
}


def explicit_formula(q, side, k, args):
    """The closed formula for l_k, or UnknownKind."""
    if q.kind is None:
        raise UnknownKind("no builder provenance, no closed formula")
    spec = side_spec(side)  # rejects an unknown side
    if len(args) != k:
        raise DegreeError(f"l_{k} needs {k} arguments, got {len(args)}")
    formula = _FORMULAS.get((q.kind, side), {}).get(k)
    if formula is None:
        raise UnknownKind(
            f"no closed formula for kind={q.kind}, side={side}, k={k}")
    if formula is _ZERO:
        arity = sum(a.arity for a in args) - k + 2
        return MultilinearMap.zero(*spec.signature(arity), q.dims)
    return formula(q, *args)


def explicit_formula_check(q, side, k, args):
    """Whether the closed formula agrees with the derived bracket. It must."""
    formula = explicit_formula(q, side, k, args)
    derived = controlling_structure(q, side).bracket(k, list(args))
    return formula == derived
