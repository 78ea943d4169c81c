"""Closed formulas for the controlling algebra of any quasi-twilled algebra.

For the seven components (pi, xi, eta, beta, rho, mu, theta) the derived
brackets l_k = P[...[Delta, x_1], ..., x_k] are, on cochains f of arity m,

    right side, Hom((x)^m A, A'):
        l_0 = theta
        l_1(f) = (-1)^(m-1) d_H(pi; rho, mu) f
        l_2(f, g) = S(beta; eta, xi)(f, g)
        l_k = 0 for k >= 3
    left side, Hom((x)^m A', A):
        l_0 = 0
        l_1(f) = (-1)^(m-1) d_H(beta; eta, xi) f
        l_2(f, g) = S(pi; rho, mu)(f, g)
        l_3(f, g, h) = T(theta)(f, g, h)
        l_k = 0 for k >= 4

where d_H(product; left, right) is the Hochschild coboundary with
coefficients in a bimodule (`qta.cohomology._evaluate`), S is the
six-sum `_six_sum` and T the six window sums `_theta_term`.  Each side's
l_1 triple is its own (`_Side.triple` of `qta.deformation`) and its l_2
triple is the other side's.

Why this holds for every structure, not only the builder kinds: l_k is
linear in Delta, the sum of the lifts of the seven blocks.  Bracketing
with a cochain of one side fills one slot of a block that takes the
cochains' codomain space, or feeds the block's value into the cochain
when the value lies in the cochains' domain space; P keeps only cochains
of that side.  So each block contributes to exactly one l_k -- k counts
those slots and values -- by a formula in that block alone, whatever the
other blocks are.  On the right theta has k = 0; pi, rho, mu have k = 1;
xi, eta, beta have k = 2.  On the left beta, eta, xi have k = 1; pi,
rho, mu have k = 2; theta has k = 3.  No block has k = 0 on the left
(that would be the A'A' -> A block, which is zero), and none has k > 3.

The formulas are transcribed as sign-weighted sums of products and action
insertions over index windows, and `explicit_formula_check` compares them
with CurvedLInftyStructure.bracket; a False is a sign bug somewhere.  The
l_1 formula is the coboundary of the element's triple, which is also
what `bracket(1)` evaluates (one evaluator, `qta.cohomology._evaluate`),
so at k = 1 the check compares that evaluator with itself, and above
the top order of the structure's own blocks `bracket` returns a zero it
did not compute; the independent check of every formula is the full
derived bracket, the test oracle `tests/oracles.py::derived_bracket`.  The formulas take and return block
cochains, so results compare directly with the brackets.
"""

from __future__ import annotations

from .deformation import side_spec
from .errors import DegreeError
from .multilinear import MultilinearMap, _sign, insert, msum

# `cohomology` and `linfty` are imported in the functions that use them:
# `import qta` loads this module but not those two.

_OTHER = {"right": "left", "left": "right"}


def _pair_product(prod, f, g):
    """prod(f(x_1..x_m), g(x_{m+1}..x_{m+n})) as one map."""
    return insert(insert(prod, f, 0), g, f.arity)


def _window(outer, inner, i):
    """outer with `inner` consuming the argument window starting at slot i
    (1-based, as in the displayed sums)."""
    return insert(outer, inner, i - 1)


def _six_sum(product, left, right, f, g):
    """l_2 from a (product, left action, right action) triple:

    (-1)^(m-1) g(...) . f(...) + (-1)^(m(n-1)) f(...) . g(...)
      - sum_i (-1)^(in+m)          f(..., right(u_i, g(...)), ...)
      + sum_i (-1)^((i-1)n+m)      f(..., left(g(...), u_i), ...)
      - sum_i (-1)^((i-1)m+m(n-1)) g(..., left(f(...), u_i), ...)
      + sum_i (-1)^((i-1)m+mn)     g(..., right(u_i, f(...)), ...)

    for f of arity m and g of arity n.
    """
    m, n = f.arity, g.arity
    terms = [_pair_product(product, g, f).scale(_sign(m - 1)),
             _pair_product(product, f, g).scale(_sign(m * (n - 1)))]
    for i in range(1, m + 1):
        terms.append(_window(f, insert(right, g, 1), i).scale(
            -_sign(i * n + m)))
        terms.append(_window(f, insert(left, g, 0), i).scale(
            _sign((i - 1) * n + m)))
    for i in range(1, n + 1):
        terms.append(_window(g, insert(left, f, 0), i).scale(
            -_sign((i - 1) * m + m * (n - 1))))
        terms.append(_window(g, insert(right, f, 1), i).scale(
            _sign((i - 1) * m + m * n)))
    return msum(terms)


def _theta_term(theta, f1, f2, f3):
    """Left l_3: six window sums f_a(..., theta(f_b(...), f_c(...)), ...)
    over the permutations of the three cochains.

    The sign exponents are the ones forced by graded symmetry of l_3 (each
    term's sign is accumulated from the three insertion steps of the
    derived bracket); the tests check them against the derived brackets.
    """
    m1, m2, m3 = f1.arity, f2.arity, f3.arity

    def ins(fa, fb):
        return _pair_product(theta, fa, fb)

    terms = []
    for i in range(1, m1 + 1):
        terms.append(_window(f1, ins(f2, f3), i).scale(
            _sign(m1 + m2 + m2 * m3 + (i - 1) * (m2 + m3 + 1))))
        terms.append(_window(f1, ins(f3, f2), i).scale(
            _sign(m1 + i * (m2 + 1) + (i - 1) * m3)))
    for j in range(1, m2 + 1):
        terms.append(_window(f2, ins(f1, f3), j).scale(
            _sign(1 + m1 * m2 + m1 * m3 + (j - 1) * (m1 + m3 + 1))))
        terms.append(_window(f2, ins(f3, f1), j).scale(
            _sign(m1 * m2 + (j - 1) * (m1 + m3 + 1))))
    for k in range(1, m3 + 1):
        terms.append(_window(f3, ins(f1, f2), k).scale(
            _sign(m1 * m2 + m1 * m3 + m2 * m3 + m2 + m3
                  + (k - 1) * (m1 + m2 + 1))))
        terms.append(_window(f3, ins(f2, f1), k).scale(
            _sign(1 + m1 * m3 + m2 * m3 + m2 + m3
                  + (k - 1) * (m1 + m2 + 1))))
    return msum(terms)


def explicit_formula(q, side, k, args):
    """The closed formula for l_k on one side of q."""
    spec = side_spec(side)  # rejects an unknown side
    if len(args) != k:
        raise DegreeError(f"l_{k} needs {k} arguments, got {len(args)}")
    if k == 1:
        from .cohomology import _check_cochain, _evaluate
        f, = args
        _check_cochain(q, side, f)
        return _evaluate(*spec.induced(q), f, _sign(f.arity - 1))
    if k == 2:
        return _six_sum(*side_spec(_OTHER[side]).induced(q), *args)
    if (side, k) == ("right", 0):
        return q.theta
    if (side, k) == ("left", 3):
        return _theta_term(q.theta, *args)
    # a zero l_k on cochains of arities a_1..a_k has arity sum a_i - k + 2
    arity = sum(a.arity for a in args) - k + 2
    return MultilinearMap.zero(*spec.signature(arity), q.dims)


def explicit_formula_check(q, side, k, args):
    """Whether the closed formula agrees with the derived bracket. It must."""
    from .linfty import controlling_structure
    formula = explicit_formula(q, side, k, args)
    derived = controlling_structure(q, side).bracket(k, list(args))
    return formula == derived
