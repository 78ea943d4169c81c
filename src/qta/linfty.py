"""Derived-bracket (curved) L-infinity structures controlling deformation maps.

For a valid split structure the graded Lie algebra of multilinear maps on
the total space, the abelian subalgebra of one-sided block cochains, the
block projection and the total product form (curved) V-data; the derived
brackets

    l_k(x_1, ..., x_k) = P([...[[Delta, x_1], x_2], ..., x_k])

give a curved L-infinity algebra on the block cochains.  Right side:
F_n = Hom((x)^{n+1} A, A'), curvature l_0 = theta, l_k = 0 for k >= 3.
Left side: F_n = Hom((x)^{n+1} A', A), l_0 = 0, l_k = 0 for k >= 4.
Each of the seven blocks of Delta feeds exactly one l_k (the count in
`qta.closed_formulas`), so the side's top order, `_Side.top` of
`qta.deformation`, bounds every base and twisted structure: a bracket
above it is the zero cochain, computed without a bracket, and the
Jacobi sum skips every term with an inner or outer order above it.  The
same count gives l_1 of any binary element in closed form: the blocks
that feed it are the side's triple (`_Side.triple`: pi, rho, mu on the
right, beta, eta, xi on the left), and on a cochain f of arity m

    l_1(f) = (-1)^(m-1) d_H(triple) f,

the Hochschild coboundary of that triple (`qta.cohomology._evaluate`),
so `bracket(1, [f])` brackets nothing.  The triple is the components for
the base structure, the twisted blocks `twist` computed for a twisted
one, and the projections of the element for an explicit one.  An
explicit element may have an A'A' -> A block, which feeds l_3 on the
right and l_0 on the left, so its other brackets are all computed; the
Jacobi sum brackets the element at every kept order, l_1 included.  The
full bracket of any element is the test oracle
`tests/oracles.py::derived_bracket`, for l_1 too.
Degree-0 Maurer-Cartan elements are exactly the deformation maps of the
matching side.  Twisting by one of them, x, gives the derived brackets of
e^(ad x) Delta (ad x = [-, lift(x)]), the twist of the total product by
x.  Lifts of one side's maps compose to zero, so twisting by x and then
by y is twisting by x + y: a structure is the base one or its twist by
one map x.  The Maurer-Cartan residual of y is then one block of the
twist by x + y, and the twisted element is the twisted product, both read
off `qta.deformation.twist_blocks`; the series sum_n ad_x^n Delta / n! is
a test oracle (`tests/oracles.py`), as are the suspended bracket
(-1)^(m-1) l_2 and the basis cochains of F.  `VData` reads Delta, which an
immutable structure builds once, through
`qta.quasitwilled.require_quasi_twilled`: InvalidQTA unless it is valid.
"""

from __future__ import annotations

from .cohomology import _evaluate
from .deformation import side_spec
from .errors import BlockError, DegreeError, NotMaurerCartan
from .multilinear import (
    MultilinearMap, _sign, gerstenhaber, koszul_sign, lift, msum, project,
    unshuffles,
)
from .quasitwilled import COMPONENT_SIGNATURES, require_quasi_twilled


class VData:
    """Graded Lie algebra + abelian subalgebra + projection + square-zero element.

    The ambient structure provides everything: Delta is the total product,
    F is the block of one-sided cochains selected by `side`, and P is the
    block projection.  Delta comes from `require_quasi_twilled`, so it
    squares to zero, and the left P(Delta) is zero (no A'A' -> A component);
    F being abelian and ker P closed depend on the dims and the side only.
    """

    def __init__(self, q, side):
        self.spec = side_spec(side)
        self.q = q
        self.side = side
        self.dims = q.dims
        self.delta = require_quasi_twilled(q)

    def f_signature(self, arity):
        return self.spec.signature(arity)

    def in_f(self, m):
        dom, cod = self.f_signature(m.arity)
        return m.domain == dom and m.codomain == cod and m.dims == self.dims

    def check_arg(self, m):
        if not self.in_f(m):
            raise BlockError(
                f"argument {m!r} is not a {self.side}-side block cochain")

    def project(self, total_map):
        """P: restriction of a total-space cochain to the F block."""
        return project(total_map, *self.f_signature(total_map.arity))

    def zero(self, arity):
        """The zero cochain of F of this arity."""
        return MultilinearMap.zero(*self.f_signature(arity), self.dims)


def _lifted_bracket(v, delta, lifted):
    """P([...[[delta, xhat_1], xhat_2],...,xhat_k]) of lifted cochains."""
    cur = delta
    for xhat in lifted:
        cur = gerstenhaber(cur, xhat)
    return v.project(cur)


class CurvedLInftyStructure:
    """The derived brackets of one element: the V-data's Delta (the base
    structure), its twist e^(ad x) Delta by a map x of the side, or an
    explicit `delta`.

    A twist keeps x, the sum of the Maurer-Cartan elements it was twisted
    by in turn, and `delta`, the twisted product of x, reassembled from
    `blocks`, the `TwistResult` that `twist` computed.  A structure built
    on an explicit binary `delta` alone has brackets and Jacobi sums, but
    no map it is twisted by: its `mc_residual` and `twist` raise
    TypeError.  `triple` holds the element's (product, left action, right
    action) blocks of the side, which give l_1: the components of the
    base structure, the twisted blocks, or the projections of the
    explicit element.

    `top` is the side's top bracket order (`_Side.top`: 2 on the right, 3
    on the left) for the base and twisted elements, whose blocks are the
    seven components', and None for an explicit element, which may have
    an A'A' -> A block: that block feeds l_3 on the right and l_0 on the
    left, so no order is zero for it by construction.
    """

    def __init__(self, v, delta=None, *, x=None, blocks=None):
        self.vdata = v
        self.side = v.side
        self.x = x
        self.explicit = delta is not None
        spec = v.spec
        if self.explicit:
            self.delta = delta
            self.triple = tuple(project(delta, *COMPONENT_SIGNATURES[name])
                                for name in spec.triple)
            self.top = None
        else:
            self.delta = v.delta if blocks is None else blocks.reassemble()
            self.triple = spec.induced(v.q if blocks is None else blocks)
            self.top = spec.top

    def _above_top(self, k):
        return self.top is not None and k > self.top

    def bracket(self, k, args):
        """l_k (or the twisted l_k^x) on a tuple of block cochains:
        P([...[[delta, x_1], x_2],...,x_k]), and k = 0 gives P(delta).

        The argument count and blocks are checked first (DegreeError,
        BlockError).  Above `top` l_k is the zero cochain of arity
        2 + sum(a_i - 1) for arguments of arities a_i, returned without
        a bracket; an explicit element is bracketed at every k but 1.
        l_1 of a cochain f of arity m is (-1)^(m-1) d_H(triple) f, with
        no bracket.
        """
        args = list(args)
        if len(args) != k:
            raise DegreeError(f"l_{k} needs {k} arguments, got {len(args)}")
        v = self.vdata
        for x in args:
            v.check_arg(x)
        if self._above_top(k):
            return v.zero(2 + sum(x.arity - 1 for x in args))
        if k == 1:
            f, = args
            return _evaluate(*self.triple, f, _sign(f.arity - 1))
        return _lifted_bracket(v, self.delta, [lift(x) for x in args])

    def l0(self):
        """Curvature: P(Delta) for the base structure, zero after twisting."""
        return self.bracket(0, [])

    def _shifted(self, y):
        """x + y for a degree-0 cochain y (y itself on the base structure):
        e^(ad y) delta is the twist of Delta by this map."""
        if self.explicit:
            raise TypeError("a structure on an explicit element has no "
                            "Maurer-Cartan residual or twist")
        self.vdata.check_arg(y)
        if y.arity != 1:
            raise DegreeError("Maurer-Cartan candidates have degree 0")
        return y if self.x is None else self.x + y

    def mc_residual(self, y):
        """l_0 + sum_k l_k(y,...,y)/k! = P(e^(ad y) delta) for a degree-0
        cochain y: the side's residual of x + y."""
        v = self.vdata
        return v.spec.residual(v.q, self._shifted(y))

    def twist(self, y):
        """Twisted structure by a Maurer-Cartan element (zero curvature).
        One twist of the total product by x + y gives both the residual
        block, which must vanish, and the new element."""
        x = self._shifted(y)
        v = self.vdata
        tw = v.spec.twist(v.q, x)
        res = getattr(tw, v.spec.residual_part)
        if not res.is_zero():
            raise NotMaurerCartan(
                f"residual nonzero at {res.first_witness()}")
        return CurvedLInftyStructure(v, x=x, blocks=tw)

    def jacobi_residual(self, n, args):
        """Generalized Jacobi sum at arity n; zero for every valid structure.

        sum_{i=0}^{n} sum_{(i,n-i)-unshuffles s} eps(s)
            l_{n-i+1}(l_i(x_{s(1)},...,x_{s(i)}), x_{s(i+1)},...,x_{s(n)})

        The arguments are checked first.  A term whose inner order i or
        outer order n - i + 1 is above `top` is zero and skipped; when
        every term is, the sum is the zero cochain of arity
        3 + sum(a_i - 1), and nothing is lifted.  Otherwise each argument
        and each inner bracket is lifted once, and every kept bracket,
        l_1 included, brackets the element.  An explicit element keeps
        every term.
        """
        args = list(args)
        if len(args) != n:
            raise DegreeError(f"need {n} arguments")
        v, delta = self.vdata, self.delta
        for x in args:
            v.check_arg(x)
        orders = [i for i in range(n + 1) if not (
            self._above_top(i) or self._above_top(n - i + 1))]
        if not orders:
            return v.zero(3 + sum(x.arity - 1 for x in args))
        lifted = [lift(x) for x in args]
        degrees = [x.degree for x in args]
        terms = []
        for i in orders:
            for sigma in unshuffles(i, n):
                head = [lifted[j] for j in sigma[:i]]
                tail = [lifted[j] for j in sigma[i:]]
                inner = _lifted_bracket(v, delta, head)
                outer = _lifted_bracket(v, delta, [lift(inner)] + tail)
                terms.append(outer.scale(koszul_sign(sigma, degrees)))
        return msum(terms)

    def __repr__(self):
        kind = ("explicit" if self.explicit
                else "base" if self.x is None else "twisted")
        return f"CurvedLInftyStructure({self.side}, {kind})"


def controlling_structure(q, side):
    """The (curved) L-infinity structure on one side's block cochains."""
    return CurvedLInftyStructure(VData(q, side))


def mc_residual(q, side, x):
    return controlling_structure(q, side).mc_residual(x)

