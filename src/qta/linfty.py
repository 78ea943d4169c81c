"""Derived-bracket (curved) L-infinity structures controlling deformation maps.

For a valid split structure the graded Lie algebra of multilinear maps on
the total space, the abelian subalgebra of one-sided block cochains, the
block projection and the total product form (curved) V-data; the derived
brackets

    l_k(x_1, ..., x_k) = P([...[[Delta, x_1], x_2], ..., x_k])

give a curved L-infinity algebra on the block cochains.  Right side:
F_n = Hom((x)^{n+1} A, A'), curvature l_0 = theta, l_k = 0 for k >= 3.
Left side: F_n = Hom((x)^{n+1} A', A), l_0 = 0, l_k = 0 for k >= 4.
Degree-0 Maurer-Cartan elements are exactly the deformation maps of the
matching side.  Twisting by one of them, x, gives the derived brackets of
e^(ad x) Delta (ad x = [-, lift(x)]), the conjugation twist of Delta.
`VData` reads Delta, which an immutable structure builds once, through
`qta.quasitwilled.require_quasi_twilled`: InvalidQTA unless it is valid.
"""

from __future__ import annotations

from fractions import Fraction

from .deformation import side_spec
from .errors import BlockError, DegreeError, NotMaurerCartan
from .multilinear import (
    MultilinearMap, _label_size, gerstenhaber, koszul_sign, lift, msum,
    project, unshuffles,
)
from .quasitwilled import require_quasi_twilled


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

    def basis_cochain(self, arity, row, k):
        """The basis cochain sending one domain tuple to one basis vector."""
        dom, cod = self.f_signature(arity)
        index = row * _label_size(cod, self.dims) + k
        return MultilinearMap.unit(dom, cod, self.dims, index)


def derived_bracket(v, args, delta=None):
    """l_k(x_1,...,x_k) = P([...[[Delta, x_1], x_2],...,x_k]); k = 0 is P(Delta).
    A given `delta` stands in for the V-data's Delta."""
    return _lifted_bracket(v, v.delta if delta is None else delta,
                           _checked_lifts(v, args))


def _checked_lifts(v, args):
    """lift(x) of every block cochain x, each checked to lie in F."""
    lifted = []
    for x in args:
        v.check_arg(x)
        lifted.append(lift(x))
    return lifted


def _lifted_bracket(v, delta, lifted):
    """P([...[[delta, xhat_1], xhat_2],...,xhat_k]) of lifted cochains."""
    cur = delta
    for xhat in lifted:
        cur = gerstenhaber(cur, xhat)
    return v.project(cur)


class CurvedLInftyStructure:
    """The derived brackets of one square-zero element: the V-data's Delta
    when `delta` is None, e^(ad x) Delta after twisting by x.
    """

    def __init__(self, v, delta=None):
        self.vdata = v
        self.side = v.side
        self.delta = delta

    def bracket(self, k, args):
        """l_k (or the twisted l_k^x) on a tuple of block cochains."""
        args = list(args)
        if len(args) != k:
            raise DegreeError(f"l_{k} needs {k} arguments, got {len(args)}")
        return derived_bracket(self.vdata, args, self.delta)

    def l0(self):
        """Curvature: P(Delta) for the base structure, zero after twisting."""
        return self.bracket(0, [])

    def _exp(self, x):
        """e^(ad x) Delta = sum_n ad_x^n Delta / n! for a degree-0 cochain x;
        lift(x) squares to zero, so ad_x^n Delta = 0 for n > arity + 1."""
        self.vdata.check_arg(x)
        if x.arity != 1:
            raise DegreeError("Maurer-Cartan candidates have degree 0")
        xhat = lift(x)
        term = total = self.vdata.delta if self.delta is None else self.delta
        for n in range(1, term.arity + 3):
            term = gerstenhaber(term, xhat).scale(Fraction(1, n))
            if term.is_zero():
                return total
            total = total + term
        raise AssertionError("ad_x^n Delta nonzero for n > arity + 1")

    def mc_residual(self, x):
        """l_0 + sum_k l_k(x,...,x)/k! = P(e^(ad x) Delta) for a degree-0
        cochain x."""
        return self.vdata.project(self._exp(x))

    def twist(self, x):
        """Twisted structure by a Maurer-Cartan element (zero curvature)."""
        delta = self._exp(x)
        res = self.vdata.project(delta)
        if not res.is_zero():
            raise NotMaurerCartan(
                f"residual nonzero at {res.first_witness()}")
        return CurvedLInftyStructure(self.vdata, delta)

    def jacobi_residual(self, n, args):
        """Generalized Jacobi sum at arity n; zero for every valid structure.

        sum_{i=0}^{n} sum_{(i,n-i)-unshuffles s} eps(s)
            l_{n-i+1}(l_i(x_{s(1)},...,x_{s(i)}), x_{s(i+1)},...,x_{s(n)})

        Each argument and each inner bracket is checked and lifted once.
        """
        args = list(args)
        if len(args) != n:
            raise DegreeError(f"need {n} arguments")
        v = self.vdata
        delta = v.delta if self.delta is None else self.delta
        lifted = _checked_lifts(v, args)
        degrees = [x.degree for x in args]
        terms = []
        for i in range(0, n + 1):
            for sigma in unshuffles(i, n):
                head = [lifted[j] for j in sigma[:i]]
                tail = [lifted[j] for j in sigma[i:]]
                inner = _lifted_bracket(v, delta, head)
                outer = _lifted_bracket(
                    v, delta, _checked_lifts(v, [inner]) + tail)
                terms.append(outer.scale(koszul_sign(sigma, degrees)))
        return msum(terms)

    def suspended_bracket(self, f, g):
        """(-1)^(m-1) l_2(f, g) for f of arity m: the graded Lie bracket on
        the degree-shifted cochain space."""
        sign = 1 if f.arity % 2 else -1
        return self.bracket(2, [f, g]).scale(sign)

    def __repr__(self):
        kind = "twisted" if self.delta is not None else "base"
        return f"CurvedLInftyStructure({self.side}, {kind})"


def controlling_structure(q, side):
    """The (curved) L-infinity structure on one side's block cochains."""
    return CurvedLInftyStructure(VData(q, side))


def mc_residual(q, side, x):
    return controlling_structure(q, side).mc_residual(x)

