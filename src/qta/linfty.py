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
matching side.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .deformation import side_spec
from .errors import BlockError, DegreeError, InvalidQTA, NotMaurerCartan
from .multilinear import (
    A, APRIME, MultilinearMap, _label_size, gerstenhaber, koszul_sign, lift,
    project, unshuffles,
)
from .quasitwilled import total_product, validate


class VData:
    """Graded Lie algebra + abelian subalgebra + projection + square-zero element.

    The ambient structure provides everything: Delta is the total product,
    F is the block of one-sided cochains selected by `side`, and P is the
    block projection.
    """

    def __init__(self, q, side):
        self.spec = side_spec(side)
        self.q = q
        self.side = side
        self.dims = q.dims
        self.delta = total_product(q)
        self._verify()

    def _verify(self):
        if not validate(self.q).is_zero():
            raise InvalidQTA("structure equations fail; no V-data")
        if 0 in self.dims:
            return
        # abelianness of F, spot-checked on low-arity basis cochains
        f1 = self.basis_cochain(1, 0, 0)
        f2 = self.basis_cochain(2, 0, 0)
        for g1, g2 in ((f1, f1), (f1, f2), (f2, f2)):
            if not gerstenhaber(lift(g1), lift(g2)).is_zero():
                raise InvalidQTA("block cochains fail to commute")
        # kernel of P closed under the bracket, spot-checked on two
        # non-F block signatures (their brackets must have no F part)
        k1 = MultilinearMap.unit((A, A), A, self.dims, 0)
        k2 = MultilinearMap.unit((A, APRIME), APRIME, self.dims, 0)
        for m1 in (k1, k2):
            for m2 in (k1, k2):
                if not self.project(gerstenhaber(lift(m1), lift(m2))).is_zero():
                    raise InvalidQTA("kernel of P is not bracket-closed")
        # P(Delta): theta on the right, zero on the left
        if self.side == "left" and not self.project(self.delta).is_zero():
            raise InvalidQTA("left V-data needs P(Delta) = 0")

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

    def zero_cochain(self, arity):
        return MultilinearMap.zero(*self.f_signature(arity), self.dims)

    def basis_cochain(self, arity, row, k):
        """The basis cochain sending one domain tuple to one basis vector."""
        dom, cod = self.f_signature(arity)
        index = row * _label_size(cod, self.dims) + k
        return MultilinearMap.unit(dom, cod, self.dims, index)


def vdata(q, side):
    """Construct and computationally verify the V-data of one side."""
    return VData(q, side)


def derived_bracket(v, args):
    """l_k(x_1,...,x_k) = P([...[[Delta, x_1], x_2],...,x_k]); k = 0 is P(Delta)."""
    cur = v.delta
    for x in args:
        v.check_arg(x)
        cur = gerstenhaber(cur, lift(x))
    return v.project(cur)


class CurvedLInftyStructure:
    """Brackets l_0..l_max realized as evaluators over block cochains.

    `shift` is None for the structure attached to the V-data; a twisted
    structure carries the Maurer-Cartan element it was shifted by and has
    zero curvature.
    """

    def __init__(self, v, shift=None):
        self.vdata = v
        self.side = v.side
        self.max_bracket = v.spec.max_bracket
        self.shift = shift

    def bracket(self, k, args):
        """l_k (or the twisted l_k^x) on a tuple of block cochains."""
        args = list(args)
        if len(args) != k:
            raise DegreeError(f"l_{k} needs {k} arguments, got {len(args)}")
        if self.shift is None:
            return derived_bracket(self.vdata, args)
        total = None
        for n in range(0, self.max_bracket - k + 1):
            term = derived_bracket(self.vdata, [self.shift] * n + args)
            term = term.scale(Fraction(1, factorial(n)))
            total = term if total is None else total + term
        if total is None:
            total = derived_bracket(self.vdata, args)
        return total

    def l0(self):
        """Curvature: P(Delta) for the base structure, zero after twisting."""
        if self.shift is None:
            return derived_bracket(self.vdata, [])
        arity = 2  # degree-1 element of F
        return self.vdata.zero_cochain(arity)

    def mc_residual(self, x):
        """l_0 + sum_k l_k(x,...,x)/k! for a degree-0 cochain x."""
        self.vdata.check_arg(x)
        if x.arity != 1:
            raise DegreeError("Maurer-Cartan candidates have degree 0")
        total = self.l0()
        for k in range(1, self.max_bracket + 1):
            total = total + self.bracket(k, [x] * k).scale(
                Fraction(1, factorial(k)))
        return total

    def twist(self, x):
        """Twisted structure by a Maurer-Cartan element (zero curvature)."""
        res = self.mc_residual(x)
        if not res.is_zero():
            raise NotMaurerCartan(
                f"residual nonzero at {res.first_witness()}")
        if self.shift is not None:
            x = x + self.shift
        return CurvedLInftyStructure(self.vdata, shift=x)

    def jacobi_residual(self, n, args):
        """Generalized Jacobi sum at arity n; zero for every valid structure.

        sum_{i=0}^{n} sum_{(i,n-i)-unshuffles s} eps(s)
            l_{n-i+1}(l_i(x_{s(1)},...,x_{s(i)}), x_{s(i+1)},...,x_{s(n)})
        """
        args = list(args)
        if len(args) != n:
            raise DegreeError(f"need {n} arguments")
        for x in args:
            self.vdata.check_arg(x)
        degrees = [x.degree for x in args]
        total = None
        for i in range(0, n + 1):
            for sigma in unshuffles(i, n):
                eps = koszul_sign(sigma, degrees)
                inner = self.bracket(i, [args[j] for j in sigma[:i]])
                outer = self.bracket(
                    n - i + 1, [inner] + [args[j] for j in sigma[i:]])
                term = outer.scale(eps)
                total = term if total is None else total + term
        return total

    def suspended_bracket(self, f, g):
        """(-1)^(m-1) l_2(f, g) for f of arity m: the graded Lie bracket on
        the degree-shifted cochain space."""
        sign = 1 if f.arity % 2 else -1
        return self.bracket(2, [f, g]).scale(sign)

    def __repr__(self):
        kind = "twisted" if self.shift is not None else "base"
        return f"CurvedLInftyStructure({self.side}, {kind})"


def controlling_structure(q, side):
    """The (curved) L-infinity structure on one side's block cochains."""
    return CurvedLInftyStructure(vdata(q, side))


def mc_residual(q, side, x):
    return controlling_structure(q, side).mc_residual(x)


# function-style aliases for the structure methods

def twist_linfty(s, x):
    return s.twist(x)


def jacobi_residual(s, n, args):
    return s.jacobi_residual(n, args)


def suspended_bracket(s, f, g):
    return s.suspended_bracket(f, g)
