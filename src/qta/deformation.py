"""Right and left deformation maps: residuals, twisting, duality, naming.

A right deformation map D: A -> A' makes the graph {(x, Dx)} a subalgebra
of the total product; a left deformation map B: A' -> A satisfies the
mirrored condition.  Twisting by such a map is conjugation of the total
product by e^(lifted map); since a lifted block map squares to zero the
exponential truncates to Id + lift, and the twist has closed component
formulas.  Both routes are implemented and their equality is a standing
test.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DimensionError, InvalidQTA, NotDeformationMap, UnknownKind
from .algebras import AssociativeAlgebra, RepresentationPair
from .linalg import ExactMatrix, invert
from .multilinear import (
    A, APRIME, TOTAL, MultilinearMap, SpaceLabel, insert, lift,
    linear_map_from_matrix, matrix_from_linear_map, msum, project,
)
from .quasitwilled import _KINDS, QuasiTwilledAlgebra


class _Side(NamedTuple):
    """What tells right maps D: A -> A' from left maps B: A' -> A."""

    name: str
    slot: SpaceLabel        # domain of the map = slot space of its cochains
    cod: SpaceLabel         # codomain of the map and of its cochains
    # named, not stored: looked up among the module globals at each call,
    # so a wrapper installed over a global (the perfbench tracer) sees it
    residual_fn: str
    twist_fn: str
    triple: tuple           # twisted (product, left action, right action)
    basis: str              # attribute holding the basis of the slot space
    max_bracket: int        # top bracket of the controlling algebra

    def residual(self, q, m):
        return globals()[self.residual_fn](q, m)

    def twist(self, q, m):
        return globals()[self.twist_fn](q, m)

    def twisted_triple(self, q, m):
        tw = self.twist(q, m)
        return tuple(getattr(tw, name) for name in self.triple)

    def require_deformation(self, q, m):
        res = self.residual(q, m)
        if not res.is_zero():
            raise NotDeformationMap(
                f"{self.name} residual nonzero at {res.first_witness()}")

    def signature(self, arity):
        """(domain labels, codomain label) of cochains of this arity."""
        return (self.slot,) * arity, self.cod


_SIDES = {
    "right": _Side("right", A, APRIME, "right_residual", "twist_right",
                   ("pi", "rho", "mu"), "basis_a", 2),
    "left": _Side("left", APRIME, A, "left_residual", "twist_left",
                  ("beta", "eta", "xi"), "basis_aprime", 3),
}


def side_spec(side):
    """The side table's row for "right" or "left"."""
    try:
        return _SIDES[side]
    except (KeyError, TypeError):
        raise ValueError("side must be 'right' or 'left'") from None


def _check_side_map(q, m, side):
    spec = side_spec(side)
    if m.domain != (spec.slot,) or m.codomain != spec.cod:
        raise DimensionError(
            f"a {side} deformation map needs signature "
            f"{spec.slot.value} -> {spec.cod.value}")
    if m.dims != q.dims:
        raise DimensionError("map dims do not match the ambient structure")


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


def graph_residual(q, d):
    """Failure of the graph of D to be closed under the total product.

    Evaluates the total product on pairs of graph vectors (x, Dx) and
    returns (A'-part) - D(A-part); zero iff right_residual(q, d) is zero.
    """
    _check_side_map(q, d, "right")
    from .quasitwilled import total_product
    omega = total_product(q)
    dims = q.dims
    # graph embedding j: A -> A + A', x |-> (x, Dx)
    da, dap = dims

    def jfn(t):
        x = t[0]
        col = [0] * (da + dap)
        col[x] = 1
        dvals = d.value((x,))
        for k in range(dap):
            col[da + k] = dvals[k]
        return col

    j = MultilinearMap.from_function((A,), TOTAL, dims, jfn)
    on_graph = insert(insert(omega, j, 0), j, 1)
    apart = project(on_graph, (A, A), A)
    appart = project(on_graph, (A, A), APRIME)
    return appart - insert(d, apart, 0)


class TwistResult:
    """Components of the twisted total product.

    For a right twist the extra A'(x)A' -> A component is identically
    zero; for a left twist it is `gamma`, which vanishes exactly when the
    twisting map is a left deformation map (then the result is again a
    valid split structure).
    """

    def __init__(self, side, pi, xi, eta, beta, rho, mu, theta, gamma):
        self.side = side
        self.pi, self.xi, self.eta, self.beta = pi, xi, eta, beta
        self.rho, self.mu, self.theta, self.gamma = rho, mu, theta, gamma
        self.dims = pi.dims

    def components(self):
        out = {"pi": self.pi, "xi": self.xi, "eta": self.eta,
               "beta": self.beta, "rho": self.rho, "mu": self.mu,
               "theta": self.theta}
        return out

    def reassemble(self):
        """Total binary product including the gamma block."""
        parts = [lift(m) for m in self.components().values()]
        parts.append(lift(self.gamma))
        return msum(parts)

    def is_quasi_twilled(self):
        return self.gamma.is_zero()

    def to_quasi_twilled(self, kind=None):
        if not self.gamma.is_zero():
            raise InvalidQTA("twisted product has a nonzero A'A' -> A block")
        return QuasiTwilledAlgebra(self.pi, self.xi, self.eta, self.beta,
                                   self.rho, self.mu, self.theta, kind=kind)


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


def conjugation_twist(q, f, side):
    """(Id - lift(f)) o Omega o ((Id + lift(f)) (x) (Id + lift(f))).

    The lift of a block map between the two summands squares to zero, so
    e^(lift) = Id + lift exactly; the result is the twisted total product
    and agrees with the closed component formulas.
    """
    _check_side_map(q, f, side)
    from .quasitwilled import total_product
    omega = total_product(q)
    ident = MultilinearMap.identity(TOTAL, q.dims)
    fhat = lift(f)
    e_plus = ident + fhat
    e_minus = ident - fhat
    return insert(e_minus, insert(insert(omega, e_plus, 0), e_plus, 1), 0)


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
    return right_residual(q, d).is_zero() == left_residual(q, b).is_zero()


def _induced_structures(q, m, side):
    spec = side_spec(side)
    spec.require_deformation(q, m)
    prod, act_l, act_r = spec.twisted_triple(q, m)
    alg = AssociativeAlgebra(prod, getattr(q, spec.basis))
    return alg, RepresentationPair(alg, act_l, act_r)


def induced_right_structures(q, d):
    """(A, pi^D) and the representation (A'; rho^D, mu^D) it acts through.

    Requires a vanishing right residual.
    """
    return _induced_structures(q, d, "right")


def induced_left_structures(q, b):
    """(A', beta^B) and the representation (A; eta^B, xi^B).

    Requires a vanishing left residual.
    """
    return _induced_structures(q, b, "left")


def classify_operator(q, m, side):
    """Name of the operator the map realizes, keyed on builder provenance.

    Returns "not a deformation map" when the residual is nonzero, the
    classical operator name when the builder kind's row (in
    `qta.quasitwilled`) names one for the side, and the generic side name
    otherwise.  Hand-built structures (no provenance) raise UnknownKind.
    """
    if q.kind is None:
        raise UnknownKind("structure was not produced by build_standard")
    res = side_spec(side).residual(q, m)
    if not res.is_zero():
        return "not a deformation map"
    row = _KINDS.get(q.kind)
    name = getattr(row, side, None)
    if name is None:
        return f"{side} deformation map"
    return name.format(**{key: q.ingredients.get(key) for key in row.scalars})
