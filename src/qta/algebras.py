"""Concrete finite-dimensional associative algebras and their representations.

Structure constants are the input format; all axioms are checked on basis
tuples only, which suffices by multilinearity.  Checks return the offending
multilinear map (a residual) rather than a boolean, so callers can report a
witness basis tuple.

Slot conventions for action maps, matching the component signatures of the
split-space product:

    rho : A (x) V -> V        rho(x, v)   "left action"
    mu  : V (x) A -> V        mu(v, x)    "right action"; the operator
                              form mu(x)(v) of the axioms is mu(v, x)
"""

from __future__ import annotations

from .errors import DimensionError
from .multilinear import (
    A, APRIME, MultilinearMap, circle, insert,
)


class ResidualReport:
    """Named residual maps; zero iff the checked axioms hold."""

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


class AssociativeAlgebra:
    """A finite-dimensional algebra given by its product table.

    The product is a closed-signature MultilinearMap; the carrier label
    (A or APRIME) is whatever the product uses.
    """

    def __init__(self, product, basis_names=None):
        if product.arity != 2 or any(l != product.codomain for l in product.domain):
            raise DimensionError("product must be a binary closed-signature map")
        self.product = product
        self.label = product.codomain
        self.dim = product.cod_size
        self.basis_names = list(basis_names) if basis_names else [
            f"e{i+1}" for i in range(self.dim)]
        if len(self.basis_names) != self.dim:
            raise DimensionError("basis name count != dim")

    @classmethod
    def from_table(cls, table, dim, basis_names=None, label=A, dims=None):
        if dims is None:
            dims = (0, dim) if label is APRIME else (dim, 0)
        product = MultilinearMap.from_table(table, (label, label), label, dims)
        return cls(product, basis_names)

    def is_associative(self):
        return check_associative(self).is_zero()

    def __repr__(self):
        return f"AssociativeAlgebra(dim={self.dim}, label={self.label.value})"


def check_associative(alg):
    """Half-bracket residual (1/2)[pi,pi]; zero iff the product is associative."""
    return circle(alg.product, alg.product)


class RepresentationPair:
    """Actions (rho, mu) of an algebra on a space.

    The algebra lives on one label, the space on the other; signatures are
    rho: (alg, space) -> space and mu: (space, alg) -> space.
    """

    def __init__(self, algebra, rho, mu):
        lab = algebra.label
        sp = rho.codomain
        if rho.domain != (lab, sp) or rho.codomain != sp:
            raise DimensionError("rho must have signature (alg, space) -> space")
        if mu.domain != (sp, lab) or mu.codomain != sp:
            raise DimensionError("mu must have signature (space, alg) -> space")
        if rho.dims != mu.dims:
            raise DimensionError("rho/mu dims mismatch")
        self.algebra = algebra
        self.space_label = sp
        self.space_dim = rho.cod_size
        self.rho = rho
        self.mu = mu

    def __repr__(self):
        return (f"RepresentationPair(alg dim {self.algebra.dim}, "
                f"space dim {self.space_dim})")


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


class AssociativeRepresentation(RepresentationPair):
    """A representation on a space that carries its own associative product."""

    def __init__(self, algebra, rho, mu, prime_product):
        super().__init__(algebra, rho, mu)
        if prime_product.domain != (self.space_label, self.space_label) \
                or prime_product.codomain != self.space_label:
            raise DimensionError("prime product must be closed on the space label")
        self.prime_product = prime_product.with_dims(rho.dims)


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


class Cocycle2:
    """A 2-cochain omega: (alg, alg) -> space attached to a representation.

    Accepted as a cocycle exactly when the extension product built from
    (rho, mu, omega) is associative; that check lives with the builders.
    """

    def __init__(self, rep, omega):
        lab = rep.algebra.label
        if omega.domain != (lab, lab) or omega.codomain != rep.space_label:
            raise DimensionError("omega must map (alg, alg) -> space")
        self.rep = rep
        self.omega = omega.with_dims(rep.rho.dims)


class MatchedPairData:
    """Two algebras acting on each other.

    alg_a on label A, alg_prime on label APRIME; actions in split-space
    slot order: rho (A, A') -> A', mu (A', A) -> A', eta (A', A) -> A,
    xi (A, A') -> A.  The operator forms of the compatibility identities
    are rho(x)u = rho(x, u), mu(x)u = mu(u, x), eta(u)x = eta(u, x),
    xi(u)x = xi(x, u).
    """

    def __init__(self, alg_a, alg_prime, rho, mu, eta, xi):
        if alg_a.label != A or alg_prime.label != APRIME:
            raise DimensionError("matched pair algebras must live on A and A'")
        dims = rho.dims
        for name, m, dom, cod in (("rho", rho, (A, APRIME), APRIME),
                                  ("mu", mu, (APRIME, A), APRIME),
                                  ("eta", eta, (APRIME, A), A),
                                  ("xi", xi, (A, APRIME), A)):
            if m.domain != dom or m.codomain != cod or m.dims != dims:
                raise DimensionError(f"{name} has the wrong signature")
        self.alg_a = alg_a
        self.alg_prime = alg_prime
        self.rho, self.mu, self.eta, self.xi = rho, mu, eta, xi
        self.dims = dims

    def representation_on_prime(self):
        return RepresentationPair(
            AssociativeAlgebra(self.alg_a.product.with_dims(self.dims),
                               self.alg_a.basis_names),
            self.rho, self.mu)

    def representation_on_a(self):
        return RepresentationPair(
            AssociativeAlgebra(self.alg_prime.product.with_dims(self.dims),
                               self.alg_prime.basis_names),
            self.eta, self.xi)


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


def regular_representation(alg, dims=None):
    """Left/right multiplication of an algebra on itself.

    The module copy lives on the opposite label; the returned pair has
    rho(x, v) = x.v and mu(v, x) = v.x.
    """
    other = APRIME if alg.label == A else A
    if dims is None:
        dims = (alg.dim, alg.dim)
    prod = alg.product.with_dims(dims)
    if alg.label == A:
        rho = prod.relabel((A, APRIME), APRIME)
        mu = prod.relabel((APRIME, A), APRIME)
    else:
        rho = prod.relabel((APRIME, A), A)
        mu = prod.relabel((A, APRIME), A)
    return RepresentationPair(
        AssociativeAlgebra(prod, alg.basis_names), rho, mu)
