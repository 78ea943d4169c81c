"""Concrete finite-dimensional associative algebras and their representations.

Structure constants are the input format.  These are the ingredients of
the stock builders, and they hold data only: `build_standard` reads them
as the builder tables of its kind (an algebra's product on either label
is the same table).  Each ingredient identity (associativity, the
representation, associative-representation and matched-pair identities)
is a row of the one bracket that `qta.quasitwilled.validate` computes for
the structure built from them, and a failed build names the first
ingredient whose rows are nonzero.
`check_associative` is one product's associator, the half-bracket
(1/2)[pi,pi], returned as a map so that a caller can report a witness.

Slot conventions for action maps, matching the component signatures of the
split-space product:

    rho : A (x) V -> V        rho(x, v)   "left action"
    mu  : V (x) A -> V        mu(v, x)    "right action"; the operator
                              form mu(x)(v) of the axioms is mu(v, x)
"""

from __future__ import annotations

from .errors import DimensionError
from .multilinear import A, APRIME, MultilinearMap, circle


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
    def from_table(cls, table, dim, basis_names=None, label=A):
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


class AssociativeRepresentation(RepresentationPair):
    """A representation on a space that carries its own associative product."""

    def __init__(self, algebra, rho, mu, prime_product):
        super().__init__(algebra, rho, mu)
        if prime_product.domain != (self.space_label, self.space_label) \
                or prime_product.codomain != self.space_label:
            raise DimensionError("prime product must be closed on the space label")
        self.prime_product = prime_product.with_dims(rho.dims)


class Cocycle2:
    """A 2-cochain omega: (alg, alg) -> space attached to a representation.

    A cocycle exactly when the extension product built from (rho, mu,
    omega) is associative, which `build_standard` checks.
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


def regular_representation(alg):
    """Left/right multiplication of an algebra on itself.

    The module copy lives on the opposite label, on dims (dim, dim); the
    returned pair has rho(x, v) = x.v and mu(v, x) = v.x.
    """
    prod = alg.product.with_dims((alg.dim, alg.dim))
    if alg.label == A:
        rho = prod.relabel((A, APRIME), APRIME)
        mu = prod.relabel((APRIME, A), APRIME)
    else:
        rho = prod.relabel((APRIME, A), A)
        mu = prod.relabel((A, APRIME), A)
    return RepresentationPair(
        AssociativeAlgebra(prod, alg.basis_names), rho, mu)
