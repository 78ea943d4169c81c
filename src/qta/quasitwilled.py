"""Split associative structures on A + A' with A' a subalgebra.

The total product decomposes into seven components

    pi   : A  (x) A  -> A        xi  : A  (x) A' -> A
    eta  : A' (x) A  -> A        beta: A' (x) A' -> A'
    rho  : A  (x) A' -> A'       mu  : A' (x) A  -> A'
    theta: A  (x) A  -> A'

with no A'(x)A' -> A component (that block being zero is exactly the
subalgebra condition).  Associativity of the total product is equivalent
to sixteen block equations; fifteen involve the components and the
sixteenth (the A'A'A' -> A block) holds automatically for data of this
shape.  `validate` computes the half-bracket of the total product;
`structure_residuals` evaluates the component equations one by one.  Their
agreement is itself a library test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebras import (
    AssociativeAlgebra, AssociativeRepresentation, Cocycle2, MatchedPairData,
    RepresentationPair, check_associative, check_associative_representation,
    check_matched_pair, check_representation, regular_representation,
)
from .errors import DimensionError, IngredientError, UnknownKind
from .multilinear import (
    A, APRIME, MultilinearMap, circle, circle_parts, gerstenhaber,
    lift, msum, project,
)

COMPONENT_SIGNATURES = {
    "pi": ((A, A), A),
    "xi": ((A, APRIME), A),
    "eta": ((APRIME, A), A),
    "beta": ((APRIME, APRIME), APRIME),
    "rho": ((A, APRIME), APRIME),
    "mu": ((APRIME, A), APRIME),
    "theta": ((A, A), APRIME),
}

COMPONENT_NAMES = tuple(COMPONENT_SIGNATURES)


class QuasiTwilledAlgebra:
    """The seven structure components, plus builder provenance.

    Construction only checks signatures; whether the structure equations
    hold is the job of `validate` / `structure_residuals`.
    """

    def __init__(self, pi, xi, eta, beta, rho, mu, theta,
                 kind=None, ingredients=None,
                 basis_a=None, basis_aprime=None):
        comps = {"pi": pi, "xi": xi, "eta": eta, "beta": beta,
                 "rho": rho, "mu": mu, "theta": theta}
        dims = pi.dims
        for name, m in comps.items():
            dom, cod = COMPONENT_SIGNATURES[name]
            if m.domain != dom or m.codomain != cod:
                raise DimensionError(f"component {name} has wrong signature")
            if m.dims != dims:
                raise DimensionError(f"component {name} has dims {m.dims}, "
                                     f"expected {dims}")
        self.pi, self.xi, self.eta, self.beta = pi, xi, eta, beta
        self.rho, self.mu, self.theta = rho, mu, theta
        self.dims = dims
        self.kind = kind
        self.ingredients = dict(ingredients) if ingredients else {}
        self.basis_a = list(basis_a) if basis_a else [
            f"e{i+1}" for i in range(dims[0])]
        self.basis_aprime = list(basis_aprime) if basis_aprime else [
            f"f{i+1}" for i in range(dims[1])]

    @property
    def dim_a(self):
        return self.dims[0]

    @property
    def dim_aprime(self):
        return self.dims[1]

    def components(self):
        return {name: getattr(self, name) for name in COMPONENT_NAMES}

    @classmethod
    def from_components(cls, dims, kind=None, ingredients=None,
                        basis_a=None, basis_aprime=None, **given):
        comps = {}
        for name in COMPONENT_NAMES:
            m = given.pop(name, None)
            if m is None:
                dom, cod = COMPONENT_SIGNATURES[name]
                m = MultilinearMap.zero(dom, cod, dims)
            comps[name] = m
        if given:
            raise DimensionError(f"unknown components: {sorted(given)}")
        return cls(kind=kind, ingredients=ingredients,
                   basis_a=basis_a, basis_aprime=basis_aprime, **comps)

    def total_basis_names(self):
        return self.basis_a + self.basis_aprime

    def __repr__(self):
        return (f"QuasiTwilledAlgebra(dims={self.dims}, "
                f"kind={self.kind or 'custom'})")


def total_product(q):
    """The total binary product on A + A', as the sum of lifted components."""
    return msum([lift(m) for m in q.components().values()])


def validate(q):
    """Half-bracket of the total product; zero iff q is quasi-twilled."""
    omega = total_product(q)
    return circle(omega, omega)


class StructureResidual(NamedTuple):
    name: str          # left-hand side, in component notation
    block: tuple       # (domain labels, codomain label) the equation lives on
    residual: object   # MultilinearMap on that block


def structure_residuals(q):
    """The sixteen block equations equivalent to associativity.

    Each entry evaluates one displayed left-hand side literally (lifted
    components, circle-product calculus) and restricts it to its block.
    The last entry is the A'A'A' -> A block, which carries no component
    equation and vanishes structurally.
    """
    pi, xi, eta = lift(q.pi), lift(q.xi), lift(q.eta)
    beta, rho, mu, theta = lift(q.beta), lift(q.rho), lift(q.mu), lift(q.theta)

    def p1(f, g):
        return circle_parts(f, g)[0]

    def p2(f, g):
        return circle_parts(f, g)[1]

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


# -- builders ----------------------------------------------------------------


def _require(check_report, what):
    if not check_report.is_zero:
        raise IngredientError(
            f"{what} fails: {check_report.nonzero_names()}")


def _require_assoc(alg, what):
    if not check_associative(alg).is_zero():
        raise IngredientError(f"{what} is not associative")


def build_standard(kind, **ingredients):
    """Instantiate one of the stock split structures.

    The kind's row of `_KINDS` (the builder-kind table at the end of this
    module) names the builder and the keywords it reads, in order; other
    keywords are ignored and the result records the kind as `q.kind`.

    kinds and ingredients:
      modified_direct_sum   algebra, weight
      semidirect            rep
      semidirect_assoc      assoc_rep
      direct_product        algebra, algebra_prime
      abelian_extension     cocycle
      reynolds              algebra
      matched_pair          matched_pair (MatchedPairData)

    Ingredients are checked first (IngredientError on failure); the output
    then satisfies the structure equations.
    """
    if kind not in BUILDER_KINDS:
        raise UnknownKind(f"unknown builder kind {kind!r}")
    row = _KINDS[kind]
    q = row.build(*(ingredients[k] for k in row.keywords))
    q.kind = kind
    return q


def _build_modified(alg, weight):
    """A + A with (x,u)(y,v) = (x.v + u.y, weight*(x.y) + u.v)."""
    weight = Fraction(weight)
    _require_assoc(alg, "algebra")
    d = alg.dim
    dims = (d, d)
    prod = alg.product.with_dims(dims)
    return QuasiTwilledAlgebra.from_components(
        dims,
        xi=prod.relabel((A, APRIME), A),
        eta=prod.relabel((APRIME, A), A),
        beta=prod.relabel((APRIME, APRIME), APRIME),
        theta=prod.relabel((A, A), APRIME).scale(weight),
        ingredients={"algebra": alg, "weight": weight},
        basis_a=alg.basis_names,
        basis_aprime=[n + "'" for n in alg.basis_names])


def _build_semidirect(rep):
    """(x,u)(y,v) = (x.y, rho(x)v + mu(y)u)."""
    _require_assoc(rep.algebra, "algebra")
    _require(check_representation(rep), "representation")
    dims = rep.rho.dims
    return QuasiTwilledAlgebra.from_components(
        dims,
        pi=rep.algebra.product.with_dims(dims),
        rho=rep.rho, mu=rep.mu,
        ingredients={"algebra": rep.algebra, "rep": rep},
        basis_a=rep.algebra.basis_names)


def _build_semidirect_assoc(ar):
    """(x,u)(y,v) = (x.y, rho(x)v + mu(y)u + u.v)."""
    _require_assoc(ar.algebra, "algebra")
    prime_alg = AssociativeAlgebra(ar.prime_product)
    _require_assoc(prime_alg, "module algebra")
    _require(check_associative_representation(ar), "associative representation")
    dims = ar.rho.dims
    return QuasiTwilledAlgebra.from_components(
        dims,
        pi=ar.algebra.product.with_dims(dims),
        beta=ar.prime_product,
        rho=ar.rho, mu=ar.mu,
        ingredients={"algebra": ar.algebra, "assoc_rep": ar},
        basis_a=ar.algebra.basis_names)


def _build_direct_product(alg, alg_prime):
    """(x,u)(y,v) = (x.y, u.v)."""
    _require_assoc(alg, "algebra")
    _require_assoc(alg_prime, "second algebra")
    dims = (alg.dim, alg_prime.dim)
    return QuasiTwilledAlgebra.from_components(
        dims,
        pi=alg.product.with_dims(dims),
        beta=alg_prime.product.relabel((APRIME, APRIME), APRIME, dims),
        ingredients={"algebra": alg, "algebra_prime": alg_prime},
        basis_a=alg.basis_names,
        basis_aprime=alg_prime.basis_names)


def _build_abelian_extension(cocycle):
    """(x,u)(y,v) = (x.y, rho(x)v + mu(y)u + omega(x,y)).

    omega is accepted exactly when this product is associative; we build
    first and let the caller's validation decide (the operational cocycle
    condition).
    """
    rep = cocycle.rep
    _require_assoc(rep.algebra, "algebra")
    _require(check_representation(rep), "representation")
    dims = rep.rho.dims
    q = QuasiTwilledAlgebra.from_components(
        dims,
        pi=rep.algebra.product.with_dims(dims),
        rho=rep.rho, mu=rep.mu,
        theta=cocycle.omega,
        ingredients={"algebra": rep.algebra, "rep": rep,
                     "omega": cocycle.omega},
        basis_a=rep.algebra.basis_names)
    if not validate(q).is_zero():
        raise IngredientError("omega is not a 2-cocycle: the extension "
                              "product fails associativity")
    return q


def _build_reynolds(alg):
    """Abelian extension over the regular representation with omega = product."""
    _require_assoc(alg, "algebra")
    rep = regular_representation(alg)
    dims = rep.rho.dims
    omega = alg.product.with_dims(dims).relabel((A, A), APRIME, dims)
    q = _build_abelian_extension(Cocycle2(rep, omega))
    return QuasiTwilledAlgebra(
        q.pi, q.xi, q.eta, q.beta, q.rho, q.mu, q.theta,
        ingredients={"algebra": alg, "rep": rep, "omega": omega},
        basis_a=alg.basis_names,
        basis_aprime=[n + "'" for n in alg.basis_names])


def _build_matched_pair(mp):
    """(x,u)(y,v) = (x.y + xi(v)x + eta(u)y, u.v + rho(x)v + mu(y)u)."""
    _require_assoc(mp.alg_a, "algebra A")
    _require_assoc(mp.alg_prime, "algebra A'")
    _require(check_representation(mp.representation_on_prime()),
             "(A'; rho, mu) representation")
    _require(check_representation(mp.representation_on_a()),
             "(A; eta, xi) representation")
    _require(check_matched_pair(mp), "matched pair compatibility")
    dims = mp.dims
    return QuasiTwilledAlgebra.from_components(
        dims,
        pi=mp.alg_a.product.with_dims(dims),
        beta=mp.alg_prime.product.with_dims(dims),
        rho=mp.rho, mu=mp.mu, eta=mp.eta, xi=mp.xi,
        ingredients={"matched_pair": mp},
        basis_a=mp.alg_a.basis_names,
        basis_aprime=mp.alg_prime.basis_names)


# -- the catalogue of builder kinds -------------------------------------------
#
# Ingredient functions turn a document's builder tables (as maps, keyed by
# table name) and its two bases into `build_standard` keywords.


def _doc_algebra(t, basis_a, basis_aprime):
    return {"algebra": AssociativeAlgebra(t["product"], basis_a)}


def _doc_rep(t, basis_a):
    return RepresentationPair(AssociativeAlgebra(t["product"], basis_a),
                              t["rho"], t["mu"])


def _doc_semidirect(t, basis_a, basis_aprime):
    return {"rep": _doc_rep(t, basis_a)}


def _doc_semidirect_assoc(t, basis_a, basis_aprime):
    return {"assoc_rep": AssociativeRepresentation(
        AssociativeAlgebra(t["product"], basis_a), t["rho"], t["mu"],
        t["product_prime"])}


def _doc_direct_product(t, basis_a, basis_aprime):
    return {**_doc_algebra(t, basis_a, basis_aprime),
            "algebra_prime": AssociativeAlgebra(t["product_prime"],
                                                basis_aprime)}


def _doc_abelian_extension(t, basis_a, basis_aprime):
    return {"cocycle": Cocycle2(_doc_rep(t, basis_a), t["omega"])}


def _doc_matched_pair(t, basis_a, basis_aprime):
    return {"matched_pair": MatchedPairData(
        AssociativeAlgebra(t["product"], basis_a),
        AssociativeAlgebra(t["product_prime"], basis_aprime),
        t["rho"], t["mu"], t["eta"], t["xi"])}


class _Kind(NamedTuple):
    """One row of the paper's catalogue: a builder kind and its data."""

    build: object           # the _build_* function
    keywords: tuple         # build_standard ingredients, in `build` order
    tables: tuple           # builder tables of a document
    from_tables: object     # (table maps, basis_a, basis_aprime) -> keywords
    scalars: tuple          # scalar ingredients, top-level builder keys
    same_dims: bool         # whether dim A' must equal dim A
    right: str | None       # name of its right deformation maps and
    left: str | None        # of its left ones; {scalar} fields filled in


_KINDS = {
    "modified_direct_sum": _Kind(
        _build_modified, ("algebra", "weight"), ("product",),
        _doc_algebra, ("weight",), True,
        "modified Rota-Baxter operator of weight {weight}", None),
    "semidirect": _Kind(
        _build_semidirect, ("rep",), ("product", "rho", "mu"),
        _doc_semidirect, (), False,
        "derivation", "relative Rota-Baxter operator of weight 0"),
    "semidirect_assoc": _Kind(
        _build_semidirect_assoc, ("assoc_rep",),
        ("product", "product_prime", "rho", "mu"),
        _doc_semidirect_assoc, (), False, "crossed homomorphism", None),
    "direct_product": _Kind(
        _build_direct_product, ("algebra", "algebra_prime"),
        ("product", "product_prime"),
        _doc_direct_product, (), False,
        "associative algebra homomorphism", None),
    "abelian_extension": _Kind(
        _build_abelian_extension, ("cocycle",),
        ("product", "rho", "mu", "omega"),
        _doc_abelian_extension, (), False,
        None, "twisted Rota-Baxter operator"),
    "reynolds": _Kind(
        _build_reynolds, ("algebra",), ("product",),
        _doc_algebra, (), True, None, "Reynolds operator"),
    "matched_pair": _Kind(
        _build_matched_pair, ("matched_pair",),
        ("product", "product_prime", "rho", "mu", "eta", "xi"),
        _doc_matched_pair, (), False,
        None, "deformation map of a matched pair"),
}

BUILDER_KINDS = tuple(_KINDS)
