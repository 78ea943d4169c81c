"""Split associative structures on A + A' with A' a subalgebra.

The total product decomposes into seven components

    pi   : A  (x) A  -> A        xi  : A  (x) A' -> A
    eta  : A' (x) A  -> A        beta: A' (x) A' -> A'
    rho  : A  (x) A' -> A'       mu  : A' (x) A  -> A'
    theta: A  (x) A  -> A'

with no A'(x)A' -> A component (that block being zero is exactly the
subalgebra condition).  A structure is immutable and builds its total
product Delta once.  Being quasi-twilled is one equation, [Delta, Delta] =
0, and `validate` computes its half-bracket over the integers: Delta is
cleared to ints over one common denominator L, the kernel's circle product
runs on those ints, and what survives comes back as Fractions over L^2, so
the half-bracket is the Fraction one, bit for bit (brackets, twists and
the controlling algebra still multiply Fractions).  Its sixteen blocks
are the sixteen block equations of associativity (`EQUATIONS`): fifteen
involve the components, and the sixteenth (the A'A'A' -> A block) holds
automatically for data of this shape.  `structure_residuals` reads the
rows off the one bracket; the literal evaluation of each displayed
equation is a test oracle.  `require_quasi_twilled` is the one validity
verdict, kept on the structure as `verified`, that the controlling
algebra, the cohomology, the induced structures and the CLI read.

The stock builders (`build_standard`) read their ingredient verdicts off
the same rows: for the zero blocks of a kind, each of its ingredient
identities (associativity, the representation, associative-representation
and matched-pair identities, the cocycle condition) is one row times a
fixed nonzero scalar.  A build computes the half-bracket once; if it
fails, the rows of that same bracket name the first ingredient whose rows
are nonzero.  The per-identity checks are test oracles.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from types import MappingProxyType

from . import kernel
from .algebras import (
    AssociativeAlgebra, AssociativeRepresentation, Cocycle2, MatchedPairData,
    RepresentationPair, regular_representation,
)
from .errors import DimensionError, IngredientError, InvalidQTA, UnknownKind
from .linalg import _denominator, _ints
from .multilinear import (
    A, APRIME, MultilinearMap, _adopt, lift_blocks, project,
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

    An immutable value, as `MultilinearMap` is.  Construction checks the
    signatures, the number of basis names and the builder kind; whether
    the structure equations hold is the job of `validate`, and `verified`
    records a pass of `require_quasi_twilled`.
    """

    __slots__ = COMPONENT_NAMES + ("dims", "kind", "ingredients", "basis_a",
                                   "basis_aprime", "_delta", "verified")

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
        ingredients = MappingProxyType(dict(ingredients or {}))
        if kind is not None and kind not in BUILDER_KINDS:
            raise UnknownKind(f"unknown builder kind {kind!r}")
        scalars = _KINDS[kind].scalars if kind is not None else ()
        for key in scalars:
            if key not in ingredients:
                raise IngredientError(f"{kind} needs the ingredient {key!r}")
        basis_a = tuple(basis_a or (f"e{i+1}" for i in range(dims[0])))
        basis_aprime = tuple(
            basis_aprime or (f"f{i+1}" for i in range(dims[1])))
        if (len(basis_a), len(basis_aprime)) != dims:
            raise DimensionError(
                f"basis names ({len(basis_a)}, {len(basis_aprime)}) do not "
                f"match dims {dims}")
        fields = dict(
            comps, dims=dims, kind=kind, ingredients=ingredients,
            basis_a=basis_a, basis_aprime=basis_aprime,
            _delta=None, verified=False)
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("QuasiTwilledAlgebra is immutable")

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

    def _rebased(self, basis_a, basis_aprime):
        """The same structure, Delta and verdict under other basis names
        (self, if the names are its own)."""
        basis_a, basis_aprime = tuple(basis_a), tuple(basis_aprime)
        if (basis_a, basis_aprime) == (self.basis_a, self.basis_aprime):
            return self
        new = object.__new__(QuasiTwilledAlgebra)
        for name in self.__slots__:
            object.__setattr__(new, name, getattr(self, name))
        object.__setattr__(new, "basis_a", basis_a)
        object.__setattr__(new, "basis_aprime", basis_aprime)
        return new

    def __repr__(self):
        return (f"QuasiTwilledAlgebra(dims={self.dims}, "
                f"kind={self.kind or 'custom'})")


def total_product(q):
    """The total binary product on A + A', built once per structure:
    `lift_blocks` writes the nonzeros of its nonzero components in one
    pass (the zero map if all are zero)."""
    if q._delta is None:
        comps = [getattr(q, name) for name in COMPONENT_NAMES]
        object.__setattr__(q, "_delta", lift_blocks(
            [m for m in comps if m.store], q.dims))
    return q._delta


def validate(q):
    """Half-bracket Delta o Delta = 1/2 [Delta, Delta] of the total
    product; zero iff q is quasi-twilled.

    It runs over the integers: the store of Delta is cleared to ints over
    L, the lcm of its denominators (`linalg._denominator`, `_ints`), the
    kernel's circle product runs on that int store, and each entry that
    survives is v / L^2.  The result equals the circle product over
    Fractions entry for entry, in the same store order.
    """
    delta = total_product(q)
    den = _denominator((delta.store,))
    ints = _ints(delta.store, den)
    sizes, cod = delta.slot_sizes, delta.cod_size
    den *= den
    store = kernel.circle(ints, sizes, cod, ints, sizes, cod)
    return _adopt((delta.codomain,) * 3, delta.codomain, delta.dims,
                  (cod,) * 3, cod,
                  {i: Fraction(v, den) for i, v in store.items()})


def _passes(q, half):
    """Whether the half-bracket `half` of q vanishes; a pass is kept on q
    as `verified`."""
    if half.is_zero():
        object.__setattr__(q, "verified", True)
        return True
    return False


_NOT_QUASI_TWILLED = ("structure equations fail; not a quasi-twilled "
                      "algebra")


def require_quasi_twilled(q):
    """The total product Delta of q, raising InvalidQTA unless q is
    quasi-twilled ([Delta, Delta] = 0).  A pass is kept on q for both
    sides and every caller; a failure raises again on every call."""
    if not q.verified and not _passes(q, validate(q)):
        raise InvalidQTA(_NOT_QUASI_TWILLED)
    return total_product(q)


class StructureResidual(namedtuple("StructureResidual", (
        "name",        # left-hand side, in component notation
        "block",       # (domain labels, codomain label) the equation lives on
        "residual",    # MultilinearMap on that block
))):
    __slots__ = ()


# The sixteen block equations of [Delta, Delta] = 0: each displayed
# left-hand side, its block, and its multiple of the half-bracket's block
# (the displayed [beta,beta] is the full bracket).  The last block carries
# no component equation and vanishes structurally.
EQUATIONS = (
    ("1/2[pi,pi] - (xi o theta)_2 + (eta o theta)_1", ((A, A, A), A), 1),
    ("(rho o pi)_1 + 1/2[rho,rho] - (theta o xi)_2 + (beta o theta)_1",
     ((A, A, APRIME), APRIME), 1),
    ("-(mu o pi)_2 + 1/2[mu,mu] + (theta o eta)_1 - (beta o theta)_2",
     ((APRIME, A, A), APRIME), 1),
    ("(pi o xi)_1 - (pi o eta)_2 + (eta o rho)_1 - (xi o mu)_2",
     ((A, APRIME, A), A), 1),
    ("-(pi o xi)_2 + (xi o pi)_1 - (xi o rho)_2", ((A, A, APRIME), A), 1),
    ("(pi o eta)_1 - (eta o pi)_2 + (eta o mu)_1", ((APRIME, A, A), A), 1),
    ("theta o pi - (rho o theta)_2 + (mu o theta)_1",
     ((A, A, A), APRIME), 1),
    ("[rho,mu] + (theta o xi)_1 - (theta o eta)_2",
     ((A, APRIME, A), APRIME), 1),
    ("(rho o xi)_1 + (beta o rho)_1 - (rho o beta)_2",
     ((A, APRIME, APRIME), APRIME), 1),
    ("(rho o eta)_1 - (beta o rho)_2 - (mu o xi)_2 + (beta o mu)_1",
     ((APRIME, A, APRIME), APRIME), 1),
    ("-(mu o eta)_2 + (mu o beta)_1 - (beta o mu)_2",
     ((APRIME, APRIME, A), APRIME), 1),
    ("1/2[xi,xi] - (xi o beta)_2", ((A, APRIME, APRIME), A), 1),
    ("[xi,eta]", ((APRIME, A, APRIME), A), 1),
    ("1/2[eta,eta] + (eta o beta)_1", ((APRIME, APRIME, A), A), 1),
    ("[beta,beta]", ((APRIME, APRIME, APRIME), APRIME), 2),
    ("A'A'A' -> A block (zero: A' is a subalgebra)",
     ((APRIME, APRIME, APRIME), A), 1),
)


def equation_rows(half):
    """The sixteen `EQUATIONS` rows read off one half-bracket: each is the
    projection of `half` to its block, times its multiple."""
    return [StructureResidual(name, block,
                              project(half, *block).scale(multiple))
            for name, block, multiple in EQUATIONS]


def structure_residuals(q):
    """The sixteen block equations equivalent to associativity: the rows
    of the one half-bracket validate(q)."""
    return equation_rows(validate(q))


# -- builders ----------------------------------------------------------------


def build_standard(kind, **ingredients):
    """Instantiate one of the stock split structures.

    The kind's row of `_KINDS` (the builder-kind table at the end of this
    module) names the builder and the keywords it reads, in order; a
    missing or unknown keyword raises IngredientError naming it, and the
    result records the kind as `q.kind`.

    kinds and ingredients:
      modified_direct_sum   algebra, weight
      semidirect            rep
      semidirect_assoc      assoc_rep
      direct_product        algebra, algebra_prime
      abelian_extension     cocycle
      reynolds              algebra
      matched_pair          matched_pair (MatchedPairData)

    The output is validated once and carries the pass.  For the shape of
    its kind, each ingredient identity is one row of `EQUATIONS`, so a
    structure is quasi-twilled exactly when its ingredient conditions
    hold.  Only if validation fails are the rows read, off the same
    half-bracket, and IngredientError names the first ingredient, in the
    kind's check order, whose rows are nonzero (`_KINDS`,
    `ingredient_rows`); only the kind's rows are projected, up to that
    ingredient.
    """
    if kind not in BUILDER_KINDS:
        raise UnknownKind(f"unknown builder kind {kind!r}")
    row = _KINDS[kind]
    unknown = [k for k in ingredients if k not in row.keywords]
    if unknown:
        raise IngredientError(
            f"{kind} takes no ingredient {unknown[0]!r}; "
            f"it takes {', '.join(row.keywords)}")
    missing = [k for k in row.keywords if k not in ingredients]
    if missing:
        raise IngredientError(f"{kind} needs the ingredient {missing[0]!r}")
    q = row.build(kind, *(ingredients[k] for k in row.keywords))
    half = validate(q)
    if _passes(q, half):
        return q
    for message, identities in row.ingredient_rows:
        failed = [name for i, name in identities
                  if not project(half, *EQUATIONS[i][1]).is_zero()]
        if failed:
            raise IngredientError(message.format(failed))
    raise InvalidQTA(_NOT_QUASI_TWILLED)


def _build_modified(kind, alg, weight):
    """A + A with (x,u)(y,v) = (x.v + u.y, weight*(x.y) + u.v)."""
    weight = Fraction(weight)
    dims = (alg.dim, alg.dim)
    prod = alg.product.with_dims(dims)
    return QuasiTwilledAlgebra.from_components(
        dims, kind=kind,
        xi=prod.relabel((A, APRIME), A),
        eta=prod.relabel((APRIME, A), A),
        beta=prod.relabel((APRIME, APRIME), APRIME),
        theta=prod.relabel((A, A), APRIME).scale(weight),
        ingredients={"algebra": alg, "weight": weight},
        basis_a=alg.basis_names,
        basis_aprime=[n + "'" for n in alg.basis_names])


def _build_semidirect(kind, rep):
    """(x,u)(y,v) = (x.y, rho(x)v + mu(y)u)."""
    dims = rep.rho.dims
    return QuasiTwilledAlgebra.from_components(
        dims, kind=kind,
        pi=rep.algebra.product.with_dims(dims),
        rho=rep.rho, mu=rep.mu,
        ingredients={"algebra": rep.algebra, "rep": rep},
        basis_a=rep.algebra.basis_names)


def _build_semidirect_assoc(kind, ar):
    """(x,u)(y,v) = (x.y, rho(x)v + mu(y)u + u.v)."""
    dims = ar.rho.dims
    return QuasiTwilledAlgebra.from_components(
        dims, kind=kind,
        pi=ar.algebra.product.with_dims(dims),
        beta=ar.prime_product,
        rho=ar.rho, mu=ar.mu,
        ingredients={"algebra": ar.algebra, "assoc_rep": ar},
        basis_a=ar.algebra.basis_names)


def _build_direct_product(kind, alg, alg_prime):
    """(x,u)(y,v) = (x.y, u.v)."""
    dims = (alg.dim, alg_prime.dim)
    return QuasiTwilledAlgebra.from_components(
        dims, kind=kind,
        pi=alg.product.with_dims(dims),
        beta=alg_prime.product.relabel((APRIME, APRIME), APRIME, dims),
        ingredients={"algebra": alg, "algebra_prime": alg_prime},
        basis_a=alg.basis_names,
        basis_aprime=alg_prime.basis_names)


def _build_abelian_extension(kind, cocycle):
    """(x,u)(y,v) = (x.y, rho(x)v + mu(y)u + omega(x,y)).

    omega is accepted exactly when this product is associative (the
    operational cocycle condition).
    """
    rep = cocycle.rep
    dims = rep.rho.dims
    return QuasiTwilledAlgebra.from_components(
        dims, kind=kind,
        pi=rep.algebra.product.with_dims(dims),
        rho=rep.rho, mu=rep.mu,
        theta=cocycle.omega,
        ingredients={"algebra": rep.algebra, "rep": rep,
                     "omega": cocycle.omega},
        basis_a=rep.algebra.basis_names)


def _build_reynolds(kind, alg):
    """Abelian extension over the regular representation with omega = product."""
    rep = regular_representation(alg)
    omega = rep.algebra.product.relabel((A, A), APRIME)
    return QuasiTwilledAlgebra.from_components(
        rep.rho.dims, kind=kind, pi=rep.algebra.product, rho=rep.rho, mu=rep.mu,
        theta=omega, ingredients={"algebra": alg, "rep": rep, "omega": omega},
        basis_a=alg.basis_names,
        basis_aprime=[n + "'" for n in alg.basis_names])


def _build_matched_pair(kind, mp):
    """(x,u)(y,v) = (x.y + xi(v)x + eta(u)y, u.v + rho(x)v + mu(y)u)."""
    dims = mp.dims
    return QuasiTwilledAlgebra.from_components(
        dims, kind=kind,
        pi=mp.alg_a.product.with_dims(dims),
        beta=mp.alg_prime.product.with_dims(dims),
        rho=mp.rho, mu=mp.mu, eta=mp.eta, xi=mp.xi,
        ingredients={"matched_pair": mp},
        basis_a=mp.alg_a.basis_names,
        basis_aprime=mp.alg_prime.basis_names)


# -- ingredient identities as rows of the one bracket -------------------------
#
# An ingredient is (IngredientError text, ((EQUATIONS row, identity), ...)):
# on the zero blocks of its kind, each row is its identity's residual times
# one fixed nonzero scalar (the associator of pi is row 0, that of beta row
# 14; the cocycle condition of an abelian extension is row 6).  The text
# takes the list of failing identities.


def _algebra(what, row):
    """An algebra ingredient: its associator is the row."""
    return (f"{what} is not associative", ((row, None),))


def _identities(what, rows, names):
    """An ingredient of several identities, each one row; its text lists
    the failing ones by name."""
    return (what + " fails: {}", tuple(zip(rows, names)))


_REPRESENTATION = ("rho(x.y) - rho(x)rho(y)", "mu(x.y) - mu(y)mu(x)",
                   "rho(x)mu(y) - mu(y)rho(x)")
_ASSOCIATIVE_REPRESENTATION = _REPRESENTATION + (
    "rho(x)(u.v) - (rho(x)u).v", "u.(rho(x)v) - (mu(x)u).v",
    "u.(mu(x)v) - mu(x)(u.v)")
_MATCHED_PAIR = (
    "rho(x)(u.v) - rho(xi(u)x)v - (rho(x)u).v",
    "mu(x)(u.v) - mu(eta(v)x)u - u.(mu(x)v)",
    "eta(u)(x.y) - eta(mu(x)u)y - (eta(u)x).y",
    "xi(u)(x.y) - xi(rho(y)u)x - x.(xi(u)y)",
    "rho(eta(u)x)v + (mu(x)u).v - mu(xi(v)x)u - u.(rho(x)v)",
    "eta(rho(x)u)y + (xi(u)x).y - xi(mu(y)u)x - x.(eta(u)y)")


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


class _Kind(namedtuple("_Kind", (
        "build",            # _build_*(kind, *keywords) -> the structure
        "ingredient_rows",  # its ingredients, in check order (see above)
        "keywords",         # build_standard ingredients, in `build` order
        "tables",           # builder tables of a document
        "from_tables",      # (table maps, basis_a, basis_aprime) -> keywords
        "scalars",          # scalar ingredients, top-level builder keys
        "same_dims",        # whether dim A' must equal dim A
        "right",            # name of its right deformation maps and
        "left",             # of its left ones (or None); {scalar} filled in
))):
    """One row of the paper's catalogue: a builder kind and its data."""

    __slots__ = ()


_KINDS = {
    "modified_direct_sum": _Kind(
        _build_modified, (_algebra("algebra", 14),),
        ("algebra", "weight"), ("product",),
        _doc_algebra, ("weight",), True,
        "modified Rota-Baxter operator of weight {weight}", None),
    "semidirect": _Kind(
        _build_semidirect,
        (_algebra("algebra", 0),
         _identities("representation", (1, 2, 7), _REPRESENTATION)),
        ("rep",), ("product", "rho", "mu"),
        _doc_semidirect, (), False,
        "derivation", "relative Rota-Baxter operator of weight 0"),
    "semidirect_assoc": _Kind(
        _build_semidirect_assoc,
        (_algebra("algebra", 0), _algebra("module algebra", 14),
         _identities("associative representation", (1, 2, 7, 8, 9, 10),
                     _ASSOCIATIVE_REPRESENTATION)),
        ("assoc_rep",),
        ("product", "product_prime", "rho", "mu"),
        _doc_semidirect_assoc, (), False, "crossed homomorphism", None),
    "direct_product": _Kind(
        _build_direct_product,
        (_algebra("algebra", 0), _algebra("second algebra", 14)),
        ("algebra", "algebra_prime"),
        ("product", "product_prime"),
        _doc_direct_product, (), False,
        "associative algebra homomorphism", None),
    "abelian_extension": _Kind(
        _build_abelian_extension,
        (_algebra("algebra", 0),
         _identities("representation", (1, 2, 7), _REPRESENTATION),
         ("omega is not a 2-cocycle: the extension product fails "
          "associativity", ((6, None),))),
        ("cocycle",),
        ("product", "rho", "mu", "omega"),
        _doc_abelian_extension, (), False,
        None, "twisted Rota-Baxter operator"),
    "reynolds": _Kind(
        _build_reynolds, (_algebra("algebra", 0),), ("algebra",), ("product",),
        _doc_algebra, (), True, None, "Reynolds operator"),
    "matched_pair": _Kind(
        _build_matched_pair,
        (_algebra("algebra A", 0), _algebra("algebra A'", 14),
         _identities("(A'; rho, mu) representation", (1, 2, 7),
                     _REPRESENTATION),
         _identities("(A; eta, xi) representation", (13, 11, 12),
                     _REPRESENTATION),
         _identities("matched pair compatibility", (8, 10, 5, 4, 9, 3),
                     _MATCHED_PAIR)),
        ("matched_pair",),
        ("product", "product_prime", "rho", "mu", "eta", "xi"),
        _doc_matched_pair, (), False,
        None, "deformation map of a matched pair"),
}

BUILDER_KINDS = tuple(_KINDS)
