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

Each stock structure is built from the builder tables of its kind
(`product`, `rho`, `mu`, ...), which one fill rule turns into the
components (`fill_components`).  `build_standard` turns its ingredient
objects into tables and builds through the checked constructor
(`build_from_tables`); a document's tables, which `qta.io.parse` has
checked entry by entry, are adopted into the structure with nothing
checked again (`_build_adopted`, `_adopt_structure`).  A build reads its
ingredient verdicts off the same rows: for the zero blocks of a kind,
each of its ingredient identities (associativity, the representation,
associative-representation and matched-pair identities, the cocycle
condition) is one row times a fixed nonzero scalar.  A build computes
the half-bracket once; if it fails, the rows of that same bracket name
the first ingredient whose rows are nonzero.  The per-identity checks
are test oracles.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from types import MappingProxyType

from . import kernel
from .algebras import AssociativeAlgebra
from .errors import DimensionError, IngredientError, InvalidQTA, UnknownKind
from .linalg import _denominator, _ints
from .multilinear import (
    A, APRIME, MultilinearMap, _adopt, _label_size, lift_blocks, project,
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
        if kind is not None:
            _require_scalars(kind, ingredients)
        basis_a = tuple(basis_a or (f"e{i+1}" for i in range(dims[0])))
        basis_aprime = tuple(
            basis_aprime or (f"f{i+1}" for i in range(dims[1])))
        if (len(basis_a), len(basis_aprime)) != dims:
            raise DimensionError(
                f"basis names ({len(basis_a)}, {len(basis_aprime)}) do not "
                f"match dims {dims}")
        _set_fields(self, comps, dims, kind, ingredients, basis_a,
                    basis_aprime)

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

    def __repr__(self):
        return (f"QuasiTwilledAlgebra(dims={self.dims}, "
                f"kind={self.kind or 'custom'})")


def _set_fields(q, comps, dims, kind, ingredients, basis_a, basis_aprime):
    for name, value in dict(
            comps, dims=dims, kind=kind, ingredients=ingredients,
            basis_a=basis_a, basis_aprime=basis_aprime,
            _delta=None, verified=False).items():
        object.__setattr__(q, name, value)


def _adopt_structure(dims, given, basis_a, basis_aprime, kind=None,
                     scalars=None):
    """The trusted entrance, as `multilinear._adopt` is for maps: the
    structure of components that `qta.io.parse` has checked (or that a
    checked structure holds), with no check again.

    `given` maps component names to maps on their own signatures and on
    `dims`; an absent component is the empty store on its signature.
    The basis names must number the dims, and `scalars` must hold the
    kind's scalars.
    """
    comps = {}
    for name in COMPONENT_NAMES:
        m = given.get(name)
        comps[name] = m if m is not None else _adopt(
            *table_shape(name, dims), {})
    q = object.__new__(QuasiTwilledAlgebra)
    _set_fields(q, comps, dims, kind, MappingProxyType(dict(scalars or {})),
                tuple(basis_a), tuple(basis_aprime))
    return q


def _require_scalars(kind, ingredients):
    """Raise IngredientError unless `ingredients` holds each scalar
    ingredient of the kind."""
    for key in _KINDS[kind].scalars:
        if key not in ingredients:
            raise IngredientError(f"{kind} needs the ingredient {key!r}")


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
#
# A builder table has the signature of the component it is named for
# (`table_signature`): `product` is pi, `product_prime` is beta, `omega` is
# theta, and rho, mu, eta, xi keep their names.  It fills that component as
# it is, unless the `fills` of its kind name the components it fills.

_TABLE_COMPONENTS = {"product": "pi", "product_prime": "beta",
                     "omega": "theta"}


def table_signature(name):
    """(domain labels, codomain label) of a builder table or a component."""
    return COMPONENT_SIGNATURES[_TABLE_COMPONENTS.get(name, name)]


def table_shape(name, dims):
    """(domain labels, codomain label, dims, slot sizes, codomain size) of
    a builder table or a component on `dims`: the shape `_adopt` takes."""
    (left, right), cod = table_signature(name)
    return ((left, right), cod, dims,
            (_label_size(left, dims), _label_size(right, dims)),
            _label_size(cod, dims))


def fill_components(kind, tables, scalars):
    """The components, by name, that the builder tables of a kind fill.

    A table fills its own component as it is, or else each component that
    the kind's `fills` names for it: the table's store adopted onto that
    component's signature, times the scalar of `scalars` named with it.
    Such a kind needs dim A' = dim A (`same_dims`), so the sizes stay the
    table's own.
    """
    row = _KINDS[kind]
    comps = {}
    for name in row.tables:
        m = tables[name]
        if name not in row.fills:
            comps[_TABLE_COMPONENTS.get(name, name)] = m
            continue
        if m.dims[0] != m.dims[1]:
            raise DimensionError(f"{kind} needs dim A == dim Aprime")
        for comp, scalar in row.fills[name]:
            filled = _adopt(*COMPONENT_SIGNATURES[comp], m.dims,
                            m.slot_sizes, m.cod_size, m.store)
            comps[comp] = (filled if scalar is None
                           else filled.scale(scalars[scalar]))
    return comps


def build_from_tables(kind, tables, scalars, basis_a=None, basis_aprime=None):
    """The structure of a builder kind, from its tables, validated once.

    `tables` maps each table name of the kind to its map, on the
    signature `table_signature` gives and on the dims of the structure;
    `scalars` holds the kind's scalar ingredients by name, and the
    structure keeps it as `q.ingredients`.  A document is built here, and
    so is every `build_standard` structure.

    The output carries the pass of its one validation.  For the shape of
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
    _require_scalars(kind, scalars)
    return _validated(QuasiTwilledAlgebra.from_components(
        tables["product"].dims, kind=kind, ingredients=scalars,
        basis_a=basis_a, basis_aprime=basis_aprime,
        **fill_components(kind, tables, scalars)))


def _build_adopted(kind, tables, scalars, dims, basis_a, basis_aprime):
    """`build_from_tables` on tables, scalars and basis names that
    `qta.io.parse` has checked: the structure is adopted
    (`_adopt_structure`), with no signature or scalar checked again, and
    validated once."""
    return _validated(_adopt_structure(
        dims, fill_components(kind, tables, scalars), basis_a, basis_aprime,
        kind, scalars))


def _validated(q):
    """q, with the pass of its one validation; else IngredientError naming
    the first failing ingredient of its kind, read off the same
    half-bracket (see `build_from_tables`)."""
    half = validate(q)
    if _passes(q, half):
        return q
    for message, identities in _KINDS[q.kind].ingredient_rows:
        failed = [name for i, name in identities
                  if not project(half, *EQUATIONS[i][1]).is_zero()]
        if failed:
            raise IngredientError(message.format(failed))
    raise InvalidQTA(_NOT_QUASI_TWILLED)


def build_standard(kind, **ingredients):
    """Instantiate one of the stock split structures from ingredient
    objects.

    The kind's row of `_KINDS` (the builder-kind table at the end of this
    module) names the keywords it reads, in order; a missing or unknown
    keyword raises IngredientError naming it.

    kinds and ingredients:
      modified_direct_sum   algebra, weight
      semidirect            rep
      semidirect_assoc      assoc_rep
      direct_product        algebra, algebra_prime
      abelian_extension     cocycle
      reynolds              algebra
      matched_pair          matched_pair (MatchedPairData)

    The keywords become the kind's builder tables and basis names
    (`_keyword_tables`), from which `build_from_tables` builds and
    validates the structure, as it does a document's.  The result
    records the kind as `q.kind` and the keywords as given, scalars as
    Fractions, as `q.ingredients`.
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
    ingredients = {key: Fraction(value) if key in row.scalars else value
                   for key, value in ingredients.items()}
    tables, basis_a, basis_aprime = _keyword_tables(row, ingredients)
    return build_from_tables(kind, tables, ingredients, basis_a, basis_aprime)


# the builder tables a `build_standard` keyword holds: (table, algebra or
# map) pairs read off its value
_KEYWORD_TABLES = {
    "algebra": lambda alg: (("product", alg),),
    "algebra_prime": lambda alg: (("product_prime", alg),),
    "rep": lambda rep: (("product", rep.algebra), ("rho", rep.rho),
                        ("mu", rep.mu)),
    "assoc_rep": lambda ar: (*_KEYWORD_TABLES["rep"](ar),
                             ("product_prime", ar.prime_product)),
    "cocycle": lambda c: (*_KEYWORD_TABLES["rep"](c.rep), ("omega", c.omega)),
    "matched_pair": lambda mp: (
        ("product", mp.alg_a), ("product_prime", mp.alg_prime),
        ("rho", mp.rho), ("mu", mp.mu), ("eta", mp.eta), ("xi", mp.xi)),
}


def _keyword_tables(row, ingredients):
    """The builder tables, and the basis names of A and of A' (None for
    the default names), of the `build_standard` keywords of a kind.

    An algebra is read through one adapter: its product relabeled onto
    the signature of its table, pi or beta, so an algebra given on either
    label is the same ingredient; its basis names name that space, and
    A' is named after A, primed, where the kind needs dim A' = dim A.
    Every other table is a map the keyword holds, as it is, and the
    first of these gives the dims (else the algebras do).
    """
    parts = {}
    for key in row.keywords:
        if key not in row.scalars:
            parts.update(_KEYWORD_TABLES[key](ingredients[key]))
    algebras = {name: v for name, v in parts.items()
                if isinstance(v, AssociativeAlgebra)}
    alg = algebras["product"]
    prime = algebras.get("product_prime")
    maps = [v for v in parts.values() if isinstance(v, MultilinearMap)]
    dims = maps[0].dims if maps else (alg.dim, (prime or alg).dim)
    tables = {name: v.product.relabel(*table_signature(name), dims)
              if name in algebras else v for name, v in parts.items()}
    if prime is not None:
        basis_aprime = prime.basis_names
    elif row.same_dims:
        basis_aprime = [n + "'" for n in alg.basis_names]
    else:
        basis_aprime = None
    return tables, alg.basis_names, basis_aprime


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


class _Kind(namedtuple("_Kind", (
        "ingredient_rows",  # its ingredients, in check order (see above)
        "keywords",         # build_standard ingredients, in order
        "tables",           # its builder tables, in order
        "fills",            # {table: ((component, scalar or None), ...)}
                            # for each table that fills other components
                            # than its own (see `fill_components`)
        "scalars",          # scalar ingredients, top-level builder keys
        "right",            # name of its right deformation maps and
        "left",             # of its left ones (or None); {scalar} filled in
))):
    """One row of the paper's catalogue: a builder kind and its data."""

    __slots__ = ()

    @property
    def same_dims(self):
        """Whether dim A' must equal dim A: a table that fills another
        component than its own is relabeled, which keeps its sizes."""
        return bool(self.fills)


# Above each row, the product on A + A' that its tables fill in.
_KINDS = {
    # A + A with (x,u)(y,v) = (x.v + u.y, weight*(x.y) + u.v)
    "modified_direct_sum": _Kind(
        (_algebra("algebra", 14),), ("algebra", "weight"), ("product",),
        {"product": (("xi", None), ("eta", None), ("beta", None),
                     ("theta", "weight"))},
        ("weight",), "modified Rota-Baxter operator of weight {weight}", None),
    # (x,u)(y,v) = (x.y, rho(x)v + mu(y)u)
    "semidirect": _Kind(
        (_algebra("algebra", 0),
         _identities("representation", (1, 2, 7), _REPRESENTATION)),
        ("rep",), ("product", "rho", "mu"), {}, (),
        "derivation", "relative Rota-Baxter operator of weight 0"),
    # (x,u)(y,v) = (x.y, rho(x)v + mu(y)u + u.v)
    "semidirect_assoc": _Kind(
        (_algebra("algebra", 0), _algebra("module algebra", 14),
         _identities("associative representation", (1, 2, 7, 8, 9, 10),
                     _ASSOCIATIVE_REPRESENTATION)),
        ("assoc_rep",), ("product", "product_prime", "rho", "mu"), {}, (),
        "crossed homomorphism", None),
    # (x,u)(y,v) = (x.y, u.v)
    "direct_product": _Kind(
        (_algebra("algebra", 0), _algebra("second algebra", 14)),
        ("algebra", "algebra_prime"), ("product", "product_prime"), {}, (),
        "associative algebra homomorphism", None),
    # (x,u)(y,v) = (x.y, rho(x)v + mu(y)u + omega(x,y))
    "abelian_extension": _Kind(
        (_algebra("algebra", 0),
         _identities("representation", (1, 2, 7), _REPRESENTATION),
         ("omega is not a 2-cocycle: the extension product fails "
          "associativity", ((6, None),))),
        ("cocycle",), ("product", "rho", "mu", "omega"), {}, (),
        None, "twisted Rota-Baxter operator"),
    # the abelian extension of A by its regular bimodule with omega = the
    # product: (x,u)(y,v) = (x.y, x.v + u.y + x.y)
    "reynolds": _Kind(
        (_algebra("algebra", 0),), ("algebra",), ("product",),
        {"product": (("pi", None), ("rho", None), ("mu", None),
                     ("theta", None))},
        (), None, "Reynolds operator"),
    # (x,u)(y,v) = (x.y + xi(v)x + eta(u)y, u.v + rho(x)v + mu(y)u)
    "matched_pair": _Kind(
        (_algebra("algebra A", 0), _algebra("algebra A'", 14),
         _identities("(A'; rho, mu) representation", (1, 2, 7),
                     _REPRESENTATION),
         _identities("(A; eta, xi) representation", (13, 11, 12),
                     _REPRESENTATION),
         _identities("matched pair compatibility", (8, 10, 5, 4, 9, 3),
                     _MATCHED_PAIR)),
        ("matched_pair",),
        ("product", "product_prime", "rho", "mu", "eta", "xi"), {}, (),
        None, "deformation map of a matched pair"),
}

BUILDER_KINDS = tuple(_KINDS)
