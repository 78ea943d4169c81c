"""Right and left deformation maps: residuals, twisting, naming.

A right deformation map D: A -> A' makes the graph {(x, Dx)} a subalgebra
of the total product; a left deformation map B: A' -> A satisfies the
mirrored condition.  Both sides are one construction: twisting the total
product Delta by e^(lift(f)) = Id + lift(f) (a lifted block map squares to
zero).  `twist_blocks` computes any blocks of that twist straight from
the components, for either side; the residual of f is one block of it
(theta on the right, gamma on the left), and f is a deformation map iff
that block vanishes.  `conjugation_twist` composes the lifted maps on the
total space instead: a test oracle, as are the closed component formulas
of `tests/oracles.py`.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DimensionError, InvalidQTA, NotDeformationMap, UnknownKind
from .multilinear import (
    A, APRIME, TOTAL, MultilinearMap, insert, lift, lift_blocks,
)
from .quasitwilled import (
    _KINDS, COMPONENT_SIGNATURES, QuasiTwilledAlgebra, require_quasi_twilled,
    total_product,
)


class _Side(namedtuple("_Side", (
        "name",
        "slot",             # domain of the map = slot space of its cochains
        "cod",              # codomain of the map and of its cochains
        "residual_part",    # twisted block equal to the residual
        "triple",           # twisted (product, left action, right action)
        "plan",             # block name -> (inner terms, block subtracted)
        "orders",           # block name -> the l_k it feeds (`_orders`)
))):
    """What tells right maps D: A -> A' from left maps B: A' -> A."""

    __slots__ = ()

    def residual(self, q, m):
        """The twist's residual block: zero iff m is a deformation map."""
        return twist_blocks(q, m, self.name,
                            (self.residual_part,))[self.residual_part]

    def twist(self, q, m):
        return TwistResult(self.name, **twist_blocks(q, m, self.name))

    def checked_triple(self, q, m):
        """The twisted (product, left action, right action) of m, raising
        InvalidQTA unless q is quasi-twilled (`require_quasi_twilled`) and
        NotDeformationMap unless m is a deformation map of this side: the
        hypotheses of the induced structures and the cohomology.  One
        `twist_blocks` call computes the triple and the residual block
        (theta^D on the right, gamma^B on the left) and no other block.
        """
        require_quasi_twilled(q)
        blocks = twist_blocks(q, m, self.name,
                              self.triple + (self.residual_part,))
        res = blocks[self.residual_part]
        if not res.is_zero():
            raise NotDeformationMap(
                f"{self.name} residual nonzero at {res.first_witness()}")
        return tuple(blocks[name] for name in self.triple)

    def induced(self, tw):
        """The twisted (product, left action, right action) of tw."""
        return tuple(getattr(tw, name) for name in self.triple)

    def signature(self, arity):
        """(domain labels, codomain label) of cochains of this arity."""
        return (self.slot,) * arity, self.cod


# The eight blocks of a binary product on A + A': the seven component
# signatures and the A'A' -> A block gamma, which no component fills.
BLOCKS = {**COMPONENT_SIGNATURES, "gamma": ((APRIME, APRIME), A)}


def _plan(x, y):
    """How `twist_blocks` builds each block for a map f: x -> y.

    The inner sum of block dom -> cod, Delta((Id + f^) -, (Id + f^) -) on
    dom -> cod, has a term (component, slots taking f) for each component
    landing in cod whose slots carry the labels of dom, or y in place of
    x.  Id - f^ then subtracts f of the inner sum of dom -> x from each
    block landing in y: (terms, that block's name, else None).
    """
    names = {sig: name for name, sig in BLOCKS.items()}
    plan = {}
    for name, (dom, cod) in BLOCKS.items():
        terms = tuple(
            (comp, tuple(i for i, (d, s) in enumerate(zip(dom, sig))
                         if s is not d))
            for comp, (sig, target) in COMPONENT_SIGNATURES.items()
            if target is cod and all(s is d or (d is x and s is y)
                                     for d, s in zip(dom, sig)))
        plan[name] = (terms, names[(dom, x)] if cod is y else None)
    return plan


def _orders(x, y):
    """The order k of the derived bracket l_k that each of the eight
    `BLOCKS` feeds, for cochains x^n -> y: on the right theta 0; pi, rho,
    mu 1; xi, eta, beta 2; gamma 3, and on the left gamma 0; beta, eta,
    xi 1; pi, rho, mu 2; theta 3.

    Each bracket with a cochain fills one y slot of the block's lift or
    feeds its x value into the cochain, and the projection keeps only
    x^n -> y, so a block feeds exactly the l_k whose k counts its y
    slots, plus one if it lands in x.  l_k is linear in the element, so
    it is zero wherever every block that feeds it is.
    """
    return {name: sum(s is y for s in dom) + (cod is x)
            for name, (dom, cod) in BLOCKS.items()}


_SIDES = {
    "right": _Side("right", A, APRIME, "theta", ("pi", "rho", "mu"),
                   _plan(A, APRIME), _orders(A, APRIME)),
    "left": _Side("left", APRIME, A, "gamma", ("beta", "eta", "xi"),
                  _plan(APRIME, A), _orders(APRIME, A)),
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


def twist_blocks(q, f, side, names=tuple(BLOCKS)):
    """The named blocks (`BLOCKS`) of e^(-f^) Delta (e^(f^) (x) e^(f^)),
    the twist of the total product by a map f of the side, f^ = lift(f).

    Each block comes straight from the components by the side's plan
    (`_plan`): its inner sum, minus f of the inner sum it names.  Nothing
    is lifted to the total space, and each inner sum is computed once.
    """
    spec = side_spec(side)
    _check_side_map(q, f, side)
    inner = {}

    def inner_sum(name):
        if name not in inner:
            parts = []
            for comp, slots in spec.plan[name][0]:
                m = getattr(q, comp)
                for slot in slots:
                    m = insert(m, f, slot)
                parts.append(m)
            inner[name] = sum(parts, MultilinearMap.zero(*BLOCKS[name],
                                                         q.dims))
        return inner[name]

    out = {}
    for name in names:
        block, below = inner_sum(name), spec.plan[name][1]
        out[name] = (block if below is None
                     else block - insert(f, inner_sum(below), 0))
    return out


def right_residual(q, d):
    """rho(x,Dy) + mu(Dx,y) + beta(Dx,Dy) + theta(x,y)
       - D(pi(x,y) + xi(x,Dy) + eta(Dx,y)): the theta block of the twist
       by D, zero iff D is a right deformation map."""
    return side_spec("right").residual(q, d)


def left_residual(q, b):
    """pi(Bu,Bv) + xi(Bu,v) + eta(u,Bv)
       - B(beta(u,v) + rho(Bu,v) + mu(u,Bv) + theta(Bu,Bv)): the gamma
       block of the twist by B, zero iff B is a left deformation map."""
    return side_spec("left").residual(q, b)


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
        return {name: getattr(self, name) for name in COMPONENT_SIGNATURES}

    def reassemble(self):
        """Total binary product of the eight blocks, gamma included, in
        one `lift_blocks` pass over their nonzeros."""
        return lift_blocks([getattr(self, name) for name in BLOCKS],
                           self.dims)

    def is_quasi_twilled(self):
        return self.gamma.is_zero()

    def to_quasi_twilled(self):
        if not self.gamma.is_zero():
            raise InvalidQTA("twisted product has a nonzero A'A' -> A block")
        return QuasiTwilledAlgebra(**self.components())


def twist_right(q, d):
    """Every block of the twist by D: A -> A'.  xi, eta and beta come out
    unchanged, gamma zero, and theta is right_residual(q, D)."""
    return side_spec("right").twist(q, d)


def twist_left(q, b):
    """Every block of the twist by B: A' -> A.  theta comes out unchanged,
    and the A'A' -> A block gamma is left_residual(q, B)."""
    return side_spec("left").twist(q, b)


def conjugation_twist(q, f, side):
    """(Id - lift(f)) o Omega o ((Id + lift(f)) (x) (Id + lift(f))).

    The lift of a block map between the two summands squares to zero, so
    e^(lift) = Id + lift exactly; the result is the twisted total product,
    whose blocks `twist_blocks` computes without the total space.
    """
    _check_side_map(q, f, side)
    omega = total_product(q)
    ident = MultilinearMap.identity(TOTAL, q.dims)
    fhat = lift(f)
    e_plus = ident + fhat
    e_minus = ident - fhat
    return insert(e_minus, insert(insert(omega, e_plus, 0), e_plus, 1), 0)


def operator_name(q, side, residual):
    """Name of the operator a map with this residual realizes, keyed on
    builder provenance.

    Returns "not a deformation map" when the residual is nonzero, the
    classical operator name when the builder kind's row (in
    `qta.quasitwilled`) names one for the side, and the generic side name
    otherwise.  Hand-built structures (no provenance) raise UnknownKind.
    """
    if q.kind is None:
        raise UnknownKind("structure was not produced by build_standard")
    row = _KINDS[q.kind]
    if not residual.is_zero():
        return "not a deformation map"
    name = getattr(row, side, None)
    if name is None:
        return f"{side} deformation map"
    return name.format(**{key: q.ingredients[key] for key in row.scalars})
