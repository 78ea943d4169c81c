"""Multilinear maps on the split space A + A', with the insertion calculus.

Conventions used throughout the library:

* Scalars are exact rationals (fractions.Fraction); nothing is ever rounded.
* A map with arity n+1 has degree n.  All signs are computed from degrees.
* The total space A + A' has basis: the A basis (indices 0..dimA-1)
  followed by the A' basis (indices dimA..dimA+dimA'-1).
* Coefficients are dense, indexed by (domain basis tuple, codomain index);
  see _purekernel for the exact flat layout.

The circle product is the insertion sum

    (f o g)(x_1,...,x_{m+n-1})
        = sum_i (-1)^((i-1)(n-1)) f(x_1,...,g(x_i,...,x_{i+n-1}),...,x_{m+n-1})

and the Gerstenhaber bracket is [f,g] = f o g - (-1)^((m-1)(n-1)) g o f.
These require a closed signature (every slot label equals the codomain
label); `insert` is the unrestricted block-typed primitive underneath.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from itertools import combinations, product as iterproduct

from . import kernel
from .errors import ArityError, BlockError, DimensionError

ZERO = Fraction(0)
ONE = Fraction(1)


class SpaceLabel(Enum):
    A = "A"
    APRIME = "A'"
    TOTAL = "A+A'"


A = SpaceLabel.A
APRIME = SpaceLabel.APRIME
TOTAL = SpaceLabel.TOTAL


def _prod(values):
    p = 1
    for v in values:
        p *= v
    return p


class MultilinearMap:
    """Dense multilinear map between tensor powers of the labeled spaces.

    Immutable.  `dims = (dimA, dimAprime)` fixes the sizes of all three
    labels; maps taking part in one computation must agree on dims.
    """

    __slots__ = ("domain", "codomain", "dims", "coeffs")

    def __init__(self, domain, codomain, dims, coeffs):
        domain = tuple(domain)
        if not domain:
            raise ArityError("maps must have arity >= 1")
        dims = (int(dims[0]), int(dims[1]))
        sizes = tuple(_label_size(lab, dims) for lab in domain)
        cod = _label_size(codomain, dims)
        coeffs = tuple(coeffs)
        if len(coeffs) != _prod(sizes) * cod:
            raise DimensionError(
                f"coefficient table has {len(coeffs)} entries, "
                f"expected {_prod(sizes) * cod}")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("MultilinearMap is immutable")

    # -- shape ---------------------------------------------------------

    @property
    def arity(self):
        return len(self.domain)

    @property
    def degree(self):
        return len(self.domain) - 1

    @property
    def slot_sizes(self):
        return tuple(_label_size(lab, self.dims) for lab in self.domain)

    @property
    def cod_size(self):
        return _label_size(self.codomain, self.dims)

    def signature(self):
        return (self.domain, self.codomain)

    # -- construction ---------------------------------------------------

    @classmethod
    def zero(cls, domain, codomain, dims):
        sizes = tuple(_label_size(lab, dims) for lab in domain)
        cod = _label_size(codomain, dims)
        return cls(domain, codomain, dims, [ZERO] * (_prod(sizes) * cod))

    @classmethod
    def unit(cls, domain, codomain, dims, index):
        """The map whose flat coefficient `index` is 1 and all others 0."""
        sizes = tuple(_label_size(lab, dims) for lab in domain)
        coeffs = [ZERO] * (_prod(sizes) * _label_size(codomain, dims))
        coeffs[index] = ONE
        return cls(domain, codomain, dims, coeffs)

    @classmethod
    def from_function(cls, domain, codomain, dims, fn):
        """fn(basis_tuple) -> sequence of codomain coordinates."""
        sizes = [_label_size(lab, dims) for lab in domain]
        cod = _label_size(codomain, dims)
        coeffs = []
        for t in iterproduct(*[range(s) for s in sizes]):
            row = list(fn(t))
            if len(row) != cod:
                raise DimensionError("value of wrong dimension at %r" % (t,))
            coeffs.extend(Fraction(v) for v in row)
        return cls(domain, codomain, dims, coeffs)

    @classmethod
    def from_table(cls, table, domain, codomain, dims):
        """Nested-list structure constants: table[i1][i2]...[k]."""
        sizes = [_label_size(lab, dims) for lab in domain]
        cod = _label_size(codomain, dims)
        coeffs = []

        def walk(node, depth):
            if depth == len(sizes):
                if len(node) != cod:
                    raise DimensionError("bad codomain length in table")
                coeffs.extend(Fraction(v) for v in node)
                return
            if len(node) != sizes[depth]:
                raise DimensionError("bad table length at depth %d" % depth)
            for sub in node:
                walk(sub, depth + 1)

        walk(table, 0)
        return cls(domain, codomain, dims, coeffs)

    @classmethod
    def identity(cls, label, dims):
        n = _label_size(label, dims)
        return cls((label,), label, dims,
                   [ONE if i == k else ZERO
                    for i in range(n) for k in range(n)])

    def relabel(self, domain, codomain, dims=None):
        """Same coefficients under a new signature of identical sizes."""
        dims = self.dims if dims is None else dims
        out = MultilinearMap(domain, codomain, dims, self.coeffs)
        if out.slot_sizes != self.slot_sizes or out.cod_size != self.cod_size:
            raise DimensionError("relabel changes slot sizes")
        return out

    def with_dims(self, dims):
        return self.relabel(self.domain, self.codomain, dims)

    # -- evaluation ------------------------------------------------------

    def _row(self, t):
        sizes = self.slot_sizes
        idx = 0
        for v, s in zip(t, sizes):
            idx = idx * s + v
        return idx

    def value(self, t):
        """Codomain coordinates of the image of a domain basis tuple."""
        cod = self.cod_size
        base = self._row(tuple(t)) * cod
        return self.coeffs[base:base + cod]

    def entry(self, t, k):
        return self.coeffs[self._row(tuple(t)) * self.cod_size + k]

    # -- linear structure --------------------------------------------------

    def _check_same_signature(self, other):
        if (self.domain != other.domain or self.codomain != other.codomain
                or self.dims != other.dims):
            raise DimensionError("signature mismatch: %s vs %s"
                                 % (self.signature(), other.signature()))

    def __add__(self, other):
        self._check_same_signature(other)
        return MultilinearMap(self.domain, self.codomain, self.dims,
                              [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check_same_signature(other)
        return MultilinearMap(self.domain, self.codomain, self.dims,
                              [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self.scale(-1)

    def scale(self, scalar):
        s = Fraction(scalar)
        return MultilinearMap(self.domain, self.codomain, self.dims,
                              [s * a for a in self.coeffs])

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, MultilinearMap):
            return NotImplemented
        return (self.domain == other.domain and self.codomain == other.codomain
                and self.dims == other.dims and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.dims, self.coeffs))

    def first_witness(self):
        """First (basis tuple, codomain index, value) with nonzero value."""
        sizes = self.slot_sizes
        cod = self.cod_size
        for i, v in enumerate(self.coeffs):
            if v:
                row, k = divmod(i, cod)
                t = []
                for s in reversed(sizes):
                    row, r = divmod(row, s)
                    t.append(r)
                return tuple(reversed(t)), k, v
        return None

    def __repr__(self):
        doms = ",".join(lab.value for lab in self.domain)
        return (f"MultilinearMap({doms}->{self.codomain.value}, "
                f"dims={self.dims}, nnz={sum(1 for c in self.coeffs if c)})")


def _label_size(label, dims):
    if label is SpaceLabel.A:
        return dims[0]
    if label is SpaceLabel.APRIME:
        return dims[1]
    if label is SpaceLabel.TOTAL:
        return dims[0] + dims[1]
    raise TypeError(f"not a SpaceLabel: {label!r}")


def msum(maps, zero=None):
    """Sum a nonempty iterable of equal-signature maps (or `zero`)."""
    maps = list(maps)
    if not maps:
        if zero is None:
            raise ValueError("msum of nothing needs an explicit zero")
        return zero
    acc = list(maps[0].coeffs)
    for m in maps[1:]:
        maps[0]._check_same_signature(m)
        kernel.axpy(acc, ONE, m.coeffs)
    return MultilinearMap(maps[0].domain, maps[0].codomain, maps[0].dims, acc)


# -- insertion calculus ----------------------------------------------------

def insert(f, g, slot):
    """f with g plugged into domain slot `slot` (0-based), no sign.

    Requires g.codomain == f.domain[slot] and equal dims.
    """
    if f.dims != g.dims:
        raise DimensionError("dims mismatch in insert")
    if not 0 <= slot < f.arity:
        raise ArityError(f"slot {slot} out of range for arity {f.arity}")
    if g.codomain != f.domain[slot]:
        raise BlockError(
            f"cannot plug {g.codomain.value}-valued map into a "
            f"{f.domain[slot].value} slot")
    domain = f.domain[:slot] + g.domain + f.domain[slot + 1:]
    coeffs = kernel.insert(f.coeffs, f.slot_sizes, f.cod_size,
                           g.coeffs, g.slot_sizes, g.cod_size, slot)
    return MultilinearMap(domain, f.codomain, f.dims, coeffs)


def _check_closed(f, name):
    if any(lab != f.codomain for lab in f.domain):
        raise BlockError(f"{name} needs a closed signature, got "
                         f"{[lab.value for lab in f.domain]} -> {f.codomain.value}")


def circle(f, g):
    """Insertion (circle) product f o g of closed-signature maps."""
    _check_closed(f, "circle")
    _check_closed(g, "circle")
    if f.codomain != g.codomain or f.dims != g.dims:
        raise DimensionError("circle needs maps on the same space")
    n = g.arity
    acc = None
    for i in range(f.arity):
        term = insert(f, g, i)
        sign = -1 if (i * (n - 1)) % 2 else 1
        if acc is None:
            acc = list(term.coeffs) if sign == 1 else [-c for c in term.coeffs]
        else:
            kernel.axpy(acc, Fraction(sign), term.coeffs)
    return MultilinearMap(term.domain, f.codomain, f.dims, acc)


def circle_parts(f, g):
    """The split f o g = (f o g)_1 - (f o g)_2 for binary maps.

    Returns ((f o g)_1, (f o g)_2) with
    (f o g)_1(x1,x2,x3) = f(g(x1,x2),x3) and
    (f o g)_2(x1,x2,x3) = f(x1,g(x2,x3)).
    """
    if f.arity != 2 or g.arity != 2:
        raise ArityError("circle_parts needs two binary maps")
    return insert(f, g, 0), insert(f, g, 1)


def gerstenhaber(f, g):
    """[f,g] = f o g - (-1)^((m-1)(n-1)) g o f."""
    fg = circle(f, g)
    gf = circle(g, f)
    sign = -1 if (f.degree * g.degree) % 2 else 1
    acc = list(fg.coeffs)
    kernel.axpy(acc, Fraction(-sign), gf.coeffs)
    return MultilinearMap(fg.domain, fg.codomain, fg.dims, acc)


# -- lift / project ---------------------------------------------------------

def _block_index(label, total_index, dims):
    """Block-local index of a total-space basis vector, or None."""
    da = dims[0]
    if label is SpaceLabel.A:
        return total_index if total_index < da else None
    if label is SpaceLabel.APRIME:
        return total_index - da if total_index >= da else None
    return total_index


def lift(f):
    """Extend a block map by zero to the whole total space."""
    if any(lab is TOTAL for lab in f.domain) or f.codomain is TOTAL:
        raise BlockError("lift expects a map between the A / A' blocks")
    dims = f.dims
    dt = dims[0] + dims[1]
    cod_off = 0 if f.codomain is A else dims[0]
    cod_size = f.cod_size
    out = [ZERO] * (dt ** f.arity * dt)
    labels = f.domain
    for t in iterproduct(*[range(dt)] * f.arity):
        local = []
        for lab, v in zip(labels, t):
            b = _block_index(lab, v, dims)
            if b is None:
                break
            local.append(b)
        else:
            row = 0
            for v in t:
                row = row * dt + v
            vals = f.value(local)
            base = row * dt + cod_off
            for k in range(cod_size):
                out[base + k] = vals[k]
    return MultilinearMap((TOTAL,) * f.arity, TOTAL, dims, out)


def project(f, domain, codomain):
    """Restrict TOTAL slots of f to the requested block signature.

    Non-TOTAL slots of f must already carry the requested label; a TOTAL
    codomain is projected onto the requested component.  project(lift(g),
    g.domain, g.codomain) == g for every block map g.
    """
    domain = tuple(domain)
    if len(domain) != f.arity:
        raise ArityError("projection signature has wrong arity")
    for want, have in zip(domain, f.domain):
        if have is not TOTAL and have != want:
            raise BlockError("slot %s cannot be viewed as %s"
                             % (have.value, want.value))
    if f.codomain is not TOTAL and f.codomain != codomain:
        raise BlockError("codomain %s cannot be viewed as %s"
                         % (f.codomain.value, codomain.value))
    dims = f.dims
    sizes = [_label_size(lab, dims) for lab in domain]
    cod_size = _label_size(codomain, dims)
    cod_off = 0
    if f.codomain is TOTAL and codomain is APRIME:
        cod_off = dims[0]

    def fn(t):
        src = []
        for lab, have, v in zip(domain, f.domain, t):
            if have is TOTAL:
                src.append(v + (dims[0] if lab is APRIME else 0))
            else:
                src.append(v)
        vals = f.value(src)
        return vals[cod_off:cod_off + cod_size]

    return MultilinearMap.from_function(domain, codomain, dims, fn)


def linear_map_from_matrix(rows, domain_label, codomain_label, dims):
    """Arity-1 map from a matrix whose column j is the image of basis j."""
    dom = _label_size(domain_label, dims)
    cod = _label_size(codomain_label, dims)
    if len(rows) != cod or any(len(r) != dom for r in rows):
        raise DimensionError(
            f"matrix must be {cod}x{dom} for {domain_label.value} -> "
            f"{codomain_label.value}")
    coeffs = []
    for j in range(dom):
        coeffs.extend(Fraction(rows[k][j]) for k in range(cod))
    return MultilinearMap((domain_label,), codomain_label, dims, coeffs)


def matrix_from_linear_map(f):
    """Inverse of linear_map_from_matrix."""
    if f.arity != 1:
        raise ArityError("expected an arity-1 map")
    dom = f.slot_sizes[0]
    cod = f.cod_size
    return [[f.entry((j,), k) for j in range(dom)] for k in range(cod)]


# -- graded signs ------------------------------------------------------------

def _sign(k):
    return 1 if k % 2 == 0 else -1


def koszul_sign(sigma, degrees):
    """Koszul sign of rearranging graded elements by a permutation.

    `sigma` is a bijection of range(n) given as a sequence: position i of
    the rearranged tuple holds element sigma[i].  Swapping adjacent
    elements of degrees p, q contributes (-1)^(p*q); the result is
    independent of the chosen decomposition into adjacent swaps.
    """
    sigma = list(sigma)
    if sorted(sigma) != list(range(len(degrees))):
        raise ValueError("sigma is not a permutation matching degrees")
    sign = 1
    # bubble sort back to the identity, accumulating graded swap signs
    arr = sigma[:]
    for i in range(len(arr)):
        for j in range(len(arr) - 1 - i):
            if arr[j] > arr[j + 1]:
                if (degrees[arr[j]] * degrees[arr[j + 1]]) % 2:
                    sign = -sign
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
    return sign


def unshuffles(i, n):
    """All (i, n-i)-unshuffles of range(n), as index tuples."""
    out = []
    universe = range(n)
    for head in combinations(universe, i):
        tail = tuple(j for j in universe if j not in head)
        out.append(head + tail)
    return out


# -- random data (seeded; used by tests and the jacobi command) -------------

def random_fraction(rng, bound=3, denominators=(1, 1, 2)):
    return Fraction(rng.randint(-bound, bound), rng.choice(denominators))


def random_map(rng, domain, codomain, dims, bound=3):
    sizes = [_label_size(lab, dims) for lab in domain]
    cod = _label_size(codomain, dims)
    total = _prod(sizes) * cod
    return MultilinearMap(domain, codomain, dims,
                          [random_fraction(rng, bound) for _ in range(total)])


def seeded_rng(seed):
    return random.Random(seed)
