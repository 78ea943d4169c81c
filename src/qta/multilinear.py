"""Multilinear maps on the split space A + A', with the insertion calculus.

Conventions used throughout the library:

* Scalars are exact rationals (fractions.Fraction); nothing is ever rounded.
* A map with arity n+1 has degree n.  All signs are computed from degrees.
* The total space A + A' has basis: the A basis (indices 0..dimA-1)
  followed by the A' basis (indices dimA..dimA+dimA'-1).
* Coefficients are indexed by (domain basis tuple, codomain index) through
  one flat index (see qta.kernel for the layout).  A map stores only its
  nonzero coefficients, as {flat index: value}; every operation below costs
  time in proportion to the nonzeros it reads.  `MultilinearMap.coeffs` is
  the dense export of the same coefficients.

The circle product is the insertion sum

    (f o g)(x_1,...,x_{m+n-1})
        = sum_i (-1)^((i-1)(n-1)) f(x_1,...,g(x_i,...,x_{i+n-1}),...,x_{m+n-1})

and the Gerstenhaber bracket is [f,g] = f o g - (-1)^((m-1)(n-1)) g o f.
These require a closed signature (every slot label equals the codomain
label).  `circle` is one kernel pass (`kernel.circle`), which accumulates
all m signed insertions into one store; `insert` is the unrestricted
block-typed primitive for a single slot.

A map has two entrances.  `MultilinearMap(...)` is the checked one, for
outside data (documents, tables, user dicts, floats): it checks dims and
every index and makes every value a Fraction.  A map the library derives
from maps that passed it (`insert`, `circle`, `gerstenhaber`, `lift`,
`lift_blocks`, `project`, `+`, `-`, `scale`, `msum`), or a table or
matrix that `qta.io.parse` has already checked entry by entry, enters
through `_adopt`, which takes its shape from the operands (or from the
signature it is read for) and checks nothing again.  It keeps
`dict(store)`, never the store it is given: a kernel store that grew and
then cancelled keeps its whole table (a dict never shrinks), and the
C-level copy drops it, so a derived zero map holds an empty dict.  The
constructors that index their own entries (`zero`, `from_table` and so
`linear_map_from_matrix`, `relabel`, `with_dims`) check the signature
and dims once (`_checked_shape`), make each value a Fraction at most
once, and enter through `_adopt` too.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from itertools import chain, combinations, product as iterproduct
from math import prod

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


class MultilinearMap:
    """Multilinear map between tensor powers of the labeled spaces.

    Immutable.  `dims = (dimA, dimAprime)` fixes the sizes of all three
    labels; maps taking part in one computation must agree on dims.

    `coeffs` is either the dense table (a sequence over the whole flat
    index space, see qta.kernel) or a dict {int flat index: value}; zero
    entries are dropped either way, and every other value is made a
    Fraction (a float becomes its exact binary value), as ExactMatrix
    does.  `dims` must be two non-negative ints.  A bad dims or index is a
    DimensionError.  The map keeps only the nonzeros, in `store`, which
    must not be mutated; `coeffs` exports the dense table.  The shape,
    `slot_sizes` (one size per domain slot) and `cod_size`, is computed
    once, at construction.  This constructor is the checked entrance;
    maps derived from checked maps are adopted by `_adopt` (see the
    module docstring), which stores a compact copy of their nonzeros.
    """

    __slots__ = ("domain", "codomain", "dims", "store", "slot_sizes",
                 "cod_size")

    def __init__(self, domain, codomain, dims, coeffs):
        domain, dims, slot_sizes, cod_size = _checked_shape(domain, codomain,
                                                            dims)
        size = prod(slot_sizes) * cod_size
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            if not hasattr(coeffs, "__len__"):
                coeffs = tuple(coeffs)
            if len(coeffs) != size:
                raise DimensionError(
                    f"coefficient table has {len(coeffs)} entries, "
                    f"expected {size}")
            items = enumerate(coeffs)
        # one pass, which beats comprehensions plus checks on the small
        # stores that dominate; a value that is not a Fraction becomes one
        # (ExactMatrix's rule)
        store = {}
        for i, v in items:
            if type(i) is not int or not 0 <= i < size:
                raise DimensionError(
                    f"coefficient index {i!r} outside range({size})")
            if v:
                if type(v) is not Fraction and not isinstance(v, Fraction):
                    v = Fraction(v)
                    if not v:
                        continue
                store[i] = v
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "store", store)
        object.__setattr__(self, "slot_sizes", slot_sizes)
        object.__setattr__(self, "cod_size", cod_size)

    def __setattr__(self, name, value):
        raise AttributeError("MultilinearMap is immutable")

    # -- shape ---------------------------------------------------------

    @property
    def arity(self):
        return len(self.domain)

    @property
    def degree(self):
        return len(self.domain) - 1

    def signature(self):
        return (self.domain, self.codomain)

    @property
    def coeffs(self):
        """The dense coefficient table, a tuple over the flat index space."""
        out = [ZERO] * (prod(self.slot_sizes) * self.cod_size)
        for i, v in self.store.items():
            out[i] = v
        return tuple(out)

    # -- construction ---------------------------------------------------

    @classmethod
    def zero(cls, domain, codomain, dims):
        domain, dims, slot_sizes, cod_size = _checked_shape(domain, codomain,
                                                            dims)
        return _adopt(domain, codomain, dims, slot_sizes, cod_size, {})

    @classmethod
    def unit(cls, domain, codomain, dims, index):
        """The map whose flat coefficient `index` is 1 and all others 0."""
        return cls(domain, codomain, dims, {index: ONE})

    @classmethod
    def from_function(cls, domain, codomain, dims, fn):
        """fn(basis_tuple) -> sequence of codomain coordinates."""
        sizes = [_label_size(lab, dims) for lab in domain]
        cod = _label_size(codomain, dims)
        store = {}
        base = 0
        for t in iterproduct(*[range(s) for s in sizes]):
            row = list(fn(t))
            if len(row) != cod:
                raise DimensionError("value of wrong dimension at %r" % (t,))
            for k, v in enumerate(row):
                if v:
                    store[base + k] = Fraction(v)
            base += cod
        return cls(domain, codomain, dims, store)

    @classmethod
    def from_table(cls, table, domain, codomain, dims):
        """Nested-list structure constants: table[i1][i2]...[k].

        A value that is not a Fraction becomes one; a Fraction (say, from
        `qta.io.parse`) is kept as it is.
        """
        domain, dims, slot_sizes, cod_size = _checked_shape(domain, codomain,
                                                            dims)
        # level by level: a recursive closure would be a garbage cycle
        nodes = [table]
        for depth, size in enumerate(slot_sizes):
            if any(len(node) != size for node in nodes):
                raise DimensionError("bad table length at depth %d" % depth)
            nodes = [sub for node in nodes for sub in node]
        if any(len(node) != cod_size for node in nodes):
            raise DimensionError("bad codomain length in table")
        store = {}
        for i, v in enumerate(chain.from_iterable(nodes)):
            if type(v) is not Fraction:
                v = Fraction(v)
            if v:
                store[i] = v
        return _adopt(domain, codomain, dims, slot_sizes, cod_size, store)

    @classmethod
    def identity(cls, label, dims):
        n = _label_size(label, dims)
        return cls((label,), label, dims, {i * n + i: ONE for i in range(n)})

    def relabel(self, domain, codomain, dims=None):
        """Same coefficients under a new signature of identical sizes."""
        domain, dims, slot_sizes, cod_size = _checked_shape(
            domain, codomain, self.dims if dims is None else dims)
        if slot_sizes != self.slot_sizes or cod_size != self.cod_size:
            raise DimensionError("relabel changes slot sizes")
        return _adopt(domain, codomain, dims, slot_sizes, cod_size,
                      self.store)

    def with_dims(self, dims):
        return self.relabel(self.domain, self.codomain, dims)

    # -- evaluation ------------------------------------------------------

    def _row(self, t):
        sizes = self.slot_sizes
        if len(t) != len(sizes):
            raise ArityError(f"basis tuple {t} for a map of arity {len(sizes)}")
        idx = 0
        for v, s in zip(t, sizes):
            if not 0 <= v < s:
                raise DimensionError(f"basis index {v} outside range({s})")
            idx = idx * s + v
        return idx

    def value(self, t):
        """Codomain coordinates of the image of a domain basis tuple."""
        cod = self.cod_size
        base = self._row(tuple(t)) * cod
        get = self.store.get
        return tuple(get(base + k, ZERO) for k in range(cod))

    def entry(self, t, k):
        cod = self.cod_size
        if not 0 <= k < cod:
            raise DimensionError(f"codomain index {k} outside range({cod})")
        return self.store.get(self._row(tuple(t)) * cod + k, ZERO)

    # -- linear structure --------------------------------------------------

    def _check_same_signature(self, other):
        if (self.domain != other.domain or self.codomain != other.codomain
                or self.dims != other.dims):
            raise DimensionError("signature mismatch: %s vs %s"
                                 % (self.signature(), other.signature()))

    def _with_store(self, store):
        return _adopt(self.domain, self.codomain, self.dims, self.slot_sizes,
                      self.cod_size, store)

    def __add__(self, other):
        if not isinstance(other, MultilinearMap):
            return NotImplemented
        self._check_same_signature(other)
        return self._with_store(kernel.axpy(dict(self.store), ONE,
                                            other.store))

    def __sub__(self, other):
        if not isinstance(other, MultilinearMap):
            return NotImplemented
        self._check_same_signature(other)
        return self._with_store(kernel.axpy(dict(self.store), -ONE,
                                            other.store))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, scalar):
        s = Fraction(scalar)
        if not s:
            return self._with_store({})
        return self._with_store({i: s * v for i, v in self.store.items()})

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def is_zero(self):
        return not self.store

    def __eq__(self, other):
        if not isinstance(other, MultilinearMap):
            return NotImplemented
        return (self.domain == other.domain and self.codomain == other.codomain
                and self.dims == other.dims and self.store == other.store)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.dims,
                     frozenset(self.store.items())))

    def first_witness(self):
        """First (basis tuple, codomain index, value) with nonzero value."""
        if not self.store:
            return None
        i = min(self.store)
        row, k = divmod(i, self.cod_size)
        t = []
        for s in reversed(self.slot_sizes):
            row, r = divmod(row, s)
            t.append(r)
        return tuple(reversed(t)), k, self.store[i]

    def __repr__(self):
        doms = ",".join(lab.value for lab in self.domain)
        return (f"MultilinearMap({doms}->{self.codomain.value}, "
                f"dims={self.dims}, nnz={len(self.store)})")


def _adopt(domain, codomain, dims, slot_sizes, cod_size, store):
    """The trusted entrance: a map derived from checked maps, whose shape
    (`slot_sizes`, `cod_size`) the caller reads off those operands.

    `store` must hold nonzero Fractions at in-range indices.  The map keeps
    `dict(store)`, which is never an operand's dict and holds no table
    slots of entries that cancelled while `store` was accumulated.
    """
    m = object.__new__(MultilinearMap)
    object.__setattr__(m, "domain", domain)
    object.__setattr__(m, "codomain", codomain)
    object.__setattr__(m, "dims", dims)
    object.__setattr__(m, "store", dict(store))
    object.__setattr__(m, "slot_sizes", slot_sizes)
    object.__setattr__(m, "cod_size", cod_size)
    return m


def _checked_shape(domain, codomain, dims):
    """(domain, dims, slot_sizes, cod_size) of a signature, checked: the
    domain is a nonempty tuple of labels and dims two non-negative ints."""
    domain = tuple(domain)
    if not domain:
        raise ArityError("maps must have arity >= 1")
    try:
        da, db = dims
    except (TypeError, ValueError):
        da = None
    if type(da) is not int or type(db) is not int or da < 0 or db < 0:
        raise DimensionError(
            f"dims must be two non-negative ints, got {dims!r}")
    dims = (da, db)
    slot_sizes = []  # a loop: before Python 3.12 a comprehension is a call
    for lab in domain:
        slot_sizes.append(_label_size(lab, dims))
    return domain, dims, tuple(slot_sizes), _label_size(codomain, dims)


def _label_size(label, dims):
    if label is A:  # a global: SpaceLabel.A costs an Enum metaclass lookup
        return dims[0]
    if label is APRIME:
        return dims[1]
    if label is TOTAL:
        return dims[0] + dims[1]
    raise TypeError(f"not a SpaceLabel: {label!r}")


def msum(maps):
    """Sum a nonempty iterable of equal-signature maps."""
    maps = list(maps)
    if not maps:
        raise ValueError("msum of no maps")
    acc = dict(maps[0].store)
    for m in maps[1:]:
        maps[0]._check_same_signature(m)
        kernel.axpy(acc, ONE, m.store)
    return maps[0]._with_store(acc)


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
    sizes = f.slot_sizes[:slot] + g.slot_sizes + f.slot_sizes[slot + 1:]
    store = kernel.insert(f.store, f.slot_sizes, f.cod_size,
                          g.store, g.slot_sizes, g.cod_size, slot)
    return _adopt(domain, f.codomain, f.dims, sizes, f.cod_size, store)


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
    store = kernel.circle(f.store, f.slot_sizes, f.cod_size,
                          g.store, g.slot_sizes, g.cod_size)
    arity = f.arity + g.arity - 1
    return _adopt((f.codomain,) * arity, f.codomain, f.dims,
                  (f.cod_size,) * arity, f.cod_size, store)


def gerstenhaber(f, g):
    """[f,g] = f o g - (-1)^((m-1)(n-1)) g o f."""
    fg = circle(f, g)
    gf = circle(g, f)
    sign = -1 if (f.degree * g.degree) % 2 else 1
    return fg._with_store(kernel.axpy(dict(fg.store), Fraction(-sign),
                                      gf.store))


# -- lift / project ---------------------------------------------------------

def _reindex(f, domain, codomain, windows, new):
    """f's nonzeros moved into the signature (domain, codomain), whose
    slot sizes and then codomain size are `new`.

    `windows` holds one (lo, hi, shift) per slot of f and one for its
    codomain: a basis index r of that slot with lo <= r < hi becomes
    r + shift, and an entry with any index outside its window is dropped.
    """
    old = f.slot_sizes + (f.cod_size,)
    strides = []
    stride = 1
    for s in reversed(new):
        strides.append(stride)
        stride *= s
    plan = list(zip(reversed(old), reversed(windows), strides))
    out = {}
    for idx, v in f.store.items():
        at = 0
        for size, (lo, hi, shift), stride in plan:
            idx, r = divmod(idx, size)
            if not lo <= r < hi:
                break
            at += (r + shift) * stride
        else:
            out[at] = v
    return _adopt(domain, codomain, f.dims, tuple(new[:-1]), new[-1], out)


def lift(f):
    """Extend a block map by zero to the whole total space."""
    if any(lab is TOTAL for lab in f.domain) or f.codomain is TOTAL:
        raise BlockError("lift expects a map between the A / A' blocks")
    da, db = f.dims
    windows = [(0, da if lab is A else db, 0 if lab is A else da)
               for lab in f.domain + (f.codomain,)]
    return _reindex(f, (TOTAL,) * f.arity, TOTAL, windows,
                    (da + db,) * len(windows))


def lift_blocks(blocks, dims):
    """sum(lift(m) for m in blocks) for binary block maps on `dims` of
    distinct signatures, written in one pass over their nonzeros.

    Distinct block signatures fill disjoint entries of the total space,
    so each nonzero is written once, at its lifted index, with nothing to
    add or cancel; the store keeps the order of the blocks and of their
    stores, as the sum of the lifts does.  No blocks give the zero map.
    """
    da, db = dims
    n = da + db
    out = {}
    for m in blocks:
        (s1, s2), cod = m.domain, m.codomain
        c = m.cod_size
        row = m.slot_sizes[1] * c
        # the lift of entry (i, j, k) sits at ((i + o1)*n + j + o2)*n + k + oc
        base = (((0 if s1 is A else da) * n + (0 if s2 is A else da)) * n
                + (0 if cod is A else da))
        for idx, v in m.store.items():
            i, rem = divmod(idx, row)
            j, k = divmod(rem, c)
            out[base + (i * n + j) * n + k] = v
    return _adopt((TOTAL, TOTAL), TOTAL, dims, (n, n), n, out)


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
    da, dt = f.dims[0], f.dims[0] + f.dims[1]
    windows = []
    new = []
    for want, have, size in zip(domain + (codomain,), f.domain + (f.codomain,),
                                f.slot_sizes + (f.cod_size,)):
        if have is not TOTAL or want is TOTAL:
            windows.append((0, size, 0))   # have == want: the slot is kept
        elif want is A:
            windows.append((0, da, 0))
        else:
            windows.append((da, dt, -da))
        new.append(_label_size(want, f.dims))  # TypeError: not a label
    return _reindex(f, domain, codomain, windows, new)


def linear_map_from_matrix(rows, domain_label, codomain_label, dims):
    """Arity-1 map from a matrix whose column j is the image of basis j."""
    dom = _label_size(domain_label, dims)
    cod = _label_size(codomain_label, dims)
    if len(rows) != cod or any(len(r) != dom for r in rows):
        raise DimensionError(
            f"matrix must be {cod}x{dom} for {domain_label.value} -> "
            f"{codomain_label.value}")
    domain, dims, _, _ = _checked_shape((domain_label,), codomain_label, dims)
    # column by column, read straight off the rows: entry (j, k) sits at
    # j*cod + k, so the store is in index order, as `from_table` gives it
    store = {}
    for j in range(dom):
        for k in range(cod):
            v = rows[k][j]
            if type(v) is not Fraction:
                v = Fraction(v)
            if v:
                store[j * cod + k] = v
    return _adopt(domain, codomain_label, dims, (dom,), cod, store)


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
    size = prod(_label_size(lab, dims) for lab in (*domain, codomain))
    store = {}
    for i in range(size):
        v = random_fraction(rng, bound)
        if v:
            store[i] = v
    return MultilinearMap(domain, codomain, dims, store)


def seeded_rng(seed):
    return random.Random(seed)
