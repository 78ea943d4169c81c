import math
import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from qta import (
    A, APRIME, TOTAL, MultilinearMap, circle, gerstenhaber, insert, lift,
    project,
)
from qta import kernel


def _random_table(rng, sizes, cod):
    return [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
            for _ in range(math.prod(sizes) * cod)]


def _sparse(dense):
    return {i: v for i, v in enumerate(dense) if v}


def _dense(store, size):
    out = [Fraction(0)] * size
    for i, v in store.items():
        out[i] = v
    return out


def _row(t, sizes):
    idx = 0
    for v, s in zip(t, sizes):
        idx = idx * s + v
    return idx


def _brute_insert(f, f_sizes, f_cod, g, g_sizes, g_cod, slot):
    """Reference composition by direct summation over all index tuples."""
    new_sizes = f_sizes[:slot] + g_sizes + f_sizes[slot + 1:]
    out = [Fraction(0)] * (math.prod(new_sizes) * f_cod)
    for t in product(*[range(s) for s in new_sizes]):
        pre = t[:slot]
        gt = t[slot:slot + len(g_sizes)]
        post = t[slot + len(g_sizes):]
        for c in range(f_cod):
            acc = Fraction(0)
            for k in range(g_cod):
                gv = g[_row(gt, g_sizes) * g_cod + k]
                fv = f[_row(pre + (k,) + post, f_sizes) * f_cod + c]
                acc += gv * fv
            out[_row(t, new_sizes) * f_cod + c] = acc
    return out


def _slotwise_circle(f, f_sizes, f_cod, g, g_sizes, g_cod):
    """Reference circle product: one kernel.insert per slot, added by axpy
    with the insertion sign (-1)^(i(n-1))."""
    n = len(g_sizes)
    acc = {}
    for i in range(len(f_sizes)):
        term = kernel.insert(f, f_sizes, f_cod, g, g_sizes, g_cod, i)
        kernel.axpy(acc, Fraction(-1 if (i * (n - 1)) % 2 else 1), term)
    return acc


def test_pure_kernel_against_brute_force():
    rng = random.Random(13)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        f_sizes = tuple(rng.randint(1, 3) for _ in range(m))
        g_sizes = tuple(rng.randint(1, 3) for _ in range(n))
        slot = rng.randrange(m)
        f_cod = rng.randint(1, 3)
        g_cod = f_sizes[slot]
        f = _random_table(rng, f_sizes, f_cod)
        g = _random_table(rng, g_sizes, g_cod)
        want = _brute_insert(f, f_sizes, f_cod, g, g_sizes, g_cod, slot)
        got = kernel.insert(_sparse(f), f_sizes, f_cod,
                            _sparse(g), g_sizes, g_cod, slot)
        assert all(got.values())
        assert _dense(got, len(want)) == want
        # the circle product needs g's codomain in every slot of f
        c_sizes = (g_cod,) * m
        c = _random_table(rng, c_sizes, f_cod)
        want = [Fraction(0)] * (g_cod ** (m - 1) * math.prod(g_sizes) * f_cod)
        for i in range(m):
            sign = -1 if (i * (n - 1)) % 2 else 1
            term = _brute_insert(c, c_sizes, f_cod, g, g_sizes, g_cod, i)
            want = [a + sign * b for a, b in zip(want, term)]
        got = kernel.circle(_sparse(c), c_sizes, f_cod,
                            _sparse(g), g_sizes, g_cod)
        assert all(got.values())
        assert _dense(got, len(want)) == want
        assert got == _slotwise_circle(_sparse(c), c_sizes, f_cod,
                                       _sparse(g), g_sizes, g_cod)


def test_insert_cancels_to_an_empty_store():
    # f(x, y) = x*y on a 2-dim slot, g = (1, -1)^T: f(g(e), y) sums
    # 1*f(e1, y) - 1*f(e2, y) with equal f-rows, which cancels exactly
    f = {0: Fraction(1), 1: Fraction(1)}   # sizes (2, 1), cod 1
    g = {0: Fraction(1), 1: Fraction(-1)}  # sizes (1,), cod 2
    assert kernel.insert(f, (2, 1), 1, g, (1,), 2, 0) == {}


def test_circle_cancels_to_an_empty_store():
    # the dual numbers are associative: mu o mu = mu(mu(x,y),z) -
    # mu(x,mu(y,z)) is the associator, and every entry the first slot
    # writes is cancelled by the second
    mu = {0: Fraction(1), 3: Fraction(1), 5: Fraction(1)}  # e0 e0 = e0, ...
    assert kernel.insert(mu, (2, 2), 2, mu, (2, 2), 2, 0)
    assert kernel.circle(mu, (2, 2), 2, mu, (2, 2), 2) == {}


def test_axpy_against_dense_with_cancellation():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 30)
        src = [Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
               for _ in range(n)]
        scalar = Fraction(rng.choice([-2, -1, 0, 1, 2]), rng.choice([1, 3]))
        tgt = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        # make about a third of the sums cancel exactly
        for j in range(n):
            if rng.random() < 0.35:
                tgt[j] = -scalar * src[j]
        want = [t + scalar * s for t, s in zip(tgt, src)]
        store = _sparse(tgt)
        out = kernel.axpy(store, scalar, _sparse(src))
        assert out is store
        assert all(out.values())
        assert _dense(out, n) == want


# -- the sparse store against dense references ------------------------------

_VALUES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2),
                           Fraction(-3, 2)])


@st.composite
def _maps(draw, domain, codomain, dims):
    size = math.prod(_size(lab, dims) for lab in domain) * _size(codomain,
                                                                 dims)
    coeffs = draw(st.lists(_VALUES, min_size=size, max_size=size))
    return MultilinearMap(domain, codomain, dims,
                          [Fraction(v) for v in coeffs])


def _size(label, dims):
    return {A: dims[0], APRIME: dims[1], TOTAL: dims[0] + dims[1]}[label]


_DIMS = st.tuples(st.integers(1, 2), st.integers(1, 2))
_BLOCK = st.sampled_from([A, APRIME])


def _check(m, dense):
    assert all(m.store.values())
    assert m.coeffs == tuple(dense)


def _dense_insert(f, g, slot):
    return _brute_insert(list(f.coeffs), f.slot_sizes, f.cod_size,
                         list(g.coeffs), g.slot_sizes, g.cod_size, slot)


def _dense_circle(f, g):
    n = g.arity
    out = None
    for i in range(f.arity):
        sign = -1 if (i * (n - 1)) % 2 else 1
        term = [sign * v for v in _dense_insert(f, g, i)]
        out = term if out is None else [a + b for a, b in zip(out, term)]
    return out


def _dense_lift(f):
    """Literal slow path: every total tuple, kept when it lies in f's blocks."""
    da, dt = f.dims[0], f.dims[0] + f.dims[1]
    off = {A: 0, APRIME: da}
    out = [Fraction(0)] * (dt ** f.arity * dt)
    for t in product(range(dt), repeat=f.arity):
        local = [v - off[lab] for lab, v in zip(f.domain, t)]
        if all(0 <= v < s for v, s in zip(local, f.slot_sizes)):
            for k in range(f.cod_size):
                out[_row(t, (dt,) * f.arity) * dt + off[f.codomain] + k] = \
                    f.coeffs[_row(local, f.slot_sizes) * f.cod_size + k]
    return out


def _dense_project(f, domain, codomain):
    da = f.dims[0]
    sizes = [_size(lab, f.dims) for lab in domain]
    cod = _size(codomain, f.dims)
    cod_off = da if f.codomain is TOTAL and codomain is APRIME else 0
    out = []
    for t in product(*[range(s) for s in sizes]):
        src = [v + (da if have is TOTAL and want is APRIME else 0)
               for want, have, v in zip(domain, f.domain, t)]
        base = _row(src, f.slot_sizes) * f.cod_size + cod_off
        out.extend(f.coeffs[base:base + cod])
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_store_arithmetic_against_dense(data):
    dims = data.draw(_DIMS)
    domain = tuple(data.draw(st.lists(_BLOCK, min_size=1, max_size=3)))
    codomain = data.draw(_BLOCK)
    f = data.draw(_maps(domain, codomain, dims))
    g = data.draw(_maps(domain, codomain, dims))
    s = data.draw(st.sampled_from([0, 1, -1, 2, Fraction(-1, 3)]))
    _check(f + g, [a + b for a, b in zip(f.coeffs, g.coeffs)])
    _check(f - g, [a - b for a, b in zip(f.coeffs, g.coeffs)])
    _check(f - f, [0] * len(f.coeffs))
    _check(f.scale(s), [s * a for a in f.coeffs])
    _check(-f, [-a for a in f.coeffs])
    lifted = lift(f)
    _check(lifted, _dense_lift(f))
    _check(project(lifted, domain, codomain), f.coeffs)
    other = tuple(data.draw(st.lists(_BLOCK, min_size=len(domain),
                                     max_size=len(domain))))
    other_cod = data.draw(_BLOCK)
    _check(project(lifted, other, other_cod),
           _dense_project(lifted, other, other_cod))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_store_insertion_calculus_against_dense(data):
    dims = data.draw(_DIMS)
    m = data.draw(st.integers(1, 3))
    f_dom = tuple(data.draw(st.lists(_BLOCK, min_size=m, max_size=m)))
    slot = data.draw(st.integers(0, m - 1))
    g_dom = tuple(data.draw(st.lists(_BLOCK, min_size=1, max_size=2)))
    f = data.draw(_maps(f_dom, data.draw(_BLOCK), dims))
    g = data.draw(_maps(g_dom, f_dom[slot], dims))
    _check(insert(f, g, slot), _dense_insert(f, g, slot))
    lf, lg = lift(f), lift(g)
    _check(circle(lf, lg), _dense_circle(lf, lg))
    sign = -1 if (lf.degree * lg.degree) % 2 else 1
    _check(gerstenhaber(lf, lg),
           [a - sign * b for a, b in zip(_dense_circle(lf, lg),
                                         _dense_circle(lg, lf))])
    # kernel.circle on closed maps of one label, arities 1..3, both orders
    # (TOTAL at dims (1, 1) keeps the dense reference small)
    label = data.draw(st.sampled_from([A, APRIME, TOTAL]))
    cdims = (1, 1) if label is TOTAL else dims
    p = data.draw(_maps((label,) * data.draw(st.integers(1, 3)), label,
                        cdims))
    q = data.draw(_maps((label,) * data.draw(st.integers(1, 3)), label,
                        cdims))
    for u, v in ((p, q), (q, p)):
        args = (u.store, u.slot_sizes, u.cod_size,
                v.store, v.slot_sizes, v.cod_size)
        got = kernel.circle(*args)
        want = _dense_circle(u, v)
        assert all(got.values())
        assert _dense(got, len(want)) == want
        assert got == _slotwise_circle(*args)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equality_and_hash_follow_coeffs(data):
    dims = data.draw(_DIMS)
    domain = tuple(data.draw(st.lists(_BLOCK, min_size=1, max_size=2)))
    codomain = data.draw(_BLOCK)
    f = data.draw(_maps(domain, codomain, dims))
    g = data.draw(_maps(domain, codomain, dims))
    assert (f == g) == (f.coeffs == g.coeffs)
    # equal coefficients built another way: a dict in reversed index
    # order, with explicit zeros and integer values
    store = {i: 0 for i in reversed(range(len(f.coeffs)))}
    for i, v in f.store.items():
        store[i] = int(v) if v.denominator == 1 else v
    same = MultilinearMap(domain, codomain, dims, store)
    assert same == f and hash(same) == hash(f)
    assert all(same.store.values())
    assert same.coeffs == f.coeffs
