"""Sparse coefficient kernel.

The three entry points below are the inner loops of every bracket,
residual and coboundary computation: `insert` composes two coefficient
stores (plug map g into one slot of map f), `circle` sums the signed
insertions of g into every slot of f, and `axpy` accumulates a scaled
store into another.  All three cost time in proportion to the nonzero
entries they read, never to the size of the index space.

Coefficient layout: a map with slot sizes (d1, ..., dm) and codomain size
c has the flat index space range(d1*...*dm*c); the entry for basis tuple
(t1, ..., tm) and output index k sits at (((t1*d2 + t2)*d3 + ...) )*c + k.
A store is a dict {flat index: value} that holds only the nonzero entries.
Every entry point accumulates into one output store and drops an entry as
soon as its sum cancels to zero, so a store never holds a zero.

The loops only negate, multiply, add and test for zero, so they work on
any exact values: `quasitwilled.validate` feeds `circle` ints (Delta
cleared to one common denominator), and every other caller feeds
Fractions.
"""


def _accumulate(out, f, f_sizes, f_cod, g, g_sizes, g_cod, slot, negate):
    """out += (-1 if negate else 1) * (f with g inserted at `slot`)."""
    g_rows = 1
    for d in g_sizes:
        g_rows *= d
    post = 1
    for d in f_sizes[slot + 1:]:
        post *= d
    # With block = post*f_cod, an f index is
    #     (pre*k_size + k)*block + low,        low = tail*f_cod + c,
    # and the h index it feeds through g's row grow is
    #     (pre*g_rows + grow)*block + low.
    block = post * f_cod
    f_stride = f_sizes[slot] * block
    h_stride = g_rows * block

    # g's nonzeros grouped by codomain index, as (offset in h, signed value)
    by_k = [[] for _ in range(g_cod)]
    for gi, gv in g.items():
        grow, k = divmod(gi, g_cod)
        by_k[k].append((grow * block, -gv if negate else gv))

    get = out.get
    for fi, fv in f.items():
        pre, rem = divmod(fi, f_stride)
        k, low = divmod(rem, block)
        base = pre * h_stride + low
        for off, gv in by_k[k]:
            oi = base + off
            v = get(oi)
            if v is None:
                out[oi] = gv * fv
            else:
                v += gv * fv
                if v:
                    out[oi] = v
                else:
                    del out[oi]


def insert(f, f_sizes, f_cod, g, g_sizes, g_cod, slot):
    """Store of h = f with g inserted at `slot` (0-based).

    h(x_1,...,x_{s}, y_1,...,y_n, x_{s+2},...,x_m)
        = f(x_1,...,x_s, g(y_1,...,y_n), x_{s+2},...,x_m)

    Requires f_sizes[slot] == g_cod.  No signs here; `circle` weaves in
    the insertion signs of the circle product.
    """
    out = {}
    _accumulate(out, f, f_sizes, f_cod, g, g_sizes, g_cod, slot, False)
    return out


def circle(f, f_sizes, f_cod, g, g_sizes, g_cod):
    """Store of the circle product sum_i (-1)^(i(n-1)) f o_i g.

    i runs over the slots of f (0-based) and n = len(g_sizes); every
    insertion accumulates into one store.  Requires f_sizes[i] == g_cod
    for every slot i.
    """
    n = len(g_sizes)
    out = {}
    for i in range(len(f_sizes)):
        _accumulate(out, f, f_sizes, f_cod, g, g_sizes, g_cod, i,
                    (i * (n - 1)) % 2 == 1)
    return out


def axpy(target, scalar, source):
    """target += scalar * source, in place; returns target."""
    if not scalar:
        return target
    unit = scalar == 1
    get = target.get
    for j, v in source.items():
        if not unit:
            v = scalar * v
        w = get(j)
        if w is None:
            target[j] = v
        else:
            w += v
            if w:
                target[j] = w
            else:
                del target[j]
    return target
