"""Pure-Python coefficient kernel.

The two entry points below are the inner loops of every bracket, residual
and coboundary computation: `insert` composes dense coefficient tables
(plug map g into one slot of map f), `axpy` accumulates a scaled table
into another.  A compiled twin lives in _fastkernel.pyx with the same
signatures; qta.kernel picks one at import time.  Results must be
bit-identical between the two.

Coefficient layout: a map with slot sizes (d1, ..., dm) and codomain size
c is a flat list of length d1*...*dm*c; the entry for basis tuple
(t1, ..., tm) and output index k sits at (((t1*d2 + t2)*d3 + ...) )*c + k.
Zero entries are skipped, which matters a lot: lifted block maps are
mostly zero.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def insert(f_coeffs, f_sizes, f_cod, g_coeffs, g_sizes, g_cod, slot):
    """Coefficients of h = f with g inserted at `slot` (0-based).

    h(x_1,...,x_{s}, y_1,...,y_n, x_{s+2},...,x_m)
        = f(x_1,...,x_s, g(y_1,...,y_n), x_{s+2},...,x_m)

    Requires f_sizes[slot] == g_cod.  No signs here; callers weave in the
    insertion signs of the circle product.
    """
    g_rows = 1
    for d in g_sizes:
        g_rows *= d
    post = 1
    for d in f_sizes[slot + 1:]:
        post *= d
    k_size = f_sizes[slot]
    f_rows = 1
    for d in f_sizes:
        f_rows *= d

    out = [_ZERO] * ((f_rows // k_size) * g_rows * f_cod)

    # group the nonzero entries of g by codomain index
    by_k = [[] for _ in range(g_cod)]
    idx = 0
    for grow in range(g_rows):
        for k in range(g_cod):
            v = g_coeffs[idx]
            idx += 1
            if v:
                by_k[k].append((grow, v))

    kpost = k_size * post
    idx = 0
    for frow in range(f_rows):
        pre = frow // kpost
        rem = frow - pre * kpost
        k = rem // post
        tail = rem - k * post
        col = by_k[k]
        for c in range(f_cod):
            fv = f_coeffs[idx]
            idx += 1
            if not fv or not col:
                continue
            base = pre * g_rows
            for grow, gv in col:
                oi = ((base + grow) * post + tail) * f_cod + c
                out[oi] += gv * fv
    return out


def axpy(target, scalar, source):
    """target[j] += scalar * source[j], in place, skipping zeros."""
    if not scalar:
        return
    for j, v in enumerate(source):
        if v:
            target[j] = target[j] + scalar * v or _ZERO
