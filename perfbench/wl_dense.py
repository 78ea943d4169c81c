"""Workload `dense_dim3`: the dims-(3,3) stack after a change of basis.

The Reynolds, semidirect and modified-direct-sum structures on K[t]/(t^3),
with their deformation maps, are conjugated by a seeded change of basis in
GL(A) x GL(A').  On the results the ops run `validate`, l_1..l_3 on seeded
random cochains on both sides, `explicit_formula_check` wherever a closed
formula exists, `mc_residual` on the transformed deformation map and on
random maps, `jacobi_residual` with n = 2, `twist_*` and
`conjugation_twist`, and `cohomology_dims` to degree 2.

This runs the same layers as the natural-basis workloads on data with no
zeros inside blocks: `pi` goes from 6 to 27 nonzeros out of 27 and `d_2`
from 3.6% to about 29% dense, while the block structure survives.  A
change that skips zero entries can therefore win on `cohomology_sparse`
and show nothing here, while one that skips zero blocks in `lift` should
win here too.  The lifted `kernel` and `multilinear` path dominates.

Every check holds for any seed: everything the library computes is
natural under a block-diagonal change of basis, so each output must equal
the natural-basis output carried into the new basis, and each verdict
and cohomology table must equal the natural-basis one.

The modified direct sum is defined through the identification A = A', so
it is conjugated by the same matrix on both blocks and its `algebra`
ingredient, which the closed formulas read, is conjugated with it.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from harness import Op, digest
from wl_cohomology import NONZERO, derivation_rows, trunc3

NAME = "dense_dim3"

OFF_DIAGONAL = (1, 2, -1, -2)

# arities of the bracket arguments, per side and bracket order
BRACKET_ARITIES = {
    "right": {1: (1,), 2: (2, 1), 3: (1, 2, 1)},
    "left": {1: (1,), 2: (2, 1), 3: (2, 1, 2)},
}
JACOBI_ARITIES = (1, 2)

# bracket orders with a closed formula, per (builder kind, side)
FORMULAS = {
    ("reynolds", "left"): (1, 2, 3),
    ("semidirect", "right"): (0, 1, 2),
    ("semidirect", "left"): (1, 2, 3),
    ("modified_direct_sum", "right"): (0, 1, 2),
}


def unimodular(rng, n):
    """Rows of L U for random unitriangular L, U: dense, inverse integral."""
    lower = [[Fraction(1 if i == j else rng.choice(OFF_DIAGONAL) if i > j else 0)
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(1 if i == j else rng.choice(OFF_DIAGONAL) if i < j else 0)
              for j in range(n)] for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


class Frame:
    """A block-diagonal change of basis (g_A, g_A') acting on block maps."""

    def __init__(self, api, dims, rows_a, rows_ap):
        self.api = api
        self.fwd, self.inv = {}, {}
        for label, rows in ((api.A, rows_a), (api.APRIME, rows_ap)):
            inverse = api.invert(api.ExactMatrix.from_rows(rows)).rows()
            self.fwd[label] = api.linear_map_from_matrix(rows, label, label, dims)
            self.inv[label] = api.linear_map_from_matrix(inverse, label, label, dims)
        self.fwd[api.TOTAL] = self._total(self.fwd, dims)
        self.inv[api.TOTAL] = self._total(self.inv, dims)

    def _total(self, maps, dims):
        api = self.api
        da = dims[0]

        def column(t):
            j = t[0]
            label, local = (api.A, j) if j < da else (api.APRIME, j - da)
            image = list(maps[label].value((local,)))
            zeros = [0] * dims[1 if label is api.A else 0]
            return image + zeros if label is api.A else zeros + image

        return api.MultilinearMap.from_function((api.TOTAL,), api.TOTAL,
                                                dims, column)

    def push(self, m):
        """m written in the new basis: g^-1 . m . (g x ... x g)."""
        out = m
        for slot, label in enumerate(m.domain):
            out = self.api.insert(out, self.fwd[label], slot)
        return self.api.insert(self.inv[m.codomain], out, 0)


def map_record(m):
    return digest(f"{m!r}|" + ",".join(str(c) for c in m.coeffs))


def conjugated_structure(api, q, frame, ingredients):
    comps = {name: frame.push(m) for name, m in q.components().items()}
    return api.QuasiTwilledAlgebra(
        kind=q.kind, ingredients=ingredients, basis_a=q.basis_a,
        basis_aprime=q.basis_aprime, **comps)


def structures(api, rng):
    """(label, natural q, natural map, side, frame, conjugated q, map)."""
    alg = trunc3(api)
    dims = (3, 3)
    a, b = Fraction(rng.choice(NONZERO)), Fraction(rng.choice(NONZERO))
    g_shared = unimodular(rng, 3)
    out = []
    for label, q, rows, side, same_frame in (
            ("reynolds", api.build_standard("reynolds", algebra=alg),
             [[-1, 0, 0], [0, -1, 0], [0, 0, -1]], "left", False),
            ("semidirect", api.build_standard(
                "semidirect", rep=api.regular_representation(alg)),
             derivation_rows(a, b), "right", False),
            ("modified", api.build_standard(
                "modified_direct_sum", algebra=alg, weight=4),
             [[2, 0, 0], [0, 2, 0], [0, 0, 2]], "right", True)):
        dom, cod = ((api.A, api.APRIME) if side == "right"
                    else (api.APRIME, api.A))
        m = api.linear_map_from_matrix(rows, dom, cod, dims)
        if same_frame:
            frame = Frame(api, dims, g_shared, g_shared)
            product = frame.push(alg.product.with_dims(dims))
            ingredients = {"algebra": api.AssociativeAlgebra(product),
                           "weight": q.ingredients["weight"]}
        else:
            frame = Frame(api, dims, unimodular(rng, 3), unimodular(rng, 3))
            ingredients = {}
        qc = conjugated_structure(api, q, frame, ingredients)
        mc = frame.push(m)
        residual = api.right_residual if side == "right" else api.left_residual
        if not api.validate(qc).is_zero() or not residual(qc, mc).is_zero():
            raise RuntimeError(f"{label}: conjugated data is not a "
                               "deformation map of a valid structure")
        out.append((label, q, m, side, frame, qc, mc))
    return out


def _expect(fn, predicate=None):
    """Check: output equals fn() computed once after the window."""
    reference = functools.cache(fn)

    def check(out):
        if predicate is not None:
            msg = predicate(out)
            if msg:
                return msg
        if out != reference():
            return "differs from the natural-basis result in the new basis"
        return None
    return check


def _true(out):
    return None if out is True else "closed formula disagrees with the bracket"


def _zero(out):
    return None if out.is_zero() else "nonzero where the theory gives zero"


def build(api, seed):
    rng = random.Random(f"{NAME}:{seed}")
    ops = []
    for label, q, m, side, frame, qc, mc in structures(api, rng):
        ops.append(Op(f"validate {label}", lambda qc=qc: api.validate(qc),
                      _zero, map_record))
        for s in ("right", "left"):
            v_dom = api.A if s == "right" else api.APRIME
            v_cod = api.APRIME if s == "right" else api.A

            def cochain(arity):
                return api.random_map(rng, (v_dom,) * arity, v_cod, q.dims)

            for k, arities in BRACKET_ARITIES[s].items():
                xs = [cochain(n) for n in arities]
                xcs = [frame.push(x) for x in xs]
                ops.append(Op(
                    f"l_{k} {label} {s}",
                    lambda qc=qc, s=s, k=k, xcs=xcs:
                        api.controlling_structure(qc, s).bracket(k, xcs),
                    _expect(lambda q=q, s=s, k=k, xs=xs, frame=frame: frame.push(
                        api.controlling_structure(q, s).bracket(k, xs))),
                    map_record))
                if k in FORMULAS.get((q.kind, s), ()):
                    ops.append(Op(
                        f"formula l_{k} {label} {s}",
                        lambda qc=qc, s=s, k=k, xcs=xcs:
                            api.explicit_formula_check(qc, s, k, xcs),
                        _true, bool))
            if 0 in FORMULAS.get((q.kind, s), ()):
                ops.append(Op(
                    f"formula l_0 {label} {s}",
                    lambda qc=qc, s=s: api.explicit_formula_check(qc, s, 0, []),
                    _true, bool))

            x = cochain(1)
            xc = frame.push(x)
            residual = api.right_residual if s == "right" else api.left_residual

            def same_verdict(out, qc=qc, xc=xc, residual=residual):
                if out.is_zero() != residual(qc, xc).is_zero():
                    return "MC verdict differs from the deformation residual"
                return None

            ops.append(Op(
                f"mc random {label} {s}",
                lambda qc=qc, s=s, xc=xc: api.mc_residual(qc, s, xc),
                _expect(lambda q=q, s=s, x=x, frame=frame: frame.push(
                    api.mc_residual(q, s, x)), same_verdict),
                map_record))
            ys = [frame.push(cochain(n)) for n in JACOBI_ARITIES]
            ops.append(Op(
                f"jacobi {label} {s}",
                lambda qc=qc, s=s, ys=ys:
                    api.controlling_structure(qc, s).jacobi_residual(2, ys),
                _zero, map_record))

        ops.append(Op(f"mc {label} {side}",
                      lambda qc=qc, side=side, mc=mc: api.mc_residual(qc, side, mc),
                      _zero, map_record))
        conj_reference = functools.cache(
            lambda q=q, m=m, side=side, frame=frame:
                frame.push(api.conjugation_twist(q, m, side)))

        def twist_check(out, conj_reference=conj_reference):
            if not out.is_quasi_twilled():
                return "twist by a deformation map left a gamma block"
            if out.reassemble() != conj_reference():
                return "twist differs from the conjugation twist"
            return None

        ops.append(Op(f"twist {label} {side}",
                      lambda qc=qc, mc=mc, side=side: (
                          api.twist_right if side == "right"
                          else api.twist_left)(qc, mc),
                      twist_check, lambda tw: map_record(tw.reassemble())))
        ops.append(Op(f"conjugation_twist {label} {side}",
                      lambda qc=qc, mc=mc, side=side:
                          api.conjugation_twist(qc, mc, side),
                      _expect(conj_reference), map_record))
        ops.append(Op(f"cohomology {label} {side} degree<=2",
                      lambda qc=qc, mc=mc, side=side:
                          api.cohomology_dims(qc, mc, side, 2),
                      _expect(lambda q=q, m=m, side=side:
                              api.cohomology_dims(q, m, side, 2)),
                      list))
    return ops
