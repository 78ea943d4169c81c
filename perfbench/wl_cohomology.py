"""Workload `cohomology_sparse`: `cohomology_dims` in the natural basis.

Cases, each swept over every degree from 0 to its maximum (one op per
maximum degree):

* dims (3,3) to degree 3, right side: a seeded derivation
  D(t) = a t + b t^2, D(t^2) = 2a t^2 of the semidirect product of
  K[t]/(t^3) with its regular representation;
* dims (3,3) to degree 3, left side: the Reynolds operator B = -id on
  K[t]/(t^3);
* every (map, side) pair of the catalog to degree 5: the dims-(2,2) Euler
  derivation (right) and Reynolds operator (left) on the dual numbers,
  and the nine dims-(1,1) pairs.

Nearly all the time goes to coboundary assembly, the dense `d o d`
product and the rank; the twist is recomputed for every column and the
expanded form is cross-checked, while `d_n` is only 0.6-9% nonzero.  The
`linfty`, `io` and `cli` layers are not used in the timed ops.

Every table is the same for every seed: on the right side of a
semidirect product the twisted product and actions do not involve D
(xi = eta = beta = 0), so the complex, and hence the table, is that of
the regular bimodule for any derivation.
"""

from __future__ import annotations

import importlib
import random
from fractions import Fraction

from harness import Op

NAME = "cohomology_sparse"

TRUNC3 = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
]
NONZERO = (1, 2, 3, -1, -2, -3)


def trunc3(api):
    return api.AssociativeAlgebra.from_table(TRUNC3, 3,
                                             basis_names=["1", "t", "t2"])


def derivation_rows(a, b):
    """Matrix of D(1) = 0, D(t) = a t + b t^2, D(t^2) = 2a t^2."""
    return [[0, 0, 0], [0, a, 0], [0, b, 2 * a]]


def cases(api, seed):
    """(label, structure, map, side, max degree), validated."""
    qio = importlib.import_module("qta.io")
    rng = random.Random(f"{NAME}:{seed}")
    a, b = Fraction(rng.choice(NONZERO)), Fraction(rng.choice(NONZERO))
    alg = trunc3(api)
    semi = api.build_standard("semidirect",
                              rep=api.regular_representation(alg))
    rey = api.build_standard("reynolds", algebra=alg)
    out = [
        ("trunc3-derivation right", semi,
         api.linear_map_from_matrix(derivation_rows(a, b), api.A,
                                    api.APRIME, semi.dims), "right", 3),
        ("trunc3-reynolds left", rey,
         api.linear_map_from_matrix([[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
                                    api.APRIME, api.A, rey.dims), "left", 3),
    ]
    for name in api.catalog_names():
        doc = qio.parse(api.emit_example(name))
        q = qio.build_quasi_twilled(doc)
        for map_name, side in api.get_entry(name).deformation_maps:
            out.append((f"{name} {map_name} {side}", q,
                        qio.side_map(doc, q, map_name, side), side, 5))
    for label, q, m, side, _ in out:
        res = api.right_residual(q, m) if side == "right" else api.left_residual(q, m)
        if not api.validate(q).is_zero() or not res.is_zero():
            raise RuntimeError(f"{label}: not a deformation map")
    return out


def _table_check(n):
    def check(dims):
        if len(dims) != n + 1 or min(dims) < 0:
            return f"malformed table {dims}"
        return None
    return check


def build(api, seed):
    ops = []
    for label, q, m, side, top in cases(api, seed):
        for n in range(top + 1):
            ops.append(Op(
                f"{label} degree<={n}",
                lambda q=q, m=m, side=side, n=n: api.cohomology_dims(
                    q, m, side, n),
                _table_check(n), list, seed_free=True))
    return ops


def verify_expected(tables):
    """Cases whose table does not extend the one of the next lower degree."""
    by_case = {}
    for label, dims in tables.items():
        case, _, deg = label.rpartition(" degree<=")
        by_case.setdefault(case, {})[int(deg)] = dims
    bad = []
    for case, rows in by_case.items():
        for n, dims in rows.items():
            if n and rows.get(n - 1) != dims[:n]:
                bad.append(case)
    return bad
