"""The Maurer-Cartan expansion as a three-way oracle.

For a deformation map D of one side and any map E of that side, the side
residual of D + tE is a polynomial in t whose coefficients are the
brackets twisted by D (Gerstenhaber 1964; Getzler 2009):

    residual(D + tE) = sum_k t^k / k! l_k^D(E, ..., E),

with l_0^D = 0 and l_1^D = d_1 on C^1.  The residual here is the plain
closed formula of `oracles.right_residual` and `oracles.left_residual`,
which twists nothing, evaluated at five rational t and interpolated
exactly.  l_1^D is compared with the twisted bracket and with the sparse
matrix of d_1, and l_2^D and l_3^D are the library's twisted brackets,
which are structural zeros above the twisted element's top.  So the
residual, the brackets and the cochain complex check one another.
"""

from fractions import Fraction

import pytest

from qta import (
    MultilinearMap, coboundary_matrix, controlling_structure, msum,
    random_map, seeded_rng,
)

import oracles
from conftest import deformation_map_cases, t2_deformation_map_cases

CASES = [pytest.param(*case, id=f"{case[0]} {case[3]}")
         for case in deformation_map_cases() + t2_deformation_map_cases()]

# five points fix a polynomial of degree at most 4
POINTS = tuple(map(Fraction, (0, 1, -1, 2, Fraction(1, 2))))
RESIDUALS = {"right": oracles.right_residual, "left": oracles.left_residual}


def _lagrange(points):
    """The coefficients, lowest first, of each point's Lagrange basis
    polynomial: 1 at that point and 0 at the others."""
    out = []
    for j, tj in enumerate(points):
        coeffs = [Fraction(1)]
        for i, ti in enumerate(points):
            if i != j:
                # times (t - t_i) / (t_j - t_i)
                coeffs = [(a - ti * b) / (tj - ti)
                          for a, b in zip([0] + coeffs, coeffs + [0])]
        out.append(coeffs)
    return out


def _interpolate(values):
    """The exact coefficients c_0 .. c_4 of the polynomial taking
    values[j] at POINTS[j]."""
    basis = _lagrange(POINTS)
    return [msum(v.scale(b[k]) for v, b in zip(values, basis))
            for k in range(len(POINTS))]


@pytest.mark.parametrize("label,q,d,side", CASES)
def test_residual_coefficients_are_the_twisted_brackets(label, q, d, side):
    rng = seeded_rng(f"expansion {label} {side}")
    s = controlling_structure(q, side).twist(d)
    e = random_map(rng, *s.vdata.f_signature(1), q.dims)
    c = _interpolate([RESIDUALS[side](q, d + e.scale(t)) for t in POINTS])
    matrix = coboundary_matrix(q, d, side, 1)
    d_e = MultilinearMap(
        *s.vdata.f_signature(2), q.dims,
        {i: sum(v * e.store.get(j, 0) for j, v in row.items())
         for i, row in matrix.store.items()})
    assert c[0].is_zero(), label
    assert c[1] == s.bracket(1, [e]) == d_e, label
    assert c[2] == s.bracket(2, [e, e]).scale(Fraction(1, 2)), label
    assert c[3] == s.bracket(3, [e, e, e]).scale(Fraction(1, 6)), label
    assert c[4].is_zero(), label
