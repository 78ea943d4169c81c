import sys
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from qta import (
    A, APRIME, TOTAL, ArityError, DimensionError, MultilinearMap, circle,
    build_standard, gerstenhaber, insert, koszul_sign, lift,
    linear_map_from_matrix, msum, project, random_map, seeded_rng,
    unshuffles, validate,
)
from qta.multilinear import _label_size

from conftest import change_of_basis, conjugated_structure, trunc3
from oracles import circle_parts

DIMS = (1, 1)
PI = MultilinearMap.from_table([[[1]]], (A, A), A, DIMS)


def total_maps(rng, arity, dims=(1, 1)):
    return random_map(rng, (TOTAL,) * arity, TOTAL, dims)


# -- lift / project -----------------------------------------------------------

def test_lift_one_dim_product():
    fhat = lift(PI)
    # f((x,u),(y,v)) = (x*y, 0): only the AA entry of the A output survives
    assert fhat.value((0, 0)) == (1, 0)
    for t in ((0, 1), (1, 0), (1, 1)):
        assert fhat.value(t) == (0, 0)


def test_value_and_entry_reject_bad_indices():
    # dual numbers (slots 2 x 2): a wrong index must not alias another entry
    pi = MultilinearMap.from_table(
        [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], (A, A), A, (2, 0))
    assert pi.value((1, 0)) == (0, 1) and pi.entry((0, 0), 0) == 1
    for bad in ((1,), (0, 1, 1), ()):
        with pytest.raises(ArityError):
            pi.value(bad)
        with pytest.raises(ArityError):
            pi.entry(bad, 0)
    for bad in ((0, 2), (2, 0), (-1, 0)):
        with pytest.raises(DimensionError):
            pi.value(bad)
        with pytest.raises(DimensionError):
            pi.entry(bad, 0)
    for k in (2, 3, -1):
        with pytest.raises(DimensionError):
            pi.entry((0, 0), k)


def test_constructor_makes_values_fractions_and_checks_dims_and_indices():
    three = MultilinearMap((A,), A, (1, 1), [3])
    tenth = MultilinearMap((A,), A, (1, 1), [0.1])
    assert type(three.store[0]) is Fraction
    # a float becomes its exact binary value, so products stay exact
    assert tenth.store == {0: Fraction(0.1)}
    assert insert(three, tenth, 0).store == {0: 3 * Fraction(0.1)}
    assert type(insert(three, tenth, 0).store[0]) is Fraction
    mixed = MultilinearMap((A, A), A, (2, 0), {0: 1, 3: Fraction(1, 2),
                                               5: 0, 6: "2/3"})
    assert mixed.store == {0: 1, 3: Fraction(1, 2), 6: Fraction(2, 3)}
    assert {type(v) for v in mixed.store.values()} == {Fraction}
    for dims in ((2.7, 1), (-1, 1), (1, -1), (True, 1), ("1", 1), (1,),
                 (1, 1, 1), 3):
        with pytest.raises(DimensionError):
            MultilinearMap((A,), A, dims, {})
    for index in ("0", 0.0, 1.5, None):
        with pytest.raises(DimensionError):
            MultilinearMap((A,), A, (2, 1), {index: 1})


def test_lift_zero():
    z = MultilinearMap.zero((A, APRIME), APRIME, (2, 1))
    assert lift(z).is_zero()


def test_lift_project_roundtrip_exhaustive():
    rng = seeded_rng(1)
    for dom in [(A,), (APRIME, A), (A, APRIME), (APRIME, APRIME)]:
        for cod in (A, APRIME):
            f = random_map(rng, dom, cod, (1, 1))
            assert project(lift(f), dom, cod) == f
            # zero on every other block
            lifted = lift(f)
            for other_dom in [(A,) * len(dom), (APRIME,) * len(dom)]:
                for other_cod in (A, APRIME):
                    if (other_dom, other_cod) == (dom, cod):
                        continue
                    blk = project(lifted, other_dom, other_cod)
                    if (other_dom, other_cod) != (dom, cod):
                        pass  # mixed blocks checked below
    # explicit mixed-block check at dims (1,1), arity 2
    f = random_map(rng, (APRIME, A), APRIME, (1, 1))
    lifted = lift(f)
    from itertools import product as iproduct
    for dom in iproduct((A, APRIME), repeat=2):
        for cod in (A, APRIME):
            blk = project(lifted, dom, cod)
            if (tuple(dom), cod) == ((APRIME, A), APRIME):
                assert blk == f
            else:
                assert blk.is_zero()


def test_project_sum_of_lifts_recovers_component():
    rng = seeded_rng(2)
    pi = random_map(rng, (A, A), A, (1, 2))
    theta = random_map(rng, (A, A), APRIME, (1, 2))
    total = lift(pi) + lift(theta)
    assert project(total, (A, A), APRIME) == theta
    assert project(total, (A, A), A) == pi


# -- circle product ------------------------------------------------------------

def test_circle_one_dim_associative():
    assert circle(PI, PI).is_zero()


def test_circle_with_identity_is_arity_times():
    rng = seeded_rng(3)
    for m in (1, 2, 3):
        f = total_maps(rng, m, (1, 1))
        ident = MultilinearMap.identity(TOTAL, (1, 1))
        assert circle(f, ident) == f.scale(m)


def test_circle_unary_outer_is_composition():
    rng = seeded_rng(4)
    f = total_maps(rng, 1, (2, 0))
    g = total_maps(rng, 2, (2, 0))
    assert circle(f, g) == insert(f, g, 0)


def test_circle_parts_difference_is_circle():
    rng = seeded_rng(5)
    for _ in range(5):
        f = total_maps(rng, 2, (2, 0))
        g = total_maps(rng, 2, (2, 0))
        p1, p2 = circle_parts(f, g)
        assert p1 - p2 == circle(f, g)


def test_circle_parts_requires_binary():
    rng = seeded_rng(6)
    f = total_maps(rng, 3, (1, 0))
    with pytest.raises(ArityError):
        circle_parts(f, f)


def test_circle_parts_one_dim_values():
    p1, p2 = circle_parts(lift(PI), lift(PI))
    assert p1.value((0, 0, 0)) == (1, 0)
    assert p2.value((0, 0, 0)) == (1, 0)


# -- bracket -------------------------------------------------------------------

def test_bracket_pi_pi_is_twice_circle():
    assert gerstenhaber(PI, PI) == circle(PI, PI).scale(2)


def test_even_degree_self_bracket_vanishes():
    rng = seeded_rng(7)
    f = total_maps(rng, 3, (2, 0))  # degree 2
    assert gerstenhaber(f, f).is_zero()


def test_graded_antisymmetry():
    rng = seeded_rng(8)
    for m, n in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
        f = total_maps(rng, m, (2, 0))
        g = total_maps(rng, n, (2, 0))
        sign = -1 if ((m - 1) * (n - 1)) % 2 == 0 else 1
        assert gerstenhaber(f, g) == gerstenhaber(g, f).scale(sign)


def test_graded_jacobi():
    rng = seeded_rng(9)
    for arities in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2),
                    (3, 2, 1), (3, 2, 2), (3, 3, 2)]:
        f, g, h = (total_maps(rng, a, (2, 0)) for a in arities)
        df, dg, dh = (a - 1 for a in arities)
        term1 = gerstenhaber(gerstenhaber(f, g), h).scale(
            1 if (df * dh) % 2 == 0 else -1)
        term2 = gerstenhaber(gerstenhaber(g, h), f).scale(
            1 if (dg * df) % 2 == 0 else -1)
        term3 = gerstenhaber(gerstenhaber(h, f), g).scale(
            1 if (dh * dg) % 2 == 0 else -1)
        assert (term1 + term2 + term3).is_zero()


def test_bracket_of_lifts_is_lift_of_bracket():
    # both sides single-block: e.g. rho-type against pi-type
    rng = seeded_rng(10)
    dims = (2, 1)
    pi = random_map(rng, (A, A), A, dims)
    rho = random_map(rng, (A, APRIME), APRIME, dims)
    big = gerstenhaber(lift(rho), lift(pi))
    # the only nonzero block is (A,A,A')->A' from (rho o pi)_1
    blk = project(big, (A, A, APRIME), APRIME)
    expect = insert(rho, pi, 0)
    assert blk == expect
    # and lifting the block reproduces the bracket
    assert lift(blk) == big


def test_circle_bilinearity_spot():
    rng = seeded_rng(11)
    f1 = total_maps(rng, 2, (2, 0))
    f2 = total_maps(rng, 2, (2, 0))
    g = total_maps(rng, 2, (2, 0))
    assert circle(f1 + f2, g) == circle(f1, g) + circle(f2, g)
    assert circle(g, f1 + f2) == circle(g, f1) + circle(g, f2)


# -- koszul signs ---------------------------------------------------------------

def test_koszul_identity_and_swap():
    assert koszul_sign((0, 1), [1, 1]) == 1
    assert koszul_sign((1, 0), [1, 1]) == -1
    assert koszul_sign((1, 0), [1, 2]) == 1
    assert koszul_sign((1, 0), [2, 2]) == 1


def _koszul_by_inversions(perm, degrees):
    # independent oracle: one graded factor per inversion pair
    sign = 1
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                sign *= (-1) ** (degrees[perm[i]] * degrees[perm[j]])
    return sign


def test_koszul_decomposition_independent():
    # the adjacent-swap accumulation must match the inversion-pair closed
    # form for every permutation and degree pattern
    for degrees in [[1, 2, 1], [0, 1, 2], [2, 2, 2], [1, 1, 1], [0, 0, 3]]:
        for perm in permutations(range(3)):
            assert koszul_sign(perm, degrees) == _koszul_by_inversions(
                perm, degrees), (perm, degrees)


@given(st.integers(0, 4))
@settings(max_examples=20, deadline=None)
def test_unshuffles_count(i):
    from math import comb
    n = 4
    shuffles = unshuffles(i, n)
    assert len(shuffles) == comb(n, i)
    for s in shuffles:
        assert sorted(s) == list(range(n))
        assert list(s[:i]) == sorted(s[:i])
        assert list(s[i:]) == sorted(s[i:])


@given(st.permutations(range(4)), st.lists(st.integers(0, 3), min_size=4,
                                           max_size=4))
@settings(max_examples=50, deadline=None)
def test_koszul_multiplicative_with_parity(perm, degrees):
    # all-odd degrees reduce the Koszul sign to the ordinary parity
    if all(d % 2 == 1 for d in degrees):
        arr = list(perm)
        parity = 1
        for i in range(len(arr)):
            for j in range(len(arr) - 1 - i):
                if arr[j] > arr[j + 1]:
                    arr[j], arr[j + 1] = arr[j + 1], arr[j]
                    parity = -parity
        assert koszul_sign(perm, degrees) == parity
    # all-even degrees give +1
    if all(d % 2 == 0 for d in degrees):
        assert koszul_sign(perm, degrees) == 1


# -- stored shapes ---------------------------------------------------------------

def _shape_of(m):
    return (tuple(_label_size(lab, m.dims) for lab in m.domain),
            _label_size(m.codomain, m.dims))


def test_stored_shapes_match_the_labels_on_every_construction_path():
    dims = (2, 3)
    rng = seeded_rng(5)
    f = random_map(rng, (A, APRIME), A, dims)
    g = random_map(rng, (APRIME, A), APRIME, dims)
    h = random_map(rng, (A, A), A, dims)
    built = [
        MultilinearMap((A, TOTAL), APRIME, dims, {0: 1}),
        MultilinearMap.zero((APRIME,), TOTAL, dims),
        MultilinearMap.unit((TOTAL, A, APRIME), A, dims, 7),
        MultilinearMap.identity(APRIME, dims),
        MultilinearMap.from_function((A,), APRIME, dims,
                                     lambda t: [t[0], 0, 1]),
        MultilinearMap.from_table([[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                                  (A, A), A, dims),
        f.relabel((A, APRIME), A),
        h.relabel((A, A), APRIME, (2, 2)),
        h.with_dims((2, 5)),
        insert(f, g, 1),
        insert(g, f, 1),
        circle(h, h),
        circle(lift(f), lift(g)),
        lift(g),
        project(lift(f), (A, APRIME), A),
        project(lift(g), (APRIME, TOTAL), APRIME),
    ]
    for m in built:
        assert (m.slot_sizes, m.cod_size) == _shape_of(m), m
        for name in ("slot_sizes", "cod_size"):
            with pytest.raises(AttributeError):
                setattr(m, name, ())
        assert (m.slot_sizes, m.cod_size) == _shape_of(m), m


# -- the two entrances -------------------------------------------------------------

_VALUES = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2),
                           Fraction(-3, 2)])
_BLOCK = st.sampled_from([A, APRIME])


@st.composite
def _checked_maps(draw, domain, codomain, dims):
    size = prod(_label_size(lab, dims) for lab in (*domain, codomain))
    return MultilinearMap(domain, codomain, dims,
                          draw(st.lists(_VALUES, min_size=size,
                                        max_size=size)))


def _assert_trusted(m):
    """A derived map equals its rebuild through the checked entrance."""
    checked = MultilinearMap(m.domain, m.codomain, m.dims, dict(m.store))
    assert m == checked
    assert (m.slot_sizes, m.cod_size) == (checked.slot_sizes,
                                          checked.cod_size)
    assert (m.slot_sizes, m.cod_size) == _shape_of(m)
    assert all(type(v) is Fraction and v for v in m.store.values())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_derived_maps_equal_their_checked_rebuild(data):
    dims = data.draw(st.tuples(st.integers(0, 2), st.integers(1, 2)))
    domain = tuple(data.draw(st.lists(_BLOCK, min_size=1, max_size=2)))
    codomain = data.draw(_BLOCK)
    slot = data.draw(st.integers(0, len(domain) - 1))
    f = data.draw(_checked_maps(domain, codomain, dims))
    g = data.draw(_checked_maps(domain, codomain, dims))
    h = data.draw(_checked_maps(
        tuple(data.draw(st.lists(_BLOCK, min_size=1, max_size=2))),
        domain[slot], dims))
    zero = MultilinearMap.zero(domain, codomain, dims)
    other = tuple(data.draw(st.lists(_BLOCK, min_size=len(domain),
                                     max_size=len(domain))))
    other_cod = data.draw(_BLOCK)
    lf, lh = lift(f), lift(h)
    # (result, operands): sums that cancel, scale(0) and empty stores too
    derived = [
        (f + g, (f, g)), (f - g, (f, g)), (f - f, (f,)), (f + zero, (f, zero)),
        (zero - f, (zero, f)), (-f, (f,)), (f.scale(0), (f,)),
        (f.scale(1), (f,)), (f.scale(Fraction(-1, 3)), (f,)),
        (2 * f, (f,)), (zero.scale(3), (zero,)),
        (msum([f]), (f,)), (msum([f, g, -f]), (f, g)),
        (msum([f, -f]), (f,)),
        (insert(f, h, slot), (f, h)), (insert(zero, h, slot), (zero, h)),
        (lf, (f,)), (lift(zero), (zero,)),
        (project(lf, domain, codomain), (lf,)),
        (project(lf, other, other_cod), (lf,)),
        (circle(lf, lh), (lf, lh)), (circle(lh, lf), (lh, lf)),
        (gerstenhaber(lf, lh), (lf, lh)), (gerstenhaber(lf, lf), (lf,)),
        (f.relabel(domain, codomain), (f,)), (f.with_dims(dims), (f,)),
    ]
    snapshots = []
    for m, operands in derived:
        _assert_trusted(m)
        assert all(m.store is not op.store for op in operands)
        snapshots.append(dict(m.store))
    assert project(lf, domain, codomain) == f
    # a result never shares a store with the maps it was derived from
    for op in (f, g, h, zero):
        op.store.clear()
        op.store[0] = Fraction(7)
    assert [m.store for m, _ in derived] == snapshots


def test_table_constructors_make_each_value_a_fraction_once():
    # a Fraction is kept as it is; anything else becomes one, as the
    # checked constructor makes it
    half = Fraction(1, 2)
    m = MultilinearMap.from_table(
        [[[half, 0], ["1/3", 2]], [[0.5, Fraction(0)], [0, -1]]],
        (A, A), A, (2, 0))
    assert m.store[0] is half
    assert m == MultilinearMap((A, A), A, (2, 0),
                               [half, 0, Fraction(1, 3), 2, half, 0, 0, -1])
    b = linear_map_from_matrix([[half, 0], [1, "2"]], A, APRIME, (2, 2))
    assert b.store[0] is half
    assert b == MultilinearMap((A,), APRIME, (2, 2), [half, 1, 0, 2])
    for out in (m, b):
        _assert_trusted(out)



def test_derived_stores_are_compact():
    # the half-bracket of a valid dims-(3,3) structure in a dense basis
    # cancels to zero inside the kernel; the map must not keep the table
    # that the cancelled entries grew
    q = build_standard("reynolds", algebra=trunc3())
    push = change_of_basis(q.dims, [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                           [[2, 1, 0], [1, 1, 1], [0, 1, 1]])
    h = validate(conjugated_structure(q, push))
    assert h.is_zero()
    assert sys.getsizeof(h.store) == sys.getsizeof({})


def test_adding_a_non_map_is_a_type_error():
    m = MultilinearMap((A,), A, (1, 1), [3])
    for bad in (1, 0, Fraction(1, 2), "m", None):
        for op in (lambda: m + bad, lambda: m - bad, lambda: bad + m,
                   lambda: bad - m):
            with pytest.raises(TypeError):
                op()


def test_msum_of_no_maps_is_a_value_error():
    # a sum of nothing has no signature to take
    with pytest.raises(ValueError, match="msum of no maps"):
        msum([])
    with pytest.raises(ValueError):
        msum(m for m in ())


def test_project_rejects_a_label_that_is_not_a_space_label():
    # the projection's labels come from the caller, so the adopted map's
    # shape is read off them only after they are checked
    f = lift(random_map(seeded_rng(6), (A, APRIME), A, (1, 2)))
    for domain, codomain in (((A, "A'"), A), ((A, APRIME), "A"),
                             ((None, APRIME), A)):
        with pytest.raises(TypeError):
            project(f, domain, codomain)
