import json
from collections import Counter
from fractions import Fraction

import pytest

import qta.cohomology
import qta.deformation
from qta import (
    A, APRIME, DegreeError, DimensionError, ExactMatrix, InvalidQTA,
    MultilinearMap, NotDeformationMap, QuasiTwilledAlgebra, build_standard,
    coboundary_apply, coboundary_matrix, cochain_complex, cohomology_dims,
    hochschild_complex, emit_example, random_map, regular_representation,
    seeded_rng,
)
from qta.cli import main as cli_main
from qta.cohomology import MAX_DEGREE_CAP
from qta.deformation import side_spec
from qta.io import build_quasi_twilled, parse, side_map

from conftest import (
    change_of_basis, conjugated_structure, deformation_map_cases,
    dual_numbers, left_map, one_dim_algebra, quotient_dim, right_map,
    row_reduce, t2_deformation_map_cases, trunc3, upper_triangular,
)
from oracles import coboundary_apply_expanded, cochain_space, l1_vs_d


def semidirect_one():
    return build_standard("semidirect",
                          rep=regular_representation(one_dim_algebra()))


def test_degree0_coboundary_semidirect_one():
    # (d a)(x) = xa - ax = 0 in the commutative 1-dim case
    q = semidirect_one()
    d0 = coboundary_matrix(q, right_map(q, [[0]]), "right", 0)
    assert d0.is_zero()


def test_degree1_coboundary_semidirect_one():
    # d f(e,e) = e f(e) - f(ee) + f(e) e = f(e): the 1x1 matrix (1)
    q = semidirect_one()
    d1 = coboundary_matrix(q, right_map(q, [[0]]), "right", 1)
    assert d1.rows() == [[1]]


def test_cohomology_table_semidirect_one():
    q = semidirect_one()
    assert cohomology_dims(q, right_map(q, [[0]]), "right", 2) == [1, 0, 0]


def test_structural_equals_expanded_both_sides():
    rng = seeded_rng(81)
    qd = build_standard("semidirect",
                        rep=regular_representation(dual_numbers()))
    d = right_map(qd, [[0, 0], [0, 1]])
    for n in (1, 2, 3):
        f = random_map(rng, (A,) * n, APRIME, qd.dims)
        assert coboundary_apply(qd, d, "right", f) == \
            coboundary_apply_expanded(qd, d, "right", f)
    qb = build_standard("reynolds", algebra=dual_numbers())
    b = left_map(qb, [[-1, 0], [0, -1]])
    for n in (1, 2, 3):
        f = random_map(rng, (APRIME,) * n, A, qb.dims)
        assert coboundary_apply(qb, b, "left", f) == \
            coboundary_apply_expanded(qb, b, "left", f)


def test_d_squared_zero_catalog_style():
    cases = [
        (semidirect_one(), [[0]], "right"),
        (build_standard("reynolds", algebra=one_dim_algebra()), [[-1]], "left"),
        (build_standard("semidirect",
                        rep=regular_representation(dual_numbers())),
         [[0, 0], [0, 1]], "right"),
        (build_standard("reynolds", algebra=dual_numbers()),
         [[-1, 0], [0, -1]], "left"),
    ]
    for q, rows, side in cases:
        m = right_map(q, rows) if side == "right" else left_map(q, rows)
        mats = [coboundary_matrix(q, m, side, n) for n in range(4)]
        for n in range(3):
            assert mats[n + 1].matmul(mats[n]).is_zero()


def test_cohomology_two_path_agreement():
    # rank subtraction vs kernel/image quotient through the dense oracle
    q = build_standard("reynolds", algebra=one_dim_algebra())
    b = left_map(q, [[-1]])
    dims = cohomology_dims(q, b, "left", 2)
    mats = [coboundary_matrix(q, b, "left", n) for n in range(3)]
    for n in range(3):
        z = row_reduce(mats[n].rows(), mats[n].ncols).kernel_basis
        if n == 0:
            b_vecs = []
        else:
            b_vecs = row_reduce(mats[n - 1].rows(),
                                mats[n - 1].ncols).image_basis
        assert quotient_dim(z, b_vecs) == dims[n]


def test_euler_derivation_cohomology():
    # frozen from the rank computation, cross-verified by the independent
    # kernel/image quotient path (see two-path test above)
    q = build_standard("semidirect",
                       rep=regular_representation(dual_numbers()))
    d = right_map(q, [[0, 0], [0, 1]])
    assert cohomology_dims(q, d, "right", 3) == [2, 1, 1, 1]
    mats = [coboundary_matrix(q, d, "right", n) for n in range(4)]
    for n in range(4):
        z = row_reduce(mats[n].rows(), mats[n].ncols).kernel_basis
        if n == 0:
            b = []
        else:
            b = row_reduce(mats[n - 1].rows(), mats[n - 1].ncols).image_basis
        assert quotient_dim(z, b) == [2, 1, 1, 1][n]


def test_l1_vs_d_all_arities():
    rng = seeded_rng(83)
    qd = build_standard("semidirect",
                        rep=regular_representation(dual_numbers()))
    d = right_map(qd, [[0, 0], [0, 1]])
    for m in (1, 2, 3):
        f = random_map(rng, (A,) * m, APRIME, qd.dims)
        assert l1_vs_d(qd, d, "right", f)
    qb = build_standard("reynolds", algebra=dual_numbers())
    b = left_map(qb, [[-1, 0], [0, -1]])
    for m in (1, 2, 3):
        f = random_map(rng, (APRIME,) * m, A, qb.dims)
        assert l1_vs_d(qb, b, "left", f)
    # on T_2 the left and right actions differ, so a swap of the two
    # shows in d and in l_1
    for label, q, m, side in t2_deformation_map_cases():
        for arity in (1, 2):
            f = random_map(rng, *cochain_space(q, side, arity), q.dims)
            assert l1_vs_d(q, m, side, f), (label, arity)


def test_nondeformation_map_rejected():
    q = build_standard("modified_direct_sum", algebra=one_dim_algebra(),
                       weight=4)
    with pytest.raises(NotDeformationMap):
        cohomology_dims(q, right_map(q, [[1]]), "right", 2)
    with pytest.raises(NotDeformationMap):
        coboundary_matrix(q, right_map(q, [[1]]), "right", 1)


# (catalog example, map) that is not a deformation map of the side
NOT_DEFORMATION = {"right": ("modified-lambda4-dim1", "Dinv"),
                   "left": ("euler-derivation-dual-numbers", "D")}


@pytest.mark.parametrize("side", ["right", "left"])
def test_nondeformation_message_names_the_first_witness(side, tmp_path,
                                                         capsys):
    name, map_name = NOT_DEFORMATION[side]
    doc = parse(emit_example(name))
    q = build_quasi_twilled(doc)
    m = side_map(doc, q, map_name, side)
    residual = (qta.deformation.right_residual if side == "right"
                else qta.deformation.left_residual)
    witness = residual(q, m).first_witness()
    assert witness is not None
    message = f"{side} residual nonzero at {witness}"
    f = MultilinearMap.unit(*cochain_space(q, side, 1), q.dims, 0)
    for call in (lambda: cohomology_dims(q, m, side, 2),
                 lambda: cochain_complex(q, m, side, 0),
                 lambda: coboundary_matrix(q, m, side, 1),
                 lambda: l1_vs_d(q, m, side, f),
                 lambda: side_spec(side).checked_triple(q, m)):
        with pytest.raises(NotDeformationMap) as info:
            call()
        assert str(info.value) == message
    path = tmp_path / "doc.json"
    path.write_text(emit_example(name))
    argv = ["cohomology", "--map", map_name, "--side", side, str(path)]
    assert cli_main(["--json"] + argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["details"]["error"] == f"NotDeformationMap: {message}"
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"NotDeformationMap: {message}\n"


def _count_calls(monkeypatch, module, names):
    """Counter of calls to the named module functions, wrapped in place."""
    calls = Counter()
    for fn_name in names:
        def counted(*args, _fn=getattr(module, fn_name), _name=fn_name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, fn_name, counted)
    return calls


@pytest.mark.parametrize("side", ["right", "left"])
def test_one_twist_and_one_residual_per_call(monkeypatch, side):
    """The deformation check reads the residual block of the one
    `twist_blocks` call that gives the triple, with no separate residual
    or full twist; the term tables are extracted once per call, whatever
    the degree, and each degree is assembled once; the induced structures
    take the same checked triple."""
    q = build_standard("semidirect",
                       rep=regular_representation(dual_numbers()))
    m = (right_map(q, [[0, 0], [0, 1]]) if side == "right"
         else left_map(q, [[0, 0], [0, 0]]))
    calls = _count_calls(monkeypatch, qta.deformation,
                         ["right_residual", "left_residual",
                          "twist_right", "twist_left", "twist_blocks"])
    nonzeros = _count_calls(monkeypatch, qta.cohomology,
                            ["_nonzeros", "_assemble"])
    extracted = {}
    for max_n in (0, 5):
        for fn in (cohomology_dims, cochain_complex, coboundary_matrix):
            calls.clear()
            nonzeros.clear()
            fn(q, m, side, max_n)
            assert calls == {"twist_blocks": 1}, (fn.__name__, max_n)
            degrees = 1 if fn is coboundary_matrix else max_n + 1
            assert nonzeros["_assemble"] == degrees, (fn.__name__, max_n)
            extracted.setdefault(fn.__name__, []).append(
                nonzeros["_nonzeros"])
    for fn_name, (at0, at5) in extracted.items():
        assert at0 == at5 > 0, fn_name
    calls.clear()
    side_spec(side).checked_triple(q, m)
    assert calls == {"twist_blocks": 1}


def test_degree_cap():
    q = semidirect_one()
    with pytest.raises(DegreeError):
        cohomology_dims(q, right_map(q, [[0]]), "right", 6)
    with pytest.raises(DegreeError):
        cohomology_dims(q, right_map(q, [[0]]), "right", -1)


def _hochschild_of_map(q, m, side, max_n):
    spec = side_spec(side)
    return hochschild_complex(*spec.induced(spec.twist(q, m)), max_n)


@pytest.mark.parametrize("entry", [cohomology_dims, cochain_complex,
                                   coboundary_matrix, _hochschild_of_map],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("degree", [2.0, True, False, "2", None])
def test_degree_must_be_an_int(entry, degree):
    # a float used to fail later with a bare TypeError, and a bool passed
    # as the degree 0 or 1
    q = semidirect_one()
    m = right_map(q, [[0]])
    with pytest.raises(DegreeError, match="degree must be an int"):
        entry(q, m, "right", degree)
    assert entry(q, m, "right", 1)


def test_coboundary_matrix_degree_cap():
    """coboundary_matrix refuses degrees above the cap, like cochain_complex,
    instead of assembling d_n."""
    doc = parse(emit_example("reynolds-dim1"))
    q = build_quasi_twilled(doc)
    b = side_map(doc, q, "B", "left")
    assert coboundary_matrix(q, b, "left", MAX_DEGREE_CAP).nrows == 1
    with pytest.raises(DegreeError):
        coboundary_matrix(q, b, "left", MAX_DEGREE_CAP + 1)


def _degree0_column(q, m, side, k):
    """(d a)(x) = act_l(x, a) - act_r(a, x) for the k-th basis vector a."""
    spec = side_spec(side)
    _, act_l, act_r = spec.induced(spec.twist(q, m))
    out = []
    for x in range(act_l.slot_sizes[0]):
        out.extend(u - v for u, v in zip(act_l.value((x, k)),
                                          act_r.value((k, x))))
    return out


def _assert_columns_equal_the_slow_paths(q, m, side, top, oracles):
    """Every column of coboundary_matrix up to degree `top`, against d
    applied to the basis cochain through dense insertion by each of the
    `oracles` (coboundary_apply, coboundary_apply_expanded)."""
    for n in range(top + 1):
        mat = coboundary_matrix(q, m, side, n)
        rows = mat.rows()
        if n == 0:
            for k in range(mat.ncols):
                assert [r[k] for r in rows] == _degree0_column(q, m, side, k)
            continue
        dom, cod = cochain_space(q, side, n)
        for j in range(mat.ncols):
            f = MultilinearMap.unit(dom, cod, q.dims, j)
            col = [r[j] for r in rows]
            for oracle in oracles:
                assert col == list(oracle(q, m, side, f).coeffs)


@pytest.mark.parametrize("label,q,m,side", [
    pytest.param(*case, id=f"{case[0]} {case[3]}")
    for case in deformation_map_cases() + t2_deformation_map_cases()])
def test_coboundary_columns_equal_the_slow_paths(label, q, m, side):
    _assert_columns_equal_the_slow_paths(
        q, m, side, 3, (coboundary_apply, coboundary_apply_expanded))


def _half_frame(n, shift):
    """diag(1/2, 1, ..., 1) times a unitriangular matrix: not unimodular,
    so a change of basis by it brings denominators into the structure."""
    upper = [[1 if i == j else (i + j + shift) % 3 - 1 if i < j else 0
              for j in range(n)] for i in range(n)]
    return [[Fraction(x, 2) for x in upper[0]]] + upper[1:]


@pytest.mark.parametrize("label", [
    "trunc3-derivation", "trunc3-reynolds",
    "euler-derivation-dual-numbers D", "reynolds-dual-numbers B"])
def test_complex_with_a_common_denominator(label):
    # the integer assembly over L > 1: columns against the dense oracle
    # to degree 3, and the natural-basis table to degree 5
    _, q, m, side = next(c for c in deformation_map_cases() if c[0] == label)
    push = change_of_basis(q.dims, _half_frame(q.dims[0], 0),
                           _half_frame(q.dims[1], 1))
    qc, mc = conjugated_structure(q, push), push(m)
    _, den, _, _ = qta.cohomology._table(
        *side_spec(side).checked_triple(qc, mc))
    assert den > 1
    _assert_columns_equal_the_slow_paths(qc, mc, side, 3,
                                         (coboundary_apply,))
    mats = cochain_complex(qc, mc, side, 3)
    assert mats == [coboundary_matrix(qc, mc, side, n) for n in range(4)]
    assert any(v.denominator > 1 for mat in mats
               for row in mat.store.values() for v in row.values())
    assert cohomology_dims(qc, mc, side, 5) == cohomology_dims(q, m, side, 5)


def test_cohomology_dims_builds_no_matrix(monkeypatch):
    """The ranks of cohomology_dims come from the integer rows; no
    ExactMatrix is constructed on the way."""
    shapes = []
    construct = ExactMatrix.__init__

    def counted(self, nrows, ncols, store):
        shapes.append((nrows, ncols))
        construct(self, nrows, ncols, store)

    monkeypatch.setattr(ExactMatrix, "__init__", counted)
    for label, q, m, side in deformation_map_cases():
        cohomology_dims(q, m, side, 3)
    assert shapes == []
    label, q, m, side = deformation_map_cases()[0]
    coboundary_matrix(q, m, side, 1)
    assert shapes == [(27, 9)]


def test_ranks_and_tables_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    qq = sympy.QQ
    for label, q, m, side in deformation_map_cases():
        mats = cochain_complex(q, m, side, 5)
        ranks = []
        for mat in mats:
            rows = {i: {j: qq(v.numerator, v.denominator)
                        for j, v in row.items()}
                    for i, row in mat.store.items()}
            oracle = DomainMatrix(rows, (mat.nrows, mat.ncols), qq).rank()
            assert mat.rank() == oracle, (label, mat)
            ranks.append(oracle)
        table = [mat.ncols - r - prev for mat, r, prev
                 in zip(mats, ranks, [0] + ranks)]
        assert cohomology_dims(q, m, side, 5) == table, label
        if label.startswith("trunc3"):
            assert table == [3, 2, 2, 2, 2, 2], label


def _euler(n):
    """Rows of the derivation t^i -> i t^i of K[t]/(t^n)."""
    return [[i if i == j else 0 for j in range(n)] for i in range(n)]


def _holm(k):
    """HH^0..HH^5 of K[t]/(t^k) in characteristic 0 (Holm 2000)."""
    return [k] + [k - 1] * MAX_DEGREE_CAP


@pytest.mark.parametrize("alg,rows,table", [
    pytest.param(one_dim_algebra(), _euler(1), _holm(1), id="K[t]/(t)"),
    pytest.param(dual_numbers(), _euler(2), _holm(2), id="K[t]/(t^2)"),
    pytest.param(trunc3(), _euler(3), _holm(3), id="K[t]/(t^3)"),
    # ad_e12 = [e12, -]; HH of a tree quiver's path algebra (Happel 1989)
    pytest.param(upper_triangular(), [[0, 0, 0], [-1, 0, 1], [0, 0, 0]],
                 [1] + [0] * MAX_DEGREE_CAP, id="T2"),
])
def test_regular_derivation_tables_are_known_hochschild_dims(alg, rows,
                                                             table):
    # a derivation D of the semidirect product with the regular bimodule
    # has xi = eta = beta = 0 to twist with, so the twisted triple is
    # (pi, rho, mu) itself and the right table is HH^n(A, A) whatever D
    # is.  The tables come from the formulas, not from a rank of the same
    # assembled matrix.
    q = build_standard("semidirect", rep=regular_representation(alg))
    n = alg.dim
    for d in (right_map(q, rows), right_map(q, [[0] * n] * n)):
        assert cohomology_dims(q, d, "right", MAX_DEGREE_CAP) == table


@pytest.mark.parametrize("label,q,m,side,table", [
    pytest.param(*case, table, id=case[0]) for case, table in zip(
        t2_deformation_map_cases(), ([1, 0, 0, 0], [2, 4, 7, 10]))])
def test_t2_tables_against_the_oracles(label, q, m, side, table):
    # T_2 is not commutative, so the slot order of each product term in
    # the assembly shows: the right table is HH(T_2, T_2), which is 1, 0,
    # 0, ... for the path algebra of a tree quiver (Happel 1989); the left
    # one is frozen from the rank computation.  Both equal the dense
    # Gauss-Jordan quotient and the sympy ranks.
    assert cohomology_dims(q, m, side, 3) == table
    mats = cochain_complex(q, m, side, 3)
    for n, mat in enumerate(mats):
        z = row_reduce(mat.rows(), mat.ncols).kernel_basis
        b = ([] if n == 0 else
             row_reduce(mats[n - 1].rows(), mats[n - 1].ncols).image_basis)
        assert quotient_dim(z, b) == table[n], (label, n)
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    qq = sympy.QQ
    ranks = [DomainMatrix({i: {j: qq(v.numerator, v.denominator)
                                for j, v in row.items()}
                           for i, row in mat.store.items()},
                          (mat.nrows, mat.ncols), qq).rank()
             for mat in mats]
    assert [mat.ncols - r - prev for mat, r, prev
            in zip(mats, ranks, [0] + ranks)] == table


@pytest.mark.parametrize("side,twist_name,components", [
    ("right", "twist_right", "pi"),
    ("left", "twist_left", "xi"),
    # both actions at once: d_0 (x) = left(x, a) - right(a, x) is unchanged
    ("right", "twist_right", "rho+mu"),
    ("left", "twist_left", "eta+xi"),
])
def test_perturbed_twist_fails_the_expanded_check(monkeypatch, side,
                                                  twist_name, components):
    q = build_standard("semidirect",
                       rep=regular_representation(dual_numbers()))
    m = (right_map(q, [[0, 0], [0, 1]]) if side == "right"
         else left_map(q, [[0, 0], [0, 0]]))
    assert cohomology_dims(q, m, side, 2)
    honest = qta.deformation.twist_blocks
    before = getattr(qta.deformation, twist_name)(q, m)

    def perturbed(*args):
        blocks = honest(*args)
        for component in components.split("+"):
            g = blocks.get(component)
            if g is not None:
                coeffs = list(g.coeffs)
                coeffs[0] += Fraction(1)
                blocks[component] = MultilinearMap(g.domain, g.codomain,
                                                   g.dims, coeffs)
        return blocks

    # the one blockwise rule is what the public twist and the complex read
    monkeypatch.setattr(qta.deformation, "twist_blocks", perturbed)
    after = getattr(qta.deformation, twist_name)(q, m)
    for component in components.split("+"):
        assert getattr(after, component) != getattr(before, component)
    with pytest.raises(AssertionError):
        _assert_columns_equal_the_slow_paths(
            q, m, side, 2, (coboundary_apply_expanded,))


def invalid_structure():
    """dims (1,1), pi = mu = 1, rho = 2: not quasi-twilled (the left
    action squares to 4, not 2), yet the zero map has a zero residual on
    either side."""
    dims = (1, 1)
    return QuasiTwilledAlgebra.from_components(
        dims, pi=MultilinearMap((A, A), A, dims, [1]),
        mu=MultilinearMap((APRIME, A), APRIME, dims, [1]),
        rho=MultilinearMap((A, APRIME), APRIME, dims, [2]))


@pytest.mark.parametrize("side", ["right", "left"])
def test_invalid_structure_has_no_cohomology(side):
    # the cohomology and the induced structures are theorems about a
    # deformation map of a quasi-twilled algebra; here d o d need not vanish
    q = invalid_structure()
    m = (right_map if side == "right" else left_map)(q, [[0]])
    f = MultilinearMap.unit(*cochain_space(q, side, 1), q.dims, 0)
    for call in (lambda: cohomology_dims(q, m, side, 2),
                 lambda: cochain_complex(q, m, side, 2),
                 lambda: coboundary_matrix(q, m, side, 0),
                 lambda: coboundary_matrix(q, m, side, 1),
                 lambda: side_spec(side).checked_triple(q, m),
                 lambda: l1_vs_d(q, m, side, f)):
        with pytest.raises(InvalidQTA, match="not a quasi-twilled algebra"):
            call()


def test_hochschild_complex_of_the_augmentation_module():
    # A = K[t]/(t^2) acting on K through t -> 0 on both sides:
    # HH^n(A, K) = Ext_A^n(K, K) is 1-dimensional in every degree
    dims = (2, 1)
    product = MultilinearMap((A, A), A, dims,        # 1 1 = 1, 1 t = t 1 = t
                             {(0 * 2 + 0) * 2 + 0: 1, (0 * 2 + 1) * 2 + 1: 1,
                              (1 * 2 + 0) * 2 + 1: 1})
    left = MultilinearMap((A, APRIME), APRIME, dims, {0: 1})     # 1 k = k
    right = MultilinearMap((APRIME, A), APRIME, dims, {0: 1})    # k 1 = k
    mats = hochschild_complex(product, left, right, 5)
    ranks = [mat.rank() for mat in mats]
    assert [mat.ncols - r - prev for mat, r, prev
            in zip(mats, ranks, [0] + ranks)] == [1] * 6
    with pytest.raises(DimensionError):
        hochschild_complex(product, right, right, 1)


def test_hochschild_complex_asserts_d_squared_zero():
    # K with e e = 2e, acting by e k = k on the left and by zero on the
    # right, is not a bimodule: d_1 d_0 a = -a, found by the integer
    # product at its first row
    dims = (1, 1)
    product = MultilinearMap((A, A), A, dims, {0: 2})
    left = MultilinearMap((A, APRIME), APRIME, dims, {0: 1})
    right = MultilinearMap.zero((APRIME, A), APRIME, dims)
    assert hochschild_complex(product, left, right, 0)[0].rows() == [[1]]
    with pytest.raises(AssertionError,
                       match="d o d != 0 between degrees 0 and 2"):
        hochschild_complex(product, left, right, 2)
