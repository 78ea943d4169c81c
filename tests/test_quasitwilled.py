import re
import types
from collections import Counter
from fractions import Fraction

import pytest

from qta import (
    A, APRIME, AssociativeAlgebra, AssociativeRepresentation, Cocycle2,
    DimensionError, IngredientError, MatchedPairData, MultilinearMap,
    QuasiTwilledAlgebra, RepresentationPair, SchemaError, UnknownKind,
    build_standard, catalog_names, circle, emit_example, lift, msum, project,
    regular_representation, seeded_rng, structure_residuals, total_product,
    validate,
)
from qta import TOTAL, check_associative, quasitwilled
from qta.io import InputDocument, build_quasi_twilled, parse, print_document
from qta.linalg import _denominator
from qta.multilinear import lift_blocks
from qta.quasitwilled import (
    _KINDS, BUILDER_KINDS, equation_rows, fill_components,
)

import oracles
from conftest import (
    DUAL_TABLE, T2_TABLE, builder_instances, change_of_basis, conjugated_structure,
    dual_numbers, one_dim_algebra, trunc3, twisted_structure,
    upper_triangular,
)
from oracles import (
    check_associative_representation, check_matched_pair,
    check_representation, representation_on_a, representation_on_prime,
)


@pytest.mark.parametrize("algname", ["one", "dual"])
def test_all_builders_validate(algname):
    alg = one_dim_algebra() if algname == "one" else dual_numbers()
    for kind, q in builder_instances(alg).items():
        assert validate(q).is_zero(), kind
        rows = structure_residuals(q)
        assert len(rows) == 16
        assert all(r.residual.is_zero() for r in rows), kind


def test_zero_structure_validates():
    q = QuasiTwilledAlgebra.from_components((2, 2))
    assert validate(q).is_zero()
    assert all(r.residual.is_zero() for r in structure_residuals(q))


def test_structure_is_immutable():
    q = build_standard("modified_direct_sum", algebra=dual_numbers(),
                       weight=2)
    for name in QuasiTwilledAlgebra.__slots__ + ("dim_a", "new_field"):
        with pytest.raises(AttributeError):
            setattr(q, name, getattr(q, name, None))
    with pytest.raises(TypeError):
        q.ingredients["weight"] = 3
    assert q.ingredients["weight"] == 2 and q.kind == "modified_direct_sum"


def test_unknown_kind_is_refused_at_construction():
    comps = QuasiTwilledAlgebra.from_components((1, 1)).components()
    with pytest.raises(UnknownKind, match="bogus"):
        QuasiTwilledAlgebra(kind="bogus", **comps)


def test_missing_scalar_ingredient_is_refused_at_construction():
    q = build_standard("modified_direct_sum", algebra=one_dim_algebra(),
                       weight=1)
    with pytest.raises(IngredientError, match="weight"):
        QuasiTwilledAlgebra(kind="modified_direct_sum",
                            ingredients={"algebra": q.ingredients["algebra"]},
                            **q.components())
    # and so is a build from the keywords without it, and a document
    # without it
    with pytest.raises(IngredientError, match="weight"):
        build_standard("modified_direct_sum",
                       algebra=q.ingredients["algebra"])
    with pytest.raises(SchemaError, match="builder.weight required"):
        _document_build("modified_direct_sum",
                        {"product": q.ingredients["algebra"].product
                         .with_dims(q.dims)}, {}, q.basis_a, q.basis_aprime)


def test_total_product_examples():
    # direct product: Omega((x,u),(y,v)) = (x.y, u.v)
    alg = one_dim_algebra()
    q = build_standard("direct_product", algebra=alg, algebra_prime=alg)
    omega = total_product(q)
    assert omega.value((0, 0)) == (1, 0)   # (e,0)(e,0) = (e, 0)
    assert omega.value((1, 1)) == (0, 1)   # (0,e')(0,e') = (0, e')
    assert omega.value((0, 1)) == (0, 0)

    # modified direct sum, weight 4: Omega((e,0),(e,0)) = (0, 4e)
    q4 = build_standard("modified_direct_sum", algebra=alg, weight=4)
    omega4 = total_product(q4)
    assert omega4.value((0, 0)) == (0, 4)

    # all components zero
    assert total_product(QuasiTwilledAlgebra.from_components((1, 1))).is_zero()


def test_total_product_lifts_only_the_nonzero_components(monkeypatch):
    # Delta is the sum of the lifts of all seven components, written in one
    # `lift_blocks` pass over the nonzero ones (none when all are zero,
    # which gives the zero map)
    passes = []

    def counting(blocks, dims):
        passes.append(list(blocks))
        return lift_blocks(passes[-1], dims)

    monkeypatch.setattr(quasitwilled, "lift_blocks", counting)
    # fresh objects, whose Delta is not built yet
    structures = [QuasiTwilledAlgebra(**q.components())
                  for q in builder_instances(dual_numbers()).values()]
    structures.append(QuasiTwilledAlgebra.from_components((2, 1)))
    for q in structures:
        comps = list(q.components().values())
        every = msum([lift(m) for m in comps])
        passes.clear()
        assert total_product(q) == every
        assert len(passes) == 1
        nonzero = [m for m in comps if not m.is_zero()]
        assert [id(m) for m in passes[0]] == [id(m) for m in nonzero]
    assert passes == [[]] and total_product(q).is_zero()
    assert total_product(q).signature() == ((TOTAL, TOTAL), TOTAL)


def test_no_prime_prime_to_a_block():
    for alg in (one_dim_algebra(), dual_numbers()):
        for kind, q in builder_instances(alg).items():
            omega = total_product(q)
            blk = project(omega, (APRIME, APRIME), A)
            assert blk.is_zero(), kind


def test_residual_rows_match_bracket_blocks():
    # every displayed row, evaluated literally by the oracle, equals the
    # matching block of (1/2)[Omega,Omega]; the [beta,beta] row is twice
    # its block (full bracket as displayed)
    for alg in (one_dim_algebra(), dual_numbers()):
        for kind, q in builder_instances(alg).items():
            half = validate(q)
            for row in oracles.structure_residuals(q):
                dom, cod = row.block
                blk = project(half, dom, cod)
                expected = row.residual
                if row.name == "[beta,beta]":
                    expected = expected.scale(Fraction(1, 2))
                assert blk == expected, (kind, row.name)


def _perturb(q, rng):
    """Add 1 to a random entry of a random component."""
    comps = q.components()
    name = rng.choice(sorted(comps))
    m = comps[name]
    idx = rng.randrange(len(m.coeffs))
    coeffs = list(m.coeffs)
    coeffs[idx] += 1
    comps[name] = MultilinearMap(m.domain, m.codomain, m.dims, coeffs)
    return QuasiTwilledAlgebra(**comps)


def test_detectors_agree_on_perturbations():
    from qta import seeded_rng
    rng = seeded_rng(2024)
    alg = dual_numbers()
    for kind, q in builder_instances(alg).items():
        fired = 0
        while fired < 3:
            qbad = _perturb(q, rng)
            v_zero = validate(qbad).is_zero()
            rows_zero = all(r.residual.is_zero()
                            for r in oracles.structure_residuals(qbad))
            assert v_zero == rows_zero, kind
            if not v_zero:
                fired += 1


def test_corrupted_semidirect_mu_detected():
    alg = dual_numbers()
    q = builder_instances(alg)["semidirect"]
    bump = MultilinearMap.from_function(
        (APRIME, A), APRIME, q.dims,
        lambda t: [2 if (t == (0, 0) and k == 0) else 0 for k in range(2)])
    qbad = QuasiTwilledAlgebra(q.pi, q.xi, q.eta, q.beta, q.rho,
                               q.mu + bump, q.theta)
    assert not validate(qbad).is_zero()


def _perturbed_by(q, rng, amounts):
    """q with distinct seeded entries of its components moved by the
    amounts (Delta's blocks are the components', so its entries move
    alike)."""
    comps = q.components()
    entries = rng.sample([(name, i) for name, m in sorted(comps.items())
                          for i in range(len(m.coeffs))], len(amounts))
    for (name, i), amount in zip(entries, amounts):
        m = comps[name]
        store = dict(m.store)
        store[i] = store.get(i, 0) + amount
        comps[name] = MultilinearMap(m.domain, m.codomain, m.dims, store)
    return QuasiTwilledAlgebra(**comps)


def _denominator_of_delta(q):
    return _denominator((total_product(q).store,))


def _fraction_half_bracket(q):
    """The oracle: the circle product of Delta over Fractions."""
    omega = total_product(q)
    return circle(omega, omega)


def _half_bracket_cases():
    """(label, structure): every builder kind over the four stock
    algebras, every catalog structure, twisted structures (fractional
    Delta), a change of basis by non-unimodular matrices, and invalid
    perturbations by 1 and by 1/2, 1/3 and 1/5 (common denominators 1
    and 30)."""
    for alg in (one_dim_algebra(), dual_numbers(), trunc3(),
                upper_triangular()):
        for kind, q in builder_instances(alg).items():
            yield f"{kind} over {alg.basis_names}", q
    for name in catalog_names():
        yield name, build_quasi_twilled(parse(emit_example(name)))
    for seed in (3, 5, 7):      # seeds whose twisted Delta is fractional
        q = twisted_structure(dual_numbers(), seed)
        assert _denominator_of_delta(q) > 1, seed
        yield f"twisted, seed {seed}", q
    q = builder_instances(dual_numbers())["matched_pair"]
    push = change_of_basis(q.dims, [[2, 1], [0, 1]], [[1, 0], [1, 3]])
    qc = conjugated_structure(q, push)
    assert _denominator_of_delta(qc) == 6
    yield "matched pair in a basis of determinants 2 and 3", qc
    rng = seeded_rng(30)
    for kind, q in builder_instances(dual_numbers()).items():
        for amounts, den in (((1,), 1), ((Fraction(1, 2), Fraction(1, 3),
                                          Fraction(1, 5)), 30)):
            qbad = _perturbed_by(q, rng, amounts)
            while _fraction_half_bracket(qbad).is_zero():
                qbad = _perturbed_by(q, rng, amounts)
            assert _denominator_of_delta(qbad) == den
            yield f"{kind} perturbed by {amounts}", qbad


def test_half_bracket_definition():
    # the integer verdict against the circle product over Fractions: the
    # same entries in the same store order, each a Fraction, and so the
    # same sixteen rows
    for label, q in _half_bracket_cases():
        oracle = _fraction_half_bracket(q)
        half = validate(q)
        assert half == oracle, label
        assert list(half.store.items()) == list(oracle.store.items()), label
        assert all(type(v) is Fraction for v in half.store.values()), label
        assert structure_residuals(q) == equation_rows(oracle), label


def test_a_failed_build_computes_one_bracket(monkeypatch):
    # the verdict and the ingredient rows of a failed build read one
    # half-bracket; a passing build computes one too
    calls = []

    def counting(q):
        calls.append(q)
        return validate(q)

    monkeypatch.setattr(quasitwilled, "validate", counting)
    rep = regular_representation(upper_triangular())
    doubled = RepresentationPair(rep.algebra, rep.rho.scale(2), rep.mu)
    with pytest.raises(IngredientError, match="^representation fails: "):
        build_standard("semidirect", rep=doubled)
    assert len(calls) == 1
    build_standard("semidirect", rep=rep)
    assert len(calls) == 2


def test_a_failed_build_projects_only_its_kinds_rows(monkeypatch):
    # a failing semidirect build reads the algebra's row 0, then the
    # representation's rows 1, 2 and 7, and stops there; no other of the
    # sixteen rows is projected
    blocks = []

    def counting(m, domain, codomain):
        blocks.append((domain, codomain))
        return project(m, domain, codomain)

    monkeypatch.setattr(quasitwilled, "project", counting)
    rep = regular_representation(upper_triangular())
    doubled = RepresentationPair(rep.algebra, rep.rho.scale(2), rep.mu)
    with pytest.raises(IngredientError, match=re.escape(
            "representation fails: ['rho(x.y) - rho(x)rho(y)']")):
        build_standard("semidirect", rep=doubled)
    assert blocks == [quasitwilled.EQUATIONS[i][1] for i in (0, 1, 2, 7)]


def test_builder_rejects_bad_ingredients():
    bad = AssociativeAlgebra.from_table(
        [[[0, 1], [0, 0]], [[1, 0], [0, 0]]], 2)
    with pytest.raises(IngredientError):
        build_standard("reynolds", algebra=bad)
    with pytest.raises(IngredientError):
        build_standard("modified_direct_sum", algebra=bad, weight=1)


def test_builder_rejects_unknown_ingredient():
    with pytest.raises(IngredientError, match="'weight'"):
        build_standard("reynolds", algebra=one_dim_algebra(), weight=3)


def test_builder_rejects_missing_ingredient():
    with pytest.raises(IngredientError, match="'algebra'"):
        build_standard("reynolds")
    with pytest.raises(IngredientError, match="'weight'"):
        build_standard("modified_direct_sum", algebra=one_dim_algebra())


def test_modified_direct_sum_any_weight():
    for alg in (one_dim_algebra(), dual_numbers()):
        for lam in (0, 1, Fraction(-7, 3), 12):
            q = build_standard("modified_direct_sum", algebra=alg, weight=lam)
            assert validate(q).is_zero()


def test_matched_pair_oracle_equivalence():
    # validity of the assembled structure is equivalent to: both products
    # associative, both action pairs representations, and the six
    # compatibility identities -- tested by perturbing the raw components
    # (bypassing the builder's ingredient checks)
    from qta import MatchedPairData
    from conftest import regular_matched_pair
    rng = seeded_rng(77)
    mp = regular_matched_pair(dual_numbers())

    def assemble(mp_data):
        return QuasiTwilledAlgebra.from_components(
            mp_data.dims,
            pi=mp_data.alg_a.product.with_dims(mp_data.dims),
            beta=mp_data.alg_prime.product.with_dims(mp_data.dims),
            rho=mp_data.rho, mu=mp_data.mu, eta=mp_data.eta, xi=mp_data.xi)

    def full_check(mp_data):
        return (check_associative(mp_data.alg_a).is_zero()
                and check_associative(mp_data.alg_prime).is_zero()
                and check_representation(
                    representation_on_prime(mp_data)).is_zero
                and check_representation(representation_on_a(mp_data)).is_zero
                and check_matched_pair(mp_data).is_zero)

    assert validate(assemble(mp)).is_zero() == full_check(mp) == True

    names = ["rho", "mu", "eta", "xi"]
    seen_invalid = 0
    for _ in range(12):
        which = rng.choice(names)
        m = getattr(mp, which)
        coeffs = list(m.coeffs)
        coeffs[rng.randrange(len(coeffs))] += 1
        bumped = MultilinearMap(m.domain, m.codomain, m.dims, coeffs)
        kw = {n: getattr(mp, n) for n in names}
        kw[which] = bumped
        mp2 = MatchedPairData(mp.alg_a, mp.alg_prime, **kw)
        ok_full = full_check(mp2)
        ok_validate = validate(assemble(mp2)).is_zero()
        assert ok_full == ok_validate
        if not ok_validate:
            seen_invalid += 1
    assert seen_invalid > 0


def _raw_total_eval(q, a, b):
    """Total product on basis indices via component tables only (no kernel)."""
    da, dap = q.dims
    out = [Fraction(0)] * (da + dap)

    def add(offset, vals):
        for k, v in enumerate(vals):
            out[offset + k] += v

    a_is_a, b_is_a = a < da, b < da
    if a_is_a and b_is_a:
        add(0, q.pi.value((a, b)))
        add(da, q.theta.value((a, b)))
    elif a_is_a and not b_is_a:
        add(0, q.xi.value((a, b - da)))
        add(da, q.rho.value((a, b - da)))
    elif not a_is_a and b_is_a:
        add(0, q.eta.value((a - da, b)))
        add(da, q.mu.value((a - da, b)))
    else:
        add(da, q.beta.value((a - da, b - da)))
    return out


def test_validate_against_raw_triple_oracle():
    # third path: associativity checked by direct basis-triple evaluation
    # of the component tables, with no shared code with the bracket engine
    for alg in (one_dim_algebra(), dual_numbers()):
        instances = list(builder_instances(alg).items())
        for kind, q in instances:
            dt = q.dims[0] + q.dims[1]

            def mul_vec(vec, c):
                out = [Fraction(0)] * dt
                for a, coeff in enumerate(vec):
                    if coeff:
                        for k, v in enumerate(_raw_total_eval(q, a, c)):
                            out[k] += coeff * v
                return out

            def vec_mul(a, vec):
                out = [Fraction(0)] * dt
                for b, coeff in enumerate(vec):
                    if coeff:
                        for k, v in enumerate(_raw_total_eval(q, a, b)):
                            out[k] += coeff * v
                return out

            ok = True
            for a in range(dt):
                for b in range(dt):
                    ab = _raw_total_eval(q, a, b)
                    for c in range(dt):
                        bc = _raw_total_eval(q, b, c)
                        if mul_vec(ab, c) != vec_mul(a, bc):
                            ok = False
            assert ok == validate(q).is_zero() == True, kind


def test_perturbed_raw_oracle_agrees():
    from qta import seeded_rng
    rng = seeded_rng(2025)
    q = builder_instances(dual_numbers())["matched_pair"]
    disagreements = 0
    for _ in range(6):
        qbad = _perturb(q, rng)
        dt = qbad.dims[0] + qbad.dims[1]
        raw_ok = True
        for a in range(dt):
            for b in range(dt):
                ab = _raw_total_eval(qbad, a, b)
                for c in range(dt):
                    bc = _raw_total_eval(qbad, b, c)
                    left = [Fraction(0)] * dt
                    for i, coeff in enumerate(ab):
                        if coeff:
                            for k, v in enumerate(_raw_total_eval(qbad, i, c)):
                                left[k] += coeff * v
                    right = [Fraction(0)] * dt
                    for j, coeff in enumerate(bc):
                        if coeff:
                            for k, v in enumerate(_raw_total_eval(qbad, a, j)):
                                right[k] += coeff * v
                    if left != right:
                        raw_ok = False
        assert raw_ok == validate(qbad).is_zero()
        if not raw_ok:
            disagreements += 1
    assert disagreements > 0


# -- ingredient verdicts read off the bracket rows ----------------------------

def _upfront_checks(kind, ing, raw):
    """The ingredient checks each builder ran before it built, in that
    order (and, for an abelian extension, the validation of the built
    structure `raw`): the oracle for the error a failing build raises."""
    req, assoc = oracles.require, oracles.require_assoc
    if kind in ("modified_direct_sum", "reynolds"):
        assoc(ing["algebra"], "algebra")
    elif kind == "direct_product":
        assoc(ing["algebra"], "algebra")
        assoc(ing["algebra_prime"], "second algebra")
    elif kind in ("semidirect", "abelian_extension"):
        rep = ing["rep"] if kind == "semidirect" else ing["cocycle"].rep
        assoc(rep.algebra, "algebra")
        req(check_representation(rep), "representation")
        if kind == "abelian_extension" and not validate(raw).is_zero():
            raise IngredientError("omega is not a 2-cocycle: the extension "
                                  "product fails associativity")
    elif kind == "semidirect_assoc":
        ar = ing["assoc_rep"]
        assoc(ar.algebra, "algebra")
        assoc(AssociativeAlgebra(ar.prime_product), "module algebra")
        req(check_associative_representation(ar),
            "associative representation")
    else:
        mp = ing["matched_pair"]
        assoc(mp.alg_a, "algebra A")
        assoc(mp.alg_prime, "algebra A'")
        req(check_representation(representation_on_prime(mp)),
            "(A'; rho, mu) representation")
        req(check_representation(representation_on_a(mp)),
            "(A; eta, xi) representation")
        req(check_matched_pair(mp), "matched pair compatibility")


def _ingredient_identities(kind, ing):
    """The oracle's residuals of each ingredient of a kind, in check order:
    per ingredient, its (identity name, map), with no name for an
    algebra's associator and for the cocycle condition."""
    def assoc(alg):
        return [(None, check_associative(alg))]

    if kind in ("modified_direct_sum", "reynolds"):
        return [assoc(ing["algebra"])]
    if kind == "direct_product":
        return [assoc(ing["algebra"]), assoc(ing["algebra_prime"])]
    if kind == "semidirect":
        return [assoc(ing["rep"].algebra),
                list(check_representation(ing["rep"]))]
    if kind == "abelian_extension":
        rep = ing["cocycle"].rep
        return [assoc(rep.algebra), list(check_representation(rep)),
                [(None, oracles.cocycle_residual(ing["cocycle"]))]]
    if kind == "semidirect_assoc":
        ar = ing["assoc_rep"]
        return [assoc(ar.algebra), assoc(AssociativeAlgebra(ar.prime_product)),
                list(check_associative_representation(ar))]
    mp = ing["matched_pair"]
    return [assoc(mp.alg_a), assoc(mp.alg_prime),
            list(check_representation(representation_on_prime(mp))),
            list(check_representation(representation_on_a(mp))),
            list(check_matched_pair(mp))]


def _regular_tables(alg):
    """Builder tables (see qta.io) of every kind over alg at dims (d, d):
    regular actions, omega the product, eta = xi = 0."""
    dims = (alg.dim, alg.dim)
    prod = alg.product.with_dims(dims)
    return {"product": prod,
            "product_prime": prod.relabel((APRIME, APRIME), APRIME),
            "rho": prod.relabel((A, APRIME), APRIME),
            "mu": prod.relabel((APRIME, A), APRIME),
            "eta": MultilinearMap.zero((APRIME, A), A, dims),
            "xi": MultilinearMap.zero((A, APRIME), A, dims),
            "omega": prod.relabel((A, A), APRIME)}


def _matrix_tables():
    """M_2 = T_2 + K e21, at dims (3, 1): both summands are subalgebras, so
    the blocks of the matrix product are a matched pair, with eta and xi
    nonzero (e21.e12 = e22, e12.e21 = e11); omega is zero."""
    dims = (3, 1)
    return {"product": MultilinearMap.from_table(T2_TABLE, (A, A), A, dims),
            "product_prime": MultilinearMap.zero((APRIME, APRIME), APRIME,
                                                 dims),
            "rho": MultilinearMap.from_table(           # e22.e21 = e21
                [[[0]], [[0]], [[1]]], (A, APRIME), APRIME, dims),
            "mu": MultilinearMap.from_table(            # e21.e11 = e21
                [[[1], [0], [0]]], (APRIME, A), APRIME, dims),
            "eta": MultilinearMap.from_table(
                [[[0, 0, 0], [0, 0, 1], [0, 0, 0]]], (APRIME, A), A, dims),
            "xi": MultilinearMap.from_table(
                [[[0, 0, 0]], [[1, 0, 0]], [[0, 0, 0]]], (A, APRIME), A,
                dims),
            "omega": MultilinearMap.zero((A, A), APRIME, dims)}


def _regular_cases():
    """(tables, basis of A, basis of A') of the regular tables over the
    dual numbers and over the non-commutative T_2."""
    for alg in (dual_numbers(), upper_triangular()):
        yield (_regular_tables(alg), alg.basis_names,
               [n + "'" for n in alg.basis_names])


def _perturbed(tables, names, rng):
    """The tables with one entry of one named table moved by a small
    nonzero rational."""
    tables = dict(tables)
    name = rng.choice(names)
    m = tables[name]
    coeffs = list(m.coeffs)
    i = rng.randrange(len(coeffs))
    coeffs[i] += rng.choice([-2, -1, 1, Fraction(1, 2)])
    tables[name] = MultilinearMap(m.domain, m.codomain, m.dims, coeffs)
    return tables


def _scalars(kind):
    """The scalar ingredients of a kind: weight 4."""
    return {key: Fraction(4) for key in _KINDS[kind].scalars}


def _keywords(kind, t, basis_a, basis_aprime):
    """The `build_standard` keywords that hold the builder tables of a
    kind, with its scalars: the ingredient objects the oracles read."""
    alg = AssociativeAlgebra(t["product"], basis_a)
    if kind in ("modified_direct_sum", "reynolds"):
        ing = {"algebra": alg}
    elif kind == "semidirect":
        ing = {"rep": RepresentationPair(alg, t["rho"], t["mu"])}
    elif kind == "semidirect_assoc":
        ing = {"assoc_rep": AssociativeRepresentation(
            alg, t["rho"], t["mu"], t["product_prime"])}
    elif kind == "direct_product":
        ing = {"algebra": alg, "algebra_prime": AssociativeAlgebra(
            t["product_prime"], basis_aprime)}
    elif kind == "abelian_extension":
        ing = {"cocycle": Cocycle2(
            RepresentationPair(alg, t["rho"], t["mu"]), t["omega"])}
    else:
        ing = {"matched_pair": MatchedPairData(
            alg, AssociativeAlgebra(t["product_prime"], basis_aprime),
            t["rho"], t["mu"], t["eta"], t["xi"])}
    return {**ing, **_scalars(kind)}


def _document_build(kind, tables, scalars, basis_a, basis_aprime):
    """The structure of the builder document of the kind's tables among
    `tables`, its scalars and these basis names, written out and loaded
    as the CLI loads it."""
    builder = {"kind": kind, **scalars, "tables": {
        name: tables[name] for name in _KINDS[kind].tables}}
    doc = InputDocument(*tables["product"].dims, basis_a, basis_aprime,
                        builder=builder)
    return build_quasi_twilled(parse(print_document(doc)))


def _unvalidated(kind, tables):
    """The structure that the builder tables of a kind fill, before any
    validation."""
    return QuasiTwilledAlgebra.from_components(
        tables["product"].dims, **fill_components(kind, tables,
                                                   _scalars(kind)))


def _error_text(fn):
    try:
        fn()
    except IngredientError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kind", BUILDER_KINDS)
def test_failed_validation_names_the_upfront_ingredient_error(kind):
    # seeded perturbations of one builder table entry, over the dual
    # numbers and the non-commutative T_2: a build fails with the
    # IngredientError text of the old upfront checks, and an ingredient
    # check fails exactly when validate does
    row = _KINDS[kind]
    rng = seeded_rng(sorted(BUILDER_KINDS).index(kind))
    for tables, basis_a, basis_aprime in _regular_cases():
        texts = []
        for trial in range(30):
            # trial 0 keeps the valid ingredients
            t = _perturbed(tables, row.tables, rng) if trial else tables
            ing = _keywords(kind, t, basis_a, basis_aprime)
            raw = _unvalidated(kind, t)
            want = _error_text(lambda: _upfront_checks(kind, ing, raw))
            assert _error_text(lambda: build_standard(kind, **ing)) == want
            # the document entrance raises the same text
            assert _error_text(lambda: _document_build(
                kind, t, _scalars(kind), basis_a, basis_aprime)) == want
            assert (want is None) == validate(raw).is_zero()
            texts.append(want)
        assert texts[0] is None and any(texts), (basis_a, texts)


@pytest.mark.parametrize("kind", BUILDER_KINDS)
def test_each_mapped_row_is_its_identity(kind):
    # on the zero blocks of its kind, each EQUATIONS row that names an
    # ingredient identity is that identity's residual (the oracle's, from
    # the ingredients alone) times one fixed nonzero scalar, coefficient
    # for coefficient; every mapped row is seen nonzero
    row = _KINDS[kind]
    rng = seeded_rng(100 + sorted(BUILDER_KINDS).index(kind))
    cases = list(_regular_cases())
    if not row.same_dims and "omega" not in row.tables:
        cases.append((_matrix_tables(), ["e11", "e12", "e22"], ["e21"]))
    scalars = {}
    for tables, basis_a, basis_aprime in cases:
        for trial in range(12):
            for _ in range(1 + trial % 3):
                tables = _perturbed(tables, row.tables, rng)
            rows = structure_residuals(_unvalidated(kind, tables))
            oracle = _ingredient_identities(
                kind, _keywords(kind, tables, basis_a, basis_aprime))
            assert len(oracle) == len(row.ingredient_rows)
            for (message, identities), named in zip(row.ingredient_rows,
                                                    oracle):
                assert [n for _, n in identities] == [n for n, _ in named]
                for (i, name), (_, residual) in zip(identities, named):
                    got, want = rows[i].residual.coeffs, residual.coeffs
                    assert len(got) == len(want), (message, i)
                    lead = next((k for k, v in enumerate(want) if v), None)
                    if lead is None:
                        assert not any(got), (message, i)
                        continue
                    c = scalars.setdefault(i, got[lead] / want[lead])
                    assert c and list(got) == [c * v for v in want], (
                        message, i)
    mapped = {i for _, identities in row.ingredient_rows
              for i, _ in identities}
    assert set(scalars) == mapped, sorted(mapped - set(scalars))


def _built(build):
    """What a build gives, to compare entrances: each component's
    signature and store (in order, every entry a Fraction), the bases,
    the kind, Delta's store and the verdict; or the IngredientError
    text."""
    try:
        q = build()
    except IngredientError as exc:
        return str(exc)
    comps = q.components()
    assert all(type(v) is Fraction
               for m in comps.values() for v in m.store.values())
    return ([(name, m.signature(), m.dims, list(m.store.items()))
             for name, m in comps.items()],
            q.basis_a, q.basis_aprime, q.kind,
            list(total_product(q).store.items()), q.verified)


@pytest.mark.parametrize("kind", BUILDER_KINDS)
def test_both_entrances_build_the_same_structure(kind):
    # build_standard on the keyword objects and a builder document of
    # their tables give one structure, valid or not: A' is named after its
    # algebra, or after A, primed, where the dims must agree, and by
    # default otherwise
    row = _KINDS[kind]
    rng = seeded_rng(200 + sorted(BUILDER_KINDS).index(kind))
    cases = list(_regular_cases())
    if not row.same_dims:
        cases.append((_matrix_tables(), ["e11", "e12", "e22"], ["e21"]))
    named = row.same_dims or kind in ("direct_product", "matched_pair")
    outcomes = []
    for tables, basis_a, basis_aprime in cases:
        for trial in range(4):
            t = _perturbed(tables, row.tables, rng) if trial else tables
            ing = _keywords(kind, t, basis_a, basis_aprime)
            got = _built(lambda: build_standard(kind, **ing))
            default = [f"f{i+1}" for i in range(t["product"].dims[1])]
            assert got == _built(lambda: _document_build(
                kind, t, _scalars(kind), basis_a,
                basis_aprime if named else default))
            outcomes.append(got)
    assert not isinstance(outcomes[0], str), outcomes[0]
    assert all(o[-1] for o in outcomes if not isinstance(o, str))


@pytest.mark.parametrize("kind", BUILDER_KINDS)
def test_build_standard_checks_each_input_once(monkeypatch, kind):
    # the keywords are checked once, by build_standard, and go to the
    # build a document takes: the structure is adopted, not constructed,
    # so no checked constructor runs and no absent component is made
    # through MultilinearMap.zero; it is validated once, with one Delta
    alg = dual_numbers()
    ing = _keywords(kind, _regular_tables(alg), alg.basis_names,
                    [n + "'" for n in alg.basis_names])
    calls = Counter()

    def counting(owner, name, wrap=lambda fn: fn):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrap(counted))

    counting(QuasiTwilledAlgebra, "__init__")
    counting(MultilinearMap, "zero", staticmethod)
    counting(quasitwilled, "validate")
    counting(quasitwilled, "lift_blocks")
    q = build_standard(kind, **ing)
    assert q.verified and q.kind == kind
    assert calls == {"validate": 1, "lift_blocks": 1}


def test_a_keyword_map_of_the_wrong_shape_names_its_component():
    # a map a keyword holds is checked against its component's signature,
    # then against the dims of the structure, with the texts of the checked
    # constructor; a duck-typed representation is read like any other
    alg = one_dim_algebra()
    dims = (1, 1)
    rho = MultilinearMap((A, APRIME), APRIME, dims, [1])
    for mu, text in (
            (MultilinearMap((A, APRIME), APRIME, dims, [1]),
             "component mu has wrong signature"),
            (MultilinearMap((APRIME, A), APRIME, (1, 2), [1, 0, 0, 0]),
             "component mu has dims (1, 2), expected (1, 1)")):
        rep = types.SimpleNamespace(algebra=alg, rho=rho, mu=mu)
        with pytest.raises(DimensionError) as info:
            build_standard("semidirect", rep=rep)
        assert str(info.value) == text


def test_an_algebra_on_either_label_is_the_same_ingredient():
    # the algebra keywords read the product on the A or the A' label alike:
    # the same components, store for store; a representation acts on A'
    # only, so the regular representation of an A'-label algebra is refused
    on_a = dual_numbers()
    on_aprime = AssociativeAlgebra.from_table(
        DUAL_TABLE, 2, basis_names=on_a.basis_names, label=APRIME)
    for kind, keywords in (
            ("modified_direct_sum", {"algebra": None, "weight": 3}),
            ("reynolds", {"algebra": None}),
            ("direct_product", {"algebra": None, "algebra_prime": None})):
        builds = [
            _built(lambda: build_standard(kind, **{
                key: alg if value is None else value
                for key, value in keywords.items()}))
            for alg in (on_a, on_aprime)]
        assert not isinstance(builds[0], str)
        assert builds[0] == builds[1], kind
    with pytest.raises(DimensionError):
        build_standard("semidirect", rep=regular_representation(on_aprime))


def test_basis_names_must_match_dims():
    # names of the wrong length used to build a structure whose document
    # the parser rejects (spaces.A.basis: need 2 names)
    from qta import DimensionError
    from qta.io import document_from_components, parse, print_document
    for basis_a, basis_aprime in ((["x"], ["u"]), (["x", "y"], ["u", "v"]),
                                  (["x"], ["u", "v", "w"])):
        with pytest.raises(DimensionError, match="basis names"):
            QuasiTwilledAlgebra.from_components(
                (2, 1), basis_a=basis_a, basis_aprime=basis_aprime)
    q = QuasiTwilledAlgebra.from_components(
        (2, 1), basis_a=["x", "y"], basis_aprime=["u"])
    doc = parse(print_document(document_from_components(q)))
    assert (doc.basis_a, doc.basis_aprime) == (["x", "y"], ["u"])
