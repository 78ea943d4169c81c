"""Acceptance suite: one test per criterion, exact equality throughout.

Every check is tolerance-free (the scalars are exact rationals); each test
prints a PASS/FAIL line so the suite doubles as a checklist when run with
`pytest -s tests/test_acceptance.py`.
"""

import json
from contextlib import contextmanager
from fractions import Fraction

from qta import linfty
from qta import (
    A, APRIME, ExactMatrix, MultilinearMap, QuasiTwilledAlgebra, VData,
    build_standard, cohomology_dims, coboundary_matrix, conjugation_twist,
    controlling_structure, explicit_formula, explicit_formula_check,
    gerstenhaber, invert, left_residual, linear_map_from_matrix, random_map,
    regular_representation, right_residual, seeded_rng,
    structure_residuals, twist_left, twist_right, validate,
)
from qta.catalog import catalog_names, emit_example, get_entry
from qta.cli import main as cli_main
from qta.io import build_quasi_twilled, parse, print_document

from conftest import (
    builder_instances, dual_numbers, left_map, one_dim_algebra, right_map,
)
from oracles import derived_bracket, duality_check, l1_vs_d


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {title}")


def _perturb(q, rng):
    comps = q.components()
    name = rng.choice(sorted(comps))
    m = comps[name]
    idx = rng.randrange(len(m.coeffs))
    coeffs = list(m.coeffs)
    coeffs[idx] += rng.choice([1, -1, 2])
    comps[name] = MultilinearMap(m.domain, m.codomain, m.dims, coeffs)
    return QuasiTwilledAlgebra(**comps)


def test_criterion_1_structure_equations():
    with criterion(1, "structure-equation equivalence on all builders, "
                      "with perturbation detection"):
        rng = seeded_rng(101)
        for alg in (one_dim_algebra(), dual_numbers()):
            for kind, q in builder_instances(alg).items():
                assert validate(q).is_zero(), kind
                rows = structure_residuals(q)
                assert len(rows) == 16
                assert all(r.residual.is_zero() for r in rows), kind
                fired = 0
                while fired < 3:
                    qbad = _perturb(q, rng)
                    v_zero = validate(qbad).is_zero()
                    rows_zero = all(r.residual.is_zero()
                                    for r in structure_residuals(qbad))
                    assert v_zero == rows_zero, (kind, "detector agreement")
                    if not v_zero:
                        fired += 1


def test_criterion_1_cli_exit_status(tmp_path, capsys):
    with criterion("1b", "perturbed document fails `validate` with exit 1"):
        from qta.io import document_from_components
        q = build_standard("reynolds", algebra=dual_numbers())
        rng = seeded_rng(103)
        qbad = _perturb(q, rng)
        while validate(qbad).is_zero():
            qbad = _perturb(q, rng)
        doc = document_from_components(qbad)
        p = tmp_path / "bad.json"
        p.write_text(print_document(doc), encoding="utf-8")
        assert cli_main(["validate", str(p)]) == 1
        good = tmp_path / "good.json"
        good.write_text(print_document(document_from_components(q)),
                        encoding="utf-8")
        assert cli_main(["validate", str(good)]) == 0
        capsys.readouterr()


def test_criterion_2_twisting_oracle():
    with criterion(2, "twist components equal conjugation for 20 seeded "
                      "maps per side at dims (2,2)"):
        rng = seeded_rng(202)
        qs = [build_standard("reynolds", algebra=dual_numbers()),
              builder_instances(dual_numbers())["matched_pair"]]
        for q in qs:
            for _ in range(10):  # 10 per structure, 20 per side in total
                d = random_map(rng, (A,), APRIME, q.dims)
                tw = twist_right(q, d)
                assert tw.reassemble() == conjugation_twist(q, d, "right")
                assert tw.theta == right_residual(q, d)
                b = random_map(rng, (APRIME,), A, q.dims)
                twl = twist_left(q, b)
                assert twl.reassemble() == conjugation_twist(q, b, "left")
                assert twl.gamma == left_residual(q, b)


def test_criterion_3_mc_grids():
    with criterion(3, "MC <=> deformation map on the three scalar grids"):
        alg = one_dim_algebra()
        q = build_standard("modified_direct_sum", algebra=alg, weight=4)
        s = controlling_structure(q, "right")
        for d in range(-3, 4):
            m = right_map(q, [[d]])
            res = right_residual(q, m)
            assert res.is_zero() == (d in (2, -2))
            assert s.mc_residual(m) == res
        qr = build_standard("reynolds", algebra=alg)
        sr = controlling_structure(qr, "left")
        for b in range(-3, 4):
            m = left_map(qr, [[b]])
            res = left_residual(qr, m)
            assert res.is_zero() == (b in (0, -1))
            assert sr.mc_residual(m) == res
        qsd = build_standard("semidirect", rep=regular_representation(alg))
        ss = controlling_structure(qsd, "left")
        for b in range(-3, 4):
            m = left_map(qsd, [[b]])
            res = left_residual(qsd, m)
            assert res.is_zero() == (b == 0)
            assert ss.mc_residual(m) == res


def test_criterion_4_shifted_mc():
    with criterion(4, "shifted MC: residual(m+m') = twisted MC residual of "
                      "m', 20 seeded samples per side at dims (2,2)"):
        rng = seeded_rng(404)
        q = build_standard("semidirect",
                           rep=regular_representation(dual_numbers()))
        d = right_map(q, [[0, 0], [0, 1]])
        assert right_residual(q, d).is_zero()
        tw = controlling_structure(q, "right").twist(d)
        for _ in range(20):
            dp = random_map(rng, (A,), APRIME, q.dims)
            lhs = right_residual(q, d + dp)
            rhs = tw.mc_residual(dp)
            assert lhs == rhs
            assert lhs.is_zero() == rhs.is_zero()
        qb = build_standard("reynolds", algebra=dual_numbers())
        b = left_map(qb, [[-1, 0], [0, -1]])
        assert left_residual(qb, b).is_zero()
        twb = controlling_structure(qb, "left").twist(b)
        for _ in range(20):
            bp = random_map(rng, (APRIME,), A, qb.dims)
            lhs = left_residual(qb, b + bp)
            rhs = twb.mc_residual(bp)
            assert lhs == rhs
            assert lhs.is_zero() == rhs.is_zero()


_POOLS = {
    0: [()],
    1: [(0,), (1,), (2,)],
    2: [(0, 0), (1, 0), (1, 1), (2, 1)],
    3: [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)],
    4: [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)],
}


def _rich_structure():
    """A valid structure with every component nonzero: right-twist the
    associative-representation semidirect product by a map that is not a
    deformation map (twisting preserves validity and fills theta)."""
    base = builder_instances(dual_numbers())["semidirect_assoc"]
    rng = seeded_rng(515)
    d = random_map(rng, (A,), APRIME, base.dims)
    tw = twist_right(base, d)
    q = tw.to_quasi_twilled()
    assert not tw.theta.is_zero() and validate(q).is_zero()
    return q


def test_criterion_5_linfty_laws(monkeypatch):
    with criterion(5, "generalized Jacobi at n = 0..3 (right) and 0..4 "
                      "(left); out-of-range brackets vanish"):
        brackets = []

        def counting(f, g):
            brackets.append(f)
            return gerstenhaber(f, g)

        rng = seeded_rng(505)
        structures = [build_standard("reynolds", algebra=dual_numbers()),
                      _rich_structure()]
        for q in structures:
            for side, top in (("right", 3), ("left", 4)):
                s = controlling_structure(q, side)
                v = s.vdata
                for n in range(top + 1):
                    for i in range(10):
                        degrees = _POOLS[n][rng.randrange(len(_POOLS[n]))]
                        args = [random_map(rng, v.f_signature(dd + 1)[0],
                                           v.f_signature(dd + 1)[1], q.dims)
                                for dd in degrees]
                        assert s.jacobi_residual(n, args).is_zero(), \
                            (side, n, i)
                # the one-past-the-end bracket is the zero cochain, with
                # no bracket computed, and so is the full derived bracket
                k = top  # right: l3, left: l4
                for _ in range(5):
                    args = [random_map(rng, v.f_signature(a)[0],
                                       v.f_signature(a)[1], q.dims)
                            for a in ([1] * (k - 1) + [2])]
                    with monkeypatch.context() as patch:
                        patch.setattr(linfty, "gerstenhaber", counting)
                        assert s.bracket(k, args).is_zero(), side
                    assert brackets == [], side
                    assert derived_bracket(v, args).is_zero(), side


RIGHT_KINDS = ("modified_direct_sum", "semidirect", "semidirect_assoc",
               "direct_product")
LEFT_KINDS = ("semidirect", "abelian_extension", "reynolds", "matched_pair")


def test_criterion_6_closed_formulas():
    with criterion(6, "closed controlling-algebra formulas equal derived "
                      "brackets, 10 seeded samples per kind and bracket"):
        rng = seeded_rng(606)
        instances = builder_instances(dual_numbers())

        def args_for(q, side, k):
            dom = A if side == "right" else APRIME
            cod = APRIME if side == "right" else A
            arities = [rng.choice([1, 2, 3]) for _ in range(k)]
            while sum(arities) > 5:
                arities = [rng.choice([1, 2]) for _ in range(k)]
            return [random_map(rng, (dom,) * a, cod, q.dims)
                    for a in arities]

        # against the structure's bracket, and against the full derived
        # bracket of the whole element: at k = 1 the formula and the
        # bracket are the one coboundary evaluator, and above a
        # structure's top the bracket is a zero that nothing computed
        def check(q, side, k, kind):
            args = args_for(q, side, k)
            assert explicit_formula_check(q, side, k, args), (kind, k)
            assert explicit_formula(q, side, k, args) == derived_bracket(
                VData(q, side), args), (kind, k)

        for kind in RIGHT_KINDS:
            for k in (0, 1, 2):
                for _ in range(10):
                    check(instances[kind], "right", k, kind)
        for kind in LEFT_KINDS:
            for k in (1, 2, 3):
                for _ in range(10):
                    check(instances[kind], "left", k, kind)


def _catalog_instances():
    out = []
    for name in catalog_names():
        entry = get_entry(name)
        doc = parse(json.dumps(entry.document))
        q = build_quasi_twilled(doc)
        for map_name, side in entry.deformation_maps:
            rows = doc.maps[map_name]
            m = (linear_map_from_matrix(rows, A, APRIME, q.dims)
                 if side == "right"
                 else linear_map_from_matrix(rows, APRIME, A, q.dims))
            out.append((name, map_name, side, q, m, rows))
    return out


def test_criterion_7_cohomology():
    with criterion(7, "d o d = 0 at degrees 0..3 on every catalog "
                      "deformation map; the (1,0,0) table; l1 vs d for "
                      "m = 1..3 entrywise"):
        for name, map_name, side, q, m, _rows in _catalog_instances():
            res = (right_residual(q, m) if side == "right"
                   else left_residual(q, m))
            assert res.is_zero(), (name, map_name)
            mats = [coboundary_matrix(q, m, side, n) for n in range(4)]
            for n in range(3):
                assert mats[n + 1].matmul(mats[n]).is_zero(), (name, n)
            # l1 vs d, entrywise over every basis cochain of C^1..C^3
            v = controlling_structure(q, side).vdata
            for arity in (1, 2, 3):
                dom, cod = v.f_signature(arity)
                zero = MultilinearMap.zero(dom, cod, q.dims)
                for j in range(len(zero.coeffs)):
                    coeffs = list(zero.coeffs)
                    coeffs[j] = Fraction(1)
                    f = MultilinearMap(dom, cod, q.dims, coeffs)
                    assert l1_vs_d(q, m, side, f), (name, arity, j)
        q0 = build_standard("semidirect",
                            rep=regular_representation(one_dim_algebra()))
        assert cohomology_dims(q0, right_map(q0, [[0]]), "right", 2) == \
            [1, 0, 0]


def test_criterion_8_duality():
    with criterion(8, "duality on invertible catalog maps; the weight-4 "
                      "pair (2 id, id/2) works from both sides"):
        for name, map_name, side, q, m, rows in _catalog_instances():
            if q.dim_a != q.dim_aprime:
                continue
            mat = ExactMatrix.from_rows(rows)
            try:
                inv = invert(mat)
            except Exception:
                continue  # singular attached map: not a duality candidate
            if side == "right":
                assert duality_check(q, m), (name, map_name)
            else:
                d = linear_map_from_matrix(inv.rows(), A, APRIME, q.dims)
                assert duality_check(q, d), (name, map_name)
        q4 = build_standard("modified_direct_sum", algebra=one_dim_algebra(),
                            weight=4)
        d = right_map(q4, [[2]])
        dinv = left_map(q4, [[Fraction(1, 2)]])
        assert right_residual(q4, d).is_zero()
        assert left_residual(q4, dinv).is_zero()
        assert duality_check(q4, d)


def test_criterion_9_cli_contract(tmp_path, capsys):
    with criterion(9, "catalog round-trips, documented exit statuses, "
                      "bit-exact cohomology in --json mode"):
        for name in catalog_names():
            entry = get_entry(name)
            doc = parse(json.dumps(entry.document))
            assert parse(print_document(doc)) == doc, name
            p = tmp_path / f"{name}.json"
            p.write_text(emit_example(name), encoding="utf-8")
            assert cli_main(["validate", str(p)]) == 0, name
            capsys.readouterr()
            # mc and classify agree on every attached deformation map
            for map_name, side in entry.deformation_maps:
                assert cli_main(["mc", "--map", map_name, "--side", side,
                                 str(p)]) == 0, (name, map_name)
                assert cli_main(["classify", "--map", map_name, "--side",
                                 side, str(p)]) == 0, (name, map_name)
                capsys.readouterr()
                # cohomology in json mode matches the library bit for bit
                assert cli_main(["cohomology", "--map", map_name, "--side",
                                 side, "--max-degree", "2", "--json",
                                 str(p)]) == 0
                payload = json.loads(capsys.readouterr().out)
                got = [row["dim"] for row in payload["details"]["table"]]
                q = build_quasi_twilled(parse(json.dumps(entry.document)))
                rows = entry.document["maps"][map_name]
                m = (linear_map_from_matrix(rows, A, APRIME, q.dims)
                     if side == "right"
                     else linear_map_from_matrix(rows, APRIME, A, q.dims))
                assert got == cohomology_dims(q, m, side, 2), (name, map_name)
        # documented failure statuses
        bad = tmp_path / "malformed.json"
        bad.write_text("{", encoding="utf-8")
        assert cli_main(["validate", str(bad)]) == 2
        capsys.readouterr()
