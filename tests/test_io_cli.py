import argparse
import json
import tracemalloc
from pathlib import Path

import pytest

from qta import (
    AssociativeAlgebra, AssociativeRepresentation, Cocycle2, DimensionError,
    MatchedPairData, ParseError, RepresentationPair, SchemaError,
    quasitwilled, validate,
)
from qta.catalog import catalog_names, emit_example, get_entry
import qta.cli
import qta.deformation
from qta.cli import main as cli_main
from qta.errors import UnknownExample
from qta.io import (
    Report, build_quasi_twilled, document_from_components, parse,
    parse_fraction, print_document, side_map,
)


# -- parsing -------------------------------------------------------------------

def test_minimal_document_parses():
    text = json.dumps({
        "field": "rational",
        "spaces": {"A": {"dim": 1}, "Aprime": {"dim": 1}},
        "components": {"pi": [[["1/1"]]]},
    })
    doc = parse(text)
    assert doc.dim_a == 1 and doc.dim_aprime == 1
    q = build_quasi_twilled(doc)
    assert validate(q).is_zero()


def test_fraction_normalization():
    assert parse_fraction("2/4", "x") == parse_fraction("1/2", "x")
    text = json.dumps({
        "field": "rational",
        "spaces": {"A": {"dim": 1}, "Aprime": {"dim": 1}},
        "components": {"pi": [[["2/4"]]]},
    })
    doc = parse(text)
    out = print_document(doc)
    assert '"1/2"' in out


def test_bad_fraction_raises_valueerror():
    with pytest.raises(ValueError):
        parse_fraction("1/0", "x")
    with pytest.raises(ValueError):
        parse_fraction("a/b", "x")
    with pytest.raises(SchemaError):
        parse_fraction(0.5, "x")


def test_malformed_json_is_parse_error():
    with pytest.raises(ParseError):
        parse("{not json")


def test_deeply_nested_json_is_parse_error(tmp_path, capsys):
    deep = "[" * 100000 + "]" * 100000
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(deep)
    p = tmp_path / "deep.json"
    p.write_text(deep, encoding="utf-8")
    for argv in (["validate", str(p)],
                 ["cohomology", "--map", "D", "--side", "right", str(p)]):
        assert cli_main(["--json"] + argv) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["exit_status"] == 2
        assert report["details"]["error"].startswith("ParseError: ")
        assert "Traceback" not in captured.out + captured.err


def _one_dim_document(scalar):
    return json.dumps({
        "field": "rational",
        "spaces": {"A": {"dim": 1}, "Aprime": {"dim": 1}},
        "components": {"pi": [[[scalar]]]},
    })


def test_oversized_json_integer_is_parse_error(tmp_path, capsys):
    # json.loads refuses integer literals over int()'s 4300-digit limit
    text = '{"field": ' + "9" * 5000 + "}"
    with pytest.raises(ParseError):
        parse(text)
    p = tmp_path / "bigint.json"
    p.write_text(text, encoding="utf-8")
    assert cli_main(["--json", "validate", str(p)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["exit_status"] == 2
    assert report["details"]["error"].startswith("ParseError: ")


def test_bad_fraction_report_is_bounded(tmp_path, capsys):
    for scalar in ("7" * 5000, "1" * 3000 + "/0", "x" * 5000):
        with pytest.raises(ValueError) as info:
            parse(_one_dim_document(scalar))
        assert len(str(info.value)) < 250
        assert f"({len(scalar)} characters)" in str(info.value)
        p = tmp_path / "big.json"
        p.write_text(_one_dim_document(scalar), encoding="utf-8")
        assert cli_main(["--json", "validate", str(p)]) == 2
        error = json.loads(capsys.readouterr().out)["details"]["error"]
        assert error.startswith("ValueError: ") and len(error) < 250
    # strings under the cap are echoed whole, as before
    with pytest.raises(ValueError) as info:
        parse_fraction("1/0", "builder.tables.product[0][0][0]")
    assert str(info.value) == ("builder.tables.product[0][0][0]: bad "
                               "fraction string '1/0': Fraction(1, 0)")


def test_fraction_strings_are_ascii_digits():
    for text in ("1_000", "1/2_0", "\u0663", "1/\u0663", "\uff11"):
        with pytest.raises(ValueError, match="bad fraction string"):
            parse_fraction(text, "x")
    assert parse_fraction(" -2/4 ", "x") == parse_fraction("-1/2", "x")
    assert parse_fraction("+3", "x") == 3


def test_schema_errors_name_offender():
    base = {
        "field": "rational",
        "spaces": {"A": {"dim": 2}, "Aprime": {"dim": 2}},
        "components": {"pi": [[["1", "0"], ["0", "0"]]]},  # wrong shape
    }
    with pytest.raises(SchemaError) as err:
        parse(json.dumps(base))
    assert "components.pi" in str(err.value)

    bad_map = {
        "field": "rational",
        "spaces": {"A": {"dim": 2}, "Aprime": {"dim": 1}},
        "components": {},
        "maps": {"D": [["1", "0"], ["0", "1"]]},
    }
    with pytest.raises(SchemaError) as err:
        parse(json.dumps(bad_map))
    assert "maps.D" in str(err.value)


def test_given_basis_builds_no_default_names():
    text = json.dumps({
        "field": "rational",
        "spaces": {"A": {"dim": 1000000, "basis": ["x"]},
                   "Aprime": {"dim": 1}},
        "components": {},
    })
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match=r"spaces\.A\.basis: need "
                                              r"1000000 names"):
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_dim_over_the_limit_fails_before_any_basis_name():
    # without "basis", a dim of 10^9 used to build a billion default names
    text = json.dumps({
        "field": "rational",
        "spaces": {"A": {"dim": 10 ** 9}, "Aprime": {"dim": 1}},
        "components": {},
    })
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match=rf"spaces\.A\.dim: 1000000000 "
                                              rf"is over the limit of "
                                              rf"{qta.io.MAX_DIM}$"):
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the largest dim allowed still loads
    limit = qta.io.MAX_DIM
    doc = parse(json.dumps({
        "field": "rational",
        "spaces": {"A": {"dim": limit}, "Aprime": {"dim": 1}},
        "components": {},
    }))
    assert len(doc.basis_a) == limit and doc.basis_a[-1] == f"e{limit}"


def test_cli_dim_over_the_limit_exits_2(tmp_path, capsys):
    p = tmp_path / "big.json"
    p.write_text(json.dumps({
        "field": "rational",
        "spaces": {"A": {"dim": 1}, "Aprime": {"dim": 10 ** 9}},
        "components": {},
    }), encoding="utf-8")
    assert cli_main(["--json", "validate", str(p)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["details"]["error"] == (
        f"SchemaError: spaces.Aprime.dim: 1000000000 is over the limit of "
        f"{qta.io.MAX_DIM}")
    assert err == ""


def test_builder_and_components_mutually_exclusive():
    doc = {
        "field": "rational",
        "spaces": {"A": {"dim": 1}, "Aprime": {"dim": 1}},
    }
    with pytest.raises(SchemaError):
        parse(json.dumps(doc))
    doc["components"] = {}
    doc["builder"] = {"kind": "reynolds", "tables": {"product": [[["1"]]]}}
    with pytest.raises(SchemaError):
        parse(json.dumps(doc))


def test_catalog_roundtrip_and_validity():
    for name in catalog_names():
        entry = get_entry(name)
        doc = parse(json.dumps(entry.document))
        assert parse(print_document(doc)) == doc
        q = build_quasi_twilled(doc)
        assert validate(q).is_zero(), name


def test_catalog_documents_are_canonical():
    # `emit_example` writes an entry as it stands, so each must already be
    # in the key order and fraction strings that parse-and-print gives
    for name in catalog_names():
        document = get_entry(name).document
        assert emit_example(name) == print_document(
            parse(json.dumps(document))), name


def test_components_document_roundtrip():
    entry = get_entry("reynolds-dual-numbers")
    q = build_quasi_twilled(parse(json.dumps(entry.document)))
    doc = document_from_components(q, maps={"B": [[-1, 0], [0, -1]]})
    text = print_document(doc)
    doc2 = parse(text)
    assert doc2 == doc
    q2 = build_quasi_twilled(doc2)
    assert q2.components() == q.components()


@pytest.mark.parametrize("rows, shape", [([], "0x0"), ([[1], [2]], "2x1"),
                                         ([[1, 2]], "1x2")])
def test_side_map_wrong_shape_is_dimension_error(rows, shape):
    q = build_quasi_twilled(parse(emit_example("reynolds-dim1")))
    doc = document_from_components(q, maps={"D": rows})
    with pytest.raises(DimensionError, match=f"has shape {shape}, a right "
                                             "map needs 1x1"):
        side_map(doc, q, "D", "right")


def test_unknown_example():
    with pytest.raises(UnknownExample):
        emit_example("no-such-thing")


def test_report_roundtrip():
    rep = Report("validate", "pass", 0,
                 {"bracket": "zero", "rows": [1, 2, 3]}, 12.5)
    again = Report.from_dict(json.loads(rep.to_json()))
    assert again == rep


# -- CLI ------------------------------------------------------------------------

def _write_example(tmp_path, name):
    p = tmp_path / f"{name}.json"
    p.write_text(emit_example(name), encoding="utf-8")
    return str(p)


def test_cli_validate_pass(tmp_path, capsys):
    path = _write_example(tmp_path, "reynolds-dim1")
    assert cli_main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_cli_validate_fail_exit_1(tmp_path, capsys):
    # corrupt the structure: a nonzero eta breaks (pi o eta)_1 - (eta o pi)_2
    # + (eta o mu)_1 on the Reynolds structure
    entry = get_entry("reynolds-dim1")
    q = build_quasi_twilled(parse(json.dumps(entry.document)))
    doc = document_from_components(q)
    raw = json.loads(print_document(doc))
    raw["components"]["eta"] = [[["1"]]]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    assert cli_main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out


def test_cli_input_error_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{", encoding="utf-8")
    assert cli_main(["validate", str(p)]) == 2
    assert cli_main(["validate", str(tmp_path / "missing.json")]) == 2
    zero_den = tmp_path / "zeroden.json"
    zero_den.write_text(json.dumps({
        "field": "rational",
        "spaces": {"A": {"dim": 1}, "Aprime": {"dim": 1}},
        "components": {"pi": [[["1/0"]]]},
    }), encoding="utf-8")
    assert cli_main(["validate", str(zero_den)]) == 2
    capsys.readouterr()


def test_cli_classify(tmp_path, capsys):
    path = _write_example(tmp_path, "reynolds-dim1")
    assert cli_main(["classify", "--map", "B", "--side", "left", path]) == 0
    out = capsys.readouterr().out
    assert "Reynolds operator" in out
    path2 = _write_example(tmp_path, "modified-lambda4-dim1")
    assert cli_main(["classify", "--map", "Dinv", "--side", "left",
                     path2]) == 0
    capsys.readouterr()


def test_cli_mc_agrees_with_classify(tmp_path, capsys):
    # the mc and residual verdicts must agree at the CLI level
    for name, mapname, side in [("modified-lambda4-dim1", "D", "right"),
                                ("reynolds-dim1", "B", "left"),
                                ("semidirect-dim1", "B", "left")]:
        path = _write_example(tmp_path, name)
        mc_status = cli_main(["mc", "--map", mapname, "--side", side, path])
        cl_status = cli_main(["classify", "--map", mapname, "--side", side,
                              path])
        assert mc_status == cl_status == 0
        out = capsys.readouterr().out
        assert "verdicts_agree: True" in out or '"verdicts_agree": true' in out


def test_cli_mc_nonzero_exit_1(tmp_path, capsys):
    entry = get_entry("modified-lambda4-dim1")
    raw = json.loads(json.dumps(entry.document))
    raw["maps"]["D"] = [["1"]]
    p = tmp_path / "mod.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    assert cli_main(["mc", "--map", "D", "--side", "right", str(p)]) == 1
    capsys.readouterr()


def test_cli_cohomology_json_matches_library(tmp_path, capsys):
    from qta import build_standard, cohomology_dims, regular_representation
    from conftest import one_dim_algebra, right_map
    path = _write_example(tmp_path, "semidirect-dim1")
    assert cli_main(["cohomology", "--map", "D", "--side", "right",
                     "--max-degree", "2", "--json", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    got = [row["dim"] for row in payload["details"]["table"]]
    q = build_standard("semidirect",
                       rep=regular_representation(one_dim_algebra()))
    want = cohomology_dims(q, right_map(q, [[0]]), "right", 2)
    assert got == want == [1, 0, 0]
    assert payload["details"]["d_squared_zero"] is True


def test_cli_cohomology_env_cap(tmp_path, capsys, monkeypatch):
    path = _write_example(tmp_path, "semidirect-dim1")
    monkeypatch.setenv("QTA_MAX_DEGREE", "1")
    assert cli_main(["cohomology", "--map", "D", "--side", "right",
                     "--max-degree", "3", "--json", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["details"]["max_degree"] == 1
    assert payload["details"]["capped"] is True


def test_cli_cohomology_bad_env_cap_exit_2(tmp_path, capsys, monkeypatch):
    path = _write_example(tmp_path, "semidirect-dim1")
    monkeypatch.setenv("QTA_MAX_DEGREE", "abc")
    argv = ["cohomology", "--map", "D", "--side", "right", path]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("QtaError: ") and "QTA_MAX_DEGREE" in err
    assert "invalid literal" not in err
    assert cli_main(argv + ["--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "error" and payload["exit_status"] == 2
    assert "QTA_MAX_DEGREE" in payload["details"]["error"]


def test_cli_cohomology_nondeformation_exit_2(tmp_path, capsys):
    entry = get_entry("modified-lambda4-dim1")
    raw = json.loads(json.dumps(entry.document))
    raw["maps"]["D"] = [["1"]]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    assert cli_main(["cohomology", "--map", "D", "--side", "right",
                     str(p)]) == 2
    capsys.readouterr()


# dims (1,1), pi = mu = 1, rho = 2: not quasi-twilled, while the zero
# maps have zero residuals
INVALID_DOCUMENT = """{"field": "rational",
 "spaces": {"A": {"dim": 1}, "Aprime": {"dim": 1}},
 "components": {"pi": [[["1"]]], "mu": [[["1"]]], "rho": [[["2"]]]},
 "maps": {"D": [["0"]], "B": [["0"]]}}"""


@pytest.mark.parametrize("argv", [
    ["cohomology", "--map", "D", "--side", "right"],
    ["cohomology", "--map", "B", "--side", "left"],
    ["twist", "--map", "D", "--side", "right"],
    ["twist", "--map", "B", "--side", "left"],
    ["mc", "--map", "D", "--side", "right"],
    ["jacobi", "--side", "left", "--arity", "2"],
])
def test_cli_invalid_structure_exit_2(tmp_path, capsys, argv):
    p = tmp_path / "invalid.json"
    p.write_text(INVALID_DOCUMENT, encoding="utf-8")
    assert cli_main(["--json", "validate", str(p)]) == 1
    capsys.readouterr()
    assert cli_main(["--json"] + argv + [str(p)]) == 2
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["exit_status"] == 2 and report["verdict"] == "error"
    assert report["details"]["error"].startswith("InvalidQTA: ")
    assert err == ""


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["validate-nonassociative-beta",
                                  "validate-rho2", "validate-fractional"])
def test_cli_validate_json_is_pinned(capsys, name):
    # byte for byte apart from the timing line: the verdict, the bracket
    # witness and all sixteen rows, the [beta,beta] row at twice its block;
    # with rho = 2/3 and theta = 1/2 the integer verdict's witnesses are the
    # exact fractions (1/6 in the bracket, 2/9 and 1/6 in the rows)
    assert cli_main(["--json", "validate",
                     str(GOLDEN / f"{name}.json")]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith('  "timing_ms": ')]
    assert len(kept) == len(lines) - 1 and err == ""
    assert "".join(kept) == (GOLDEN / f"{name}.out").read_text(
        encoding="utf-8")


def test_cli_validate_reads_one_bracket(tmp_path, capsys, monkeypatch):
    # a components-form document that fails costs one validate call
    p = tmp_path / "invalid.json"
    p.write_text(INVALID_DOCUMENT, encoding="utf-8")
    calls = []

    def counting(q, _validate=quasitwilled.validate):
        calls.append(q)
        return _validate(q)

    monkeypatch.setattr(quasitwilled, "validate", counting)
    monkeypatch.setattr(qta.cli, "validate", counting)
    assert cli_main(["--json", "validate", str(p)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert report["details"]["detectors_agree"] is True
    rho_row = report["details"]["equations"][1]
    assert rho_row["equation"].startswith("(rho o pi)_1") \
        and not rho_row["zero"] and "witness" in rho_row


@pytest.mark.parametrize("argv,error", [
    (["--arity", "9"], "QtaError: jacobi arity must be between 0 and 4"),
    (["--arity", "2", "--samples", "0"],
     "QtaError: jacobi --samples must be at least 1"),
], ids=["arity", "samples"])
def test_cli_jacobi_checks_its_arguments_before_the_document(
        tmp_path, capsys, argv, error):
    # the argument error wins over InvalidQTA and over an unreadable file
    p = tmp_path / "invalid.json"
    p.write_text(INVALID_DOCUMENT, encoding="utf-8")
    for path in (p, tmp_path / "missing.json"):
        assert cli_main(["--json", "jacobi", "--side", "left", *argv,
                         str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["details"]["error"] == error


def test_cli_twist(tmp_path, capsys):
    path = _write_example(tmp_path, "euler-derivation-dual-numbers")
    assert cli_main(["twist", "--map", "D", "--side", "right", path]) == 0
    out = capsys.readouterr().out
    assert "conjugation_agrees: True" in out


def test_cli_jacobi(tmp_path, capsys):
    path = _write_example(tmp_path, "reynolds-dim1")
    assert cli_main(["jacobi", "--side", "left", "--arity", "2",
                     "--samples", "4", "--seed", "11", path]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_jacobi_without_samples_exits_2(tmp_path, capsys, samples):
    path = _write_example(tmp_path, "reynolds-dim1")
    argv = ["jacobi", "--side", "left", "--arity", "2",
            "--samples", samples, path]
    assert cli_main(argv) == 2
    assert "QtaError" in capsys.readouterr().err
    assert cli_main(["--json"] + argv) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "error"
    assert "--samples" in payload["details"]["error"]


def test_cli_example_outputs_and_unknown(capsys):
    assert cli_main(["example", "reynolds-dim1"]) == 0
    out = capsys.readouterr().out
    parsed = parse(out)
    assert parsed.dim_a == 1
    assert cli_main(["example", "no-such"]) == 2
    capsys.readouterr()
    assert cli_main(["example", "--list"]) == 0
    out = capsys.readouterr().out
    for name in catalog_names():
        assert name in out


def test_cli_exit_statuses_documented():
    # all catalog examples: validate exits 0
    import tempfile, os
    for name in catalog_names():
        with tempfile.TemporaryDirectory() as td:
            p = os.path.join(td, "doc.json")
            with open(p, "w", encoding="utf-8") as fh:
                fh.write(emit_example(name))
            assert cli_main(["validate", p]) == 0


def test_cli_twist_left_side(tmp_path, capsys):
    path = _write_example(tmp_path, "reynolds-dual-numbers")
    assert cli_main(["twist", "--map", "B", "--side", "left", path]) == 0
    out = capsys.readouterr().out
    assert "conjugation_agrees: True" in out
    # a non-deformation left map twists fine but exits 1 (gamma nonzero)
    entry = get_entry("reynolds-dual-numbers")
    raw = json.loads(json.dumps(entry.document))
    raw["maps"]["B"] = [["1", "0"], ["0", "1"]]
    p = tmp_path / "notdef.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    assert cli_main(["twist", "--map", "B", "--side", "left", str(p)]) == 1
    capsys.readouterr()


def _reports(argvs, capsys):
    out = []
    for argv in argvs:
        code = cli_main(argv)
        text = capsys.readouterr().out
        if "--json" in argv:
            report = json.loads(text)
            report.pop("timing_ms", None)
            text = json.dumps(report)
        else:
            text = "\n".join(line for line in text.splitlines()
                              if not line.startswith("time "))
        out.append((code, text))
    return out


def test_cached_parser_gives_the_reports_of_fresh_parsers(
        tmp_path, capsys, monkeypatch):
    assert qta.cli.make_parser() is qta.cli.make_parser()
    path = _write_example(tmp_path, "reynolds-dual-numbers")
    # flags given on one call must not carry over to the next
    argvs = [
        ["--json", "cohomology", "--map", "B", "--side", "left",
         "--max-degree", "1", path],
        ["cohomology", "--map", "B", "--side", "left", path],
        ["validate", path],
        ["--json", "jacobi", "--side", "left", "--arity", "2",
         "--samples", "2", "--seed", "3", path],
        ["jacobi", "--side", "right", "--arity", "1", path],
        ["--json", "example", "--list"],
        ["twist", "--json", "--map", "B", "--side", "left", path],
        ["--json", "validate", path],
    ]
    cached = _reports(argvs, capsys)
    # a well-formed call is parsed by its command's parser alone, and
    # gives the Namespace of the full parser
    full = qta.cli.make_parser().parse_args
    with monkeypatch.context() as m:
        m.setattr(argparse.ArgumentParser, "parse_args", None)
        fast = [qta.cli.parse_args(argv) for argv in argvs]
    assert fast == [full(argv) for argv in argvs]
    # every other call gives the Namespace, or the exit code, stdout and
    # stderr, of the full parser
    for argv in DISPATCH_ARGVS:
        assert _parsed(qta.cli.parse_args, argv, capsys) == \
            _parsed(full, argv, capsys), argv
    monkeypatch.setattr(qta.cli, "make_parser", qta.cli.make_parser.__wrapped__)
    fresh = _reports(argvs, capsys)
    assert cached == fresh


DISPATCH_ARGVS = [
    # --json before, after and around the command
    ["--json", "validate", "f.json"], ["validate", "--json", "f.json"],
    ["validate", "f.json", "--json"],
    ["--json", "--json", "validate", "f.json"],
    ["--json", "validate", "--json", "f.json"],
    ["--js", "validate", "f.json"], ["validate", "--js", "f.json"],
    ["--json=1", "validate", "f.json"],
    # -h everywhere
    ["-h"], ["--json", "-h"], ["--help", "validate"],
    *([cmd, "-h"] for cmd in ("validate", "classify", "twist", "mc",
                              "cohomology", "jacobi", "example")),
    ["--json", "cohomology", "--help"],
    # usage errors
    ["classify", "--side", "left", "f.json"],
    ["classify", "--map", "B", "--side", "up", "f.json"],
    ["cohomology", "--map", "B", "--side", "left", "--max-degree", "two",
     "f.json"],
    ["cohomology", "--map", "B", "--side", "left", "--max-degree=-1",
     "f.json"],
    ["--json", "cohomology", "--m", "B", "--side", "left", "f.json"],
    ["validate", "f.json", "extra"], ["--json", "validate"],
    ["no-such-command", "f.json"], ["--verbose", "validate", "f.json"],
    [], ["--json"], ["--", "validate", "f.json"],
    ["--json", "validate", "--", "f.json"],
    ["jacobi", "--side", "left", "--arity", "2", "--seed", "-3", "f.json"],
    ["jacobi", "--side", "left", "f.json"],
    ["example"], ["example", "--list", "extra", "more"],
]


def _parsed(parse, argv, capsys):
    """(vars of the Namespace or the exit code, stdout, stderr)."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    return result, *capsys.readouterr()


def _catalog_calls(name, path):
    """Every document command on one catalog document, each map and side."""
    yield ["validate", path]
    for map_name, side in get_entry(name).deformation_maps:
        common = ["--map", map_name, "--side", side, path]
        for cmd in ("classify", "twist", "mc"):
            yield [cmd, *common]
        yield ["cohomology", "--max-degree", "1", *common]
        yield ["jacobi", "--side", side, "--arity", "2", "--samples", "1",
               path]


@pytest.mark.parametrize("name", catalog_names())
def test_each_cli_call_builds_and_validates_once(
        tmp_path, capsys, monkeypatch, name):
    # loading a document and running any command costs one Delta (the one
    # `lift_blocks` pass of qta.quasitwilled) and one validate, and no
    # equation rows
    path = _write_example(tmp_path, name)
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(quasitwilled, "lift_blocks",
                        counting(quasitwilled.lift_blocks))
    monkeypatch.setattr(quasitwilled, "validate",
                        counting(quasitwilled.validate))
    # the CLI imports validate by name: give it the counting one too
    monkeypatch.setattr(qta.cli, "validate", quasitwilled.validate)
    # a verified structure's sixteen rows are zero: none is projected
    monkeypatch.setattr(qta.cli, "equation_rows",
                        counting(qta.cli.equation_rows))
    for argv in _catalog_calls(name, path):
        calls.clear()
        assert cli_main(["--json", *argv]) == 0, argv
        capsys.readouterr()
        assert sorted(calls) == ["lift_blocks", "validate"], argv


@pytest.mark.parametrize("name", catalog_names())
def test_a_document_load_builds_no_ingredient_object(monkeypatch, name):
    # a builder document goes from its tables straight to the structure:
    # no build_standard and no ingredient object, one validate and one
    # `lift_blocks` pass
    doc = parse(emit_example(name))
    calls = []

    def refused(*args, **kwargs):
        raise AssertionError("a document load made an ingredient object")

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    for cls in (AssociativeAlgebra, RepresentationPair,
                AssociativeRepresentation, Cocycle2, MatchedPairData):
        monkeypatch.setattr(cls, "__init__", refused)
    monkeypatch.setattr(quasitwilled, "build_standard", refused)
    monkeypatch.setattr(quasitwilled, "lift_blocks",
                        counting(quasitwilled.lift_blocks))
    monkeypatch.setattr(quasitwilled, "validate",
                        counting(quasitwilled.validate))
    q = build_quasi_twilled(doc)
    assert q.verified and q.kind == doc.builder["kind"]
    assert sorted(calls) == ["lift_blocks", "validate"]


@pytest.mark.parametrize("kind", ["reynolds", "modified_direct_sum"])
def test_cli_same_dims_kind_on_other_dims_exit_2(tmp_path, capsys, kind):
    # a kind whose product fills components on both labels needs
    # dim A == dim Aprime
    builder = {"kind": kind, "tables": {"product": [
        [["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]]}}
    if kind == "modified_direct_sum":
        builder["weight"] = "1"
    p = tmp_path / "dims.json"
    p.write_text(json.dumps({
        "field": "rational",
        "spaces": {"A": {"dim": 2}, "Aprime": {"dim": 1}},
        "builder": builder}), encoding="utf-8")
    assert cli_main(["--json", "validate", str(p)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["details"]["error"] == \
        f"SchemaError: {kind} needs dim A == dim Aprime"
    assert err == ""


@pytest.mark.parametrize("name", catalog_names())
def test_mc_twists_once_per_call(tmp_path, capsys, monkeypatch, name):
    # both residual fields of `qta mc` read the residual block of one
    # twist of the total product
    path = _write_example(tmp_path, name)
    twist_blocks = qta.deformation.twist_blocks
    sides = []

    def counting(q, f, side, *names):
        sides.append(side)
        return twist_blocks(q, f, side, *names)

    monkeypatch.setattr(qta.deformation, "twist_blocks", counting)
    for map_name, side in get_entry(name).deformation_maps:
        sides.clear()
        assert cli_main(["--json", "mc", "--map", map_name, "--side", side,
                         path]) == 0
        details = json.loads(capsys.readouterr().out)["details"]
        assert sides == [side], (map_name, side)
        assert details["maurer_cartan"] == "zero"
        assert details["deformation_residual"] == "zero"
        assert details["verdicts_agree"] is True


# a Reynolds document on K^2 with e1.e1 = e2, e2.e1 = e1: not associative,
# since (e2.e1).e1 = e2 but e2.(e1.e1) = 0
NONASSOCIATIVE_REYNOLDS = """{"field": "rational",
 "spaces": {"A": {"dim": 2}, "Aprime": {"dim": 2}},
 "builder": {"kind": "reynolds",
             "tables": {"product": [[["0", "1"], ["0", "0"]],
                                    [["1", "0"], ["0", "0"]]]}},
 "maps": {"B": [["0", "0"], ["0", "0"]]}}"""


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["mc", "--map", "B", "--side", "left"],
    ["twist", "--map", "B", "--side", "left"],
    ["cohomology", "--map", "B", "--side", "left"],
])
def test_cli_nonassociative_builder_exit_2(tmp_path, capsys, argv):
    p = tmp_path / "nonassociative.json"
    p.write_text(NONASSOCIATIVE_REYNOLDS, encoding="utf-8")
    assert cli_main(["--json"] + argv + [str(p)]) == 2
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["exit_status"] == 2 and report["verdict"] == "error"
    assert report["details"]["error"] == \
        "IngredientError: algebra is not associative"
    assert err == ""
