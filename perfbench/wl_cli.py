"""Workload `cli_catalog`: the command-line front end on every catalog document.

Each op is one in-process `qta.cli.main(["--json", ...])` call with stdout
captured.  Most take 3-30 ms, so the per-call overhead dominates: parsing,
building with ingredient checks, `validate`, and V-data re-verification on
every `controlling_structure` call.  The Jacobi samples on the two
dims-(2,2) documents set the tail.  Three failure-path ops must return
their nonzero exit: a perturbed document (exit 1), a map that is not a
deformation map (exit 1) and a malformed document (exit 2).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random

from harness import OUT_DIR, Op

NAME = "cli_catalog"

MALFORMED = {
    "field-tag": '{"field": "real", "spaces": {"A": {"dim": 1}, '
                 '"Aprime": {"dim": 1}}, "builder": {"kind": "reynolds", '
                 '"tables": {"product": [[["1"]]]}}}',
    "zero-denominator": '{"field": "rational", "spaces": {"A": {"dim": 1}, '
                        '"Aprime": {"dim": 1}}, "builder": {"kind": '
                        '"reynolds", "tables": {"product": [[["1/0"]]]}}}',
    "truncated": '{"field": "rational", "spaces": {"A": {"dim": 1}, ',
    "ragged-table": '{"field": "rational", "spaces": {"A": {"dim": 1}, '
                    '"Aprime": {"dim": 1}}, "builder": {"kind": "reynolds", '
                    '"tables": {"product": [[["1", "2"]]]}}}',
}

# scalars other than 0 and 1
SCALARS = ("2", "3", "-1", "-2", "1/2", "-1/2", "3/2", "-3")


def perturbed_document(rho):
    """Components-form document on the 1-dim algebra e.e = e.

    With pi = mu = 1 the structure is associative exactly when rho is 0
    or 1, so any other rho makes `validate` fail.
    """
    return json.dumps({
        "field": "rational",
        "spaces": {"A": {"dim": 1, "basis": ["e"]},
                   "Aprime": {"dim": 1, "basis": ["e'"]}},
        "components": {"pi": [[["1"]]], "rho": [[[rho]]], "mu": [[["1"]]]},
    })


# Degrees of the three arity-3 Jacobi samples.  A sample with cochains of
# degrees (1, 1, 1) costs several times one of degrees (1, 0, 0), so the
# degrees are held fixed and the seed picks only the coefficients; every
# seed then costs the same.
JACOBI_DEGREES = sorted([(1, 0, 0), (1, 1, 0), (1, 1, 1)])


def jacobi_draws(api, cli, jacobi_seed, side, dims):
    """Degrees `qta jacobi --arity 3 --seed jacobi_seed` will sample.

    Replays the command's draws: one pool index per sample, then one
    random cochain per degree, all from one seeded generator.
    """
    rng = api.seeded_rng(jacobi_seed)
    pools = cli._JACOBI_DEGREE_POOLS[3]
    slot, cod = (api.A, api.APRIME) if side == "right" else (api.APRIME, api.A)
    draws = []
    for _ in JACOBI_DEGREES:
        degrees = pools[rng.randrange(len(pools))]
        for d in degrees:
            api.random_map(rng, (slot,) * (d + 1), cod, dims)
        draws.append(degrees)
    return sorted(draws)


def pick_jacobi_seed(api, cli, rng, side, document):
    """First seed from `rng` whose samples have the degrees JACOBI_DEGREES."""
    spaces = document["spaces"]
    dims = (spaces["A"]["dim"], spaces["Aprime"]["dim"])
    candidates = [rng.randrange(10 ** 6) for _ in range(1000)]
    for candidate in candidates:
        if jacobi_draws(api, cli, candidate, side, dims) == JACOBI_DEGREES:
            return candidate
    return candidates[0]


def call_cli(cli, argv):
    """(exit status, captured stdout) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buf.getvalue()


def report_record(out):
    code, text = out
    report = json.loads(text)
    report.pop("timing_ms", None)
    return {"exit": code, "report": report}


def text_record(out):
    code, text = out
    return {"exit": code, "text": text}


def _report_check(want_exit, predicate):
    """Check exit status and the JSON report's verdict details."""
    def check(out):
        code, text = out
        if code != want_exit:
            return f"exit {code}, expected {want_exit}"
        report = json.loads(text)
        if report.get("exit_status") != code:
            return "report exit_status differs from the exit status"
        return predicate(report["details"], report["verdict"])
    return check


def _all_equations_zero(details, verdict):
    if verdict != "pass" or not details["detectors_agree"]:
        return "validate verdict is not pass"
    if not all(row["zero"] for row in details["equations"]):
        return "a structure equation is nonzero"
    return None


def _classify_ok(details, verdict):
    if details["operator"] == "not a deformation map" or details["residual"] != "zero":
        return "catalog map not classified as a deformation map"
    return None


def _twist_ok(details, verdict):
    if not (details["conjugation_agrees"] and details["quasi_twilled"]
            and details["twisted_residual"] == "zero"):
        return "twist disagrees with the conjugation twist or is not split"
    return None


def _mc_ok(details, verdict):
    if details["maurer_cartan"] != "zero" or not details["verdicts_agree"]:
        return "MC verdict is not zero or disagrees with the residual"
    return None


def _cohomology_ok(details, verdict):
    dims = [row["dim"] for row in details["table"]]
    if len(dims) != details["max_degree"] + 1 or min(dims) < 0:
        return f"malformed cohomology table {dims}"
    if not details["d_squared_zero"]:
        return "d o d != 0"
    return None


def _jacobi_ok(details, verdict):
    if not all(row["zero"] for row in details["results"]):
        return "a Jacobi sample is nonzero"
    return None


def _perturbed_ok(details, verdict):
    if verdict != "fail" or not details["detectors_agree"]:
        return "perturbed document not rejected by both detectors"
    return None


def _not_deformation_classify(details, verdict):
    if details["operator"] != "not a deformation map":
        return f"non-deformation map classified as {details['operator']!r}"
    return None


def _not_deformation_mc(details, verdict):
    if details["maurer_cartan"] == "zero" or not details["verdicts_agree"]:
        return "MC verdict of a non-deformation map is zero or disagrees"
    return None


def _malformed_ok(details, verdict):
    if verdict != "error":
        return "malformed document not reported as an input error"
    return None


def build(api, seed):
    """Write the documents, build and validate them, return the op list."""
    cli = importlib.import_module("qta.cli")
    qio = importlib.import_module("qta.io")
    rng = random.Random(f"{NAME}:{seed}")
    workdir = OUT_DIR / "docs" / f"{NAME}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name, text):
        path = workdir / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def op(label, argv, check, record=report_record, seed_free=True):
        return Op(label, lambda: call_cli(cli, ["--json", *argv]), check,
                  record, seed_free)

    ops = []
    texts, files = {}, {}
    for name in api.catalog_names():
        texts[name] = text = api.emit_example(name)
        q = qio.build_quasi_twilled(qio.parse(text))
        if not api.validate(q).is_zero():
            raise RuntimeError(f"catalog document {name} fails validate")
        files[name] = write(name, text)
        ops.append(op(f"validate {name}", ["validate", files[name]],
                      _report_check(0, _all_equations_zero)))

    for name in api.catalog_names():
        path = files[name]
        sides = []
        for map_name, side in api.get_entry(name).deformation_maps:
            common = ["--map", map_name, "--side", side, path]
            tag = f"{name} {map_name} {side}"
            ops.append(op(f"classify {tag}", ["classify", *common],
                          _report_check(0, _classify_ok)))
            ops.append(op(f"twist {tag}", ["twist", *common],
                          _report_check(0, _twist_ok)))
            ops.append(op(f"mc {tag}", ["mc", *common],
                          _report_check(0, _mc_ok)))
            ops.append(op(f"cohomology {tag}",
                          ["cohomology", "--max-degree", "3", *common],
                          _report_check(0, _cohomology_ok)))
            sides.append(side)
        for side in sides:
            jacobi_seed = pick_jacobi_seed(api, cli, rng, side,
                                           api.get_entry(name).document)
            ops.append(op(f"jacobi {name} {side}",
                          ["jacobi", "--side", side, "--arity", "3",
                           "--samples", str(len(JACOBI_DEGREES)), "--seed",
                           str(jacobi_seed), path],
                          _report_check(0, _jacobi_ok), seed_free=False))

    for name in api.catalog_names():
        def same_document(out, reference=texts[name]):
            code, text = out
            if code != 0 or text != reference:
                return "emitted document differs from the catalog entry"
            return None

        ops.append(op(f"example {name}", ["example", name], same_document,
                      record=text_record))

    # failure paths: each must return its nonzero exit status
    perturbed = write("perturbed", perturbed_document(rng.choice(SCALARS)))
    ops.append(op("validate perturbed", ["validate", perturbed],
                  _report_check(1, _perturbed_ok), seed_free=False))
    base = api.get_entry("semidirect-dim1").document
    not_deformation = write("not-deformation", json.dumps(
        {**base, "maps": {**base["maps"], "X": [[rng.choice(SCALARS)]]}}))
    for cmd, ok in (("classify", _not_deformation_classify),
                    ("mc", _not_deformation_mc)):
        ops.append(op(f"{cmd} not-deformation",
                      [cmd, "--map", "X", "--side", "right", not_deformation],
                      _report_check(1, ok), seed_free=False))
    kind = rng.choice(sorted(MALFORMED))
    malformed = write("malformed", MALFORMED[kind])
    ops.append(op("validate malformed", ["validate", malformed],
                  _report_check(2, _malformed_ok), seed_free=False))
    return ops
