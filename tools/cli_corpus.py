#!/usr/bin/env python3
"""Run the CLI corpus at two git revisions and diff what each call prints.

    python tools/cli_corpus.py REV_A REV_B
    python tools/cli_corpus.py REV_A           # against the checkout's src/

Each revision's `src/` is exported with `git archive` into a temporary
directory, and one Python process per revision runs every corpus call
in process through `qta.cli.main`.  The corpus is:

* `example` on every catalog document, and `example --list`;
* `validate` on every catalog document and on the two golden documents;
* `classify`, `twist`, `mc` and `cohomology --max-degree 3` on every
  catalog (map, side) pair;
* `jacobi` at arities 0-4 for seeds 0 and 1 on every catalog side;
* failure documents: a structure that is not quasi-twilled; a builder
  document of every kind whose ingredient fails (a Reynolds product and a
  modified-direct-sum product that are not associative, a semidirect
  representation, the prime product of a `semidirect_assoc` and the
  second product of a `direct_product` that are not associative, a
  matched-pair compatibility and an abelian-extension cocycle); a Reynolds
  document with dim A != dim Aprime; a map that is not a deformation map,
  malformed documents and a missing file;
* usage errors: no command, an unknown command, a missing `--map`, a bad
  `--side`, a non-integer `--max-degree`, an extra token, `-h` on each
  command, `--js` and a repeated `--json`;
* the edges of `qta.cli`'s direct argv reader, which reads a well-formed
  call without argparse: `--map=NAME` and `--side=left`, an abbreviated
  `--max 3`, a repeated `--side`, options after FILE, `--` before FILE,
  `--max-degree -1`, `jacobi --seed -3`, `--json` after the command and
  `-` as FILE;
* a few calls without `--json`.

For every call it compares the exit code, stderr and stdout bytes, with
only the `timing_ms` value masked (in a text report, the `time` line).
The documents are written to the temporary directory, so both revisions
read the same paths; nothing in the checkout is written.  Exits 0 when
every call matches, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = ("validate", "classify", "twist", "mc", "cohomology", "jacobi",
            "example")

# e1.e1 = e2, e2.e1 = e1 on K^2: not associative, since (e2.e1).e1 = e2
# but e2.(e1.e1) = 0
NONASSOCIATIVE = [[["0", "1"], ["0", "0"]], [["1", "0"], ["0", "0"]]]

FAILURE_DOCUMENTS = {
    # pi = mu = 1, rho = 2 on dims (1, 1): not quasi-twilled
    "invalid": {"field": "rational",
                "spaces": {"A": {"dim": 1}, "Aprime": {"dim": 1}},
                "components": {"pi": [[["1"]]], "mu": [[["1"]]],
                               "rho": [[["2"]]]},
                "maps": {"D": [["0"]], "B": [["0"]]}},
    # the Reynolds product is not associative
    "nonassociative": {"field": "rational",
                       "spaces": {"A": {"dim": 2}, "Aprime": {"dim": 2}},
                       "builder": {"kind": "reynolds", "tables": {
                           "product": NONASSOCIATIVE}},
                       "maps": {"B": [["0", "0"], ["0", "0"]]}},
    # e.e = e with rho = 2: rho(e.e) = 2 but rho(e)rho(e) = 4
    "bad-representation": {
        "field": "rational",
        "spaces": {"A": {"dim": 1}, "Aprime": {"dim": 1}},
        "builder": {"kind": "semidirect", "tables": {
            "product": [[["1"]]], "rho": [[["2"]]], "mu": [[["0"]]]}},
        "maps": {"D": [["0"]], "B": [["0"]]}},
    # e.e = e, f.f = f, rho = xi = 1, mu = eta = 0: two representations,
    # but rho(e)(f.f) = f while rho(xi(f)e)f + (rho(e)f).f = 2f
    "bad-matched-pair": {
        "field": "rational",
        "spaces": {"A": {"dim": 1}, "Aprime": {"dim": 1}},
        "builder": {"kind": "matched_pair", "tables": {
            "product": [[["1"]]], "product_prime": [[["1"]]],
            "rho": [[["1"]]], "mu": [[["0"]]], "eta": [[["0"]]],
            "xi": [[["1"]]]}},
        "maps": {"B": [["0"]]}},
    # e.e = e, rho = 1, mu = 0, omega = 1: d omega (e,e,e) = 1
    "bad-cocycle": {
        "field": "rational",
        "spaces": {"A": {"dim": 1}, "Aprime": {"dim": 1}},
        "builder": {"kind": "abelian_extension", "tables": {
            "product": [[["1"]]], "rho": [[["1"]]], "mu": [[["0"]]],
            "omega": [[["1"]]]}},
        "maps": {"B": [["0"]]}},
    # the non-associative product above, in a modified direct sum
    "bad-modified-algebra": {
        "field": "rational",
        "spaces": {"A": {"dim": 2}, "Aprime": {"dim": 2}},
        "builder": {"kind": "modified_direct_sum", "weight": "3/2",
                    "tables": {"product": NONASSOCIATIVE}},
        "maps": {"D": [["0", "0"], ["0", "0"]]}},
    # e.e = e acting by zero on A' = K^2, whose product is not associative
    "bad-module-algebra": {
        "field": "rational",
        "spaces": {"A": {"dim": 1}, "Aprime": {"dim": 2}},
        "builder": {"kind": "semidirect_assoc", "tables": {
            "product": [[["1"]]], "product_prime": NONASSOCIATIVE,
            "rho": [[["0", "0"], ["0", "0"]]],
            "mu": [[["0", "0"]], [["0", "0"]]]}},
        "maps": {"D": [["0"], ["0"]]}},
    # e.e = e times the same non-associative A' = K^2
    "bad-second-algebra": {
        "field": "rational",
        "spaces": {"A": {"dim": 1}, "Aprime": {"dim": 2}},
        "builder": {"kind": "direct_product", "tables": {
            "product": [[["1"]]], "product_prime": NONASSOCIATIVE}},
        "maps": {"D": [["0"], ["0"]]}},
    # a Reynolds document needs dim A == dim Aprime
    "reynolds-other-dims": {
        "field": "rational",
        "spaces": {"A": {"dim": 2}, "Aprime": {"dim": 1}},
        "builder": {"kind": "reynolds", "tables": {
            "product": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]]}},
        "maps": {"B": [["0"], ["0"]]}},
}
SIDES = {"D": "right", "B": "left"}

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
    "bad-map-scalar": '{"field": "rational", "spaces": {"A": {"dim": 1}, '
                      '"Aprime": {"dim": 1}}, "builder": {"kind": '
                      '"reynolds", "tables": {"product": [[["1"]]]}}, '
                      '"maps": {"B": [["x"]]}}',
    "bad-component": '{"field": "rational", "spaces": {"A": {"dim": 1}, '
                     '"Aprime": {"dim": 1}}, "components": {"pi": '
                     '[[["1"]]], "rho": [[[1]]]}}',
}


def corpus(docs):
    """The (argv, QTA_MAX_DEGREE or None) calls, documents under `docs`."""
    from qta.catalog import catalog_names, emit_example, get_entry

    calls = [(["--json", "example", "--list"], None)]
    paths = {}
    for name in catalog_names():
        paths[name] = path = str(docs / f"{name}.json")
        Path(path).write_text(emit_example(name), encoding="utf-8")
        calls.append((["--json", "example", name], None))
        calls.append((["--json", "validate", path], None))
    for golden in sorted(GOLDEN.glob("validate-*.json")):
        calls.append((["--json", "validate", str(golden)], None))
    for name in catalog_names():
        path = paths[name]
        sides = []
        for map_name, side in get_entry(name).deformation_maps:
            common = ["--map", map_name, "--side", side, path]
            for cmd in ("classify", "twist", "mc"):
                calls.append((["--json", cmd, *common], None))
            calls.append((["--json", "cohomology", "--max-degree", "3",
                           *common], None))
            sides.append(side)
        for side in sides:
            for arity in range(5):
                for seed in ("0", "1"):
                    calls.append((["--json", "jacobi", "--side", side,
                                   "--arity", str(arity), "--samples", "2",
                                   "--seed", seed, path], None))

    for name, doc in FAILURE_DOCUMENTS.items():
        path = str(docs / f"{name}.json")
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
        calls.append((["--json", "validate", path], None))
        for map_name in doc["maps"]:
            side = SIDES[map_name]
            for cmd in ("classify", "twist", "mc", "cohomology"):
                calls.append((["--json", cmd, "--map", map_name, "--side",
                               side, path], None))
        calls.append((["--json", "jacobi", "--side", "left", "--arity", "2",
                       path], None))
    base = json.loads(emit_example("semidirect-dim1"))
    base["maps"]["X"] = [["2"]]
    path = str(docs / "not-deformation.json")
    Path(path).write_text(json.dumps(base), encoding="utf-8")
    for cmd in ("classify", "twist", "mc", "cohomology"):
        calls.append((["--json", cmd, "--map", "X", "--side", "right", path],
                      None))
    for name, text in MALFORMED.items():
        path = str(docs / f"malformed-{name}.json")
        Path(path).write_text(text, encoding="utf-8")
        calls.append((["--json", "validate", path], None))
        calls.append((["validate", path], None))
    missing = str(docs / "missing.json")
    calls.append((["--json", "validate", missing], None))
    calls.append((["validate", missing], None))

    path = paths["reynolds-dual-numbers"]
    left = ["--map", "B", "--side", "left", path]
    calls += [
        (["--json", "cohomology", "--max-degree", "5", *left], None),
        (["--json", "cohomology", "--max-degree", "5", *left], "4"),
        (["--json", "cohomology", *left], "x"),
        (["--json", "jacobi", "--side", "left", "--arity", "9", path], None),
        (["--json", "jacobi", "--side", "left", "--arity", "2",
          "--samples", "0", path], None),
        (["--json", "example", "no-such"], None),
        (["--json", "example"], None),
        (["--json", "classify", "--map", "Q", "--side", "left", path], None),
        # without --json
        (["validate", path], None),
        (["classify", *left], None),
        (["twist", *left], None),
        (["mc", *left], None),
        (["cohomology", "--max-degree", "2", *left], None),
        (["jacobi", "--side", "left", "--arity", "2", "--samples", "2",
          path], None),
        (["example", "reynolds-dim1"], None),
        (["example", "--list"], None),
        # usage errors and other argument forms
        ([], None),
        (["--json"], None),
        (["-h"], None),
        (["--json", "-h"], None),
        (["no-such-command", path], None),
        (["--json", "classify", "--side", "left", path], None),
        (["--json", "classify", "--map", "B", "--side", "up", path], None),
        (["--json", "cohomology", "--max-degree", "two", *left], None),
        (["--json", "validate", path, "extra"], None),
        (["--json", "validate"], None),
        (["--js", "validate", path], None),
        (["validate", "--js", path], None),
        (["--json", "validate", "--json", path], None),
        (["--json", "--json", "validate", path], None),
        (["validate", path, "--json"], None),
        (["--json", "validate", "--", path], None),
        (["--verbose", "validate", path], None),
    ]
    calls += [([cmd, "-h"], None) for cmd in COMMANDS]
    calls += [(["--json", cmd, "-h"], None) for cmd in COMMANDS]
    # the edges of qta.cli's direct argv reader: forms it reads itself
    # (options after FILE, --json after the command) and forms it leaves
    # to argparse (--opt=value, an abbreviation, a repeat, --, a value or
    # FILE that starts with "-", such as "-", which argparse reads as FILE)
    for cmd in ("classify", "mc", "cohomology"):
        calls += [
            (["--json", cmd, "--map=B", "--side=left", path], None),
            (["--json", cmd, "--side", "left", "--side", "left", "--map",
              "B", path], None),
            (["--json", cmd, path, "--map", "B", "--side", "left"], None),
            (["--json", cmd, "--map", "B", "--side", "left", "--", path],
             None),
            ([cmd, "--json", "--map", "B", "--side", "left", path], None),
        ]
    calls += [
        (["--json", "cohomology", "--max", "3", *left], None),
        (["--json", "cohomology", "--max-degree=1", *left], None),
        (["--json", "cohomology", "--max-degree", "-1", *left], None),
        (["--json", "jacobi", "--side", "left", "--arity", "2", "--samples",
          "1", "--seed", "-3", path], None),
        (["--json", "jacobi", "--side=left", "--arity=2", "--samples=1",
          path], None),
        (["--json", "validate", "-"], None),
        (["--json", "classify", "--map", "B", "--side", "left", "-"], None),
    ]
    return calls


def outputs(docs):
    """[argv, QTA_MAX_DEGREE, exit, stdout, stderr] of every corpus call,
    run in process through the `qta.cli` already imported."""
    import qta.cli

    saved = os.environ.pop("QTA_MAX_DEGREE", None)
    results = []
    try:
        for argv, cap in corpus(Path(docs)):
            os.environ.pop("QTA_MAX_DEGREE", None)
            if cap is not None:
                os.environ["QTA_MAX_DEGREE"] = cap
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = qta.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors and -h
                    code = exc.code
            results.append([argv, cap, code, out.getvalue(), err.getvalue()])
    finally:
        os.environ.pop("QTA_MAX_DEGREE", None)
        if saved is not None:
            os.environ["QTA_MAX_DEGREE"] = saved
    return results


def run(src, docs):
    """Print the corpus results of the qta sources under `src` as JSON."""
    sys.path.insert(0, src)
    import qta.cli

    here = Path(qta.cli.__file__).resolve().parent.parent
    if here != Path(src).resolve():
        raise SystemExit(f"cli_corpus: imported qta from {here}, not {src}")
    json.dump(outputs(docs), sys.stdout)


_TIMING = re.compile(r'^(  "timing_ms": )\S+?(,?)$|^(time    : )\S+( ms)$',
                     re.MULTILINE)


def mask(text):
    """The text with the `timing_ms` value (or the text report's time)
    replaced by `<t>`."""
    return _TIMING.sub(lambda m: (m.group(1) or m.group(3)) + "<t>"
                       + (m.group(2) or m.group(4) or ""), text)


def export(rev, into):
    """`src/` of a git revision, written under `into`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.10.12 and 3.11.4 on
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(into, **safe)
    return str(Path(into) / "src")


def results_at(src, docs):
    proc = subprocess.run(
        [sys.executable, __file__, "--run", src, docs],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": ""})
    if proc.returncode != 0:
        raise SystemExit(f"cli_corpus: the run at {src} failed:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout)


def compare(a, b, names):
    """Print each call whose masked output differs; the number that do."""
    differ = 0
    for ra, rb in zip(a, b):
        fields = [("exit", str(ra[2]), str(rb[2])),
                  ("stderr", mask(ra[4]), mask(rb[4])),
                  ("stdout", mask(ra[3]), mask(rb[3]))]
        bad = [(what, x, y) for what, x, y in fields if x != y]
        if ra[:2] != rb[:2]:
            bad.insert(0, ("argv", json.dumps(ra[:2]), json.dumps(rb[:2])))
        if bad:
            differ += 1
            print(f"== {' '.join(ra[0])}")
            for what, x, y in bad:
                print("".join(difflib.unified_diff(
                    x.splitlines(True), y.splitlines(True),
                    f"{names[0]} {what}", f"{names[1]} {what}")))
    if len(a) != len(b):
        differ += abs(len(a) - len(b))
        print(f"== the corpus has {len(a)} calls at {names[0]} and "
              f"{len(b)} at {names[1]}")
    return differ


def main(argv):
    if argv[:1] == ["--run"]:
        return run(*argv[1:])
    if not 1 <= len(argv) <= 2 or argv[0].startswith("-"):
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    names = (argv[0], argv[1] if len(argv) == 2 else "src/")
    with tempfile.TemporaryDirectory(prefix="cli-corpus-") as tmp:
        docs = Path(tmp) / "docs"
        docs.mkdir()
        srcs = [export(rev, Path(tmp) / f"rev{i}")
                for i, rev in enumerate(argv)]
        if len(srcs) == 1:
            srcs.append(str(ROOT / "src"))
        a, b = (results_at(src, str(docs)) for src in srcs)
    differ = compare(a, b, names)
    codes = sorted({r[2] for r in a}, key=str)
    print(f"{len(a)} calls (exit codes {codes}): "
          f"{len(a) - differ} identical, {differ} differ "
          f"({names[0]} -> {names[1]})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
