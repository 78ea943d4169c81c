"""The error texts of document loading, pinned byte for byte.

Every table entry's path (`components.rho[1][2][0]`) is written only when
that entry fails.  `golden/load_errors.json` holds the texts, in the CLI's
`Type: message` form, that the eager per-entry paths gave: a bad scalar in
each builder table, each component and each map, a wrong list length at
each depth of each table, and a wrong kind of node at each depth (a table
that is no list, a scalar where a row or a list is due, a list where a
scalar is due).
"""

import copy
import json
from pathlib import Path

import pytest

from qta.errors import QtaError
from qta.io import parse
from qta.multilinear import A, APRIME
from qta.quasitwilled import COMPONENT_SIGNATURES

GOLDEN = Path(__file__).parent / "golden" / "load_errors.json"
DIMS = {A: 2, APRIME: 3}
# each bad-scalar case takes the next of these
BAD_SCALARS = ["1/0", "x", 7, "1_0", "٣", "9" * 50 + "/", True, "1/",
               None, " - 1", "1.5", "", [["0"]]]
# builder tables that fill a component under another name
TABLE_SIGNATURES = {**COMPONENT_SIGNATURES,
                    "product": COMPONENT_SIGNATURES["pi"],
                    "product_prime": COMPONENT_SIGNATURES["beta"],
                    "omega": COMPONENT_SIGNATURES["theta"]}


def _zero_table(name):
    dom, cod = TABLE_SIGNATURES[name]
    table = "0"
    for label in reversed((*dom, cod)):
        table = [copy.deepcopy(table) for _ in range(DIMS[label])]
    return table


def _base_documents():
    space = {"A": {"dim": DIMS[A]}, "Aprime": {"dim": DIMS[APRIME]}}
    maps = {"D": [["0"] * DIMS[A]] * DIMS[APRIME],
            "B": [["0"] * DIMS[APRIME]] * DIMS[A]}
    components = {"field": "rational", "spaces": space, "maps": maps,
                  "components": {name: _zero_table(name)
                                 for name in COMPONENT_SIGNATURES}}
    builders = {
        kind: {"field": "rational", "spaces": space, "maps": maps,
               "builder": {"kind": kind, "tables": {
                   name: _zero_table(name) for name in tables}}}
        for kind, tables in (
            ("matched_pair", ("product", "product_prime", "rho", "mu",
                              "eta", "xi")),
            ("abelian_extension", ("product", "rho", "mu", "omega")))}
    return components, builders


def load_error_cases():
    """{case label: document text}: each document fails to load."""
    components, builders = _base_documents()
    tables = [("components", components, ("components",), name)
              for name in COMPONENT_SIGNATURES]
    tables += [(f"builder {kind}", doc, ("builder", "tables"), name)
               for kind, doc in builders.items()
               for name in doc["builder"]["tables"]]
    cases = {}
    bad = iter(BAD_SCALARS * 10)
    for where, base, keys, name in tables:
        def edit(change, base=base, keys=keys, name=name):
            """The base document with `change` applied to the table, or
            with the table replaced by `change` if that is no function."""
            doc = copy.deepcopy(base)
            node = doc
            for key in keys:
                node = node[key]
            if callable(change):
                change(node[name])
            else:
                node[name] = change
            return json.dumps(doc)

        def set_last(t, value):
            t[-1][-1][-1] = value

        def set_middle(t, value):
            t[1][0][len(t[1][0]) // 2] = value

        for at, put in (("last", set_last), ("middle", set_middle)):
            value = next(bad)
            cases[f"{where} {name}: {value!r} at the {at} entry"] = edit(
                lambda t, put=put, value=value: put(t, value))
        cases[f"{where} {name}: short at depth 0"] = edit(lambda t: t.pop())
        cases[f"{where} {name}: long at depth 1"] = edit(
            lambda t: t[-1].append(t[-1][0]))
        cases[f"{where} {name}: short at depth 2"] = edit(
            lambda t: t[1][-1].pop())
        cases[f"{where} {name}: a scalar at depth 1"] = edit(
            lambda t: t.__setitem__(0, "0"))
        cases[f"{where} {name}: a list at depth 3"] = edit(
            lambda t: t[0][1].__setitem__(0, ["0"]))
        cases[f"{where} {name}: a scalar at depth 2"] = edit(
            lambda t: t[-1].__setitem__(-1, "0"))
        cases[f"{where} {name}: an object at depth 0"] = edit({"0": "0"})
    for name in ("D", "B"):
        for i in range(2):
            value = next(bad)
            doc = copy.deepcopy(components)
            rows = doc["maps"][name] = [list(r) for r in doc["maps"][name]]
            at = (len(rows) - 1) * i, i
            rows[at[0]][at[1]] = value
            cases[f"maps {name}: {value!r} at {list(at)}"] = json.dumps(doc)
    for label, rows in (("short row", [["0", "0", "0"], ["0", "0"]]),
                        ("no rows", []), ("scalar row", ["0", "0"]),
                        ("wrong shape", [["0"] * 4] * 2),
                        ("a list entry", [["0", "0", "0"], ["0", ["0"], "0"]])):
        doc = copy.deepcopy(components)
        doc["maps"]["B"] = rows
        cases[f"maps B: {label}"] = json.dumps(doc)
    for value in ("1/0", 4):
        cases[f"builder weight {value!r}"] = json.dumps({
            "field": "rational",
            "spaces": {"A": {"dim": 1}, "Aprime": {"dim": 1}},
            "builder": {"kind": "modified_direct_sum", "weight": value,
                        "tables": {"product": [[["1"]]]}}})
    return cases


def load_error_text(text):
    """What the CLI prints for a document that fails to load."""
    try:
        parse(text)
    except (QtaError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def test_load_error_texts_are_pinned():
    cases = load_error_cases()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(cases) == sorted(golden)
    got = {label: load_error_text(text) for label, text in cases.items()}
    assert got == golden


def test_load_error_cases_cover_every_table_and_depth():
    labels = list(load_error_cases())
    for name in COMPONENT_SIGNATURES:
        assert sum(label.startswith(f"components {name}:")
                   for label in labels) == 9
    for name in ("product", "product_prime", "rho", "mu", "eta", "xi",
                 "omega"):
        assert any(label.startswith("builder ") and f" {name}: " in label
                   and "entry" in label for label in labels), name
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    # every case fails, and each bad entry's text names its full path
    assert all(text is not None for text in golden.values())
    assert golden["components pi: 'x' at the middle entry"].startswith(
        "ValueError: components.pi[1][0][1]: bad fraction string 'x'")


@pytest.mark.parametrize("label", ["components pi: short at depth 0",
                                   "builder matched_pair xi: short at depth 2",
                                   "maps D: None at [0, 0]"])
def test_load_error_is_the_cli_input_error(tmp_path, capsys, label):
    from qta.cli import main

    path = tmp_path / "doc.json"
    path.write_text(load_error_cases()[label], encoding="utf-8")
    assert main(["--json", "validate", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["details"]["error"] == json.loads(
        GOLDEN.read_text(encoding="utf-8"))[label]
