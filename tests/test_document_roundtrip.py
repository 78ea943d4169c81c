"""Documents survive a round trip through their maps.

`parse` lays each builder or components table straight into the map it
fills, and `to_dict` writes the nested strings back from that map.  On
every catalog document, both golden documents and a T_2 components
document: `parse` -> `to_dict` -> `json_text` -> `parse` gives back the
same document, tables, maps and structure, and `print_document` writes
the text of the document itself (a catalog document is already in that
form) or, for a hand-written one, that text with canonical scalars and
the default basis names filled in.  Each table's map is the one the
checked constructor `MultilinearMap.from_table` makes from its entries.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from qta import (
    MultilinearMap, build_standard, catalog_names, emit_example,
    regular_representation,
)
from qta.io import (
    build_quasi_twilled, document_from_components, json_text, parse,
    print_document, to_dict,
)
from qta.quasitwilled import table_signature

from conftest import upper_triangular

GOLDEN = Path(__file__).parent / "golden"


def _t2_document():
    q = build_standard("semidirect",
                       rep=regular_representation(upper_triangular()))
    maps = {"D": [[0, 0, 0], [-1, 0, 1], [0, 0, 0]],
            "B": [[0, 0, 0], [0, 0, Fraction(1, 2)], [0, 0, 0]]}
    return print_document(document_from_components(q, maps=maps))


DOCUMENTS = {
    **{name: emit_example(name) for name in catalog_names()},
    **{path.stem: path.read_text(encoding="utf-8")
       for path in sorted(GOLDEN.glob("validate-*.json"))},
    "T2 components": _t2_document(),
}


def _tables(doc):
    if doc.builder is not None:
        return doc.builder["tables"]
    return doc.components


@pytest.mark.parametrize("name", DOCUMENTS)
def test_parse_to_dict_parse_gives_the_same_document(name):
    doc = parse(DOCUMENTS[name])
    again = parse(json_text(to_dict(doc)))
    assert again == doc
    assert _tables(again) == _tables(doc)
    assert again.maps == doc.maps
    assert (build_quasi_twilled(again).components()
            == build_quasi_twilled(doc).components())


def _fractions(node):
    if isinstance(node, list):
        return [_fractions(v) for v in node]
    return Fraction(node)


@pytest.mark.parametrize("name", DOCUMENTS)
def test_each_table_is_the_checked_map_of_its_component(name):
    # the store laid out while parsing equals the checked constructor's,
    # entry for entry and in order, and holds no zero
    text = DOCUMENTS[name]
    raw = json.loads(text)
    nodes = raw["builder"]["tables"] if "builder" in raw else raw["components"]
    tables = _tables(parse(text))
    assert sorted(tables) == sorted(nodes)
    for table, m in tables.items():
        dom, cod = table_signature(table)
        want = MultilinearMap.from_table(_fractions(nodes[table]), dom, cod,
                                         m.dims)
        assert m == want, table
        assert list(m.store.items()) == list(want.store.items())
        assert all(m.store.values())


def _canonical(node, key=None):
    """A hand-written document as `print_document` states it: every
    scalar string canonical, keys aside."""
    if isinstance(node, dict):
        return {k: _canonical(v, k) for k, v in node.items()}
    if isinstance(node, list):
        return [_canonical(v, key) for v in node]
    if isinstance(node, str) and key not in ("basis", "field", "kind"):
        value = Fraction(node)
        return str(value.numerator) if value.denominator == 1 else str(value)
    return node


@pytest.mark.parametrize("name", DOCUMENTS)
def test_print_document_writes_the_document_text(name):
    text = DOCUMENTS[name]
    printed = print_document(parse(text))
    assert print_document(parse(printed)) == printed
    if name in catalog_names() or name == "T2 components":
        assert printed == text
    want = _canonical(json.loads(text))
    for label, prefix in (("A", "e"), ("Aprime", "f")):
        space = want["spaces"][label]
        space.setdefault("basis", [f"{prefix}{i + 1}"
                                   for i in range(space["dim"])])
    assert json.loads(printed) == want
