"""Built-in example documents.

Every entry parses, passes `validate`, and carries at least one named
linear map; `deformation_maps` lists which (map, side) pairs are honest
deformation maps (used by the test suite and handy for demos).

Each document is already canonical, in the key order and fraction
strings that `qta.io.print_document` writes, so `emit_example` prints it
as it stands.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import UnknownExample

_ONE_DIM = {"dim": 1, "basis": ["e"]}
_ONE_DIM_P = {"dim": 1, "basis": ["e'"]}
_DUAL = {"dim": 2, "basis": ["1", "t"]}
_DUAL_P = {"dim": 2, "basis": ["1'", "t'"]}

# structure constants: 1-dim algebra e.e = e; dual numbers K[t]/(t^2)
_PROD1 = [[["1"]]]
_PROD_DUAL = [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]]

# deformation_maps: a tuple of (map name, side) pairs
CatalogEntry = namedtuple(
    "CatalogEntry", ("name", "description", "document", "deformation_maps"))

_ENTRIES = [
    CatalogEntry(
        "modified-lambda4-dim1",
        "modified direct sum with weight 4 on the 1-dim algebra; "
        "D = 2*id is a modified Rota-Baxter operator of weight 4 and "
        "its inverse is a left deformation map",
        {
            "field": "rational",
            "spaces": {"A": _ONE_DIM, "Aprime": _ONE_DIM_P},
            "builder": {"kind": "modified_direct_sum", "weight": "4",
                        "tables": {"product": _PROD1}},
            "maps": {"D": [["2"]], "Dinv": [["1/2"]]},
        },
        (("D", "right"), ("Dinv", "left")),
    ),
    CatalogEntry(
        "reynolds-dim1",
        "Reynolds structure on the 1-dim algebra; B = -id is a Reynolds "
        "operator",
        {
            "field": "rational",
            "spaces": {"A": _ONE_DIM, "Aprime": _ONE_DIM_P},
            "builder": {"kind": "reynolds", "tables": {"product": _PROD1}},
            "maps": {"B": [["-1"]]},
        },
        (("B", "left"),),
    ),
    CatalogEntry(
        "euler-derivation-dual-numbers",
        "semidirect product of the dual numbers with their regular "
        "representation; D: 1 -> 0, t -> t is the Euler derivation",
        {
            "field": "rational",
            "spaces": {"A": _DUAL, "Aprime": _DUAL_P},
            "builder": {"kind": "semidirect",
                        "tables": {"mu": _PROD_DUAL, "product": _PROD_DUAL,
                                   "rho": _PROD_DUAL}},
            "maps": {"D": [["0", "0"], ["0", "1"]]},
        },
        (("D", "right"),),
    ),
    CatalogEntry(
        "semidirect-dim1",
        "semidirect product of the 1-dim algebra with its regular "
        "representation; the zero map is a derivation (right) and a "
        "relative Rota-Baxter operator of weight 0 (left)",
        {
            "field": "rational",
            "spaces": {"A": _ONE_DIM, "Aprime": _ONE_DIM_P},
            "builder": {"kind": "semidirect",
                        "tables": {"mu": _PROD1, "product": _PROD1,
                                   "rho": _PROD1}},
            "maps": {"B": [["0"]], "D": [["0"]]},
        },
        (("D", "right"), ("B", "left")),
    ),
    CatalogEntry(
        "direct-product-dim1",
        "direct product of two copies of the 1-dim algebra; the identity "
        "is an algebra homomorphism",
        {
            "field": "rational",
            "spaces": {"A": _ONE_DIM, "Aprime": _ONE_DIM_P},
            "builder": {"kind": "direct_product",
                        "tables": {"product": _PROD1,
                                   "product_prime": _PROD1}},
            "maps": {"D": [["1"]]},
        },
        (("D", "right"),),
    ),
    CatalogEntry(
        "crossed-hom-dim1",
        "semidirect product of the 1-dim algebra with its regular "
        "associative representation; D = -id is a crossed homomorphism",
        {
            "field": "rational",
            "spaces": {"A": _ONE_DIM, "Aprime": _ONE_DIM_P},
            "builder": {"kind": "semidirect_assoc",
                        "tables": {"mu": _PROD1, "product": _PROD1,
                                   "product_prime": _PROD1, "rho": _PROD1}},
            "maps": {"D": [["-1"]]},
        },
        (("D", "right"),),
    ),
    CatalogEntry(
        "matched-pair-dim1",
        "matched pair of two copies of the 1-dim algebra with regular "
        "rho/mu and zero eta/xi; B = -id is a deformation map of the pair",
        {
            "field": "rational",
            "spaces": {"A": _ONE_DIM, "Aprime": _ONE_DIM_P},
            "builder": {"kind": "matched_pair",
                        "tables": {"eta": [[["0"]]], "mu": _PROD1,
                                   "product": _PROD1,
                                   "product_prime": _PROD1, "rho": _PROD1,
                                   "xi": [[["0"]]]}},
            "maps": {"B": [["-1"]]},
        },
        (("B", "left"),),
    ),
    CatalogEntry(
        "abelian-extension-dim1",
        "cocycle extension of the 1-dim algebra by its regular "
        "representation with omega = product; B = -id is a twisted "
        "Rota-Baxter operator",
        {
            "field": "rational",
            "spaces": {"A": _ONE_DIM, "Aprime": _ONE_DIM_P},
            "builder": {"kind": "abelian_extension",
                        "tables": {"mu": _PROD1, "omega": _PROD1,
                                   "product": _PROD1, "rho": _PROD1}},
            "maps": {"B": [["-1"]]},
        },
        (("B", "left"),),
    ),
    CatalogEntry(
        "reynolds-dual-numbers",
        "Reynolds structure on the dual numbers; B = -id is a Reynolds "
        "operator",
        {
            "field": "rational",
            "spaces": {"A": _DUAL, "Aprime": _DUAL_P},
            "builder": {"kind": "reynolds", "tables": {"product": _PROD_DUAL}},
            "maps": {"B": [["-1", "0"], ["0", "-1"]]},
        },
        (("B", "left"),),
    ),
]

CATALOG = {e.name: e for e in _ENTRIES}


def catalog_names():
    return [e.name for e in _ENTRIES]


def get_entry(name):
    try:
        return CATALOG[name]
    except KeyError:
        raise UnknownExample(
            f"unknown example {name!r}; known: {', '.join(catalog_names())}"
        ) from None


def emit_example(name):
    """Canonical document text of a catalog example."""
    from .io import json_text
    return json_text(get_entry(name).document) + "\n"
