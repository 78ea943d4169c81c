"""Document format and reports for the command-line front end.

An input document is a single JSON object:

    {
      "field": "rational",
      "spaces": {"A":      {"dim": 2, "basis": ["1", "t"]},
                 "Aprime": {"dim": 2, "basis": ["1'", "t'"]}},
      "builder": {"kind": ...,              # one of BUILDER_KINDS
                  "tables": {"product": ..., "rho": ..., "mu": ...},
                  "weight": "4"},          # the kind's scalars, if any
      "components": {"pi": ..., "theta": ...},   # alternative to builder
      "maps": {"D": [["0", "0"], ["0", "1"]]}
    }

Scalars are exact fraction strings "p" or "p/q" (normalized on load, so
"2/4" parses to one half; each distinct string of a document is read
once).  A structure-constant table for a binary component is nested
[i][j][k]: the coefficient of the k-th codomain basis vector in the
image of the (i-th, j-th) domain pair, domains in the component's
declared slot order.  A map matrix has column j equal to the image of
the j-th domain basis vector.

`parse` checks each builder or components table entry by entry in one
walk, which also lays its nonzeros out in the flat store of `qta.kernel`
(row-major over [i][j][k]).  The document holds each such table as its
`MultilinearMap`, whose signature is the table's component's, and
`build_quasi_twilled` takes those maps as they are; `to_dict` writes the
nested strings back from them.  A map matrix is kept as nested rows,
because whether it is read as A -> A' or A' -> A depends on the side it
is asked for (`side_map`).

Exactly one of "builder" / "components" must be present.  Missing
component tables in the "components" form default to zero.  A dim may
be at most `MAX_DIM`; a larger one is refused before any default basis
name is made.

The tables and scalars a builder kind takes, the components its tables
fill and whether dim A' must equal dim A are read from the kind's row of
the builder-kind table in `qta.quasitwilled`.  A builder table has the
shape of the component it is named for (`table_signature`): `product` is
pi, `product_prime` is beta, `omega` is theta, and rho, mu, eta, xi keep
their names.  `parse` checks all of it, whether dim A' = dim A last,
and is one of the two checked doors of the one build of a stock
structure (`quasitwilled._build_adopted`); the keyword objects of
`build_standard` are the other.  `build_quasi_twilled` checks nothing
that `parse` checked: the build fills a builder document's tables into
the components of its kind, adopts the structure, an absent component
the empty store, and validates it once, with no ingredient objects in
between.  The structure keeps the document's basis names, and the
kind's scalars as `q.ingredients`.  A components document is adopted
the same way and is validated by the command that reads it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import prod

from .deformation import side_spec
from .errors import DimensionError, ParseError, SchemaError
from .multilinear import _adopt, _label_size, linear_map_from_matrix
from .quasitwilled import (
    _KINDS, BUILDER_KINDS, COMPONENT_SIGNATURES, _adopt_structure,
    _build_adopted, table_shape,
)


# an error report quotes at most this many characters of an offending string
_ECHO_CAP = 40

# the largest dim a document may declare, checked before any default
# basis name is made; far above what can be computed (`validate` alone
# takes about 17 s on random data of dims (16, 16))
MAX_DIM = 64


def parse_fraction(text, path):
    """Strict fraction-string parser, canonicalizing via Fraction.

    Takes "p" or "p/q" in ASCII digits, with optional signs and spaces;
    the "_" separators and non-ASCII digits that int() would accept are
    refused.
    """
    if isinstance(text, bool) or not isinstance(text, str):
        raise SchemaError(f"{path}: rationals must be strings, got "
                          f"{type(text).__name__}")
    s = text.strip()
    try:
        if not text.isascii() or "_" in text:
            raise ValueError("expected ASCII digits without '_'")
        if "/" in s:
            num, den = s.split("/", 1)
            value = Fraction(int(num.strip()), int(den.strip()))
        else:
            value = Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        shown, reason = repr(text), str(exc)
        if len(text) > _ECHO_CAP:
            # a long string is quoted in part, and so is int()'s echo of it
            shown = f"{text[:_ECHO_CAP]!r}... ({len(text)} characters)"
            if len(reason) > _ECHO_CAP:
                reason = reason[:_ECHO_CAP] + "..."
        raise ValueError(f"{path}: bad fraction string {shown}: {reason}") from exc
    return value


def format_fraction(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _parse_table(node, shape, path, seen, out):
    """Append the scalars of a nested fraction-string table of the given
    shape to `out`, row-major: the flat layout of `qta.kernel`.

    `seen` maps each string already read in this document to its
    Fraction, so a repeated string is parsed once.  An error names the
    offending entry, as in `path[1][0]`; that text is written only on
    failure, each level adding its index on the way out.
    """
    if not isinstance(node, list) or len(node) != shape[0]:
        raise SchemaError(f"{path}: expected a list of length {shape[0]}")
    try:
        if len(shape) == 1:
            for i, v in enumerate(node):
                value = seen.get(v) if type(v) is str else None
                if value is None:
                    # a value that is not a string raises here
                    value = seen[v] = parse_fraction(v, "")
                out.append(value)
        else:
            rest = shape[1:]
            for i, sub in enumerate(node):
                _parse_table(sub, rest, "", seen, out)
    except (SchemaError, ValueError) as exc:
        raise type(exc)(f"{path}[{i}]{exc}") from exc.__cause__


def _parse_map(node, name, dims, path, seen):
    """A builder or components table, checked entry by entry, as the map
    of its signature (`table_shape`)."""
    shape = table_shape(name, dims)
    slot_sizes, cod_size = shape[3:]
    flat = []
    _parse_table(node, (*slot_sizes, cod_size), path, seen, flat)
    return _adopt(*shape, {i: v for i, v in enumerate(flat) if v})


def _table_strings(m):
    """The nested fraction-string table [i1]...[k] of a map."""
    nodes = ["0"] * (prod(m.slot_sizes) * m.cod_size)
    for i, v in m.store.items():
        nodes[i] = format_fraction(v)
    sizes = (*m.slot_sizes, m.cod_size)
    for depth in range(len(sizes) - 1, 0, -1):
        size = sizes[depth]
        nodes = [nodes[j * size:(j + 1) * size]
                 for j in range(prod(sizes[:depth]))]
    return nodes


class InputDocument:
    """Validated document contents with all scalars canonicalized."""

    def __init__(self, dim_a, dim_aprime, basis_a, basis_aprime,
                 builder=None, components=None, maps=None):
        self.dim_a = dim_a
        self.dim_aprime = dim_aprime
        self.basis_a = basis_a
        self.basis_aprime = basis_aprime
        # {"kind", "tables": name -> MultilinearMap, the kind's scalars}
        self.builder = builder
        self.components = components    # name -> MultilinearMap
        self.maps = {} if maps is None else maps  # name -> rows of Fractions

    def __repr__(self):
        return f"InputDocument({self.to_dict()!r})"

    def __eq__(self, other):
        if not isinstance(other, InputDocument):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def parse(text):
    """Parse and validate a document; diagnostics name the offending path."""
    try:
        raw = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal over int()'s digit limit
        raise ParseError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("cannot parse: JSON arrays or objects nested "
                         "too deeply") from exc
    if not isinstance(raw, dict):
        raise SchemaError("top level must be a JSON object")
    allowed = {"field", "spaces", "builder", "components", "maps"}
    extra = set(raw) - allowed
    if extra:
        raise SchemaError(f"unknown top-level keys: {sorted(extra)}")
    if raw.get("field") != "rational":
        raise SchemaError('field tag must be "rational"')
    spaces = raw.get("spaces")
    if not isinstance(spaces, dict) or set(spaces) != {"A", "Aprime"}:
        raise SchemaError('spaces must declare exactly "A" and "Aprime"')

    def space(name):
        s = spaces[name]
        if not isinstance(s, dict) or set(s) - {"dim", "basis"}:
            raise SchemaError(f"spaces.{name}: expected dim and optional basis")
        dim = s.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise SchemaError(f"spaces.{name}.dim: expected a count")
        basis = s.get("basis")
        if "basis" in s and (not isinstance(basis, list) or len(basis) != dim
                             or not all(isinstance(b, str) for b in basis)):
            raise SchemaError(f"spaces.{name}.basis: need {dim} names")
        if dim > MAX_DIM:
            # before any default basis name is made
            raise SchemaError(f"spaces.{name}.dim: {dim} is over the limit "
                              f"of {MAX_DIM}")
        if basis is None:
            prefix = "e" if name == "A" else "f"
            basis = [f"{prefix}{i+1}" for i in range(dim)]
        return dim, basis

    dim_a, basis_a = space("A")
    dim_ap, basis_ap = space("Aprime")
    doc = InputDocument(dim_a, dim_ap, basis_a, basis_ap)
    dims = (dim_a, dim_ap)
    seen = {}  # scalar string -> Fraction, for this document only

    has_builder = "builder" in raw
    has_components = "components" in raw
    if has_builder == has_components:
        raise SchemaError('exactly one of "builder" / "components" required')

    if has_builder:
        b = raw["builder"]
        if not isinstance(b, dict):
            raise SchemaError("builder must be an object")
        kind = b.get("kind")
        if kind not in BUILDER_KINDS:
            raise SchemaError(f"builder.kind must be one of {BUILDER_KINDS}")
        row = _KINDS[kind]
        wanted = row.tables
        allowed_keys = {"kind", "tables", *row.scalars}
        if set(b) - allowed_keys:
            raise SchemaError(
                f"builder: unknown keys {sorted(set(b) - allowed_keys)}")
        tables_node = b.get("tables")
        if not isinstance(tables_node, dict) or set(tables_node) != set(wanted):
            raise SchemaError(
                f"builder.tables for {kind} must be exactly {sorted(wanted)}")
        tables = {}
        for name in wanted:
            tables[name] = _parse_map(tables_node[name], name, dims,
                                      f"builder.tables.{name}", seen)
        builder = {"kind": kind, "tables": tables}
        for key in row.scalars:
            if key not in b:
                raise SchemaError(f"builder.{key} required for {kind}")
            builder[key] = parse_fraction(b[key], f"builder.{key}")
        doc.builder = builder
    else:
        c = raw["components"]
        if not isinstance(c, dict):
            raise SchemaError("components must be an object")
        extra = set(c) - set(COMPONENT_SIGNATURES)
        if extra:
            raise SchemaError(f"components: unknown names {sorted(extra)}")
        doc.components = {
            name: _parse_map(node, name, dims, f"components.{name}", seen)
            for name, node in c.items()}

    maps_node = raw.get("maps", {})
    if not isinstance(maps_node, dict):
        raise SchemaError("maps must be an object")
    for name, rows in maps_node.items():
        if not isinstance(rows, list) or not rows \
                or not all(isinstance(r, list) for r in rows):
            raise SchemaError(f"maps.{name}: expected a matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise SchemaError(f"maps.{name}: ragged matrix")
        shapes_ok = (len(rows), ncols) in {(dim_ap, dim_a), (dim_a, dim_ap)}
        if not shapes_ok:
            raise SchemaError(
                f"maps.{name}: shape {len(rows)}x{ncols} matches neither "
                f"A->A' ({dim_ap}x{dim_a}) nor A'->A ({dim_a}x{dim_ap})")
        flat = []
        _parse_table(rows, (len(rows), ncols), f"maps.{name}", seen, flat)
        doc.maps[name] = [flat[r * ncols:(r + 1) * ncols]
                          for r in range(len(rows))]
    if has_builder and row.same_dims and dim_a != dim_ap:
        # last: every other error of the document is reported first
        raise SchemaError(f"{kind} needs dim A == dim Aprime")
    return doc


def to_dict(doc):
    """JSON-ready dict with canonical fraction strings, stable key order."""
    out = {
        "field": "rational",
        "spaces": {
            "A": {"dim": doc.dim_a, "basis": list(doc.basis_a)},
            "Aprime": {"dim": doc.dim_aprime, "basis": list(doc.basis_aprime)},
        },
    }
    if doc.builder is not None:
        b = {key: value if key == "kind" else format_fraction(value)
             for key, value in doc.builder.items() if key != "tables"}
        b["tables"] = {name: _table_strings(m)
                       for name, m in sorted(doc.builder["tables"].items())}
        out["builder"] = b
    if doc.components is not None:
        out["components"] = {name: _table_strings(m)
                             for name, m in sorted(doc.components.items())}
    if doc.maps:
        out["maps"] = {name: [[format_fraction(v) for v in row]
                              for row in rows]
                       for name, rows in sorted(doc.maps.items())}
    return out


InputDocument.to_dict = to_dict


def print_document(doc):
    return json_text(to_dict(doc)) + "\n"


def build_quasi_twilled(doc):
    """Assemble the split structure a document from `parse` (or
    `document_from_components`) describes, from the maps its tables
    already are, checking nothing that `parse` checked: the components
    are adopted as they are (`quasitwilled._adopt_structure`), and a
    builder document's tables, scalars and basis names go to the one
    build that `build_standard` also runs, validated once
    (`quasitwilled._build_adopted`).  A components document is validated
    by the command that reads it."""
    dims = (doc.dim_a, doc.dim_aprime)
    if doc.components is not None:
        return _adopt_structure(dims, doc.components, doc.basis_a,
                                doc.basis_aprime)

    kind = doc.builder["kind"]
    return _build_adopted(
        kind, doc.builder["tables"],
        {key: doc.builder[key] for key in _KINDS[kind].scalars},
        dims, doc.basis_a, doc.basis_aprime)


def document_from_components(q, maps=None):
    """Document (components form) describing an assembled structure."""
    comps = {name: m for name, m in q.components().items()
             if not m.is_zero()}
    doc = InputDocument(q.dim_a, q.dim_aprime, list(q.basis_a),
                        list(q.basis_aprime), components=comps)
    if maps:
        doc.maps = {name: [[Fraction(v) for v in row] for row in rows]
                    for name, rows in maps.items()}
    return doc


def side_map(doc, q, name, side):
    """The named matrix as a linear map of the requested side."""
    if name not in doc.maps:
        raise SchemaError(f"no map named {name!r} in the document")
    rows = doc.maps[name]
    spec = side_spec(side)
    want = (_label_size(spec.cod, q.dims), _label_size(spec.slot, q.dims))
    shape = (len(rows), len(rows[0]) if rows else 0)
    if shape != want:
        raise DimensionError(
            f"map {name!r} has shape {shape[0]}x{shape[1]}, a {side} "
            f"map needs {want[0]}x{want[1]}")
    return linear_map_from_matrix(rows, spec.slot, spec.cod, q.dims)


# -- reports ------------------------------------------------------------------

class Report:
    """Outcome of one command, in machine- and human-readable form."""

    def __init__(self, command, verdict, exit_status, details, timing_ms=0.0):
        self.command = command
        self.verdict = verdict            # "pass" or "fail"
        self.exit_status = exit_status
        self.details = details
        self.timing_ms = timing_ms

    def __repr__(self):
        return f"Report({self.to_dict()!r})"

    def __eq__(self, other):
        if not isinstance(other, Report):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def to_dict(self):
        return {
            "command": self.command,
            "verdict": self.verdict,
            "exit_status": self.exit_status,
            "details": self.details,
            "timing_ms": self.timing_ms,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["command"], d["verdict"], d["exit_status"],
                   d["details"], d["timing_ms"])

    def to_json(self):
        return json_text(self.to_dict()) + "\n"

    def to_text(self):
        lines = [f"command : {self.command}",
                 f"verdict : {self.verdict}"]
        for key, value in self.details.items():
            lines.append(f"{key:8s}: {_render(value)}")
        lines.append(f"time    : {self.timing_ms:.1f} ms")
        return "\n".join(lines) + "\n"


def _render(value, indent=10):
    if isinstance(value, list):
        if all(not isinstance(v, (list, dict)) for v in value):
            return ", ".join(str(v) for v in value)
        pad = "\n" + " " * indent
        return pad + pad.join(_render(v, indent + 2) for v in value)
    if isinstance(value, dict):
        return "  ".join(f"{k}={_render(v, indent)}" for k, v in value.items())
    return str(value)


def witness_text(witness):
    """Human-readable first-nonzero witness of a residual map."""
    if witness is None:
        return "none"
    t, k, v = witness
    args = ", ".join(str(i) for i in t)
    return f"basis tuple ({args}) -> coefficient {format_fraction(v)} at output {k}"


# -- JSON text ------------------------------------------------------------------

_ESCAPE = json.encoder.encode_basestring_ascii
_INF = float("inf")
# indent characters past which a value goes to json (64 levels)
_DEPTH_CAP = 2 * 64


class _Unwritten(Exception):
    """A value that `json_text` leaves to `json.dumps`."""


def json_text(value):
    """`json.dumps(value, indent=2)`, byte for byte.

    Whenever `indent` is set, CPython's json runs its pure-Python encoder,
    whose nested closures leave garbage cycles.  This writer covers what
    reports and documents hold: dicts with str keys, lists, str, int,
    float, bool and None, through plain recursion.  Anything else, or a
    value nested deeper than 64 levels, goes to `json.dumps` whole, which
    gives its own text or its own error.
    """
    out = []
    try:
        _write(value, "\n", out.append)
    except _Unwritten:
        return json.dumps(value, indent=2)
    return "".join(out)


def _write(v, nl, out):
    """Append the text of `v`, whose lines are indented as `nl` ends."""
    t = type(v)
    if t is str:
        out(_ESCAPE(v))
    elif t is dict or t is list:
        if not v:
            out("{}" if t is dict else "[]")
            return
        if len(nl) > _DEPTH_CAP:
            raise _Unwritten
        inner = nl + "  "
        if t is dict:
            sep = "{" + inner
            for key, item in v.items():
                if type(key) is not str:
                    raise _Unwritten
                out(sep + _ESCAPE(key) + ": ")
                _write(item, inner, out)
                sep = "," + inner
            out(nl + "}")
        else:
            sep = "[" + inner
            for item in v:
                out(sep)
                _write(item, inner, out)
                sep = "," + inner
            out(nl + "]")
    elif v is None:
        out("null")
    elif v is True:
        out("true")
    elif v is False:
        out("false")
    elif t is int:
        out(int.__repr__(v))
    elif t is float:
        if v != v:
            out("NaN")
        elif v == _INF:
            out("Infinity")
        elif v == -_INF:
            out("-Infinity")
        else:
            out(float.__repr__(v))
    else:
        raise _Unwritten
