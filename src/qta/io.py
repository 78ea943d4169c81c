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
"2/4" parses to one half).  A structure-constant table for a binary
component is nested [i][j][k]: the coefficient of the k-th codomain basis
vector in the image of the (i-th, j-th) domain pair, domains in the
component's declared slot order.  A map matrix has column j equal to the
image of the j-th domain basis vector.

Exactly one of "builder" / "components" must be present.  Missing
component tables in the "components" form default to zero.

The tables and scalars a builder kind takes, how they become
`build_standard` ingredients and whether dim A' must equal dim A are read
from the kind's row of the builder-kind table in `qta.quasitwilled`.  A
builder table has the shape of the component it fills: `product` is pi,
`product_prime` is beta, `omega` is theta, and rho, mu, eta, xi keep
their names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .deformation import side_spec
from .errors import DimensionError, ParseError, SchemaError, UnknownKind
from .multilinear import MultilinearMap, _label_size, linear_map_from_matrix
from .quasitwilled import (
    _KINDS, BUILDER_KINDS, COMPONENT_SIGNATURES, QuasiTwilledAlgebra,
    build_standard,
)

# builder tables that are components under another name; the rest
# (rho, mu, eta, xi) keep their component names
_TABLE_COMPONENTS = {"product": "pi", "product_prime": "beta",
                     "omega": "theta"}


def _signature(name):
    """(domain labels, codomain label) of a builder table or a component."""
    return COMPONENT_SIGNATURES[_TABLE_COMPONENTS.get(name, name)]


def _shape(name, dims):
    dom, cod = _signature(name)
    return tuple(_label_size(label, dims) for label in (*dom, cod))


# an error report quotes at most this many characters of an offending string
_ECHO_CAP = 40


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


def _parse_table(node, shape, path):
    """Nested fraction-string table of the given shape."""
    if len(shape) == 0:
        return parse_fraction(node, path)
    if not isinstance(node, list) or len(node) != shape[0]:
        raise SchemaError(f"{path}: expected a list of length {shape[0]}")
    return [_parse_table(sub, shape[1:], f"{path}[{i}]")
            for i, sub in enumerate(node)]


def _format_table(table):
    if isinstance(table, list):
        return [_format_table(t) for t in table]
    return format_fraction(table)


@dataclass
class InputDocument:
    """Validated document contents with all scalars canonicalized."""

    dim_a: int
    dim_aprime: int
    basis_a: list
    basis_aprime: list
    builder: dict | None = None      # {"kind", "tables", scalars}
    components: dict | None = None   # name -> nested Fraction table
    maps: dict = field(default_factory=dict)  # name -> row-major Fractions

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
        prefix = "e" if name == "A" else "f"
        if "basis" in s:
            basis = s["basis"]
        else:
            basis = [f"{prefix}{i+1}" for i in range(dim)]
        if (not isinstance(basis, list) or len(basis) != dim
                or not all(isinstance(b, str) for b in basis)):
            raise SchemaError(f"spaces.{name}.basis: need {dim} names")
        return dim, basis

    dim_a, basis_a = space("A")
    dim_ap, basis_ap = space("Aprime")
    doc = InputDocument(dim_a, dim_ap, basis_a, basis_ap)
    dims = (dim_a, dim_ap)

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
            tables[name] = _parse_table(tables_node[name], _shape(name, dims),
                                        f"builder.tables.{name}")
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
            name: _parse_table(node, _shape(name, dims), f"components.{name}")
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
        doc.maps[name] = [
            [parse_fraction(v, f"maps.{name}[{i}][{j}]")
             for j, v in enumerate(r)] for i, r in enumerate(rows)]
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
        b["tables"] = {name: _format_table(t)
                       for name, t in sorted(doc.builder["tables"].items())}
        out["builder"] = b
    if doc.components is not None:
        out["components"] = {name: _format_table(t)
                             for name, t in sorted(doc.components.items())}
    if doc.maps:
        out["maps"] = {name: _format_table(rows)
                       for name, rows in sorted(doc.maps.items())}
    return out


InputDocument.to_dict = to_dict


def print_document(doc):
    return json.dumps(to_dict(doc), indent=2) + "\n"


def build_quasi_twilled(doc):
    """Assemble the split structure a document describes."""
    dims = (doc.dim_a, doc.dim_aprime)
    if doc.components is not None:
        comps = {name: MultilinearMap.from_table(t, *_signature(name), dims)
                 for name, t in doc.components.items()}
        return QuasiTwilledAlgebra.from_components(
            dims, basis_a=doc.basis_a, basis_aprime=doc.basis_aprime, **comps)

    kind = doc.builder["kind"]
    if kind not in BUILDER_KINDS:
        raise UnknownKind(kind)
    row = _KINDS[kind]
    if row.same_dims and doc.dim_a != doc.dim_aprime:
        raise SchemaError(f"{kind} needs dim A == dim Aprime")
    maps = {name: MultilinearMap.from_table(t, *_signature(name), dims)
            for name, t in doc.builder["tables"].items()}
    ingredients = row.from_tables(maps, doc.basis_a, doc.basis_aprime)
    for key in row.scalars:
        ingredients[key] = doc.builder[key]
    q = build_standard(kind, **ingredients)
    q.basis_a = list(doc.basis_a)
    q.basis_aprime = list(doc.basis_aprime)
    return q


def document_from_components(q, maps=None):
    """Document (components form) describing an assembled structure."""
    comps = {}
    for name, m in q.components().items():
        if m.is_zero():
            continue
        sizes = m.slot_sizes
        table = [[[m.entry((i, j), k) for k in range(m.cod_size)]
                  for j in range(sizes[1])] for i in range(sizes[0])]
        comps[name] = table
    doc = InputDocument(q.dim_a, q.dim_aprime, q.basis_a, q.basis_aprime,
                        components=comps)
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

@dataclass
class Report:
    """Outcome of one command, in machine- and human-readable form."""

    command: str
    verdict: str          # "pass" or "fail"
    exit_status: int
    details: dict
    timing_ms: float = 0.0

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
        return json.dumps(self.to_dict(), indent=2) + "\n"

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
    t, k, v = witness[-3], witness[-2], witness[-1]
    args = ", ".join(str(i) for i in t)
    return f"basis tuple ({args}) -> coefficient {format_fraction(v)} at output {k}"
