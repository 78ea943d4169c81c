"""Command-line front end.

    qta validate FILE
    qta classify  --map NAME --side right|left FILE
    qta twist     --map NAME --side right|left FILE
    qta mc        --map NAME --side right|left FILE
    qta cohomology --map NAME --side right|left [--max-degree N] FILE
    qta jacobi    --side right|left --arity N [--samples K] [--seed S] FILE
    qta example   NAME | --list

Exit status: 0 when all checks pass / the residual is zero, 1 when a
check fails / the residual is nonzero, 2 on input errors, and 2 with
InvalidQTA from `twist`, `mc`, `cohomology` and `jacobi` on a structure
that is not quasi-twilled.  `--json` selects machine-readable output.
QTA_MAX_DEGREE caps the cohomology degree (default 3, hard maximum 5).

Each command's options are declared once, in `COMMANDS`.  `make_parser`
builds the argparse parser from that table, and `parse_args` reads a
well-formed call straight off it (an optional `--json`, the command,
exact `--opt VALUE` pairs and flags given at most once, values that do
not start with `-` and pass their type and choices, every required
option and one FILE or NAME), giving the `Namespace` argparse would give.
Every other call (`-h`, `--opt=value`, an abbreviation, a repeat, `--`,
a bad or missing value) goes to argparse, so every usage message and
exit is argparse's own.  A document is read as bytes and decoded as text
mode would decode it, then parsed and built once (`qta.io`).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import catalog as _catalog
from .cohomology import MAX_DEGREE_CAP, cohomology_dims
from .deformation import conjugation_twist, operator_name, side_spec
from .errors import QtaError
from .io import Report, build_quasi_twilled, parse, side_map, witness_text
from .linfty import controlling_structure
from .multilinear import random_map, seeded_rng
from .quasitwilled import (
    EQUATIONS, equation_rows, require_quasi_twilled, validate,
)


def _load(path):
    try:
        # unbuffered bytes, decoded as text mode reads them: UTF-8 with
        # universal newlines
        with open(path, "rb", buffering=0) as fh:
            data = fh.read()
    except OSError as exc:
        raise QtaError(f"cannot read {path}: {exc}") from exc
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    doc = parse(text)
    return doc, build_quasi_twilled(doc)


def _degree_cap():
    raw = os.environ.get("QTA_MAX_DEGREE", "").strip()
    try:
        cap = int(raw) if raw else 3
    except ValueError:
        raise QtaError(
            f"QTA_MAX_DEGREE must be an integer, got {raw!r}") from None
    return max(0, min(cap, MAX_DEGREE_CAP))


def _cmd_validate(args):
    doc, q = _load(args.file)
    # a structure that has passed (any builder document) has a zero
    # half-bracket and sixteen zero rows; otherwise the verdict, its
    # witness and the rows read one half-bracket
    if q.verified:
        half = None
        rows = [{"equation": name, "zero": True} for name, _, _ in EQUATIONS]
    else:
        half = validate(q)
        rows = []
        for r in equation_rows(half):
            rows.append({"equation": r.name, "zero": r.residual.is_zero()})
            if not r.residual.is_zero():
                rows[-1]["witness"] = witness_text(r.residual.first_witness())
    ok = half is None or half.is_zero()
    details = {
        "bracket": "zero" if ok else f"nonzero ({_residual_text(half)})",
        "equations": rows,
        "detectors_agree": ok == all(row["zero"] for row in rows),
    }
    return Report("validate", "pass" if ok else "fail",
                  0 if ok else 1, details)


def _residual_text(res):
    """"zero", or the first witness of a nonzero residual."""
    return "zero" if res.is_zero() else witness_text(res.first_witness())


def _cmd_classify(args):
    doc, q = _load(args.file)
    m = side_map(doc, q, args.map, args.side)
    res = side_spec(args.side).residual(q, m)
    name = operator_name(q, args.side, res)
    ok = name != "not a deformation map"
    details = {"map": args.map, "side": args.side, "operator": name,
               "residual": _residual_text(res)}
    return Report("classify", "pass" if ok else "fail",
                  0 if ok else 1, details)


def _cmd_twist(args):
    doc, q = _load(args.file)
    m = side_map(doc, q, args.map, args.side)
    require_quasi_twilled(q)
    spec = side_spec(args.side)
    tw = spec.twist(q, m)
    res = getattr(tw, spec.residual_part)
    conj_ok = tw.reassemble() == conjugation_twist(q, m, args.side)
    comps = {name: "zero" if comp.is_zero() else "nonzero"
             for name, comp in tw.components().items()}
    comps["gamma"] = "zero" if tw.gamma.is_zero() else "nonzero"
    ok = res.is_zero()
    details = {
        "map": args.map, "side": args.side,
        "components": comps,
        "conjugation_agrees": conj_ok,
        "twisted_residual": _residual_text(res),
        "quasi_twilled": tw.is_quasi_twilled(),
    }
    return Report("twist", "pass" if ok else "fail", 0 if ok else 1, details)


def _cmd_mc(args):
    doc, q = _load(args.file)
    m = side_map(doc, q, args.map, args.side)
    # the Maurer-Cartan residual is the side's residual block of one twist
    # (InvalidQTA first, from the V-data), so both fields read it
    mc = controlling_structure(q, args.side).mc_residual(m)
    ok = mc.is_zero()
    text = _residual_text(mc)
    details = {
        "map": args.map, "side": args.side,
        "maurer_cartan": text,
        "deformation_residual": text,
        "verdicts_agree": True,
    }
    return Report("mc", "pass" if ok else "fail", 0 if ok else 1, details)


def _cmd_cohomology(args):
    doc, q = _load(args.file)
    m = side_map(doc, q, args.map, args.side)
    cap = _degree_cap()
    max_n = min(args.max_degree, cap)
    dims = cohomology_dims(q, m, args.side, max_n)
    details = {
        "map": args.map, "side": args.side,
        "max_degree": max_n,
        "capped": max_n != args.max_degree,
        "table": [{"n": n, "dim": d} for n, d in enumerate(dims)],
        "d_squared_zero": True,
    }
    return Report("cohomology", "pass", 0, details)


_JACOBI_DEGREE_POOLS = {
    0: [()],
    1: [(0,), (1,), (2,)],
    2: [(0, 0), (1, 0), (1, 1), (2, 1)],
    3: [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)],
    4: [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)],
}


def _cmd_jacobi(args):
    pools = _JACOBI_DEGREE_POOLS.get(args.arity)
    if pools is None:
        raise QtaError("jacobi arity must be between 0 and 4")
    if args.samples < 1:
        raise QtaError("jacobi --samples must be at least 1")
    doc, q = _load(args.file)
    struct = controlling_structure(q, args.side)
    v = struct.vdata
    rng = seeded_rng(args.seed)
    rows = []
    ok = True
    for s in range(args.samples):
        degrees = pools[rng.randrange(len(pools))]
        cochains = [random_map(rng, v.f_signature(d + 1)[0],
                               v.f_signature(d + 1)[1], q.dims)
                    for d in degrees]
        res = struct.jacobi_residual(args.arity, cochains)
        zero = res.is_zero()
        ok = ok and zero
        rows.append({"sample": s, "degrees": list(degrees), "zero": zero})
    details = {"side": args.side, "arity": args.arity,
               "samples": args.samples, "seed": args.seed, "results": rows}
    return Report("jacobi", "pass" if ok else "fail", 0 if ok else 1, details)


def _cmd_example(args):
    if args.list:
        names = _catalog.catalog_names()
        details = {"examples": names}
        rep = Report("example", "pass", 0, details)
        rep.details["note"] = "use `qta example NAME` to print a document"
        return rep
    if not args.name:
        raise QtaError("example needs a NAME or --list")
    text = _catalog.emit_example(args.name)
    rep = Report("example", "pass", 0, {"name": args.name})
    rep.raw_output = text
    return rep


# Each command's help and its arguments in `add_argument` order, each an
# (option string or positional name, `add_argument` keywords) pair: the one
# table that `make_parser` builds the subparsers from and `_read_call`
# reads a well-formed call off.
_JSON = ("--json", {"action": "store_true",
                    # accepted after the command too; SUPPRESS keeps the
                    # top-level value when the flag is absent here
                    "default": argparse.SUPPRESS,
                    "help": "machine-readable output only"})
_MAP = ("--map", {"required": True,
                  "help": "name of a linear map from the document"})
_SIDE = ("--side", {"choices": ("right", "left"), "required": True})
_FILE = ("file", {"metavar": "FILE"})

COMMANDS = {
    "validate": ("check the structure equations", (_JSON, _FILE)),
    "classify": ("name the operator a map realizes",
                 (_JSON, _MAP, _SIDE, _FILE)),
    "twist": ("twist the structure by a linear map",
              (_JSON, _MAP, _SIDE, _FILE)),
    "mc": ("Maurer-Cartan residual of a map", (_JSON, _MAP, _SIDE, _FILE)),
    "cohomology": ("cohomology table of a deformation map",
                   (_JSON, _MAP, _SIDE, _FILE,
                    ("--max-degree", {"type": int, "default": 3}))),
    "jacobi": ("sample the generalized Jacobi identity",
               (_JSON, _SIDE, ("--arity", {"type": int, "required": True}),
                ("--samples", {"type": int, "default": 10}),
                ("--seed", {"type": int, "default": 0}), _FILE)),
    "example": ("print a built-in example document",
                (_JSON, ("name", {"nargs": "?", "default": None}),
                 ("--list", {"action": "store_true"}))),
}


@functools.cache
def make_parser():
    """The argument parser, built once per process from `COMMANDS` and
    shared by every `main` call; callers must not change it."""
    p = argparse.ArgumentParser(
        prog="qta",
        description="exact-arithmetic calculator for split associative "
                    "structures, deformation maps and their cohomology")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output only")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (text, arguments) in COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        for name, keywords in arguments:
            sp.add_argument(name, **keywords)
    return p


def _reader(arguments):
    """(options by option string, each (dest, `type`, `choices`) with
    `type` None for a flag; the required dests; the defaults; the
    positional's dest, with its default if it may be left out) of one
    command's arguments."""
    options, required, defaults, positional = {}, set(), {}, None
    for name, keywords in arguments:
        if not name.startswith("-"):
            positional = name
            if keywords.get("nargs") == "?":
                defaults[name] = keywords.get("default")
            continue
        dest = name[2:].replace("-", "_")
        flag = keywords.get("action") == "store_true"
        options[name] = (dest, None if flag else keywords.get("type", str),
                         keywords.get("choices"))
        if keywords.get("required"):
            required.add(dest)
        elif keywords.get("default") is not argparse.SUPPRESS:
            defaults[dest] = keywords.get("default", False if flag else None)
    return options, required, defaults, positional


_READERS = {command: _reader(arguments)
            for command, (_, arguments) in COMMANDS.items()}


def _read_call(argv):
    """The `Namespace` argparse gives a well-formed call, read straight off
    `COMMANDS`; None for any other call.

    A call is well-formed when it is an optional `--json`, a command name,
    then exact `--opt VALUE` pairs and flags of that command, each at most
    once, whose values do not start with `-` and pass their `type` and
    `choices`, every required option, and exactly one positional argument
    (or none, for `example`, whose NAME may be left out).
    """
    lead = 1 if argv[:1] == ["--json"] else 0
    reader = _READERS.get(argv[lead]) if len(argv) > lead else None
    if reader is None:
        return None
    options, required, defaults, positional = reader
    values = {"json": bool(lead), "command": argv[lead], **defaults}
    given, operands = set(), []
    tokens = iter(argv[lead + 1:])
    for token in tokens:
        if token[:1] != "-":
            operands.append(token)
            continue
        option = options.get(token)
        if option is None or token in given:
            return None
        given.add(token)
        dest, kind, choices = option
        if kind is None:
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value is declined as "-"
        if value[:1] == "-":
            return None
        if kind is not str:
            try:
                value = kind(value)
            except (TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if len(operands) == 1:
        values[positional] = operands[0]
    elif operands or positional not in values:
        return None
    if not required.issubset(values):
        return None
    return argparse.Namespace(**values)


def parse_args(argv=None):
    """`make_parser().parse_args(argv)`, reading a well-formed call
    (`_read_call`) without argparse.

    Every other call (no or an unknown command, `-h`, `--opt=value`, an
    abbreviation, a repeated option, `--`, a bad or missing value, a value
    that starts with `-`) goes to the parser, so every usage message and
    exit is argparse's own.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_call(argv)
    return make_parser().parse_args(argv) if args is None else args


def main(argv=None):
    args = parse_args(argv)
    # looked up on each call rather than bound into the cached parser, so
    # a `_cmd_*` function replaced at run time (by a tracer) is the one run
    command = globals()[f"_cmd_{args.command}"]
    start = time.perf_counter()
    try:
        report = command(args)
    except (QtaError, ValueError) as exc:
        # ValueError covers bad fraction strings surfaced by the parser
        msg = f"{type(exc).__name__}: {exc}"
        if args.json:
            report = Report(args.command, "error", 2, {"error": msg})
            report.timing_ms = (time.perf_counter() - start) * 1000.0
            sys.stdout.write(report.to_json())
        else:
            sys.stderr.write(msg + "\n")
        return 2
    report.timing_ms = (time.perf_counter() - start) * 1000.0
    raw = getattr(report, "raw_output", None)
    if raw is not None:
        sys.stdout.write(raw)  # document text is already JSON
    elif args.json:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
