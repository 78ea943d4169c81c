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
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise QtaError(f"cannot read {path}: {exc}") from exc
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


@functools.cache
def make_parser():
    """The argument parser, built once per process and shared by every
    `main` call; callers must not change it."""
    p = argparse.ArgumentParser(
        prog="qta",
        description="exact-arithmetic calculator for split associative "
                    "structures, deformation maps and their cohomology")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output only")
    sub = p.add_subparsers(dest="command", required=True)

    def add_json(sp):
        # accepted after the subcommand too; SUPPRESS keeps the top-level
        # value when the flag is absent here
        sp.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="machine-readable output only")

    def add_common(sp, with_map=True):
        add_json(sp)
        if with_map:
            sp.add_argument("--map", required=True,
                            help="name of a linear map from the document")
        sp.add_argument("--side", choices=("right", "left"), required=True)
        sp.add_argument("file", metavar="FILE")

    sp = sub.add_parser("validate", help="check the structure equations")
    add_json(sp)
    sp.add_argument("file", metavar="FILE")

    sp = sub.add_parser("classify", help="name the operator a map realizes")
    add_common(sp)

    sp = sub.add_parser("twist", help="twist the structure by a linear map")
    add_common(sp)

    sp = sub.add_parser("mc", help="Maurer-Cartan residual of a map")
    add_common(sp)

    sp = sub.add_parser("cohomology",
                        help="cohomology table of a deformation map")
    add_common(sp)
    sp.add_argument("--max-degree", type=int, default=3)

    sp = sub.add_parser("jacobi",
                        help="sample the generalized Jacobi identity")
    add_json(sp)
    sp.add_argument("--side", choices=("right", "left"), required=True)
    sp.add_argument("--arity", type=int, required=True)
    sp.add_argument("--samples", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("file", metavar="FILE")

    sp = sub.add_parser("example", help="print a built-in example document")
    add_json(sp)
    sp.add_argument("name", nargs="?", default=None)
    sp.add_argument("--list", action="store_true")

    p.commands = sub.choices  # command name -> its parser, for parse_args
    return p


def parse_args(argv=None):
    """`make_parser().parse_args(argv)`, parsing a well-formed call once.

    A call that is an optional leading `--json`, a command name and that
    command's own arguments is parsed by the command's parser alone; the
    top-level parser would scan every token and then hand them to it.
    Anything else (no or an unknown command, a leading flag other than
    `--json`, a `--` token, tokens the command leaves over) goes to the
    full parser, so every usage message and exit is argparse's own.
    """
    parser = make_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    lead = 1 if argv[:1] == ["--json"] else 0
    command = parser.commands.get(argv[lead]) if len(argv) > lead else None
    if command is not None and "--" not in argv:
        args, extra = command.parse_known_args(argv[lead + 1:])
        if not extra:
            return argparse.Namespace(**{"json": bool(lead),
                                         "command": argv[lead],
                                         **vars(args)})
    return parser.parse_args(argv)


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
