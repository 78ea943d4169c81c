"""Command-line front end.

    qta validate FILE
    qta classify  --map NAME --side right|left FILE
    qta twist     --map NAME --side right|left FILE
    qta mc        --map NAME --side right|left FILE
    qta cohomology --map NAME --side right|left [--max-degree N] FILE
    qta jacobi    --side right|left --arity N [--samples K] [--seed S] FILE
    qta example   NAME | --list

Exit status: 0 when all checks pass / the residual is zero, 1 when a
check fails / the residual is nonzero, 2 on input errors.  `--json`
selects machine-readable output.  QTA_MAX_DEGREE caps the cohomology
degree (default 3, hard maximum 5).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import catalog as _catalog
from .cohomology import MAX_DEGREE_CAP, cohomology_dims
from .deformation import classify_operator, conjugation_twist, side_spec
from .errors import QtaError
from .io import Report, build_quasi_twilled, parse, side_map, witness_text
from .linfty import controlling_structure
from .multilinear import random_map, seeded_rng
from .quasitwilled import structure_residuals, validate


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
    cap = int(raw) if raw else 3
    return max(0, min(cap, MAX_DEGREE_CAP))


def _cmd_validate(args):
    doc, q = _load(args.file)
    residual = validate(q)
    rows = structure_residuals(q)
    ok = residual.is_zero()
    detail_rows = []
    for r in rows:
        entry = {"equation": r.name,
                 "zero": r.residual.is_zero()}
        w = r.residual.first_witness()
        if w is not None:
            entry["witness"] = witness_text(w)
        detail_rows.append(entry)
    agree = ok == all(r.residual.is_zero() for r in rows)
    details = {
        "bracket": "zero" if ok else
                   f"nonzero ({witness_text(residual.first_witness())})",
        "equations": detail_rows,
        "detectors_agree": agree,
    }
    return Report("validate", "pass" if ok else "fail",
                  0 if ok else 1, details)


def _side_pair(q, doc, args):
    m = side_map(doc, q, args.map, args.side)
    res = side_spec(args.side).residual(q, m)
    return m, res


def _cmd_classify(args):
    doc, q = _load(args.file)
    m, res = _side_pair(q, doc, args)
    name = classify_operator(q, m, args.side)
    ok = name != "not a deformation map"
    details = {"map": args.map, "side": args.side, "operator": name,
               "residual": "zero" if res.is_zero() else
                           witness_text(res.first_witness())}
    return Report("classify", "pass" if ok else "fail",
                  0 if ok else 1, details)


def _cmd_twist(args):
    doc, q = _load(args.file)
    m, res = _side_pair(q, doc, args)
    tw = side_spec(args.side).twist(q, m)
    conj_ok = tw.reassemble() == conjugation_twist(q, m, args.side)
    comps = {name: "zero" if comp.is_zero() else "nonzero"
             for name, comp in tw.components().items()}
    comps["gamma"] = "zero" if tw.gamma.is_zero() else "nonzero"
    ok = res.is_zero()
    details = {
        "map": args.map, "side": args.side,
        "components": comps,
        "conjugation_agrees": conj_ok,
        "twisted_residual": "zero" if ok else
                            witness_text(res.first_witness()),
        "quasi_twilled": tw.is_quasi_twilled(),
    }
    return Report("twist", "pass" if ok else "fail", 0 if ok else 1, details)


def _cmd_mc(args):
    doc, q = _load(args.file)
    m, res = _side_pair(q, doc, args)
    struct = controlling_structure(q, args.side)
    mc = struct.mc_residual(m)
    ok = mc.is_zero()
    details = {
        "map": args.map, "side": args.side,
        "maurer_cartan": "zero" if ok else witness_text(mc.first_witness()),
        "deformation_residual": "zero" if res.is_zero() else
                                witness_text(res.first_witness()),
        "verdicts_agree": ok == res.is_zero(),
    }
    return Report("mc", "pass" if ok else "fail", 0 if ok else 1, details)


def _cmd_cohomology(args):
    doc, q = _load(args.file)
    m, _res = _side_pair(q, doc, args)
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
    doc, q = _load(args.file)
    struct = controlling_structure(q, args.side)
    v = struct.vdata
    rng = seeded_rng(args.seed)
    pools = _JACOBI_DEGREE_POOLS.get(args.arity)
    if pools is None:
        raise QtaError("jacobi arity must be between 0 and 4")
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


def make_parser():
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
    sp.set_defaults(fn=_cmd_validate)

    sp = sub.add_parser("classify", help="name the operator a map realizes")
    add_common(sp)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("twist", help="twist the structure by a linear map")
    add_common(sp)
    sp.set_defaults(fn=_cmd_twist)

    sp = sub.add_parser("mc", help="Maurer-Cartan residual of a map")
    add_common(sp)
    sp.set_defaults(fn=_cmd_mc)

    sp = sub.add_parser("cohomology",
                        help="cohomology table of a deformation map")
    add_common(sp)
    sp.add_argument("--max-degree", type=int, default=3)
    sp.set_defaults(fn=_cmd_cohomology)

    sp = sub.add_parser("jacobi",
                        help="sample the generalized Jacobi identity")
    add_json(sp)
    sp.add_argument("--side", choices=("right", "left"), required=True)
    sp.add_argument("--arity", type=int, required=True)
    sp.add_argument("--samples", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("file", metavar="FILE")
    sp.set_defaults(fn=_cmd_jacobi)

    sp = sub.add_parser("example", help="print a built-in example document")
    add_json(sp)
    sp.add_argument("name", nargs="?", default=None)
    sp.add_argument("--list", action="store_true")
    sp.set_defaults(fn=_cmd_example)

    return p


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.fn(args)
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
