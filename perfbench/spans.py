"""Span tracing of the qta layers, installed from outside the library.

`install(tracer)` replaces the public functions of every
`src/qta` module (and the methods listed below) by wrappers that record a
span per call: name, start, end, parent span and op id.  A wrapper is
written into every module namespace that holds the original object, so a
name bound by `from .multilinear import insert` is traced too.
`uninstall` puts every original back; the untraced run then calls the
library's own function objects.

Spans stay in memory (flat arrays) and are written out when the run ends.
Counters (entries touched, nonzeros, multiplications) are taken at the
same boundaries.  The time spent taking a counter is recorded as a
`trace.count` span beside the counted span, so it is subtracted from the
caller's self time and charged to no layer.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("kernel", "multilinear", "linalg", "algebras", "quasitwilled",
          "deformation", "linfty", "closed_formulas", "cohomology", "io",
          "cli", "catalog")

# O(1) accessors and predicates: wrapping them would multiply the span
# count without marking a layer boundary.
_ACCESSORS = frozenset({
    "value", "entry", "signature", "is_zero", "first_witness",
    "f_signature", "in_f", "check_arg", "row", "column",
})

# Methods and private functions that carry layer metrics.
_EXTRA = {
    "multilinear": ("MultilinearMap.__add__", "MultilinearMap.__sub__",
                    "MultilinearMap.__neg__", "MultilinearMap.__rmul__"),
    "linfty": ("VData.__init__",),
    "cli": ("_cmd_validate", "_cmd_classify", "_cmd_twist", "_cmd_mc",
            "_cmd_cohomology", "_cmd_jacobi", "_cmd_example"),
}

CLI_COMMANDS = ("validate", "classify", "twist", "mc", "cohomology",
                "jacobi", "example")

COUNT_SPAN = "trace.count"


def _nnz(values):
    return sum(1 for v in values if v)


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts = defaultdict(int)
        self.twist_keys = set()

    def intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        sid = len(self.t0)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.t1.append(0.0)
        self.stack.append(sid)
        self.t0.append(perf_counter())
        return sid

    def close(self, sid):
        self.t1[sid] = perf_counter()
        self.stack.pop()

    def count_span(self, start):
        """Record counting work done since `start` as a child of the open span."""
        sid = len(self.t0)
        self.name_id.append(self.intern(COUNT_SPAN))
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.t0.append(start)
        self.t1.append(perf_counter())
        return sid

    def ancestors(self, sid):
        p = self.parent[sid]
        while p >= 0:
            yield self.names[self.name_id[p]]
            p = self.parent[p]

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time of direct children."""
        n = len(self.t0)
        child = array("d", bytes(8 * n))
        t0, t1, parent = self.t0, self.t1, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += t1[i] - t0[i]
        return array("d", (t1[i] - t0[i] - child[i] for i in range(n)))

    def write(self, path):
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,parent,op,start_s,end_s\n")
            names, nid = self.names, self.name_id
            base = self.t0[0] if len(self.t0) else 0.0
            for i in range(len(self.t0)):
                fh.write(f"{i},{names[nid[i]]},{self.parent[i]},{self.op[i]},"
                         f"{self.t0[i] - base:.9f},{self.t1[i] - base:.9f}\n")


# -- wrapping -------------------------------------------------------------------

def _span_wrapper(tracer, name, fn, hook=None):
    nid = tracer.intern(name)
    open_, close = tracer.open, tracer.close

    def wrapper(*args, **kwargs):
        sid = open_(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            close(sid)
        if hook is not None:
            start = perf_counter()
            hook(tracer, sid, args, out)
            tracer.count_span(start)
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.perfbench_span = name
    return wrapper


def _count_maps_wrapper(tracer, fn):
    """MultilinearMap.__init__: count the tables built, open no span."""
    counts = tracer.counts

    def wrapper(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        start = perf_counter()
        counts["multilinear.maps.entries"] += len(self.coeffs)
        counts["multilinear.maps.nnz"] += _nnz(self.coeffs)
        tracer.count_span(start)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.perfbench_span = None
    return wrapper


def _hook_insert(tracer, sid, args, out):
    tracer.counts["kernel.insert.entries_out"] += len(out)
    tracer.counts["kernel.insert.nnz_out"] += _nnz(out)


def _hook_axpy(tracer, sid, args, out):
    source = args[2]
    tracer.counts["kernel.axpy.entries"] += len(source)
    tracer.counts["kernel.axpy.nnz"] += _nnz(source)


def _hook_lift(tracer, sid, args, out):
    tracer.counts["multilinear.lift.entries_out"] += len(out.coeffs)
    tracer.counts["multilinear.lift.nnz_out"] += _nnz(out.coeffs)


def _hook_matmul(tracer, sid, args, out):
    left, right = args[0], args[1]
    tracer.counts["linalg.matmul.mults"] += left.nrows * left.ncols * right.ncols


def _hook_row_reduce(tracer, sid, args, out):
    m = args[0]
    tracer.counts["linalg.row_reduce.entries"] += m.nrows * m.ncols


def _hook_matrix(tracer, sid, args, out):
    tracer.counts["cohomology.matrix.entries"] += len(out.entries)
    tracer.counts["cohomology.matrix.nnz"] += _nnz(out.entries)


def _hook_twist(tracer, sid, args, out):
    if any(a.startswith("cohomology.") for a in tracer.ancestors(sid)):
        q, m = args[0], args[1]
        tracer.counts["cohomology.twist_calls"] += 1
        tracer.twist_keys.add((id(q), out.side, m))


_HOOKS = {
    "kernel.insert": _hook_insert,
    "kernel.axpy": _hook_axpy,
    "multilinear.lift": _hook_lift,
    "linalg.ExactMatrix.matmul": _hook_matmul,
    "linalg.row_reduce": _hook_row_reduce,
    "cohomology.coboundary_matrix": _hook_matrix,
    "deformation.twist_right": _hook_twist,
    "deformation.twist_left": _hook_twist,
}


def _targets(layer, module):
    """(owner, attribute, span name) of everything traced in one module."""
    if layer == "kernel":
        return [(module, n, f"kernel.{n}") for n in ("insert", "axpy")]
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append((module, name, f"{layer}.{name}"))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if attr.startswith("_") or attr in _ACCESSORS:
                    continue
                if inspect.isfunction(member) or isinstance(member, classmethod):
                    out.append((obj, attr, f"{layer}.{name}.{attr}"))
    for dotted in _EXTRA.get(layer, ()):
        owner = module
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        out.append((owner, attr, f"{layer}.{dotted}"))
    return out


def qta_namespaces():
    """The qta package and every loaded module of it."""
    return [m for name, m in sys.modules.items()
            if name == "qta" or name.startswith("qta.")]


def install(tracer):
    """Wrap the traced callables of every layer of the loaded qta package.

    Class attributes are replaced in place; a module-level function is
    replaced in every qta namespace that holds a reference to it.  Returns
    the (owner, attribute, original) patches for `uninstall`.
    """
    patches = []
    by_id = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        module = importlib.import_module(f"qta.{layer}")
        for owner, attr, span in _targets(layer, module):
            hook = _HOOKS.get(span)
            if inspect.isclass(owner):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        _span_wrapper(tracer, span, raw.__func__, hook))
                else:
                    wrapped = _span_wrapper(tracer, span, raw, hook)
                patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            else:
                raw = getattr(owner, attr)
                by_id[id(raw)] = (raw, _span_wrapper(tracer, span, raw, hook))
    mm = importlib.import_module("qta.multilinear").MultilinearMap
    raw_init = mm.__dict__["__init__"]
    patches.append((mm, "__init__", raw_init))
    mm.__init__ = _count_maps_wrapper(tracer, raw_init)
    for namespace in qta_namespaces():
        for attr, obj in list(vars(namespace).items()):
            hit = by_id.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.append((namespace, attr, obj))
                setattr(namespace, attr, hit[1])
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


def find_wrappers():
    """Names in the qta modules and their classes still bound to a wrapper."""
    modules = qta_namespaces()
    classes = [obj for m in modules for obj in vars(m).values()
               if inspect.isclass(obj) and obj.__module__.startswith("qta.")]
    found = []
    for ns in modules + classes:
        for attr, obj in vars(ns).items():
            func = obj.__func__ if isinstance(obj, classmethod) else obj
            if hasattr(func, "perfbench_span"):
                found.append(f"{getattr(ns, '__name__', ns)}.{attr}")
    return found


# -- per-layer metrics --------------------------------------------------------

def _group_spans():
    g = {
        "kernel.insert": ["kernel.insert"],
        "kernel.axpy": ["kernel.axpy"],
        "multilinear.arith": [
            "multilinear.MultilinearMap.__add__",
            "multilinear.MultilinearMap.__sub__",
            "multilinear.MultilinearMap.__neg__",
            "multilinear.MultilinearMap.__rmul__",
            "multilinear.MultilinearMap.scale", "multilinear.msum"],
        "linalg.matmul": ["linalg.ExactMatrix.matmul"],
        "linalg.row_reduce": ["linalg.row_reduce"],
        "cohomology.matrix": ["cohomology.coboundary_matrix"],
        "cohomology.apply": ["cohomology.coboundary_apply",
                             "cohomology.coboundary_apply_degree0"],
        "cohomology.apply_expanded": ["cohomology.coboundary_apply_expanded"],
        "linfty.vdata": ["linfty.VData.__init__"],
        "linfty.bracket": ["linfty.CurvedLInftyStructure.bracket"],
        "linfty.mc_residual": ["linfty.CurvedLInftyStructure.mc_residual",
                               "linfty.mc_residual"],
        "linfty.jacobi_residual": [
            "linfty.CurvedLInftyStructure.jacobi_residual",
            "linfty.jacobi_residual"],
        "closed_formulas.check": ["closed_formulas.explicit_formula_check"],
        "algebras.checks": [
            "algebras.check_associative", "algebras.check_representation",
            "algebras.check_associative_representation",
            "algebras.check_matched_pair",
            "algebras.AssociativeAlgebra.is_associative"],
        "deformation.residual": ["deformation.right_residual",
                                 "deformation.left_residual",
                                 "deformation.graph_residual"],
        "deformation.twist": ["deformation.twist_right",
                              "deformation.twist_left"],
        "deformation.conjugation_twist": ["deformation.conjugation_twist"],
        "deformation.classify": ["deformation.classify_operator"],
        "io.parse": ["io.parse"],
        "io.build": ["io.build_quasi_twilled"],
    }
    for f in ("lift", "project", "gerstenhaber", "circle", "insert"):
        g[f"multilinear.{f}"] = [f"multilinear.{f}"]
    for f in ("validate", "structure_residuals", "build_standard"):
        g[f"quasitwilled.{f}"] = [f"quasitwilled.{f}"]
    for c in CLI_COMMANDS:
        g[f"cli.{c}"] = [f"cli._cmd_{c}"]
    return g


GROUPS = _group_spans()

# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    [(f"{g}.calls", "count/pass") for g in (
        "kernel.insert", "kernel.axpy", "multilinear.lift",
        "multilinear.project", "multilinear.gerstenhaber", "multilinear.circle",
        "multilinear.insert", "multilinear.arith", "linalg.matmul",
        "linalg.row_reduce", "cohomology.matrix", "cohomology.apply",
        "cohomology.apply_expanded", "linfty.vdata", "linfty.bracket",
        "closed_formulas.check", "quasitwilled.validate",
        "quasitwilled.structure_residuals", "quasitwilled.build_standard",
        "deformation.residual", "deformation.twist",
        "deformation.conjugation_twist", "deformation.classify")]
    + [(f"cli.{c}.calls", "count/pass") for c in CLI_COMMANDS]
    + [(f"{g}.self_s", "s/pass") for g in GROUPS]
    + [("cohomology.dd_check.self_s", "s/pass"),
       ("cohomology.rank.self_s", "s/pass")]
    + [(f"{layer}.self_s", "s/pass") for layer in LAYERS]
    + [("kernel.insert.entries_out", "count/pass"),
       ("kernel.insert.nnz_out_ratio", "1"),
       ("kernel.axpy.entries", "count/pass"),
       ("kernel.axpy.nnz_ratio", "1"),
       ("multilinear.lift.entries_out", "count/pass"),
       ("multilinear.lift.nnz_ratio", "1"),
       ("multilinear.maps.entries", "count/pass"),
       ("multilinear.maps.nnz_ratio", "1"),
       ("linalg.matmul.mults", "count/pass"),
       ("linalg.row_reduce.entries", "count/pass"),
       ("cohomology.matrix.density", "1"),
       ("cohomology.twist_reuse_ratio", "1"),
       ("linfty.vdata.per_op", "1/op"),
       ("trace.overhead_ratio", "1")]
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes, ops, overhead_ratio):
    """Every PER_LAYER metric, normalised per pass of the op list."""
    selfs = tracer.self_times()
    names, nid, parent = tracer.names, tracer.name_id, tracer.parent
    calls = defaultdict(int)
    self_by_name = defaultdict(float)
    dd = rank = 0.0
    for i in range(len(selfs)):
        name = names[nid[i]]
        calls[name] += 1
        self_by_name[name] += selfs[i]
        p = parent[i]
        if p >= 0 and names[nid[p]] == "cohomology.cohomology_dims":
            if name == "linalg.ExactMatrix.matmul":
                dd += selfs[i]
            elif name == "linalg.row_reduce":
                rank += selfs[i]
    c = tracer.counts
    values = {}
    for group, spans in GROUPS.items():
        values[f"{group}.calls"] = sum(calls[s] for s in spans) / passes
        values[f"{group}.self_s"] = sum(self_by_name[s] for s in spans) / passes
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            t for s, t in self_by_name.items()
            if s.split(".", 1)[0] == layer) / passes
    values.update({
        "cohomology.dd_check.self_s": dd / passes,
        "cohomology.rank.self_s": rank / passes,
        "kernel.insert.entries_out": c["kernel.insert.entries_out"] / passes,
        "kernel.insert.nnz_out_ratio": _ratio(c["kernel.insert.nnz_out"],
                                              c["kernel.insert.entries_out"]),
        "kernel.axpy.entries": c["kernel.axpy.entries"] / passes,
        "kernel.axpy.nnz_ratio": _ratio(c["kernel.axpy.nnz"],
                                        c["kernel.axpy.entries"]),
        "multilinear.lift.entries_out":
            c["multilinear.lift.entries_out"] / passes,
        "multilinear.lift.nnz_ratio": _ratio(c["multilinear.lift.nnz_out"],
                                             c["multilinear.lift.entries_out"]),
        "multilinear.maps.entries": c["multilinear.maps.entries"] / passes,
        "multilinear.maps.nnz_ratio": _ratio(c["multilinear.maps.nnz"],
                                             c["multilinear.maps.entries"]),
        "linalg.matmul.mults": c["linalg.matmul.mults"] / passes,
        "linalg.row_reduce.entries": c["linalg.row_reduce.entries"] / passes,
        "cohomology.matrix.density": _ratio(c["cohomology.matrix.nnz"],
                                            c["cohomology.matrix.entries"]),
        "cohomology.twist_reuse_ratio": _ratio(len(tracer.twist_keys),
                                               c["cohomology.twist_calls"]),
        "linfty.vdata.per_op": _ratio(calls["linfty.VData.__init__"], ops),
        "trace.overhead_ratio": overhead_ratio,
    })
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}
