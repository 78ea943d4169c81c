"""What `import qta` loads, and the names it exports lazily.

The package imports its structure layers; the cohomology, linfty and
catalog modules and their exports load on first use (a module
`__getattr__`).  The import sets are taken in fresh interpreters and
diffed against the modules loaded before qta, so that whatever the
interpreter's site hooks import does not count.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qta
from qta import emit_example

import oracles

ROOT = Path(__file__).resolve().parent.parent
LAZY_MODULES = ("qta.cohomology", "qta.linfty", "qta.catalog")
# modules a dataclass or a typing.NamedTuple would pull in
HEAVY = ("dataclasses", "inspect", "ast", "dis", "typing")
# second derivations that left the package: (qta module, class or None,
# name there, its name in tests/oracles.py or None when it is gone)
MOVED = [
    ("cohomology", None, "coboundary_apply_expanded",
     "coboundary_apply_expanded"),
    ("cohomology", None, "_expanded_terms", "expanded_terms"),
    ("cohomology", None, "cochain_space", "cochain_space"),
    ("cohomology", None, "_checked_triple", None),
    ("deformation", None, "graph_residual", "graph_residual"),
    ("deformation", None, "classify_operator", "classify_operator"),
    ("multilinear", None, "circle_parts", "circle_parts"),
    ("multilinear", None, "matrix_from_linear_map", "matrix_from_linear_map"),
    ("linfty", "CurvedLInftyStructure", "suspended_bracket",
     "suspended_bracket"),
    ("linfty", "VData", "basis_cochain", "basis_cochain"),
    ("linfty", None, "derived_bracket", "derived_bracket"),
    ("cohomology", None, "_structural_terms", None),
    ("quasitwilled", None, "build_from_tables", None),
    ("deformation", None, "induced_right_structures", None),
    ("deformation", None, "induced_left_structures", None),
    ("deformation", None, "_induced_structures", None),
]


def _layers():
    """`LAYERS` of perfbench's span tracer: the modules it wraps."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def _fresh(code, *args):
    """Run `code` in a new interpreter on this checkout's sources and
    return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_every_export_is_its_module_attribute():
    for name in qta.__all__:
        value = getattr(qta, name)
        module = qta._LAZY.get(name)
        if module is not None:
            owner = importlib.import_module(f"qta.{module}")
            assert value is getattr(owner, name), name


def test_lazy_names_are_not_bound_into_the_package():
    qta.cohomology_dims, qta.controlling_structure, qta.get_entry
    lazy = {name for name, module in qta._LAZY.items() if name != module}
    assert lazy <= set(qta.__all__)
    assert not lazy & set(vars(qta))


def test_dir_covers_every_export():
    listed = dir(qta)
    assert set(qta.__all__) <= set(listed)
    assert {"cohomology", "linfty", "catalog"} <= set(listed)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        qta.no_such_name
    assert not hasattr(qta, "cohomology_dimensions")


@pytest.mark.parametrize(
    "module, owner, name, oracle", MOVED,
    ids=[".".join(filter(None, row[:3])) for row in MOVED])
def test_a_moved_oracle_is_gone_from_the_package(module, owner, name, oracle):
    assert name not in qta.__all__
    assert name not in dir(qta)
    assert not hasattr(qta, name)
    home = importlib.import_module(f"qta.{module}")
    assert not hasattr(home if owner is None else getattr(home, owner), name)
    assert oracle is None or callable(getattr(oracles, oracle))


def test_operator_name_is_exported():
    assert "operator_name" in qta.__all__
    assert qta.operator_name is qta.deformation.operator_name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from qta import *", namespace)
    assert set(qta.__all__) <= set(namespace)
    assert namespace["cohomology_dims"] is qta.cohomology.cohomology_dims


def test_a_lazy_module_resolves_in_a_fresh_interpreter():
    got = _fresh(
        "import json, sys\n"
        "import qta\n"
        "loaded = 'qta.cohomology' in sys.modules\n"
        "module = qta.cohomology\n"
        "print(json.dumps([loaded, module.__name__,\n"
        "                  qta.cohomology_dims is module.cohomology_dims]))\n")
    assert got == [False, "qta.cohomology", True]


def test_import_qta_loads_the_structure_layers_only():
    added = _fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import qta\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    assert not set(added) & {*LAZY_MODULES, *HEAVY}
    assert {"qta.quasitwilled", "qta.deformation",
            "qta.closed_formulas"} <= set(added)


def test_a_cli_call_imports_no_dataclasses_and_every_traced_layer(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(emit_example("reynolds-dual-numbers"), encoding="utf-8")
    got = _fresh(
        "import io, json, sys\n"
        "before = set(sys.modules)\n"
        "import qta.cli\n"
        "imported = set(sys.modules) - before\n"
        "sys.stdout = io.StringIO()\n"
        "status = qta.cli.main(['--json', 'validate', sys.argv[1]])\n"
        "report = json.loads(sys.stdout.getvalue())\n"
        "sys.stdout = sys.__stdout__\n"
        "print(json.dumps([status, report['verdict'], sorted(imported),\n"
        "                  sorted(set(sys.modules) - before)]))\n", doc)
    status, verdict, imported, added = got
    assert (status, verdict) == (0, "pass")
    assert {f"qta.{layer}" for layer in _layers()} <= set(imported)
    assert not set(added) & set(HEAVY)
