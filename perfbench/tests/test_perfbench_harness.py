"""Tests of the benchmark harness itself: self time, output checks, tracing."""

import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import qta  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
import wl_cli  # noqa: E402
from harness import Op  # noqa: E402


def add_span(tracer, name, t0, t1, parent=-1):
    tracer.name_id.append(tracer.intern(name))
    tracer.parent.append(parent)
    tracer.op.append(0)
    tracer.t0.append(t0)
    tracer.t1.append(t1)
    return len(tracer.t0) - 1


def test_self_time_of_nested_spans():
    t = spans.Tracer()
    root = add_span(t, "cohomology.cohomology_dims", 0.0, 10.0)
    a = add_span(t, "cohomology.coboundary_matrix", 1.0, 4.0, root)
    add_span(t, "kernel.insert", 2.0, 3.0, a)
    add_span(t, "linalg.ExactMatrix.matmul", 5.0, 7.0, root)
    add_span(t, spans.COUNT_SPAN, 7.0, 7.5, root)
    assert list(t.self_times()) == [4.5, 2.0, 1.0, 2.0, 0.5]

    m = spans.layer_metrics(t, passes=2, ops=1, overhead_ratio=0.25)
    assert m["cohomology.matrix.self_s"]["value"] == 1.0
    assert m["kernel.insert.calls"]["value"] == 0.5
    assert m["cohomology.dd_check.self_s"]["value"] == 1.0
    assert m["cohomology.self_s"]["value"] == (4.5 + 2.0) / 2
    assert m["trace.overhead_ratio"]["value"] == 0.25
    assert set(m) == {name for name, _ in spans.PER_LAYER}


def test_wrong_expected_output_counts_as_failure():
    ops = [Op("two", lambda: 2, lambda out: None, lambda out: out),
           Op("boom", lambda: 1 / 0, lambda out: None, lambda out: out)]
    window = harness.run_passes(ops, 0)
    assert window.passes == 1
    assert harness.check_window(ops, window, {"two": 2})[0] == 1
    failed, messages = harness.check_window(ops, window, {"two": 3})
    assert failed == 2
    assert "stored expected output" in messages[0]
    assert "ZeroDivisionError" in messages[1]


def test_latencies_are_put_at_reference_speed():
    ref = harness.REFERENCE_S
    probe = harness.SpeedProbe()
    probe.at.extend([0.0, 1.0, 5.0])
    probe.took.extend([ref, 2 * ref, 4 * ref])
    power = harness.SENSITIVITY
    # probes at 0 s and 1 s lie within a second of [0.2, 0.4]
    assert probe.scale(0.2, 0.4) == pytest.approx(1.5 ** -power)
    # only the probe at 5 s lies within a second of [4.5, 4.6]
    assert probe.scale(4.5, 4.6) == pytest.approx(4 ** -power)
    # a 4 s op at [0.5, 4.5] reaches 4 s to either side: all three probes
    assert probe.scale(0.5, 4.5) == pytest.approx(2 ** -power)
    window = harness.Window(array("d", [0.3, 0.2]), array("d", [0.2, 4.5]),
                            [None, None], 1, 1.0)
    assert window.scaled_latencies(probe) == pytest.approx(
        [0.3 * 1.5 ** -power, 0.2 * 4 ** -power])


def test_expected_nonzero_exits_count_as_success(tmp_path, monkeypatch):
    monkeypatch.setattr(wl_cli, "OUT_DIR", tmp_path)
    ops = [op for op in wl_cli.build(qta, 0)
           if op.label.endswith(("perturbed", "not-deformation", "malformed"))]
    exits = sorted(op.run()[0] for op in ops)
    assert exits == [1, 1, 1, 2]
    window = harness.run_passes(ops, 0)
    expected = harness.load_expected(wl_cli.NAME, 0, ops)
    assert harness.check_window(ops, window, expected) == (0, [])
    # the same outputs fail when exit 0 is demanded
    wants_zero = [Op(op.label, op.run,
                     wl_cli._report_check(0, lambda d, v: None), op.record)
                  for op in ops]
    assert harness.check_window(wants_zero, window, {})[0] == len(ops)


def _bindings():
    namespaces = spans.qta_namespaces()
    classes = [obj for ns in namespaces for obj in vars(ns).values()
               if isinstance(obj, type) and obj.__module__.startswith("qta.")]
    return {(id(owner), attr): value
            for owner in namespaces + classes
            for attr, value in vars(owner).items()}


def test_uninstall_restores_the_original_functions():
    import qta.cli  # noqa: F401  (traced layer)
    before = _bindings()
    original_apply = qta.cohomology.coboundary_apply
    original_insert = qta.cohomology.insert
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        assert qta.cohomology.coboundary_apply is not original_apply
        assert qta.cohomology.insert is not original_insert
        assert qta.insert is qta.multilinear.insert is qta.cohomology.insert
        assert spans.find_wrappers()
        q = qta.build_standard(
            "reynolds", algebra=qta.AssociativeAlgebra.from_table([[[1]]], 1))
        b = qta.linear_map_from_matrix([[-1]], qta.APRIME, qta.A, q.dims)
        assert qta.cohomology_dims(q, b, "left", 1) == [1, 0]
    finally:
        spans.uninstall(installed)
    names = {tracer.names[i] for i in tracer.name_id}
    assert {"cohomology.cohomology_dims", "kernel.insert",
            "multilinear.MultilinearMap.__add__", spans.COUNT_SPAN} <= names
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert qta.cohomology.coboundary_apply is original_apply
    assert qta.cohomology.insert is original_insert
    assert spans.find_wrappers() == []
