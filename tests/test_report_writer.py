"""`qta.io.json_text`, the writer of `--json` reports and documents, is
`json.dumps(value, indent=2)` byte for byte, and raises what json raises."""

import gc
import importlib.util
import json
import math
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qta.io
from qta.io import json_text

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _outcome(write, value):
    try:
        return "text", write(value)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)


def _json(value):
    return json.dumps(value, indent=2)


def _corpus():
    spec = importlib.util.spec_from_file_location(
        "cli_corpus", TOOLS / "cli_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_corpus_report_is_written_as_json_writes_it(
        tmp_path, monkeypatch):
    written = []

    def compared(value, _write=json_text):
        text = _write(value)
        written.append((text, _json(value)))
        return text

    monkeypatch.setattr(qta.io, "json_text", compared)
    results = _corpus().outputs(tmp_path)
    assert len(results) > 200 and len(written) > 200
    assert all(ours == theirs for ours, theirs in written)
    # what the CLI prints is that text and a newline
    printed = [r[3] for r in results if r[3].startswith("{")]
    assert len(printed) > 200
    for out in printed:
        assert out == _json(json.loads(out)) + "\n"


SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=10 ** 30, max_value=10 ** 60)
           | st.floats()
           | st.sampled_from([1e16, 1e-7, -0.0, 0.1, math.nan, math.inf,
                              -math.inf, 1.7976931348623157e308])
           | st.text()
           | st.sampled_from(['"', "\\", "\x00\x1f\x7f", " é€😀",
                              "tab\there", "line\nbreak", "</script>"]))
REPORTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=30)


@settings(max_examples=120, deadline=None)
@given(REPORTS)
def test_report_shaped_values_are_written_as_json_writes_them(value):
    assert _outcome(json_text, value) == _outcome(_json, value)


def _circular():
    loop = []
    loop.append({"again": loop})
    return loop


class Level(IntEnum):
    LOW = 1


@pytest.mark.parametrize("value", [
    Fraction(1, 2), {"x": [Fraction(1, 2)]}, {1: "int key"},
    {2.5: "float key", None: 0, True: 1}, {(1, 2): "tuple key"},
    ("a", ("b",)), {"set": {1}}, Level.LOW, {"big": 10 ** 5000},
    [10 ** 5000, Fraction(1)], OrderedDict(a=1), b"bytes",
    [[[[[]]]]] * 2, _circular(), {"deep": json.loads("[" * 200 + "]" * 200)},
], ids=lambda v: type(v).__name__)
def test_values_the_writer_leaves_to_json_give_its_text_or_error(value):
    ours, theirs = _outcome(json_text, value), _outcome(_json, value)
    assert ours == theirs


def test_the_writer_leaves_no_garbage_cycles():
    report = qta.io.Report("validate", "pass", 0, {
        "equations": [{"equation": f"row {i}", "zero": True}
                      for i in range(16)], "detectors_agree": True},
        timing_ms=1.25)
    gc.collect()
    gc.disable()
    try:
        report.to_json()
        assert gc.collect() == 0
    finally:
        gc.enable()
