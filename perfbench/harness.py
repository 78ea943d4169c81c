"""Closed-loop measurement of a workload's op list, with output checks.

One client, one process, no extra threads: each op is issued only after
the previous one returns.  A run repeats whole passes over the workload's
fixed op list until the requested seconds have elapsed, keeping every
op's latency and output.  Outputs are checked only after the timed window
has closed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED_DIR = BENCH_DIR / "expected"

DEFAULT_SEED = 0
TAIL_DISTINCT_OPS = 10


@dataclass
class Op:
    """One timed call and how to judge what it returned.

    `check` holds for every seed and returns a message on failure.
    `record` gives the JSON form compared with the expected outputs stored
    for the default and the held-out seed.  `seed_free` marks ops whose
    output is the same for every seed; they are compared with the stored
    default-seed output whatever the seed.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], object]
    record: Callable[[object], object]
    seed_free: bool = False


class Raised:
    """Stands in for the output of an op that raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


# -- the library under test ----------------------------------------------------

def import_qta():
    """Import qta afresh from this checkout's sources."""
    if not (SRC / "qta" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qta sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "qta" or n.startswith("qta.")]:
        del sys.modules[name]
    qta = importlib.import_module("qta")
    if Path(qta.__file__).resolve().parent != SRC / "qta":
        raise SystemExit(f"perfbench: imported qta from {qta.__file__}, "
                         f"not from {SRC}")
    return qta


def timed_setups(build, seed, repeats, probe):
    """Import qta and build the op list `repeats` times; keep the last.

    Returns the set-up times at reference speed and as measured.
    """
    intervals = []
    for _ in range(repeats):
        probe.probe()
        start = perf_counter()
        api = import_qta()
        ops = build(api, seed)
        intervals.append((start, perf_counter()))
    probe.probe()
    raw = [end - start for start, end in intervals]
    scaled = [(end - start) * probe.scale(start, end)
              for start, end in intervals]
    return api, ops, scaled, raw


# -- machine speed ------------------------------------------------------------

# Reported times are those of a machine on which `reference_loop` takes
# REFERENCE_S.  That is about its time under CPython 3.11 on the 2-vCPU
# Intel Xeon VM the benchmark was tuned on, when that VM is least loaded.
REFERENCE_S = 0.005
# qta's ops slow down less than the reference loop when the machine is
# contended: regressing log op time on log loop time over single ops of
# all three workloads gave slopes of 0.6-0.8, so the speed ratio is taken
# to this power.
SENSITIVITY = 0.7
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 1.0
_REFERENCE_VALUES = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(100)]


def reference_loop():
    """Seconds for a fixed Fraction multiply-add loop that does not use qta."""
    head = _REFERENCE_VALUES[:20]
    start = perf_counter()
    acc = Fraction(0)
    for a in _REFERENCE_VALUES:
        for b in head:
            acc += a * b
    return perf_counter() - start


class SpeedProbe:
    """Reference-loop timings taken between ops, to state times at one speed.

    On a shared machine the same Python code runs up to 1.8 times slower at
    some times than at others.  The reference loop slows down with it, so
    a latency scaled by (REFERENCE_S over the median reference time measured
    around the op) ** SENSITIVITY is the latency at the reference speed.
    "Around" is
    PROBE_WINDOW_S before and after, or the op's own duration if longer:
    no probe runs during an op, so the speed during a long op is judged
    from an equally long stretch on either side.
    """

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._last = -math.inf

    def probe(self):
        self.at.append(perf_counter())
        self.took.append(reference_loop())
        self._last = perf_counter()

    def maybe_probe(self):
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def scale(self, start, end):
        """Factor that puts an interval measured at [start, end] at reference speed."""
        reach = max(PROBE_WINDOW_S, end - start)
        lo = bisect_left(self.at, start - reach)
        hi = bisect_right(self.at, end + reach)
        return (REFERENCE_S / statistics.median(self.took[lo:hi])) ** SENSITIVITY


# -- measuring -------------------------------------------------------------------

@dataclass
class Window:
    latencies: array      # seconds per executed op, in execution order
    starts: array         # perf_counter() at the start of each executed op
    outputs: list         # output (or Raised) per executed op
    passes: int
    wall_s: float

    def scaled_latencies(self, probe):
        return [d * probe.scale(t, t + d)
                for t, d in zip(self.starts, self.latencies)]


def run_passes(ops, seconds, tracer=None, probe=None):
    """Whole passes over `ops` until `seconds` have elapsed (at least one).

    With a `probe`, the reference loop runs between ops (outside their
    latencies) every PROBE_EVERY_S, and once more at the end.
    """
    latencies = array("d")
    starts = array("d")
    outputs = []
    passes = 0
    start = perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(latencies)
            if probe is not None:
                probe.maybe_probe()
            t = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failing op is counted, not fatal
                out = Raised(exc)
            latencies.append(perf_counter() - t)
            starts.append(t)
            outputs.append(out)
        passes += 1
        if perf_counter() - start >= seconds:
            break
    wall = perf_counter() - start
    if probe is not None:
        probe.probe()
    return Window(latencies, starts, outputs, passes, wall)


def nearest_rank(sorted_values, percentile):
    idx = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[idx - 1]


def tail_percentile(ops_per_pass):
    """Highest whole percentile with at least ten distinct ops beyond it.

    Repeats of one op on one input are not independent samples, so the
    percentile is fixed by the length of the op list, not by how many
    passes a run managed; that keeps it the same across commits.
    """
    p = math.floor(100 * (1 - TAIL_DISTINCT_OPS / ops_per_pass))
    if p <= 50:
        raise ValueError(f"{ops_per_pass} ops per pass is too few for a tail")
    return p


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- checking ---------------------------------------------------------------------

def load_expected(workload, seed, ops):
    """Stored expected outputs that apply to `seed`, by op label."""
    path = EXPECTED_DIR / f"{workload}.json"
    stored = json.loads(path.read_text(encoding="utf-8"))["seeds"]
    if str(seed) in stored:
        return stored[str(seed)]
    default = stored[str(DEFAULT_SEED)]
    return {op.label: default[op.label] for op in ops
            if op.seed_free and op.label in default}


def canonical(value):
    """JSON round trip, so tuples and lists compare alike."""
    return json.loads(json.dumps(value))


def failure(op, out, expected):
    """Why one output is wrong, or None."""
    if isinstance(out, Raised):
        return f"raised {out.text}"
    try:
        msg = op.check(out)
        if msg:
            return msg
        if op.label in expected and canonical(op.record(out)) != expected[op.label]:
            return "differs from the stored expected output"
    except Exception as exc:  # a broken check is a failed op, not a crash
        return f"check raised {type(exc).__name__}: {exc}"
    return None


def check_window(ops, window, expected):
    """(failed count, first few messages) over every executed op."""
    n = len(ops)
    failed = 0
    messages = []
    for j, out in enumerate(window.outputs):
        op = ops[j % n]
        msg = failure(op, out, expected)
        if msg:
            failed += 1
            if len(messages) < 5:
                messages.append(f"{op.label}: {msg}")
    return failed, messages


# -- run records -------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the library sources, so an unlabelled checkout is known."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qta").glob("*.py*")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(api, seed):
    return {
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "kernel_backend": api.KERNEL_BACKEND,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]
