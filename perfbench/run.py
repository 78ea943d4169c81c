#!/usr/bin/env python3
"""Layered benchmark of qta: one command, three workloads, every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --record-expected

With --trace 0 the run measures the end-to-end metrics with tracing off.
With --trace 1 it measures one untraced stretch, then wraps the public
functions of every qta module and reports per-layer counts and self times
per pass of the op list, plus the tracing overhead.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the line before it is the full run record
(environment, percentiles, sample counts, failures).  The record, and the
spans of a traced run, are also written under perfbench/out/.

--record-expected runs every op once, checks it, and stores its outputs
as the expected outputs for that seed (done for the default and the
held-out seed only).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys

import harness
import spans
import wl_cli
import wl_cohomology
import wl_dense

WORKLOADS = {w.NAME: w for w in (wl_cli, wl_cohomology, wl_dense)}
SETUP_REPEATS = 9


def end_to_end(ops, window, probe, setup_times, failed, rss_mb):
    """End-to-end metrics of one untraced window, at reference speed.

    Each latency is scaled by the reference loop timed around it (see
    harness.SpeedProbe).  The latency percentiles are taken over each op's
    median latency across the passes, so a burst of slow passes moves them
    less than it would move the raw samples.  The figures as measured are
    in the run record.
    """
    n = len(ops)
    raw = window.latencies
    lat = window.scaled_latencies(probe)
    attempted = len(lat)
    per_op = [statistics.median(lat[i::n]) for i in range(n)]
    typical = sorted(per_op)
    raw_typical = sorted(statistics.median(raw[i::n]) for i in range(n))
    p_tail = harness.tail_percentile(n)
    metrics = {
        "setup_s": (statistics.median(setup_times["scaled"]), "s"),
        "ops_per_s": (attempted / sum(lat), "op/s"),
        "op_p50_ms": (harness.nearest_rank(typical, 50) * 1e3, "ms"),
        "op_tail_ms": (harness.nearest_rank(typical, p_tail) * 1e3, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "1"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {
        "op_tail_percentile": p_tail,
        "op_tail_ops_beyond": n - math.ceil(p_tail / 100 * n),
        "samples": attempted,
        "passes": window.passes,
        "ops_per_pass": n,
        "fail_ratio": failed / attempted,
        "as_measured": {
            "setup_s": statistics.median(setup_times["raw"]),
            "ops_per_s": attempted / window.wall_s,
            "op_p50_ms": harness.nearest_rank(raw_typical, 50) * 1e3,
            "op_tail_ms": harness.nearest_rank(raw_typical, p_tail) * 1e3,
            "timed_wall_s": window.wall_s,
        },
        "reference_loop_ms": {
            "median": statistics.median(probe.took) * 1e3,
            "min": min(probe.took) * 1e3, "max": max(probe.took) * 1e3,
            "probes": len(probe.took)},
        "op_median_ms": {op.label: t * 1e3 for op, t in zip(ops, per_op)},
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def measure(module, ops, seed, seconds, probe, setup_times):
    stray = spans.find_wrappers()
    if stray:
        raise SystemExit(f"perfbench: untraced run would call wrappers: {stray}")
    window = harness.run_passes(ops, seconds, probe=probe)
    rss_mb = harness.peak_rss_mb()  # before the checks allocate
    expected = harness.load_expected(module.NAME, seed, ops)
    failed, messages = harness.check_window(ops, window, expected)
    metrics, detail = end_to_end(ops, window, probe, setup_times, failed,
                                 rss_mb)
    detail["failures"] = messages
    return window.passes * len(ops), failed, metrics, detail


def measure_traced(module, ops, seed, seconds, spans_path):
    plain = harness.run_passes(ops, seconds / 2)
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        traced = harness.run_passes(ops, seconds / 2, tracer)
    finally:
        spans.uninstall(installed)
    overhead = ((traced.wall_s / traced.passes)
                / (plain.wall_s / plain.passes) - 1)
    expected = harness.load_expected(module.NAME, seed, ops)
    failed = 0
    messages = []
    for window in (plain, traced):
        f, m = harness.check_window(ops, window, expected)
        failed += f
        messages += m
    metrics = spans.layer_metrics(tracer, traced.passes,
                                  traced.passes * len(ops), overhead)
    tracer.write(spans_path)
    detail = {"untraced_passes": plain.passes, "traced_passes": traced.passes,
              "spans": len(tracer.t0), "spans_file": str(spans_path),
              "failures": messages}
    attempted = (plain.passes + traced.passes) * len(ops)
    return attempted, failed, metrics, detail


def record_expected(module, seed):
    """Run each op once, check it, and store its output for `seed`."""
    api = harness.import_qta()
    ops = module.build(api, seed)
    path = harness.EXPECTED_DIR / f"{module.NAME}.json"
    stored = (json.loads(path.read_text(encoding="utf-8"))["seeds"]
              if path.is_file() else {})
    default = stored.get(str(harness.DEFAULT_SEED), {})
    records = {}
    for op in ops:
        out = op.run()
        msg = harness.failure(op, out, {})
        if not msg and op.seed_free and op.label in default:
            if harness.canonical(op.record(out)) != default[op.label]:
                msg = "seed-free output differs from the default seed's"
        if msg:
            raise SystemExit(f"perfbench: not recording, {op.label}: {msg}")
        records[op.label] = harness.canonical(op.record(out))
    bad = getattr(module, "verify_expected", lambda r: [])(records)
    if bad:
        raise SystemExit(f"perfbench: not recording, inconsistent: {bad}")
    stored[str(seed)] = records
    harness.EXPECTED_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps({"workload": module.NAME, "seeds": stored},
                               indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"stored {len(records)} expected outputs for seed {seed} in {path}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args(argv)
    module = WORKLOADS[args.workload]
    if args.record_expected:
        record_expected(module, args.seed)
        return 0

    probe = harness.SpeedProbe()
    api, ops, scaled, raw = harness.timed_setups(module.build, args.seed,
                                                 SETUP_REPEATS, probe)
    env = harness.environment(api, args.seed)
    harness.OUT_DIR.mkdir(exist_ok=True)
    stem = (f"{module.NAME}-seed{args.seed}-trace{args.trace}-"
            f"{env['kernel_backend']}")
    if args.trace:
        attempted, failed, metrics, detail = measure_traced(
            module, ops, args.seed, args.seconds,
            harness.OUT_DIR / f"spans-{stem}.csv.gz")
    else:
        attempted, failed, metrics, detail = measure(
            module, ops, args.seed, args.seconds, probe,
            {"scaled": scaled, "raw": raw})
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": module.NAME, "trace": args.trace,
              "seconds": args.seconds, "environment": env, **detail,
              "result": result}
    (harness.OUT_DIR / f"{stem}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
