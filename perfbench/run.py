"""Run one workload of the WmXML benchmark and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-issue --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload twice, untraced and then traced, for
half of ``--seconds`` each, and reports the per-layer metrics.  The
last line of standard output is the result as one JSON object; the
lines before it print every metric with its unit and sample count.  A
fuller record (host fingerprint, program version, seed, checks) goes
to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

import layers
import spans
import stats
import workloads
from launcher import plant_read_delay

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per untraced run; ``setup_s`` is their median.  The results
#: record keeps each one.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-issue", "trace-leak", "batch-pool"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--read-delay-ms", type=float, default=0.0,
                        help="plant a delay in WatermarkRegistry.records "
                        "(self-test only)")
    return parser.parse_args(argv)


def untraced(workload, ctx, seconds):
    """Set up SETUP_REPEATS times, then measure the last set-up."""
    setup_times = []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        env = workload.setup(ctx)
        setup_times.append(time.perf_counter() - start)
        if repeat < SETUP_REPEATS - 1:
            workload.close(env)
    try:
        phase = workload.run(env, seconds)
        checked, failures = workload.check(env)
    finally:
        closing = workload.close(env)
    stats.require_samples({kind: phase.count(kind)
                           for kind in workload.kinds})
    latencies = phase.latencies(workload.main_kind)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "ops_per_s": (phase.ops / phase.elapsed, "1/s", phase.ops),
        "latency_p50_ms": workloads.quantile_ms(latencies, 0.5),
        "peak_rss_mb": (phase.peak_rss_mb, "MiB", 1),
        "registry_bytes_per_doc": (
            closing["registry_bytes"] / closing["registry_docs"], "bytes",
            closing["registry_docs"]),
    }
    return (phase, checked, failures, closing, metrics,
            workload.detail(phase), setup_times)


def traced(workload, ctx, seconds):
    """An untraced half for the overhead, then the traced half."""
    env = workload.setup(ctx)
    try:
        plain = workload.run(env, seconds / 2, min_samples=0)
    finally:
        workload.close(env)
    recorder = spans.install(spans.Recorder())
    ctx.spans_dir = os.path.join(ctx.workdir, "spans")
    os.makedirs(ctx.spans_dir)
    spans.install_fork_hook(recorder, ctx.spans_dir)
    env = workload.setup(ctx)
    try:
        start = time.perf_counter()
        phase = workload.run(env, seconds / 2, recorder, min_samples=0)
        end = time.perf_counter()
        checked, failures = workload.check(env)
    finally:
        closing = workload.close(env)
    recorded = recorder.records()
    for name in sorted(os.listdir(ctx.spans_dir)):
        if name.endswith(".json"):
            recorded += spans.load(os.path.join(ctx.spans_dir, name))
    overhead = ((plain.ops / plain.elapsed) / (phase.ops / phase.elapsed)
                - 1.0)
    values = layers.per_layer(spans.in_window(recorded, start, end),
                              overhead)
    metrics = {name: (values[name], unit, phase.ops)
               for name, unit in layers.UNITS.items()}
    return phase, checked, failures, closing, metrics, {}, []


def main(argv=None):
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the daemons and pool workers
    # this run started are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("perfbench: no program at src/repro; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.read_delay_ms:
        # In-process workloads read the registry here; daemons get the
        # same plant through the launcher.
        plant_read_delay(args.read_delay_ms)
    workload = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir)
    ctx = workloads.Context(root=ROOT, workdir=workdir, seed=args.seed,
                            read_delay_ms=args.read_delay_ms)
    try:
        phase, checked, failures, closing, metrics, detail, setup_times = (
            traced if args.trace else untraced)(workload, ctx, args.seconds)
    except stats.TooFewSamples as error:
        print(f"perfbench: run refused: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not closing["clean_exit"]:
        failures.append("daemon did not exit cleanly on SIGTERM")
    attempted = phase.attempted + checked
    failed = phase.failed + len(failures)
    provenance = dict(stats.host_fingerprint(),
                      version=stats.program_version(ROOT),
                      workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      read_delay_ms=args.read_delay_ms,
                      finished=time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                             time.gmtime()))
    record = {"provenance": provenance, "correct": failed == 0,
              "ops_attempted": phase.attempted, "ops_failed": phase.failed,
              "checks": checked, "failures": failures,
              "setup_times_s": setup_times,
              "metrics": {name: {"value": value, "unit": unit,
                                 "samples": samples}
                          for name, (value, unit, samples) in metrics.items()},
              "detail": {name: {"value": value, "unit": unit,
                                "samples": samples}
                         for name, (value, unit, samples) in detail.items()}}
    results = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    suffix = f"-delay{args.read_delay_ms:.1f}" if args.read_delay_ms else ""
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}{suffix}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"node={provenance['node']} cores={provenance['cores']} "
          f"python={provenance['python']} version={provenance['version']}")
    print(f"  cpu: {provenance['cpu_model']}")
    print(f"  ops_attempted={phase.attempted} ops_failed={phase.failed} "
          f"checks={checked} check_failures={len(failures)}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit:6s} samples={samples}")
    for name, (value, unit, samples) in detail.items():
        print(f"  {name:32s} {value:14.4f} {unit:6s} samples={samples}"
              "  (detail)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
