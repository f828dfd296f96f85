"""Self-tests of the benchmark itself.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py            # arithmetic checks, seconds
    python3 perfbench/selftest.py --planted  # planted slowdown, minutes

The fast checks cover the sample floor (a p90 needs 100 samples) and
the self-time arithmetic on a synthetic span nest.  ``--planted`` runs
the real workloads with and without a delay planted in
``WatermarkRegistry.records``, on :data:`SEEDS` for the run length in
``BENCHMARK.json``: ``trace-leak`` must get worse beyond the
``latency_p50_ms`` bound, ``serve-issue`` and ``batch-pool`` must stay
within every bound, and the traced runs must name ``registry.read_ms``
as the layer that grew.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import layers  # noqa: E402
from spans import self_times  # noqa: E402
from stats import TooFewSamples, percentile, require_samples  # noqa: E402

#: Seeds of the planted-slowdown check, run on each side.  With three,
#: the median shrugs off one run that the shared host slowed, which two
#: runs cannot.
SEEDS = (1, 2, 3)


class SampleFloor(unittest.TestCase):
    def test_p90_needs_100_samples(self):
        with self.assertRaises(TooFewSamples):
            percentile([float(i) for i in range(99)], 0.9)
        self.assertEqual(percentile([float(i) for i in range(1, 101)], 0.9),
                         90.0)

    def test_p50_needs_20_samples(self):
        with self.assertRaises(TooFewSamples):
            percentile([1.0] * 19, 0.5)
        self.assertEqual(percentile([1.0] * 20, 0.5), 1.0)

    def test_run_with_a_short_kind_is_refused(self):
        with self.assertRaises(TooFewSamples):
            require_samples({"embed": 300, "detect": 99})
        require_samples({"embed": 300, "detect": 100})


def _span(pid, span_id, parent, name, start, end, req, attrs=None,
          leaves=None):
    return {"pid": pid, "id": span_id, "parent": parent, "name": name,
            "start": start, "end": end, "req": req, "attrs": attrs,
            "leaves": leaves}


class SelfTime(unittest.TestCase):
    """A synthetic request: client process 1, daemon process 2."""

    spans = [
        _span(1, 1, 0, "bench.op", 0.0, 10.0, 1),
        _span(1, 2, 1, "service.client", 1.0, 9.0, 1),
        _span(2, 1, 0, "service.dispatch", 2.0, 8.0, 1,
              attrs={"cpu": 5.0, "bytes": 100}),
        _span(2, 2, 1, "api.system", 3.0, 7.0, 1,
              leaves={"runtime.gc": [2, 0.5, 0]}),
        # Two children that overlap: their union (4..6.5) counts once.
        _span(2, 3, 2, "core.detect", 4.0, 6.0, 1,
              leaves={"core.prf_batch": [3, 1.0, 0]}),
        _span(2, 4, 2, "registry.read", 5.0, 6.5, 1, attrs={"rows": 7}),
    ]

    def test_self_time_subtracts_children_and_leaves(self):
        selfs = self_times(self.spans)
        self.assertAlmostEqual(selfs[1, 1], 2.0)    # 10 - 8
        self.assertAlmostEqual(selfs[2, 1], 2.0)    # 6 - 4
        self.assertAlmostEqual(selfs[2, 2], 1.0)    # 4 - 2.5 - 0.5
        self.assertAlmostEqual(selfs[2, 3], 1.0)    # 2 - 1
        self.assertAlmostEqual(selfs[2, 4], 1.5)

    def test_layer_metrics(self):
        values = layers.per_layer(self.spans, trace_overhead=0.1)
        self.assertEqual(set(values), set(layers.UNITS))
        self.assertAlmostEqual(values["service.dispatch_ms"], 2000.0)
        self.assertAlmostEqual(values["service.dispatch_wait_ms"], 1000.0)
        self.assertAlmostEqual(values["service.transport_ms"], 4000.0)
        self.assertAlmostEqual(values["api.self_ms"], 1000.0)
        self.assertAlmostEqual(values["core.detect_ms"], 1000.0)
        self.assertAlmostEqual(values["core.prf_batch_ms"], 1000.0)
        self.assertAlmostEqual(values["registry.read_ms"], 1500.0)
        self.assertAlmostEqual(values["registry.rows_read"], 7.0)
        self.assertAlmostEqual(values["runtime.gc_ms"], 500.0)
        self.assertAlmostEqual(values["bench.unattributed_share"], 0.2)
        self.assertAlmostEqual(values["bench.trace_overhead"], 0.1)


# -- planted slowdown ----------------------------------------------------------


def _run(workload, seed, seconds, trace=0, delay_ms=0.0):
    """One benchmark run; returns (result line, results-file path)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if delay_ms:
        command += ["--read-delay-ms", f"{delay_ms:.1f}"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    suffix = f"-delay{delay_ms:.1f}" if delay_ms else ""
    path = os.path.join(ROOT, ".perfbench", "results",
                        f"{workload}-seed{seed}-trace{trace}{suffix}.json")
    print(f"  ran {workload} seed={seed} trace={trace} "
          f"delay={delay_ms:.1f}ms correct={result['correct']}",
          flush=True)
    return result, path


def _pairs(workload, seconds, delay):
    """Result files of unplanted and planted runs, alternating per seed
    so that drift of the host hits both sides alike."""
    base, slow = [], []
    for seed in SEEDS:
        base.append(_run(workload, seed, seconds)[1])
        slow.append(_run(workload, seed, seconds, delay_ms=delay)[1])
    return base, slow


def planted():
    """The planted-slowdown check; returns True when it behaved."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        seconds = json.load(f)["run_seconds"]
    spec = compare.bounds()
    ok = True
    first, _ = _run("trace-leak", SEEDS[0], seconds)
    p50 = first["metrics"]["latency_p50_ms"]["value"]
    # Twice the bound's worth of the median trace: a regression the
    # bound must catch with room to spare against run-to-run noise.
    delay = 2 * spec["latency_p50_ms"]["bound"] * p50
    print(f"planted delay: {delay:.1f} ms per registry read "
          f"(trace-leak latency_p50_ms {p50:.1f} ms)")
    rows = compare.compare(*_pairs("trace-leak", seconds, delay))
    caught = [row for row in rows if row[1] == "latency_p50_ms"]
    if not caught or caught[0][-1]:
        print("FAIL: trace-leak latency_p50_ms stayed within its bound")
        ok = False
    for row in rows:
        print(f"  trace-leak {row[1]:24s} worse by {row[4]:+.3f} "
              f"(bound {row[5]}) {'ok' if row[-1] else 'WORSE'}")
    for workload in ("serve-issue", "batch-pool"):
        for row in compare.compare(*_pairs(workload, seconds, delay)):
            print(f"  {workload} {row[1]:24s} worse by {row[4]:+.3f} "
                  f"(bound {row[5]}) {'ok' if row[-1] else 'WORSE'}")
            ok &= row[-1]
    plain, _ = _run("trace-leak", SEEDS[0], seconds, trace=1)
    traced, _ = _run("trace-leak", SEEDS[0], seconds, trace=1,
                     delay_ms=delay)
    growth = {name: traced["metrics"][name]["value"]
              - plain["metrics"][name]["value"]
              for name in layers.SELF_TIMES}
    grown = max(growth, key=growth.get)
    print(f"traced: largest per-layer growth {grown} "
          f"(+{growth[grown]:.1f} ms per trace)")
    if grown != "registry.read_ms":
        print("FAIL: the traced run does not name registry.read_ms")
        ok = False
    print("planted slowdown:", "PASS" if ok else "FAIL")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--planted", action="store_true",
                        help="run the planted-slowdown check")
    args = parser.parse_args(argv)
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    if not unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful():
        return 1
    if not args.planted:
        return 0
    return 0 if planted() else 1


if __name__ == "__main__":
    sys.exit(main())
