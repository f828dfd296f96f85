"""Compare two sets of benchmark results against the bounds.

Usage, from the root of a checkout::

    python3 perfbench/compare.py --base A1.json A2.json ... \\
        --new B1.json B2.json ...

Each file is a result record that ``run.py`` wrote under
``.perfbench/results/``, or a ``baseline.json`` of medians.  Records
from different hosts (node, CPU model, cores, Python) are refused: a
timing is only comparable on the host that measured it.  For every
workload and end-to-end metric, the median of each side is compared;
the new side fails when it is worse than the base by more than the
metric's bound in ``BENCHMARK.json``.  Exit code 0 when nothing failed,
1 when a metric got worse beyond its bound, 2 when the sets cannot be
compared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_KEYS = ("node", "cpu_model", "cores", "python")


class Incomparable(Exception):
    """The two sides were measured on different hosts or workloads."""


def load(paths):
    """``(host, {workload: {metric: [values]}})`` from result files."""
    hosts = set()
    values = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        host = record["provenance"] if "provenance" in record \
            else record["host"]
        hosts.add(tuple(host[key] for key in HOST_KEYS))
        if "workloads" in record:  # a baseline of medians
            for workload, metrics in record["workloads"].items():
                for metric, summary in metrics.items():
                    values.setdefault(workload, {}).setdefault(
                        metric, []).append(summary["median"])
            continue
        workload = record["provenance"]["workload"]
        for metric, entry in record["metrics"].items():
            values.setdefault(workload, {}).setdefault(metric, []).append(
                entry["value"])
    if len(hosts) > 1:
        raise Incomparable(f"results come from {len(hosts)} hosts: "
                           f"{sorted(hosts)}")
    return hosts.pop() if hosts else None, values


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def compare(base_paths, new_paths):
    """Rows of ``(workload, metric, base, new, worse_by, bound, ok)``."""
    base_host, base = load(base_paths)
    new_host, new = load(new_paths)
    if base_host != new_host:
        raise Incomparable(f"base host {base_host} != new host {new_host}")
    spec = bounds()
    rows = []
    for workload in sorted(base):
        if workload not in new:
            raise Incomparable(f"workload {workload} missing on new side")
        for metric, values in sorted(base[workload].items()):
            if metric not in spec or metric not in new[workload]:
                continue
            before = statistics.median(values)
            after = statistics.median(new[workload][metric])
            change = (after - before) / before
            worse_by = change if spec[metric]["better"] == "lower" \
                else -change
            rows.append((workload, metric, before, after, worse_by,
                         spec[metric]["bound"],
                         worse_by <= spec[metric]["bound"]))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    try:
        rows = compare(args.base, args.new)
    except Incomparable as error:
        print(f"compare: refused: {error}", file=sys.stderr)
        return 2
    for workload, metric, before, after, worse_by, bound, ok in rows:
        print(f"{workload:12s} {metric:24s} {before:12.4f} -> "
              f"{after:12.4f}  worse by {worse_by:+.3f} (bound {bound})"
              f"  {'ok' if ok else 'WORSE'}")
    return 0 if all(row[-1] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
