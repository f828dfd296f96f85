"""Per-layer metrics of a traced run, from the spans of every process.

Every value is per operation (one request for the daemon workloads,
one document for ``batch-pool``) unless it is a ratio.  Times are self
times in milliseconds, summed over all processes.  A layer that did no
work on a workload reports 0, and so does a ratio without a base.
"""

from __future__ import annotations

from collections import defaultdict

from spans import self_times

#: Per-layer metric names with their units, in report order.
UNITS = {
    "xmlmodel.parse_ms": "ms", "xmlmodel.parse_bytes": "bytes",
    "xmlmodel.copy_ms": "ms", "xmlmodel.serialize_ms": "ms",
    "semantics.shred_ms": "ms", "semantics.shred_calls": "count",
    "core.group_ms": "ms", "core.select_ms": "ms", "core.embed_ms": "ms",
    "core.detect_ms": "ms", "core.prf_batch_ms": "ms",
    "core.queries": "count",
    "rewriting.executor_builds": "count",
    "rewriting.executor_build_ms": "ms", "rewriting.execute_ms": "ms",
    "api.self_ms": "ms", "api.pipeline_lookups": "count",
    "api.pipeline_compiles": "count",
    "api.pipeline_cache_hit_ratio": "ratio",
    "api.trace_records_swept": "count", "api.trace_useful_ratio": "ratio",
    "parallel.map_ms": "ms", "parallel.chunks": "count",
    "parallel.task_bytes_per_doc": "bytes",
    "parallel.worker_busy_ms": "ms", "parallel.efficiency": "ratio",
    "parallel.chunk_retries": "count", "parallel.serial_fallbacks": "count",
    "registry.appends": "count", "registry.append_ms": "ms",
    "registry.read_ms": "ms", "registry.rows_read": "count",
    "tenants.auth_ms": "ms", "tenants.quota_ms": "ms",
    "tenants.refused": "count",
    "service.dispatch_ms": "ms", "service.dispatch_wait_ms": "ms",
    "service.transport_ms": "ms", "service.request_bytes": "bytes",
    "service.response_bytes": "bytes", "service.client_retries": "count",
    "runtime.gc_ms": "ms", "runtime.gc_full_collections": "count",
    "bench.unattributed_share": "ratio", "bench.trace_overhead": "ratio",
}

#: The times that split an operation between layers without overlap:
#: every ``_ms`` metric except the waiting inside dispatch and the
#: workers' busy time, which overlap the layers' own self times.
SELF_TIMES = tuple(name for name in UNITS if name.endswith("_ms")
                   and name not in ("service.dispatch_wait_ms",
                                    "parallel.worker_busy_ms"))

API_SPANS = ("api.system", "api.pipeline", "api.trace",
             "api.pipeline_lookup", "api.pipeline_compile")


def _ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer(spans, trace_overhead):
    """``{metric: value}`` for :data:`UNITS` from in-window spans.

    Operations are the benchmark's own ``bench.op`` spans; a
    ``batch-pool`` op span carries its document count in ``docs``.
    """
    selfs = self_times(spans)
    self_s = defaultdict(float)
    wall_s = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(float)
    leaves = defaultdict(lambda: [0, 0.0, 0])
    by_key = {}
    for span in spans:
        name = span["name"]
        key = (span["pid"], span["id"])
        by_key[key] = span
        self_s[name] += selfs[key]
        wall_s[name] += span["end"] - span["start"]
        calls[name] += 1
        for attr, value in (span["attrs"] or {}).items():
            if isinstance(value, (int, float)):
                attrs[name, attr] += value
        for leaf, (count, seconds, size) in (span["leaves"] or {}).items():
            entry = leaves[leaf]
            entry[0] += count
            entry[1] += seconds
            entry[2] += size

    op_spans = [span for span in spans if span["name"] == "bench.op"]
    ops = sum((span["attrs"] or {}).get("docs", 1) for span in op_spans)
    op_wall = wall_s["bench.op"]

    def per(value):
        return value / ops if ops else 0.0

    def ms(seconds):
        return per(seconds) * 1000.0

    # Trace sweep: the per-record detects under each trace span, and
    # how many of them were the accused recipient's own records.
    swept = useful = 0
    for span in spans:
        if span["name"] != "api.pipeline" or not span["attrs"] \
                or "expected" not in span["attrs"]:
            continue
        parent = by_key.get((span["pid"], span["parent"]))
        while parent is not None and parent["name"] != "api.trace":
            parent = by_key.get((parent["pid"], parent["parent"]))
        if parent is None:
            continue
        swept += 1
        useful += span["attrs"]["expected"] == (parent["attrs"] or {}).get(
            "prime")

    map_pids = {span["pid"] for span in spans
                if span["name"] == "parallel.map"}
    chunk_spans = [span for span in spans if span["name"] == "parallel.chunk"]
    worker_busy = sum(span["end"] - span["start"] for span in chunk_spans
                      if span["pid"] not in map_pids)
    capacity = sum((span["end"] - span["start"])
                   * (span["attrs"] or {}).get("processes", 1)
                   for span in spans if span["name"] == "parallel.map")
    chunks = attrs["parallel.map", "chunks"]
    dispatch_wall = wall_s["service.dispatch"]
    lookups = calls["api.pipeline_lookup"]

    return {
        "xmlmodel.parse_ms": ms(self_s["xmlmodel.parse"]),
        "xmlmodel.parse_bytes": per(attrs["xmlmodel.parse", "bytes"]),
        "xmlmodel.copy_ms": ms(self_s["xmlmodel.copy"]),
        "xmlmodel.serialize_ms": ms(self_s["xmlmodel.serialize"]),
        "semantics.shred_ms": ms(self_s["semantics.shred"]),
        "semantics.shred_calls": per(calls["semantics.shred"]),
        "core.group_ms": ms(self_s["core.group"]),
        "core.select_ms": ms(self_s["core.select"]),
        "core.embed_ms": ms(self_s["core.embed"]),
        "core.detect_ms": ms(self_s["core.detect"]),
        "core.prf_batch_ms": ms(leaves["core.prf_batch"][1]),
        "core.queries": per(attrs["core.embed", "queries"]
                            + attrs["core.detect", "queries"]),
        "rewriting.executor_builds": per(calls["rewriting.executor_build"]),
        "rewriting.executor_build_ms": ms(self_s["rewriting.executor_build"]),
        "rewriting.execute_ms": ms(leaves["rewriting.execute"][1]),
        "api.self_ms": ms(sum(self_s[name] for name in API_SPANS)),
        "api.pipeline_lookups": per(lookups),
        "api.pipeline_compiles": per(calls["api.pipeline_compile"]),
        "api.pipeline_cache_hit_ratio":
            1.0 - _ratio(calls["api.pipeline_compile"], lookups)
            if lookups else 0.0,
        "api.trace_records_swept": per(swept),
        "api.trace_useful_ratio": _ratio(useful, swept),
        "parallel.map_ms": ms(self_s["parallel.map"]),
        "parallel.chunks": per(chunks),
        "parallel.task_bytes_per_doc": _ratio(
            attrs["parallel.map", "bytes"], attrs["parallel.map", "docs"]),
        "parallel.worker_busy_ms": ms(worker_busy),
        "parallel.efficiency": _ratio(worker_busy, capacity),
        "parallel.chunk_retries": per(max(0, len(chunk_spans) - chunks)),
        "parallel.serial_fallbacks": per(sum(
            1 for span in chunk_spans if span["pid"] in map_pids)),
        "registry.appends": per(attrs["registry.append", "rows"]),
        "registry.append_ms": ms(self_s["registry.append"]),
        "registry.read_ms": ms(self_s["registry.read"]),
        "registry.rows_read": per(attrs["registry.read", "rows"]),
        "tenants.auth_ms": ms(self_s["tenants.auth"]),
        "tenants.quota_ms": ms(self_s["tenants.quota"]),
        "tenants.refused": per(attrs["tenants.auth", "errors"]
                               + attrs["tenants.quota", "errors"]),
        "service.dispatch_ms": ms(self_s["service.dispatch"]),
        "service.dispatch_wait_ms": ms(
            dispatch_wall - attrs["service.dispatch", "cpu"]),
        "service.transport_ms": ms(op_wall - dispatch_wall)
            if calls["service.dispatch"] else 0.0,
        "service.request_bytes": per(attrs["service.dispatch", "bytes"]),
        "service.response_bytes": per(leaves["service.response"][2]),
        "service.client_retries": per(max(
            0, leaves["service.http"][0] - calls["service.send"])),
        "runtime.gc_ms": ms(leaves["runtime.gc"][1]),
        "runtime.gc_full_collections": per(leaves["runtime.gc_full"][0]),
        "bench.unattributed_share": _ratio(self_s["bench.op"], op_wall),
        "bench.trace_overhead": trace_overhead,
    }
