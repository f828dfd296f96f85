"""Spans for the traced run: a recorder, the layer wrappers, self times.

The traced run measures the program from outside.  :func:`install`
wraps the public entry points of each layer, patched where their
callers look them up, so the program's own files stay untouched.  Each
wrapped call records a span: name, start, end, parent span and request
id (the id of the outermost span on that thread).  Spans stay in memory
and :meth:`Recorder.dump` writes them out once, when the process ends.

Functions that run once per stored query (``LogicalExecutor.execute``,
the PRF batch calls) and every cyclic GC pass would cost a span object
each.  They are recorded as *leaves* instead: a count, a total time
and a byte count, summed into the span that was open when they ran.

A span's self time is its duration minus the part of that interval its
child spans cover, minus its leaves' time (:func:`self_times`).
"""

from __future__ import annotations

import functools
import gc
import inspect
import itertools
import json
import os
import threading
import time

# Span record fields, in file order.
FIELDS = ("id", "parent", "name", "start", "end", "req", "attrs", "leaves")


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "req", "attrs",
                 "leaves")

    def __init__(self, span_id, parent, name, req):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.req = req
        self.start = self.end = 0.0
        self.attrs = None
        self.leaves = None

    def add(self, key, amount):
        """Add ``amount`` to a numeric attribute of this span."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = self.attrs.get(key, 0) + amount


class Recorder:
    """Per-process span store with a per-thread stack of open spans."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._gc_start = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
            span = Span(span_id, parent.id, name, parent.req)
        else:
            span = Span(span_id, 0, name, span_id)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span):
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        self.spans.append(span)

    def leaf(self, name, seconds, size=0):
        """Sum a leaf call into the open span; outside any span, drop it."""
        stack = self._stack()
        if not stack:
            return
        span = stack[-1]
        if span.leaves is None:
            span.leaves = {}
        entry = span.leaves.get(name)
        if entry is None:
            span.leaves[name] = [1, seconds, size]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += size

    def reset(self):
        """Forget inherited spans (a forked child starts empty)."""
        self.spans = []
        self._local = threading.local()
        self._gc_start = None

    # -- the interpreter's cyclic GC ---------------------------------------

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if self._gc_start is None:
            return
        seconds = time.perf_counter() - self._gc_start
        self._gc_start = None
        self._local.gc_seconds = self.gc_seconds() + seconds
        self.leaf("runtime.gc", seconds)
        if info.get("generation") == 2:
            self.leaf("runtime.gc_full", 0.0)

    def gc_seconds(self):
        """GC time spent so far on this thread (a leaf subtracts it, so
        a collection inside a leaf call is not booked twice)."""
        return getattr(self._local, "gc_seconds", 0.0)

    def rows(self):
        return [[span.id, span.parent, span.name, span.start, span.end,
                 span.req, span.attrs, span.leaves]
                for span in self.spans]

    def records(self):
        """This process's spans in the form :func:`load` returns."""
        return _as_dicts(os.getpid(), self.rows())

    def dump(self, path):
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.rows()}, handle)
        os.replace(tmp, path)


def _as_dicts(pid, rows):
    return [dict(zip(FIELDS, row), pid=pid) for row in rows]


def load(path):
    """Spans of one dump as dicts, each tagged with the writer's pid."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return _as_dicts(data["pid"], data["spans"])


# -- wrapping ----------------------------------------------------------------


def _wrap_span(recorder, func, name, after):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = func(*args, **kwargs)
        except BaseException:
            span.add("errors", 1)
            recorder.end(span)
            raise
        recorder.end(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result
    return wrapper


def _wrap_leaf(recorder, func, name, size):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        collected = recorder.gc_seconds()
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            recorder.leaf(name,
                          seconds - (recorder.gc_seconds() - collected),
                          size(args) if size is not None else 0)
    return wrapper


def patch(owner, attribute, make):
    """Replace ``owner.attribute`` with ``make(original function)``.

    Keeps static methods static.  A wrapped module-level function keeps
    its module and qualified name (``functools.wraps``), so pickle still
    finds it by name when a pool ships it to a worker.
    """
    raw = inspect.getattr_static(owner, attribute)
    if isinstance(raw, staticmethod):
        setattr(owner, attribute, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, attribute, make(raw))


def install(recorder):
    """Wrap every measured layer entry point; start GC timing.

    Returns the recorder.  Processes forked afterwards (pool workers)
    inherit the wrappers; :func:`install_fork_hook` makes each of them
    record into a fresh store and dump it when the worker exits.
    """
    import urllib.request

    import repro.api.pipeline as pipeline_mod
    import repro.core.encoder as encoder_mod
    import repro.parallel as parallel_mod
    import repro.xmlmodel.serializer as serializer_mod
    from repro.api.pipeline import Pipeline
    from repro.api.system import WmXMLSystem
    from repro.core.crypto import KeyedPRF
    from repro.core.decoder import WmXMLDecoder
    from repro.core.encoder import WmXMLEncoder
    from repro.registry.registry import WatermarkRegistry
    from repro.rewriting.executor import LogicalExecutor
    from repro.semantics.shape import DocumentShape
    from repro.service.app import WmXMLService
    from repro.service.client import WmXMLClient
    from repro.tenants.directory import TenantDirectory
    from repro.xmlmodel.parser import XMLParser
    from repro.xmlmodel.tree import Document

    def span(owner, attribute, name, after=None):
        patch(owner, attribute,
              lambda func: _wrap_span(recorder, func, name, after))

    def leaf(owner, attribute, name, size=None):
        patch(owner, attribute,
              lambda func: _wrap_leaf(recorder, func, name, size))

    def parsed_bytes(span_, args, kwargs, result):
        span_.add("bytes", len(args[1].encode("utf-8")))

    def embedded(span_, args, kwargs, result):
        span_.add("queries", len(result.record.queries))

    def detected(span_, args, kwargs, result):
        span_.add("queries", len(args[2].queries))

    def appended_one(span_, args, kwargs, result):
        span_.add("rows", 1)

    def appended_many(span_, args, kwargs, result):
        span_.add("rows", len(result))

    def rows_read(span_, args, kwargs, result):
        span_.add("rows", len(result))

    def traced(span_, args, kwargs, result):
        span_.attrs = dict(span_.attrs or {}, prime=result.prime_suspect)

    def pipeline_detect(span_, args, kwargs, result):
        span_.attrs = dict(span_.attrs or {},
                           expected=kwargs.get("expected"))

    def mapped(span_, args, kwargs, result):
        # A chunk task is (fingerprint, pickled pipeline, documents, ...).
        # Its bytes are counted as the pickle plus the documents' XML
        # text, without pickling the task again; the records a detect
        # ships along are left out.
        tasks = args[2]
        span_.add("processes", args[0])
        span_.add("chunks", len(tasks))
        span_.add("docs", sum(len(task[2]) for task in tasks))
        span_.add("bytes", sum(
            len(task[1]) + sum(len(document) for document in task[2]
                               if isinstance(document, (str, bytes)))
            for task in tasks))

    # xmlmodel
    span(XMLParser, "parse", "xmlmodel.parse", parsed_bytes)
    span(Document, "copy", "xmlmodel.copy")
    span(serializer_mod, "serialize", "xmlmodel.serialize")
    span(pipeline_mod, "serialize", "xmlmodel.serialize")
    # semantics
    span(DocumentShape, "shred", "semantics.shred")
    # core
    span(encoder_mod, "build_carrier_groups", "core.group")
    span(encoder_mod, "select_groups", "core.select")
    span(WmXMLEncoder, "embed", "core.embed", embedded)
    span(WmXMLDecoder, "detect", "core.detect", detected)
    leaf(KeyedPRF, "selects_many", "core.prf_batch")
    leaf(KeyedPRF, "bit_indices", "core.prf_batch")
    # rewriting
    span(LogicalExecutor, "__init__", "rewriting.executor_build")
    leaf(LogicalExecutor, "execute", "rewriting.execute")
    # api
    span(WmXMLSystem, "pipeline", "api.pipeline_lookup")
    span(WmXMLSystem, "recipient_pipeline", "api.pipeline_lookup")
    span(Pipeline, "__init__", "api.pipeline_compile")
    for attribute in ("embed", "embed_many", "detect", "detect_many"):
        span(WmXMLSystem, attribute, "api.system")
    for attribute in ("embed", "embed_many", "detect_many"):
        span(Pipeline, attribute, "api.pipeline")
    span(Pipeline, "detect", "api.pipeline", pipeline_detect)
    span(WmXMLSystem, "trace", "api.trace", traced)
    span(TenantDirectory, "trace", "api.trace", traced)
    # parallel
    span(parallel_mod, "map_recovering", "parallel.map", mapped)
    span(pipeline_mod, "_embed_chunk", "parallel.chunk")
    span(pipeline_mod, "_detect_chunk", "parallel.chunk")
    # registry
    span(WatermarkRegistry, "record_embed", "registry.append", appended_one)
    span(WatermarkRegistry, "record_embed_many", "registry.append",
         appended_many)
    span(WatermarkRegistry, "records", "registry.read", rows_read)
    # tenants
    span(TenantDirectory, "authenticate", "tenants.auth")
    span(TenantDirectory, "charge_request", "tenants.quota")
    span(TenantDirectory, "charge_documents", "tenants.quota")
    # service: server side, then the client SDK
    _wrap_dispatch(recorder, WmXMLService)
    for attribute in ("embed", "issue", "detect", "trace"):
        span(WmXMLClient, attribute, "service.client")
    span(WmXMLClient, "_send", "service.send")
    leaf(WmXMLClient, "_decode", "service.response", lambda a: len(a[0]))
    leaf(urllib.request, "urlopen", "service.http")
    gc.callbacks.append(recorder.on_gc)
    return recorder


def _wrap_dispatch(recorder, service_class):
    """``WmXMLService.dispatch`` also records its thread's CPU time, so
    wall minus CPU gives the time the request thread waited (mostly for
    the interpreter lock)."""
    def make(func):
        @functools.wraps(func)
        def wrapper(self, method, path, body=b"", headers=None):
            span = recorder.begin("service.dispatch")
            cpu = time.thread_time()
            try:
                return func(self, method, path, body, headers)
            finally:
                span.add("cpu", time.thread_time() - cpu)
                span.add("bytes", len(body))
                recorder.end(span)
        return wrapper
    patch(service_class, "dispatch", make)


def install_fork_hook(recorder, directory):
    """Make forked pool workers record afresh and dump on exit.

    ``multiprocessing`` runs after-fork hooks in each child it starts,
    and runs its finalizers when the child's work loop returns (the pool
    shutting down), so each worker writes ``worker-<pid>.json``.
    """
    from multiprocessing import util

    def in_child(_recorder):
        _recorder.reset()
        path = os.path.join(directory, f"worker-{os.getpid()}.json")
        util.Finalize(None, _recorder.dump, args=(path,), exitpriority=10)

    util.register_after_fork(recorder, in_child)


# -- aggregation -------------------------------------------------------------


def in_window(spans, start, end):
    """Spans whose request began inside ``[start, end]``."""
    roots = {(span["pid"], span["id"]): span["start"]
             for span in spans if span["parent"] == 0}
    return [span for span in spans
            if start <= roots.get((span["pid"], span["req"]), -1.0) <= end]


def _covered(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """``{(pid, id): self seconds}`` for every span.

    Self time is the span's duration minus the part of it covered by
    its child spans (overlaps counted once) minus its leaves' time.
    """
    children = {}
    for span in spans:
        if span["parent"]:
            children.setdefault((span["pid"], span["parent"]), []).append(
                (span["start"], span["end"]))
    result = {}
    for span in spans:
        key = (span["pid"], span["id"])
        leaf_time = sum(entry[1] for entry in (span["leaves"] or {}).values())
        result[key] = (span["end"] - span["start"]
                       - _covered(children.get(key, ())) - leaf_time)
    return result
