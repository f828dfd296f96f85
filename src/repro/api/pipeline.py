"""A compiled watermarking pipeline: one scheme + one key, many documents.

The facade compiles a :class:`~repro.core.scheme.WatermarkingScheme`
once into a :class:`Pipeline` and reuses it for every document of that
deployment.  Reuse is what makes the batch APIs fast: the encoder and
decoder instances live as long as the pipeline, so the precomputed-state
PRF (HMAC pad + bounded digest memo) and the per-``(algorithm, params)``
plug-in instances built by the first document are warm for every
subsequent one.

Thread-safety: a pipeline may be shared across threads.  ``embed``
copies the input document (unless ``in_place=True``), and the only
shared mutable state is a set of append-only caches (PRF digest memo,
plug-in registry) whose dict operations are atomic under CPython's GIL;
two threads at worst compute the same cache entry twice.

Detection strategies (the ``strategy`` argument):

* ``"scan"`` — per-query XPath evaluation from the document root,
  O(|Q| x |document|); the reference engine.
* ``"indexed"`` — one shred through the shape plus inverted
  value->row indexes (:class:`~repro.rewriting.executor.
  LogicalExecutor`), O(|document| + |Q|); produces the same votes and
  verdict (asserted over every attack in :mod:`repro.attacks` for every
  dataset profile by the test suite).
* ``"auto"`` — the indexed executor, always.  Historically this
  switched on a query-count heuristic; with vote-for-vote equivalence
  proven for the bibliography, jobs and library profiles
  (``tests/test_detection_strategies.py``) the heuristic is gone and
  ``auto`` simply names the fast engine, keeping ``scan`` reachable as
  the explicit reference path.

The parallel batch engine (``processes=N``)
-------------------------------------------

``embed_many``/``detect_many`` accept parsed
:class:`~repro.xmlmodel.tree.Document` objects or raw XML strings.
With ``processes=N`` the *whole* per-document pipeline — parse, embed
or detect, and (with ``output="xml"``) serialise — runs as one fused
task inside a process-pool worker:

* The batch is cut into contiguous, evenly sized chunks
  (:func:`repro.parallel.chunk_evenly`; ~4 chunks per worker) and
  dispatched over a *persistent* pool shared with
  :func:`repro.xmlmodel.parse_many`, so fork cost is paid once per
  process count, not once per batch.
* Each chunk task carries the pickled pipeline plus its content
  fingerprint; a worker unpickles it **once** into a
  fingerprint-keyed cache and reuses the compiled pipeline (warm PRF
  pads/memos, plug-in instances) for every later chunk of any batch of
  the same deployment.  Unpicklable hot-path state (the HMAC key
  schedule, digest memos, plug-in caches) is dropped on pickling and
  lazily rebuilt in the worker — see ``KeyedPRF.__getstate__``.
* Raw-XML inputs are parsed *in the worker*, so a text batch never
  pays the old two-hop cost (parse results pickled back to the parent
  only to be re-pickled out for embedding); with ``output="xml"`` the
  marked tree is serialised in the worker too and only markup text
  returns.
* Results come back in input order, and a failure (syntax error, dead
  worker) either propagates exactly as the serial path would raise it
  or — for pool-level failures such as ``BrokenProcessPool`` or
  pickling a pathologically deep tree — falls back to the serial path:
  parallelism is a throughput optimisation, never a correctness
  dependency.  Pooled and serial outputs are bit-identical (locked by
  ``tests/test_parallel_engine.py``).

``processes=N`` pays off once the batch has enough total work to
amortise chunk dispatch — as a rule of thumb, ``batch size x
per-document cost >= ~20 ms`` on an otherwise idle machine; below
that, or on a single-core host, leave it unset.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pickle
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from repro import parallel
from repro.core.decoder import DetectionResult, WmXMLDecoder
from repro.faults import fault_point
from repro.core.encoder import EmbeddingResult, WmXMLEncoder
from repro.core.record import WatermarkRecord, all_same_record
from repro.core.scheme import WatermarkingScheme
from repro.core.watermark import Watermark
from repro.errors import WmXMLError
from repro.perf.profiler import profiled
from repro.rewriting.executor import LogicalExecutor
from repro.semantics.shape import DocumentShape
from repro.xmlmodel.parser import parse, parse_many
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.tree import Document

#: Accepted values of the ``strategy`` argument to :meth:`Pipeline.detect`.
DETECTION_STRATEGIES = ("auto", "indexed", "scan")

#: Accepted values of the ``output`` argument to :meth:`Pipeline.embed_many`.
EMBED_OUTPUTS = ("document", "xml")

MessageLike = Union[str, Watermark]

#: Batch APIs take parsed documents or raw XML text interchangeably.
DocumentLike = Union[Document, str]

#: Distinguishes pipelines whose scheme cannot serialise (see
#: :attr:`Pipeline.fingerprint`); a monotonic counter, unlike
#: ``id()``, is never reused after garbage collection.
_INSTANCE_COUNTER = itertools.count()


def content_fingerprint(scheme_content: str, key_fingerprint: str,
                        alpha: float) -> str:
    """The (scheme JSON, public key fingerprint, alpha) content hash.

    The one definition behind :attr:`Pipeline.fingerprint` and
    :meth:`WmXMLSystem.scheme_fingerprint`, so the registry can
    fingerprint a deployment without compiling its pipeline.
    """
    material = "\x1f".join([scheme_content, key_fingerprint,
                            repr(alpha)])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]


def scheme_content_key(scheme: WatermarkingScheme) -> str:
    """Deterministic content string for a scheme, JSON or not.

    Non-JSON-serialisable schemes (exotic plug-in params) hash their
    pickled form — stable within a process, which is what fingerprint
    contracts (worker cache keys, service ``ETag``s) need.  A scheme
    that can't even pickle falls back to identity keying, forfeiting
    sharing.
    """
    try:
        return json.dumps(scheme.to_dict(), sort_keys=True)
    except TypeError:
        try:
            blob = pickle.dumps(scheme)
        except Exception:
            return f"instance:{next(_INSTANCE_COUNTER)}"
        return "pickle:" + hashlib.sha256(blob).hexdigest()


def _as_watermark(message: MessageLike) -> Watermark:
    if isinstance(message, Watermark):
        return message
    return Watermark.from_message(message)


def _resolve_strategy(strategy: str) -> bool:
    """True when detection should run through the indexed executor."""
    if strategy not in DETECTION_STRATEGIES:
        raise WmXMLError(
            f"unknown detection strategy {strategy!r}; "
            f"choices: {DETECTION_STRATEGIES}")
    return strategy != "scan"


def _resolve_output(output: str) -> str:
    if output not in EMBED_OUTPUTS:
        raise WmXMLError(
            f"unknown embed output {output!r}; choices: {EMBED_OUTPUTS}")
    return output


def _as_documents(items: Iterable[DocumentLike],
                  processes: Optional[int] = None) -> list[Document]:
    """Parse any raw XML strings in ``items``, preserving order.

    Strings are parsed with ``strip_whitespace=True`` (the data-centric
    convention every loader in this system uses) via
    :func:`repro.xmlmodel.parse_many`, so ``processes`` can shard the
    parsing across workers; already-parsed documents pass through
    untouched.
    """
    resolved = list(items)
    text_positions = [index for index, item in enumerate(resolved)
                     if isinstance(item, str)]
    if text_positions:
        parsed = parse_many([resolved[index] for index in text_positions],
                            strip_whitespace=True, processes=processes)
        for index, document in zip(text_positions, parsed):
            resolved[index] = document
    return resolved


# -- worker side of the parallel engine ------------------------------------------------------------

#: Per-worker compiled pipelines, keyed by content fingerprint; each
#: worker unpickles a deployment once and keeps its caches warm across
#: every chunk and batch that names the same fingerprint.
_WORKER_PIPELINES: dict[str, "Pipeline"] = {}

#: Bound on distinct deployments a worker keeps compiled.
_WORKER_PIPELINE_LIMIT = 8


def _worker_pipeline(fingerprint: str, payload: bytes) -> "Pipeline":
    pipeline = _WORKER_PIPELINES.get(fingerprint)
    if pipeline is None:
        pipeline = pickle.loads(payload)
        if len(_WORKER_PIPELINES) >= _WORKER_PIPELINE_LIMIT:
            del _WORKER_PIPELINES[next(iter(_WORKER_PIPELINES))]
        _WORKER_PIPELINES[fingerprint] = pipeline
    return pipeline


def _embed_chunk(task: tuple) -> list[EmbeddingResult]:
    """Fused embed task: parse -> embed -> (optionally) serialise.

    Runs inside a pool worker.  Embedding is in-place: the tree here is
    either freshly parsed or the pickled private copy of the caller's
    document, so no further defensive copy is needed — the output is
    bit-identical to the parent-side ``embed()`` either way.
    """
    fingerprint, payload, items, watermark, output = task
    # The "pool.chunk" fault point simulates a dying or raising worker
    # (armed with scope="worker" it fires only in forked children, so
    # the parent's serial fallback survives the experiment).
    fault_point("pool.chunk")
    pipeline = _worker_pipeline(fingerprint, payload)
    encoder = pipeline._encoder
    results = []
    for item in items:
        document = (parse(item, strip_whitespace=True)
                    if isinstance(item, str) else item)
        result = encoder.embed(document, watermark, in_place=True)
        if output == "xml":
            result = EmbeddingResult(
                document=None, record=result.record, stats=result.stats,
                xml=serialize(result.document))
        results.append(result)
    return results


def _detect_chunk(task: tuple) -> list[DetectionResult]:
    """Fused detect task: parse -> detect, one worker-local decoder.

    ``records`` is either ``("shared", record)`` — the one-record-
    many-copies batch, where the record is pickled once per chunk
    instead of once per item (per-item record payloads dominated
    pooled detect dispatch) — or ``("each", [record, ...])`` aligned
    with ``documents``.
    """
    fingerprint, payload, documents, records, expected, shape, indexed = task
    fault_point("pool.chunk")
    pipeline = _worker_pipeline(fingerprint, payload)
    decoder = pipeline._decoder
    shape = shape or pipeline.scheme.shape
    mode, payload_records = records
    record_for = (itertools.repeat(payload_records) if mode == "shared"
                  else payload_records)
    results = []
    for document, record in zip(documents, record_for):
        if isinstance(document, str):
            document = parse(document, strip_whitespace=True)
        results.append(decoder.detect(document, record, shape,
                                      expected=expected, indexed=indexed))
    return results


class Pipeline:
    """A reusable, thread-safe embed/detect engine for one deployment."""

    def __init__(self, scheme: WatermarkingScheme,
                 secret_key: Union[str, bytes],
                 alpha: float = 1e-3) -> None:
        self.scheme = scheme
        self.alpha = alpha
        self._encoder = WmXMLEncoder(scheme, secret_key)
        self._decoder = WmXMLDecoder(secret_key, alpha=alpha)

    @property
    def shape(self) -> DocumentShape:
        """The document organisation this pipeline embeds through."""
        return self.scheme.shape

    @property
    def key_fingerprint(self) -> str:
        """Public fingerprint of the owning key (safe to log)."""
        return self._encoder.prf.fingerprint()

    @cached_property
    def fingerprint(self) -> str:
        """Content fingerprint of (scheme, key, alpha) — no secrets.

        Keys the per-worker pipeline cache of the parallel engine: two
        pipelines compiled from equal deployments share one worker-side
        compilation.  Derived from the declarative scheme form, the
        *public* key fingerprint and alpha; a scheme that cannot
        serialise to JSON hashes its pickled form instead (see
        :func:`scheme_content_key`).
        """
        return content_fingerprint(scheme_content_key(self.scheme),
                                   self.key_fingerprint, self.alpha)

    # -- embedding ------------------------------------------------------------

    def embed(self, document: Document, message: MessageLike,
              in_place: bool = False) -> EmbeddingResult:
        """Embed a message (text or :class:`Watermark`) into a document."""
        return self._encoder.embed(document, _as_watermark(message),
                                   in_place=in_place)

    @profiled("api.embed_many")
    def embed_many(self, documents: Iterable[DocumentLike],
                   message: MessageLike,
                   in_place: bool = False,
                   processes: Optional[int] = None,
                   output: str = "document") -> list[EmbeddingResult]:
        """Embed the same message into many documents.

        One compiled pipeline serves the whole batch, so the PRF digest
        memo and plug-in instances warmed by the first document are
        reused by the rest (the benchmark's ``batch-pool`` workload).

        Entries may be raw XML strings.  With ``processes=N`` the full
        per-document pipeline (parse -> embed -> serialise) is sharded
        over the persistent worker pool as fused chunk tasks — see the
        module docstring; without it the batch runs serially in this
        process.  ``output="xml"`` returns results whose ``xml`` field
        carries the serialised marked document (``document`` is None),
        which is both what a service ships and the cheap way to get
        results back from workers.

        ``in_place=True`` mutates caller-supplied ``Document`` objects,
        which only a same-process embed can honour — such batches run
        serially regardless of ``processes``.
        """
        watermark = _as_watermark(message)
        output = _resolve_output(output)
        batch = list(documents)
        if self._poolable(processes, batch,
                          in_place and any(isinstance(item, Document)
                                           for item in batch)):
            try:
                return self._embed_pooled(batch, watermark, processes,
                                          output)
            except (RecursionError, parallel.BrokenProcessPool):
                pass  # fall back to the serial path below
        results = [self._encoder.embed(document, watermark,
                                       in_place=in_place)
                   for document in _as_documents(batch, processes)]
        if output == "xml":
            results = [
                EmbeddingResult(document=None, record=result.record,
                                stats=result.stats,
                                xml=serialize(result.document))
                for result in results
            ]
        return results

    # -- detection ------------------------------------------------------------

    def detect(
        self,
        document: Document,
        record: WatermarkRecord,
        *,
        expected: Optional[MessageLike] = None,
        shape: Optional[DocumentShape] = None,
        strategy: str = "auto",
        executor: Optional[LogicalExecutor] = None,
    ) -> DetectionResult:
        """Run the stored query set Q against a suspected document.

        ``shape`` names the document's *current* organisation; passing a
        different shape than the scheme's rewrites every stored query
        for it (Figure 2).  ``strategy`` picks the query engine — see
        the module docstring.  ``executor``, one already built over
        ``document`` in that shape, spares the indexed engine its shred
        (see :func:`repro.api.system.sweep_trace`); ``scan`` ignores it.
        """
        return self._decoder.detect(
            document, record, shape or self.scheme.shape,
            expected=None if expected is None else _as_watermark(expected),
            indexed=_resolve_strategy(strategy),
            executor=executor,
        )

    @profiled("api.detect_many")
    def detect_many(
        self,
        items: Iterable[tuple[DocumentLike, WatermarkRecord]],
        *,
        expected: Optional[MessageLike] = None,
        shape: Optional[DocumentShape] = None,
        strategy: str = "auto",
        processes: Optional[int] = None,
    ) -> list[DetectionResult]:
        """Detect over many (document, record) pairs with one decoder.

        ``expected``, ``shape`` and ``strategy`` are resolved once and
        applied identically to every pair — pooled or serial, every
        document is judged by the same engine against the same
        expectation (vote-for-vote equality of pooled and serial runs,
        for every strategy, is locked by the test suite).  Documents
        may be raw XML strings; with ``processes=N`` parse + detect run
        as fused chunk tasks on the worker pool, exactly as in
        :meth:`embed_many`.
        """
        expected_wm = (None if expected is None
                       else _as_watermark(expected))
        indexed = _resolve_strategy(strategy)
        batch = list(items)  # accept iterators safely
        if self._poolable(processes, batch, False):
            try:
                return self._detect_pooled(batch, expected_wm, shape,
                                           indexed, processes)
            except (RecursionError, parallel.BrokenProcessPool):
                pass  # fall back to the serial path below
        documents = _as_documents([document for document, _ in batch],
                                  processes)
        return [
            self._decoder.detect(
                document, record, shape or self.scheme.shape,
                expected=expected_wm, indexed=indexed)
            for document, (_, record) in zip(documents, batch)
        ]

    # -- parallel dispatch ------------------------------------------------------------

    @staticmethod
    def _poolable(processes: Optional[int], batch: Sequence,
                  needs_caller_state: bool) -> bool:
        """Whether a batch should go to the worker pool at all."""
        return (processes is not None and processes > 1
                and len(batch) > 1 and not needs_caller_state)

    def _payload(self) -> tuple[str, bytes]:
        """(fingerprint, pickled self) shipped with every chunk task.

        The pickle is lean by construction: the PRF drops its HMAC
        schedule and memos, encoder/decoder drop their plug-in caches
        (all rebuilt lazily worker-side).  Note the secret key itself
        travels inside the payload — over the pool's process pipe on
        this machine, never into any stored artefact.
        """
        return self.fingerprint, pickle.dumps(self)

    def _embed_pooled(self, batch: list[DocumentLike],
                      watermark: Watermark, processes: int,
                      output: str) -> list[EmbeddingResult]:
        fingerprint, payload = self._payload()
        tasks = [
            (fingerprint, payload, chunk, watermark, output)
            for chunk in parallel.chunk_evenly(
                batch, processes * parallel.CHUNKS_PER_WORKER)
        ]
        # map_recovering localises failure to the chunk: a dead worker
        # costs one retry on a fresh pool, then a serial run of that
        # chunk alone — never the whole batch.
        chunks = parallel.map_recovering(processes, _embed_chunk, tasks)
        return [result for chunk in chunks for result in chunk]

    def _detect_pooled(self, batch: list, expected: Optional[Watermark],
                       shape: Optional[DocumentShape], indexed: bool,
                       processes: int) -> list[DetectionResult]:
        fingerprint, payload = self._payload()
        documents = [document for document, _ in batch]
        records = [record for _, record in batch]
        chunk_count = processes * parallel.CHUNKS_PER_WORKER
        document_chunks = parallel.chunk_evenly(documents, chunk_count)
        # The piracy-hunting batch checks many copies against one
        # record; each chunk then ships the record once instead of
        # once per item (per-item payloads dominate pooled detect
        # dispatch) — see all_same_record for why equality matters.
        if all_same_record(records):
            tasks = [
                (fingerprint, payload, chunk, ("shared", records[0]),
                 expected, shape, indexed)
                for chunk in document_chunks
            ]
        else:
            # chunk_evenly is deterministic for a given (length, count),
            # so the record chunks align index-for-index with the
            # document chunks.
            record_chunks = parallel.chunk_evenly(records, chunk_count)
            tasks = [
                (fingerprint, payload, chunk, ("each", record_chunk),
                 expected, shape, indexed)
                for chunk, record_chunk in zip(document_chunks,
                                               record_chunks)
            ]
        chunks = parallel.map_recovering(processes, _detect_chunk, tasks)
        return [result for chunk in chunks for result in chunk]
