"""A compiled watermarking pipeline: one scheme + one key, many documents.

The facade compiles a :class:`~repro.core.scheme.WatermarkingScheme`
once into a :class:`Pipeline` and reuses it for every document of that
deployment.  Reuse is what makes the batch APIs fast: the encoder and
decoder instances live as long as the pipeline, so the precomputed-state
PRF (HMAC pad + bounded digest memo) and the per-``(algorithm, params)``
plug-in instances built by the first document are warm for every
subsequent one.

Thread-safety: a pipeline may be shared across threads.  ``embed``
and ``embed_many`` mark a copy of a caller's document and never mutate
it, and the only shared mutable state is a set of append-only caches
(PRF digest memo, plug-in registry) whose dict operations are atomic
under CPython's GIL; two threads at worst compute the same cache entry
twice.

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

The batch engine (``processes=N``)
----------------------------------

``embed_many``/``detect_many`` accept parsed
:class:`~repro.xmlmodel.tree.Document` objects or raw XML strings.
One private step per kind does the work for one document — parse a
text, embed or detect, and (with ``output="xml"``) serialise — and
both paths run it: serially in this process, or with ``processes=N``
inside process-pool workers, one chunk of documents per task:

* The batch is cut into contiguous, evenly sized chunks
  (:func:`repro.parallel.chunk_evenly`; ~4 chunks per worker) and
  dispatched over a *persistent* pool (:mod:`repro.parallel`), so fork
  cost is paid once per process count, not once per batch.
* Each chunk task carries the pickled pipeline plus its content
  fingerprint; a worker unpickles it **once** into a
  fingerprint-keyed cache and reuses the compiled pipeline (warm PRF
  pads/memos, plug-in instances) for every later chunk of any batch of
  the same deployment.  Unpicklable hot-path state (the HMAC key
  schedule, digest memos, plug-in caches) is dropped on pickling and
  lazily rebuilt in the worker — see ``KeyedPRF.__getstate__``.
* A text is parsed where it is marked or checked, one tree at a time,
  and the tree is that step's own, so it is marked in place.  A
  ``Document`` is copied before marking, wherever the step runs, so a
  caller's tree is never mutated.  With ``output="xml"`` the marked
  tree is serialised where it was built, so only markup text returns
  from a worker.
* A detect task carries one record per document.  When every record
  is the same (:func:`~repro.core.record.all_same_record`) the list
  repeats one object, which pickle writes once per chunk.
* Results come back in input order.  A chunk lost to a dead worker is
  retried once on a fresh pool, then run serially in this process, and
  a chunk that raised in a worker runs once serially in this process
  (:func:`repro.parallel.map_recovering`), so a syntax error
  propagates exactly as the serial path would raise it: parallelism
  is a throughput optimisation, never a correctness dependency.
  Pooled and serial outputs are bit-identical (locked by
  ``tests/test_parallel_engine.py``).

``processes=N`` pays off once the batch has enough total work to
amortise chunk dispatch — as a rule of thumb, ``batch size x
per-document cost >= ~20 ms`` on an otherwise idle machine; below
that, or on a single-core host, leave it unset.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from repro import parallel
from repro.core.decoder import DetectionPlan, DetectionResult, WmXMLDecoder
from repro.faults import fault_point
from repro.core.encoder import EmbeddingResult, WmXMLEncoder
from repro.core.record import WatermarkRecord, all_same_record
from repro.core.scheme import WatermarkingScheme
from repro.core.watermark import Watermark
from repro.errors import SchemeFormatError, WmXMLError
from repro.perf import profiled
from repro.rewriting.executor import LogicalExecutor
from repro.semantics.shape import DocumentShape
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.tree import Document

#: Accepted values of the ``strategy`` argument to :meth:`Pipeline.detect`.
DETECTION_STRATEGIES = ("auto", "indexed", "scan")

#: Accepted values of the ``output`` argument to :meth:`Pipeline.embed_many`.
EMBED_OUTPUTS = ("document", "xml")

MessageLike = Union[str, Watermark]

#: Batch APIs take parsed documents or raw XML text interchangeably.
DocumentLike = Union[Document, str]


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
    """A scheme's content: its declarative form as sorted JSON.

    The one key behind every compiled-pipeline cache and every
    fingerprint (worker cache keys, service ``ETag``s, registry
    records).  A scheme with no JSON form (say, a plug-in parameter
    held in a frozenset) raises :class:`SchemeFormatError`.
    """
    try:
        return json.dumps(scheme.to_dict(), sort_keys=True)
    except TypeError as error:
        raise SchemeFormatError(
            f"scheme is not JSON-serialisable: {error}") from error


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


def _embed_one(encoder: WmXMLEncoder, item: DocumentLike,
               watermark: Watermark, output: str) -> EmbeddingResult:
    """The embed step for one document: parse a text, embed, and
    serialise the marked tree when ``output == "xml"``.

    A tree parsed here from raw XML (``strip_whitespace=True``, the
    data-centric convention of every loader in this system) is this
    step's own, so it is marked in place; a ``Document`` is copied.
    """
    parsed = isinstance(item, str)
    if parsed:
        item = parse(item, strip_whitespace=True)
    result = encoder.embed(item, watermark, in_place=parsed)
    if output == "xml":
        result.xml, result.document = serialize(result.document), None
    return result


def _detect_one(decoder: WmXMLDecoder, item: DocumentLike,
                record: WatermarkRecord, shape: DocumentShape,
                expected: Optional[Watermark],
                indexed: bool) -> DetectionResult:
    """The detect step for one document: parse a text, then detect."""
    document = (parse(item, strip_whitespace=True)
                if isinstance(item, str) else item)
    return decoder.detect(document, record, shape, expected=expected,
                          indexed=indexed)


# -- worker side of the parallel engine ------------------------------------------------------------

#: Per-worker compiled pipelines, keyed by content fingerprint; each
#: worker unpickles a deployment once and keeps its caches warm across
#: every chunk and batch that names the same fingerprint.  Only pool
#: workers fill it: a chunk run back in the calling process unpickles
#: its pipeline for that chunk alone, so no second copy of the
#: caller's key outlives it there.
_WORKER_PIPELINES: dict[str, "Pipeline"] = {}

#: Bound on distinct deployments a worker keeps compiled.
_WORKER_PIPELINE_LIMIT = 8


def _worker_pipeline(fingerprint: str, payload: bytes) -> "Pipeline":
    pipeline = _WORKER_PIPELINES.get(fingerprint)
    if pipeline is None:
        pipeline = pickle.loads(payload)
        if parallel.in_worker():
            if len(_WORKER_PIPELINES) >= _WORKER_PIPELINE_LIMIT:
                del _WORKER_PIPELINES[next(iter(_WORKER_PIPELINES))]
            _WORKER_PIPELINES[fingerprint] = pipeline
    return pipeline


def _embed_chunk(task: tuple) -> list[EmbeddingResult]:
    """A pool worker's embed task: the embed step over one chunk."""
    fingerprint, payload, items, watermark, output = task
    # The "pool.chunk" fault point simulates a dying or raising worker
    # (armed with scope="worker" it fires only in forked children, so
    # the parent's serial fallback survives the experiment).
    fault_point("pool.chunk")
    encoder = _worker_pipeline(fingerprint, payload)._encoder
    return [_embed_one(encoder, item, watermark, output) for item in items]


def _detect_chunk(task: tuple) -> list[DetectionResult]:
    """A pool worker's detect task: the detect step over one chunk,
    ``records`` aligned with ``documents``."""
    fingerprint, payload, documents, records, expected, shape, indexed = task
    fault_point("pool.chunk")
    pipeline = _worker_pipeline(fingerprint, payload)
    shape = shape or pipeline.scheme.shape
    return [_detect_one(pipeline._decoder, document, record, shape,
                        expected, indexed)
            for document, record in zip(documents, records)]


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
        compilation.  Derived from the declarative scheme form (see
        :func:`scheme_content_key`), the *public* key fingerprint and
        alpha.
        """
        return content_fingerprint(scheme_content_key(self.scheme),
                                   self.key_fingerprint, self.alpha)

    # -- embedding ------------------------------------------------------------

    def embed(self, document: Document,
              message: MessageLike) -> EmbeddingResult:
        """Embed a message (text or :class:`Watermark`) into a copy of
        ``document``."""
        return self._encoder.embed(document, _as_watermark(message))

    @profiled("api.embed_many")
    def embed_many(self, documents: Iterable[DocumentLike],
                   message: MessageLike,
                   processes: Optional[int] = None,
                   output: str = "document") -> list[EmbeddingResult]:
        """Embed the same message into many documents.

        One compiled pipeline serves the whole batch, so the PRF digest
        memo and plug-in instances warmed by the first document are
        reused by the rest (the benchmark's ``batch-pool`` workload).

        Entries may be raw XML strings; a caller's ``Document`` is
        copied, never mutated.  Each entry runs through one embed step
        (parse -> embed -> serialise), in this process or, with
        ``processes=N``, in chunks over the persistent worker pool —
        see the module docstring.  ``output="xml"`` returns results
        whose ``xml`` field carries the serialised marked document
        (``document`` is None), which is both what a service ships and
        the cheap way to get results back from workers.
        """
        watermark = _as_watermark(message)
        output = _resolve_output(output)
        batch = list(documents)
        if self._poolable(processes, batch):
            return self._embed_pooled(batch, watermark, processes, output)
        return [_embed_one(self._encoder, item, watermark, output)
                for item in batch]

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
        plan: Optional[DetectionPlan] = None,
    ) -> DetectionResult:
        """Run the stored query set Q against a suspected document.

        ``shape`` names the document's *current* organisation; passing a
        different shape than the scheme's rewrites every stored query
        for it (Figure 2).  ``strategy`` picks the query engine — see
        the module docstring.  ``executor``, one already built over
        ``document`` in that shape, spares the indexed engine its shred
        (see :func:`repro.api.system.sweep_trace`); ``scan`` ignores it.
        ``plan``, this pipeline's :meth:`plan` of ``record``, spares
        the decoder re-authenticating it; without one it builds its own.
        """
        return self._decoder.detect(
            document, record, shape or self.scheme.shape,
            expected=None if expected is None else _as_watermark(expected),
            indexed=_resolve_strategy(strategy),
            executor=executor,
            plan=plan,
        )

    def plan(self, record: WatermarkRecord) -> DetectionPlan:
        """``record``'s detection plan under this pipeline's key (see
        :class:`~repro.core.decoder.DetectionPlan`)."""
        return self._decoder.plan(record)

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
        may be raw XML strings.  Each pair runs through one detect step
        (parse -> detect), in this process or, with ``processes=N``, in
        chunks over the worker pool, exactly as in :meth:`embed_many`.
        """
        expected_wm = (None if expected is None
                       else _as_watermark(expected))
        indexed = _resolve_strategy(strategy)
        batch = list(items)  # accept iterators safely
        if self._poolable(processes, batch):
            return self._detect_pooled(batch, expected_wm, shape, indexed,
                                       processes)
        shape = shape or self.scheme.shape
        return [_detect_one(self._decoder, document, record, shape,
                            expected_wm, indexed)
                for document, record in batch]

    # -- parallel dispatch ------------------------------------------------------------

    @staticmethod
    def _poolable(processes: Optional[int], batch: Sequence) -> bool:
        """Whether a batch should go to the worker pool at all."""
        return processes is not None and processes > 1 and len(batch) > 1

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
        # The piracy-hunting batch checks many copies against one
        # record: each task's list then repeats one object, which
        # pickle's memo writes once per chunk (see all_same_record for
        # why equal records count as one).
        if all_same_record([record for _, record in batch]):
            shared = batch[0][1]
            batch = [(document, shared) for document, _ in batch]
        tasks = [
            (fingerprint, payload, [document for document, _ in chunk],
             [record for _, record in chunk], expected, shape, indexed)
            for chunk in parallel.chunk_evenly(
                batch, processes * parallel.CHUNKS_PER_WORKER)
        ]
        chunks = parallel.map_recovering(processes, _detect_chunk, tasks)
        return [result for chunk in chunks for result in chunk]
