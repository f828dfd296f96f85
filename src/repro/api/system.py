"""The WmXML system facade: Figure 4 as a single object.

A :class:`WmXMLSystem` owns the owner's secret key and a registry of
named watermarking schemes (deployments).  Schemes register either as
live :class:`~repro.core.scheme.WatermarkingScheme` objects, as
declarative dicts, or straight from ``scheme.json`` files; each is
compiled once into a :class:`~repro.api.pipeline.Pipeline` and cached,
so repeated ``embed``/``detect`` calls pay no setup cost.

The secret key never leaves the system: registry listings and log
output only ever see its public fingerprint.

Every verification of an issued copy runs through one system's
:meth:`WmXMLSystem.trace` (or :meth:`~WmXMLSystem.detect_recorded`):
a :class:`Fingerprinter` is a one-scheme front door over a private
system with an in-memory registry.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.api.pipeline import (
    DocumentLike,
    MessageLike,
    Pipeline,
    _resolve_strategy,
    content_fingerprint,
    scheme_content_key,
)
from repro.core.crypto import KeyedPRF
from repro.core.decoder import DetectionPlan, DetectionResult
from repro.core.encoder import EmbeddingResult
from repro.core.fingerprint import TraceResult
from repro.core.record import WatermarkRecord
from repro.core.scheme import WatermarkingScheme
from repro.core.watermark import Watermark
from repro.errors import UnknownSchemeError
from repro.registry import (RegistryNotConfiguredError, UnknownRecipientError,
                            WatermarkRegistry)
from repro.registry.records import RegistryRecord
from repro.rewriting.executor import LogicalExecutor
from repro.semantics.shape import DocumentShape
from repro.xmlmodel.tree import Document

SchemeLike = Union[str, WatermarkingScheme, dict]

#: Ceiling on the compiled pipelines a system holds: owner and
#: recipient pipelines, named and inline schemes, in one LRU keyed by
#: (scheme content, recipient).  Inline schemes and recipients can
#: arrive from the wire on every request, so the least recently used
#: is evicted beyond this many.  Traces keep their verifiers apart
#: (see :data:`VERIFIER_BUDGET_QUERIES`).
CONTENT_CACHE_MAX = 64

#: Ceiling on the warm verifiers a system holds for traces, counted in
#: the stored queries of the records they have verified.  A warm
#: verifier is a recipient's derived-key pipeline with its PRF memos
#: filled, and each record it verified keeps its detection plan while
#: the registry keeps the record: together about 240-330 B per query
#: (measured with tracemalloc at gamma 1: 16.0 KB for a 20-book copy,
#: 100 KB for a 200-book one; the plan is 70-85 B of it), so a full
#: budget holds at most about 21 MiB.  Unlike the LRU, the map fills
#: and never evicts: a sweep reads records in sequence order, so an LRU
#: smaller than the corpus would never hit.  Past the budget, a record
#: verifies under a freshly compiled pipeline and holds no plan.
VERIFIER_BUDGET_QUERIES = 65_536

#: Prefix of the registry identity that records an owner embed of a
#: bit string with no text form (``bits:0101...``).
BITS_PREFIX = "bits:"


class WmXMLSystem:
    """The owner's watermarking service: key + schemes + pipelines."""

    def __init__(self, secret_key: Union[str, bytes],
                 alpha: float = 1e-3,
                 registry: Optional[WatermarkRegistry] = None,
                 issuer: str = "wmxml",
                 *,
                 tenant: Optional[str] = None,
                 key_id: Optional[int] = None,
                 seal_registry: bool = True) -> None:
        self._secret_key = secret_key
        self._prf = KeyedPRF(secret_key)
        self._fingerprint = self._prf.fingerprint()
        self.alpha = alpha
        self.issuer = issuer
        self.registry = registry
        #: Tenancy identity (both ``None`` for the classic single-key
        #: system): stamped into every record this system embeds, so a
        #: detection can name which tenant and key generation made it.
        self.tenant = tenant
        self.key_id = key_id
        if registry is not None and seal_registry:
            # Ledger seals derive from the system key under their own
            # purpose string, so the registry never holds a second
            # secret.  Tenant systems sharing one registry pass
            # ``seal_registry=False``: the TenantDirectory attaches a
            # rotation-stable sealer of its own instead.
            registry.attach_sealer(self._prf)
        # Each registered name's scheme beside its content key.
        self._schemes: dict[str, tuple[WatermarkingScheme, str]] = {}
        # Every compiled pipeline, keyed by (scheme content, recipient
        # or None for the system key): equal content shares one
        # pipeline whether it arrives by name or inline.  Dict order is
        # recency order (see :data:`CONTENT_CACHE_MAX`).
        self._pipelines: dict[tuple[str, Optional[str]], Pipeline] = {}
        # Trace verifiers, keyed alike but held apart from the LRU: the
        # (key, sequence) of every record charged to the budget, and
        # the stored queries charged so far.  A charged record's plan
        # rides on the record object itself (see _held_plan).
        self._verifiers: dict[tuple[str, str], Pipeline] = {}
        self._verified: set[tuple[tuple[str, str], int]] = set()
        self._verifier_queries = 0
        self._lock = threading.Lock()

    @property
    def key_fingerprint(self) -> str:
        """Public fingerprint of the system's secret key."""
        return self._fingerprint

    # -- scheme registry ------------------------------------------------------------

    def register(self, name: str,
                 scheme: Union[WatermarkingScheme, dict]) -> WatermarkingScheme:
        """Register a deployment under ``name``; returns the live scheme.

        Accepts a built scheme or its declarative dict form; a scheme
        with no JSON form raises :class:`~repro.errors.SchemeFormatError`.
        Its content key is computed here, once, and stored beside it.
        Re-registering a name replaces it; pipelines compiled for the
        old content stay cached under that content until evicted.
        """
        if isinstance(scheme, dict):
            scheme = WatermarkingScheme.from_dict(scheme)
        content = scheme_content_key(scheme)
        with self._lock:
            self._schemes[name] = (scheme, content)
        return scheme

    def register_file(self, name: str, path: str) -> WatermarkingScheme:
        """Register a deployment from a ``scheme.json`` artefact."""
        return self.register(name, WatermarkingScheme.load(path))

    def scheme(self, name: str) -> WatermarkingScheme:
        return self._registered(name)[0]

    def _registered(self, name: str) -> tuple[WatermarkingScheme, str]:
        with self._lock:
            try:
                return self._schemes[name]
            except KeyError:
                raise UnknownSchemeError(name, self._schemes) from None

    def scheme_names(self) -> list[str]:
        with self._lock:
            return sorted(self._schemes)

    def list_schemes(self) -> dict[str, str]:
        """Registry listing: ``{name: pipeline fingerprint}``.

        The fingerprint is the content hash of (scheme, public key
        fingerprint, alpha) that keys the parallel engine's worker
        caches — the value a service exposes in cache-validation
        headers (``ETag``), so clients can tell whether a named
        deployment changed without downloading it.
        """
        return {name: self.scheme_fingerprint(name)
                for name in self.scheme_names()}

    def scheme_fingerprint(self, scheme: SchemeLike) -> str:
        """Content fingerprint of the pipeline for ``scheme``.

        Derived from the scheme's content key (stored by
        :meth:`register` for a name) — equal to
        ``self.pipeline(scheme).fingerprint`` by construction, without
        compiling (or pinning) a pipeline just to list the registry.
        """
        return self._content_fingerprint(self._resolve(scheme)[1])

    def scheme_with_fingerprint(
            self, name: str) -> tuple[WatermarkingScheme, str]:
        """Atomic ``(scheme, fingerprint)`` snapshot for a name.

        Both come from one registration, read under the lock — the
        daemon's ``GET /v1/schemes/{name}`` must never pair an old body
        with a new ``ETag`` under concurrent re-registration.
        """
        scheme, content = self._registered(name)
        return scheme, self._content_fingerprint(content)

    def _content_fingerprint(self, content: str) -> str:
        return content_fingerprint(content, self._fingerprint, self.alpha)

    # -- compilation ------------------------------------------------------------

    def _resolve(self, scheme: SchemeLike) -> tuple[WatermarkingScheme, str]:
        """``scheme`` as a live scheme and its content key."""
        if isinstance(scheme, str):
            return self._registered(scheme)
        if isinstance(scheme, dict):
            scheme = WatermarkingScheme.from_dict(scheme)
        return scheme, scheme_content_key(scheme)

    def pipeline(self, scheme: SchemeLike) -> Pipeline:
        """The compiled pipeline for a scheme under the system key, cached.

        A registered name reads the content key stored beside its
        scheme; scheme objects and declarative dicts are serialised to
        theirs, so re-sending an equal deployment on every request (the
        service case) still shares one pipeline — and one set of warm
        PRF/plug-in caches.  See :data:`CONTENT_CACHE_MAX` for the
        bound.
        """
        return self._compiled(scheme, None)

    def _compiled(self, scheme: SchemeLike,
                  recipient: Optional[str]) -> Pipeline:
        """The cached pipeline for ``scheme`` under the system key
        (``recipient=None``) or a recipient's derived key; compiled on
        a miss."""
        resolved, content = self._resolve(scheme)
        key = (content, recipient)
        with self._lock:
            pipeline = self._pipelines.pop(key, None)
            if pipeline is not None:
                # Re-insertion keeps dict order = recency order.
                self._pipelines[key] = pipeline
                return pipeline
        # Compile outside the lock: a slow compile must not
        # head-of-line-block every cached lookup in the daemon.
        pipeline = Pipeline(resolved,
                            self._secret_key if recipient is None
                            else self.recipient_key(recipient),
                            alpha=self.alpha)
        with self._lock:
            # A concurrent compile of the same key may have won; share it.
            pipeline = self._pipelines.pop(key, pipeline)
            self._pipelines[key] = pipeline
            while len(self._pipelines) > CONTENT_CACHE_MAX:
                self._pipelines.pop(next(iter(self._pipelines)))
            renamed = (isinstance(scheme, str)
                       and self._schemes[scheme][1] != content)
        if renamed:
            # The name was re-registered while we compiled: answer
            # with the current registration.
            return self._compiled(scheme, recipient)
        return pipeline

    # -- fingerprinted issuance ------------------------------------------------------------

    def recipient_key(self, recipient: str) -> bytes:
        """The derived per-recipient secret key.

        ``HMAC(master, "fingerprint-key", recipient)``: the one
        derivation every fingerprinted copy is issued and verified
        under (:class:`Fingerprinter` included).  Derived keys select
        *different* element subsets per recipient, which is what makes
        collusion tracing work.
        """
        if not recipient:
            raise ValueError("recipient id must not be empty")
        return self._prf.digest("fingerprint-key", recipient)

    def recipient_pipeline(self, scheme: SchemeLike,
                           recipient: str) -> Pipeline:
        """The compiled pipeline under ``recipient``'s derived key,
        cached in the same LRU as :meth:`pipeline`."""
        return self._compiled(scheme, recipient)

    # -- registry ------------------------------------------------------------

    def _require_registry(self) -> WatermarkRegistry:
        if self.registry is None:
            raise RegistryNotConfiguredError(
                "this system has no registry attached; construct "
                "WmXMLSystem(registry=...) or run with --registry")
        return self.registry

    @staticmethod
    def _message_identity(message: MessageLike) -> str:
        """The recipient identity a plain embed is recorded under."""
        if isinstance(message, Watermark):
            text = message.to_message(strict=False)
            if text is not None:
                return text
            return BITS_PREFIX + "".join(str(bit) for bit in message.bits)
        return message

    def tenancy(self) -> dict:
        """This system's tenancy identity: its set ``tenant``/``key_id``.

        Empty for a single-key system (both ``None``), so the records it
        stamps and the service replies carrying the stamp stay
        byte-identical to the golden vectors.
        """
        return {name: value for name, value in (("tenant", self.tenant),
                                                ("key_id", self.key_id))
                if value is not None}

    def _issuing(self, scheme: SchemeLike, message: MessageLike,
                 recipient: Optional[str]
                 ) -> tuple[Pipeline, MessageLike, str, str]:
        """``(pipeline, message, registry identity, keying)`` of an
        embed: the system key and ``message``, or ``recipient``'s
        derived key with the recipient id as message and identity."""
        if recipient is None:
            return (self.pipeline(scheme), message,
                    self._message_identity(message), "system")
        return (self.recipient_pipeline(scheme, recipient), recipient,
                recipient, "recipient")

    def _record(self, scheme: SchemeLike, pipeline: Pipeline,
                identity: str, keying: str,
                results: list[EmbeddingResult]) -> None:
        """Stamp ``results`` with this system's :meth:`tenancy` and
        append them to the registry, if any.

        Always runs in the parent process, *after* the pipeline
        returned — pooled batches hand records back from the workers
        and the appends happen here, so the pool contract is untouched
        and ledger order is the order results came back in.  One
        batched append: a single SQLite transaction (one fsync for the
        whole batch instead of one per record), and all-or-nothing — a
        mid-batch failure persists no records at all, so a client retry
        cannot double-append half a batch.
        """
        for result in results:
            for name, value in self.tenancy().items():
                setattr(result.record, name, value)
        if self.registry is None or not results:
            return
        scheme_fingerprint = self.scheme_fingerprint(scheme)
        self.registry.record_embed_many([
            {"recipient": identity, "record": result.record,
             "document_xml": result.to_xml(),
             "scheme_fingerprint": scheme_fingerprint,
             "key_fingerprint": pipeline.key_fingerprint,
             "keying": keying, "issuer": self.issuer,
             "tenant": self.tenant, "key_id": self.key_id}
            for result in results])

    # -- conveniences ------------------------------------------------------------

    def embed(self, scheme: SchemeLike, document: Document,
              message: MessageLike,
              recipient: Optional[str] = None) -> EmbeddingResult:
        """Embed; with ``recipient`` set, issue a fingerprinted copy.

        ``recipient=None`` is the classic owner embed under the system
        key; a recipient switches to that recipient's derived key and
        uses the recipient id as the message (self-describing
        evidence).  Either way, an attached registry records the copy.
        """
        pipeline, message, identity, keying = self._issuing(
            scheme, message, recipient)
        result = pipeline.embed(document, message)
        self._record(scheme, pipeline, identity, keying, [result])
        return result

    def embed_many(self, scheme: SchemeLike,
                   documents: Iterable[DocumentLike],
                   message: MessageLike,
                   processes: Optional[int] = None,
                   output: str = "document",
                   recipient: Optional[str] = None) -> list[EmbeddingResult]:
        pipeline, message, identity, keying = self._issuing(
            scheme, message, recipient)
        results = pipeline.embed_many(documents, message,
                                      processes=processes, output=output)
        self._record(scheme, pipeline, identity, keying, results)
        return results

    def issue(self, scheme: SchemeLike, document: Document,
              recipient: str) -> EmbeddingResult:
        """Issue one fingerprinted copy to ``recipient`` (and record it)."""
        return self.embed(scheme, document, recipient, recipient=recipient)

    def issue_many(self, scheme: SchemeLike,
                   documents: Iterable[DocumentLike], recipient: str,
                   processes: Optional[int] = None,
                   output: str = "document") -> list[EmbeddingResult]:
        """Issue fingerprinted copies of many documents to one recipient."""
        return self.embed_many(scheme, documents, recipient,
                               processes=processes, output=output,
                               recipient=recipient)

    def trace(self, scheme: SchemeLike, document: Document,
              *,
              shape: Optional[DocumentShape] = None,
              strategy: str = "auto",
              recipients: Optional[Iterable[str]] = None) -> TraceResult:
        """Trace a suspected leak against every persisted issued copy.

        Requires a registry.  Every record of this deployment is
        verified against ``document`` under the key it was issued with
        (system key for plain embeds, derived key for fingerprinted
        copies); each recipient keeps their strongest verdict (lowest
        p-value; ties keep the earlier record).  ``recipients``
        restricts the sweep and must name known identities.
        """
        entries = self._require_registry().records(
            scheme_fingerprint=self.scheme_fingerprint(scheme))
        return sweep_trace(
            only_recipients(entries, recipients), document, scheme,
            lambda entry: self, shape=shape, strategy=strategy)

    def detect_recorded(self, scheme: SchemeLike, document: Document,
                        recipient: str,
                        *,
                        shape: Optional[DocumentShape] = None,
                        strategy: str = "auto") -> DetectionResult:
        """Detect using the newest persisted record for one recipient."""
        registry = self._require_registry()
        entries = registry.records(
            recipient=recipient,
            scheme_fingerprint=self.scheme_fingerprint(scheme))
        if not entries:
            raise UnknownRecipientError(recipient,
                                        known=registry.recipients())
        entry = entries[-1]
        pipeline, plan = self._trace_pipelines(scheme)(entry)
        return pipeline.detect(
            document, entry.record, expected=recorded_message(entry),
            shape=shape, strategy=strategy, plan=plan)

    def _trace_pipelines(
            self, scheme: SchemeLike
    ) -> Callable[[RegistryRecord], tuple[Pipeline, Optional[DetectionPlan]]]:
        """The pipeline that verifies each registry record, and the
        record's held plan or ``None``: for every record of a trace,
        and the one :meth:`detect_recorded` picks.

        ``scheme`` is resolved once here, not once per record.  A
        recipient's record verifies under that recipient's warm
        verifier (:meth:`_verifier`), not through the pipeline LRU,
        which traces leave as issuance left it; every owner record
        shares the one system-key pipeline and holds no plan.
        """
        resolved, content = self._resolve(scheme)
        owner: Optional[Pipeline] = None

        def pipeline_for(
                entry: RegistryRecord
        ) -> tuple[Pipeline, Optional[DetectionPlan]]:
            nonlocal owner
            if entry.keying == "recipient":
                return self._verifier(resolved, content, entry)
            if owner is None:
                owner = self.pipeline(scheme)
            return owner, None

        return pipeline_for

    def _verifier(self, resolved: WatermarkingScheme, content: str,
                  entry: RegistryRecord
                  ) -> tuple[Pipeline, Optional[DetectionPlan]]:
        """The held verifier for a recipient's record and the record's
        plan under it, within budget.

        A record is charged its stored queries the first time a held
        verifier checks it; a charged record is checked under that
        verifier ever after, through the plan held on the record
        (:func:`_held_plan`).  A record the budget cannot take verifies
        under a freshly compiled pipeline and holds no plan.  The memos
        map inputs to that key's own HMACs, so a warm verifier judges a
        rewritten row exactly as a cold one would.
        """
        key = (content, entry.recipient)
        charge = (key, entry.sequence)
        queries = len(entry.record.queries)
        with self._lock:
            verifier = self._verifiers.get(key)
            charged = charge in self._verified
            if not charged and (self._verifier_queries + queries
                                <= VERIFIER_BUDGET_QUERIES):
                if verifier is None:
                    verifier = self._verifiers[key] = Pipeline(
                        resolved, self.recipient_key(entry.recipient),
                        alpha=self.alpha)
                self._verified.add(charge)
                self._verifier_queries += queries
                charged = True
        if charged:
            return verifier, _held_plan(verifier, entry)
        return Pipeline(resolved, self.recipient_key(entry.recipient),
                        alpha=self.alpha), None

    def detect(
        self,
        scheme: SchemeLike,
        document: Document,
        record: WatermarkRecord,
        *,
        expected: Optional[MessageLike] = None,
        shape: Optional[DocumentShape] = None,
        strategy: str = "auto",
    ) -> DetectionResult:
        return self.pipeline(scheme).detect(
            document, record, expected=expected, shape=shape,
            strategy=strategy)

    def detect_many(
        self,
        scheme: SchemeLike,
        items: Iterable[tuple[DocumentLike, WatermarkRecord]],
        *,
        expected: Optional[MessageLike] = None,
        shape: Optional[DocumentShape] = None,
        strategy: str = "auto",
        processes: Optional[int] = None,
    ) -> list[DetectionResult]:
        return self.pipeline(scheme).detect_many(
            items, expected=expected, shape=shape, strategy=strategy,
            processes=processes)

    def __repr__(self) -> str:
        return (f"WmXMLSystem(key_fingerprint={self._fingerprint!r}, "
                f"schemes={self.scheme_names()!r})")


@dataclass
class IssuedCopy:
    """One recipient's fingerprinted copy and its detection record."""

    recipient: str
    document: Document
    record: WatermarkRecord


class Fingerprinter:
    """Issue fingerprinted copies of one scheme and trace leaks back.

    A front door over a private :class:`WmXMLSystem` whose in-memory
    registry records every copy issued: :meth:`issue` and :meth:`trace`
    are that system's :meth:`~WmXMLSystem.issue` and
    :meth:`~WmXMLSystem.trace`, so a recipient issued several copies is
    accused when any one of them leaks.
    """

    #: The name the private system registers the scheme under.
    _SCHEME_NAME = "fingerprinted"

    def __init__(self, scheme: WatermarkingScheme,
                 master_key: Union[str, bytes],
                 alpha: float = 1e-3) -> None:
        self.scheme = scheme
        self.alpha = alpha
        self._system = WmXMLSystem(master_key, alpha=alpha,
                                   registry=WatermarkRegistry())
        self._system.register(self._SCHEME_NAME, scheme)

    def recipient_key(self, recipient: str) -> bytes:
        """The derived secret key for one recipient."""
        return self._system.recipient_key(recipient)

    def issue(self, document: Document, recipient: str) -> IssuedCopy:
        """Watermark a copy for ``recipient`` and record it."""
        result = self._system.issue(self._SCHEME_NAME, document, recipient)
        return IssuedCopy(recipient, result.document, result.record)

    @property
    def issued_recipients(self) -> list[str]:
        return self._system.registry.recipients()

    def trace(self, suspected: Document,
              shape: Optional[DocumentShape] = None,
              indexed: bool = True) -> TraceResult:
        """Verify every issued copy against a leaked one (``indexed``
        shreds it once; otherwise each query is an XPath scan)."""
        return self._system.trace(self._SCHEME_NAME, suspected, shape=shape,
                                  strategy="auto" if indexed else "scan")


def _held_plan(verifier: Pipeline, entry: RegistryRecord) -> DetectionPlan:
    """``entry``'s detection plan under ``verifier``, built once.

    The plan rides on the record object the registry handed back,
    beside a weak reference to the verifier that built it, and is
    reused only by that verifier and only for that object.  So it
    lives exactly as long as the registry keeps the record: a row
    rewritten on disk decodes to a new object and gets a new plan, and
    a record the SQLite decode budget does not hold takes its plan
    with it when the trace drops it.  It never keeps its verifier
    alive.  Two traces racing on one record may both build it; either
    plan is exact.
    """
    held = entry._held_plan
    if held is not None and held[0]() is verifier:
        return held[1]
    plan = verifier.plan(entry.record)
    entry._held_plan = (weakref.ref(verifier), plan)
    return plan


def recorded_message(entry: RegistryRecord) -> MessageLike:
    """The message ``entry``'s copy was embedded with.

    A registry identity is the message itself, except for an owner
    embed of a bit string with no text form, recorded as
    ``bits:0101...``: that one verifies against its bits.  A text
    message that merely reads ``bits:...`` has 8 UTF-8 bits per
    character, prefix included, so it never has as many bits as the
    digits that follow its prefix; the record's ``nbits`` tells the
    two apart.
    """
    identity = entry.recipient
    if entry.keying == "system" and identity.startswith(BITS_PREFIX):
        digits = identity[len(BITS_PREFIX):]
        if len(digits) == entry.record.nbits and set(digits) <= {"0", "1"}:
            return Watermark([int(digit) for digit in digits])
    return identity


def only_recipients(entries: list[RegistryRecord],
                    recipients: Optional[Iterable[str]]
                    ) -> list[RegistryRecord]:
    """``entries`` restricted to ``recipients`` (all when ``None``).

    Every wanted recipient must have a record among ``entries``;
    otherwise :class:`UnknownRecipientError` names the first missing
    one, listing the recipients of ``entries`` as those there are.
    """
    if recipients is None:
        return entries
    wanted = set(recipients)
    known = {entry.recipient for entry in entries}
    missing = wanted - known
    if missing:
        raise UnknownRecipientError(sorted(missing)[0], known=known)
    return [entry for entry in entries if entry.recipient in wanted]


def sweep_trace(entries: Sequence[RegistryRecord], document: Document,
                scheme: SchemeLike,
                system_for: Callable[[RegistryRecord], WmXMLSystem],
                *,
                shape: Optional[DocumentShape],
                strategy: str) -> TraceResult:
    """Verify every record against one suspected copy.

    The one trace loop behind :meth:`WmXMLSystem.trace` and
    :meth:`~repro.tenants.TenantDirectory.trace`.  ``system_for(entry)``
    is the system whose key issued the entry (a tenant directory maps
    each key generation to its own).  The suspect is shredded once: the
    first record builds a :class:`LogicalExecutor` over it and every
    later record reuses it (``scan`` builds none, an empty sweep
    shreds nothing).  Each record is still authenticated under its own
    key, voted against the message it was embedded with, and ranked by
    (p-value, sequence): each recipient keeps their lowest p-value,
    ties keeping the earlier record.  A record its system's warm
    verifier holds is checked through its held plan, so only the
    queries whose first condition the suspect holds run.  ``strategy``
    is checked before the first record, so an empty sweep refuses an
    unknown one too.
    """
    indexed = _resolve_strategy(strategy)
    lookups: dict[int, Callable[
        [RegistryRecord], tuple[Pipeline, Optional[DetectionPlan]]]] = {}
    executor: Optional[LogicalExecutor] = None
    best: dict[str, tuple[tuple, DetectionResult]] = {}
    for entry in entries:
        system = system_for(entry)
        lookup = lookups.get(id(system))
        if lookup is None:
            lookup = lookups[id(system)] = system._trace_pipelines(scheme)
        pipeline, plan = lookup(entry)
        target = shape or pipeline.shape
        if indexed and (executor is None or executor.shape != target):
            executor = LogicalExecutor(document, target)
        verdict = pipeline.detect(
            document, entry.record, expected=recorded_message(entry),
            shape=target, strategy=strategy, executor=executor, plan=plan)
        rank = (verdict.p_value,
                entry.sequence if entry.sequence is not None else 0)
        current = best.get(entry.recipient)
        if current is None or rank < current[0]:
            best[entry.recipient] = (rank, verdict)
    return TraceResult(verdicts={name: verdict
                                 for name, (_, verdict) in best.items()})
