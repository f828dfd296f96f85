"""``WmXMLClient`` — the remote twin of :class:`repro.api.Pipeline`.

The client mirrors the pipeline surface (``embed`` / ``detect`` /
``embed_many`` / ``detect_many``) over plain :mod:`urllib`, speaking
the ``wmxml-request-v1``/``wmxml-response-v1`` protocol and
round-tripping the system's versioned JSON artefacts — so local and
remote callers are interchangeable behind one interface::

    client = WmXMLClient("http://127.0.0.1:8420", scheme="books")
    result = client.embed(document, "(c) me")      # EmbeddingResult
    outcome = client.detect(copy, result.record)   # DetectionResult
    assert outcome.detected

Embedding results come back in the batch engine's ``output="xml"``
shape — ``result.xml`` carries the marked markup, ``result.document``
is ``None`` until ``result.to_document()`` parses it — which is
bit-identical to a local ``Pipeline`` embed of the same text.

Failure model: a connection refused (daemon still starting, restarting
behind a supervisor) is retried ``retries`` times with exponential
backoff before :class:`ServiceUnavailableError` — refusal proves the
request was never sent, so *every* request is safe to retry that way.
A mid-request disconnect is different: the daemon may already have
processed what it read, so only **idempotent** requests (GET/PUT, and
the POST endpoints that don't append to the ledger: detect, trace) are
retried; a disconnected embed raises ``connection-closed`` instead of
risking a double-append.  A 503 answer (daemon degraded, registry
storage dark) or a 429 (a multi-tenant daemon rate-limiting this
tenant) is retried honoring the server's ``Retry-After`` header
(capped at :data:`RETRY_AFTER_CAP`) — safe even for embeds, because
the daemon's batched single-transaction append persists nothing on
failure and a 429 is refused before any work happens.  An error envelope from the daemon raises
:class:`RemoteServiceError` carrying the server's stable ``code`` slug
and HTTP status.  Everything descends from
:class:`~repro.errors.WmXMLError`, so the facade's one-handler contract
holds across the wire.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Iterable, Optional, Union

from repro.core.decoder import DetectionResult
from repro.core.encoder import EmbeddingResult, EmbeddingStats
from repro.core.fingerprint import TraceResult
from repro.core.record import WatermarkRecord, all_same_record
from repro.core.scheme import WatermarkingScheme
from repro.core.watermark import Watermark
from repro.errors import WatermarkDecodeError, WmXMLError, http_status_for
from repro.serialize import load_json_object
from repro.service import protocol
from repro.service.protocol import ServiceError
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.tree import Document

#: What the client accepts wherever the pipeline accepts a document.
DocumentLike = Union[Document, str]

#: Ceiling on one backoff sleep (seconds): the exponential ramp stops
#: doubling here, so a high retry count means "wait longer", never
#: "sleep for hours".
RETRY_DELAY_CAP = 2.0

#: Ceiling on honoring a server-sent ``Retry-After`` (seconds): the
#: client trusts the daemon's pacing hint but never lets a bogus or
#: hostile header park it for minutes.
RETRY_AFTER_CAP = 5.0

#: POST endpoints that are read-only on the server (no ledger append),
#: and therefore safe to retry after an ambiguous disconnect.
IDEMPOTENT_POST_PATHS = frozenset(
    {"/v1/detect", "/v1/detect/batch", "/v1/trace"})


def _is_idempotent(method: str, path: str) -> bool:
    """Whether a replay of this request cannot change server state.

    GET/HEAD/PUT are idempotent by HTTP semantics (PUT /v1/schemes
    re-registers the same artefact).  POST embeds append to the
    provenance ledger — replaying one after an ambiguous disconnect
    could double-append — so only the read-only POSTs qualify.
    """
    if method in ("GET", "HEAD", "PUT"):
        return True
    return (path.split("?", 1)[0].rstrip("/") or "/") \
        in IDEMPOTENT_POST_PATHS


def _retry_after_delay(header: Optional[str], fallback: float) -> float:
    """The sleep a 503 asks for: the header's delta-seconds, capped."""
    if header is not None:
        try:
            return min(max(float(header), 0.0), RETRY_AFTER_CAP)
        except ValueError:
            pass  # HTTP-date or garbage: use our own backoff
    return min(fallback, RETRY_AFTER_CAP)


class ServiceUnavailableError(ServiceError):
    """No daemon answered (connection refused after every retry)."""

    code = "service-unavailable"


class RemoteServiceError(ServiceError):
    """The daemon answered with an error envelope.

    ``code`` is the server's stable slug (instance attribute — it
    overrides the class default so ``repro.errors.error_code`` relays
    it verbatim), ``http_status`` the response status.
    """

    code = "remote-error"

    def __init__(self, code: str, message: str,
                 http_status: Optional[int] = None) -> None:
        super().__init__(message)
        self.code = code
        self.http_status = (http_status if http_status is not None
                            else http_status_for(code))

    def __reduce__(self):
        # Exception's default __reduce__ replays only args=(message,),
        # which breaks the three-argument __init__ when the error is
        # pickled back from a process-pool worker.
        return (RemoteServiceError,
                (self.code, str(self), self.http_status))


class WmXMLClient:
    """A remote pipeline bound to one daemon (and usually one scheme)."""

    def __init__(self, base_url: str, scheme: Union[str, dict, None] = None,
                 *, token: Optional[str] = None, timeout: float = 30.0,
                 retries: int = 3, retry_delay: float = 0.1) -> None:
        self.base_url = base_url.rstrip("/")
        self.scheme = scheme
        #: Bearer token for a multi-tenant daemon (``wmxml token
        #: mint``); single-tenant daemons ignore the header entirely.
        self.token = token
        self.timeout = timeout
        self.retries = retries
        self.retry_delay = retry_delay

    # -- the pipeline surface ------------------------------------------------------------

    def embed(self, document: DocumentLike, message: str,
              scheme: Union[str, dict, None] = None) -> EmbeddingResult:
        """Embed ``message`` into one document on the daemon."""
        payload = self._request("POST", "/v1/embed", {
            "scheme": self._scheme_argument(scheme),
            "document": _as_xml(document),
            "message": _as_message(message),
        })
        return _embedding_result(payload)

    def embed_many(self, documents: Iterable[DocumentLike], message: str,
                   scheme: Union[str, dict, None] = None
                   ) -> list[EmbeddingResult]:
        """Embed one message into a fleet; the daemon may pool workers."""
        batch = [_as_xml(item) for item in documents]
        if not batch:
            # Interchangeability: the local pipeline returns [] too.
            return []
        payload = self._request("POST", "/v1/embed/batch", {
            "scheme": self._scheme_argument(scheme),
            "documents": batch,
            "message": _as_message(message),
        })
        return [_embedding_result(item) for item in payload["results"]]

    def detect(self, document: DocumentLike, record: WatermarkRecord, *,
               expected: Optional[str] = None,
               shape: Optional["DocumentShape"] = None,
               strategy: str = "auto",
               scheme: Union[str, dict, None] = None) -> DetectionResult:
        """Verify one suspected copy against a record on the daemon.

        ``shape`` names the copy's *current* organisation when it has
        been reorganized (Figure 2) — mirrors ``Pipeline.detect``.
        """
        payload = self._request("POST", "/v1/detect", {
            "scheme": self._scheme_argument(scheme),
            "document": _as_xml(document),
            "record": _as_record_dict(record),
            "expected": _as_optional_message(expected),
            "shape": _as_shape_dict(shape),
            "strategy": strategy,
        })
        return DetectionResult.from_dict(payload["result"])

    def detect_many(self,
                    items: Iterable[tuple[DocumentLike, WatermarkRecord]],
                    *, expected: Optional[str] = None,
                    shape: Optional["DocumentShape"] = None,
                    strategy: str = "auto",
                    scheme: Union[str, dict, None] = None
                    ) -> list[DetectionResult]:
        """Check many (document, record) pairs in one request.

        When every pair carries the same record — the piracy-hunting
        batch — the record is sent once for the whole request, the wire
        twin of the pooled engine's shared-record chunks.
        """
        batch = list(items)
        if not batch:
            # Interchangeability: the local pipeline returns [] too.
            return []
        request: dict = {
            "scheme": self._scheme_argument(scheme),
            "documents": [_as_xml(document) for document, _ in batch],
            "expected": _as_optional_message(expected),
            "shape": _as_shape_dict(shape),
            "strategy": strategy,
        }
        records = [record for _, record in batch]
        if all_same_record(records):
            request["record"] = _as_record_dict(records[0])
        else:
            request["records"] = [_as_record_dict(record)
                                  for record in records]
        payload = self._request("POST", "/v1/detect/batch", request)
        return [DetectionResult.from_dict(item)
                for item in payload["results"]]

    # -- provenance ------------------------------------------------------------

    def issue(self, document: DocumentLike, recipient: str,
              scheme: Union[str, dict, None] = None) -> EmbeddingResult:
        """Issue a fingerprinted copy to ``recipient`` on the daemon.

        The recipient id becomes the embedded message under that
        recipient's derived key; a registry-enabled daemon records the
        copy, making it traceable by :meth:`trace`.
        """
        payload = self._request("POST", "/v1/embed", {
            "scheme": self._scheme_argument(scheme),
            "document": _as_xml(document),
            "recipient": recipient,
        })
        return _embedding_result(payload)

    def issue_many(self, documents: Iterable[DocumentLike],
                   recipient: str,
                   scheme: Union[str, dict, None] = None
                   ) -> list[EmbeddingResult]:
        """Issue fingerprinted copies of a fleet to one recipient."""
        batch = [_as_xml(item) for item in documents]
        if not batch:
            return []
        payload = self._request("POST", "/v1/embed/batch", {
            "scheme": self._scheme_argument(scheme),
            "documents": batch,
            "recipient": recipient,
        })
        return [_embedding_result(item) for item in payload["results"]]

    def records(self, *, recipient: Optional[str] = None,
                scheme: Optional[str] = None,
                document_hash: Optional[str] = None,
                offset: int = 0, limit: int = 100) -> dict:
        """Query the daemon's persisted registry records.

        Returns ``{"records": [wmxml-registry-record-v1, ...],
        "total": n, "offset": ..., "limit": ...}``.  ``scheme`` may be
        a registered name or a pipeline fingerprint.
        """
        params = {"offset": str(offset), "limit": str(limit)}
        if recipient is not None:
            params["recipient"] = recipient
        if scheme is not None:
            params["scheme"] = scheme
        if document_hash is not None:
            params["document_hash"] = document_hash
        path = "/v1/records?" + urllib.parse.urlencode(params)
        return _payload_of(self._request("GET", path))

    def verify_ledger(self) -> dict:
        """Re-verify the daemon's provenance chain.

        Returns the intact verification report; a tampered chain
        raises :class:`RemoteServiceError` with code ``chain-broken``.
        """
        return self._request("GET", "/v1/ledger/verify")["ledger"]

    def trace(self, document: DocumentLike, *,
              recipients: Optional[list[str]] = None,
              shape: Optional["DocumentShape"] = None,
              strategy: str = "auto",
              scheme: Union[str, dict, None] = None) -> "TraceResult":
        """Trace a suspected leak against every persisted issued copy."""
        request: dict = {
            "scheme": self._scheme_argument(scheme),
            "document": _as_xml(document),
            "shape": _as_shape_dict(shape),
            "strategy": strategy,
        }
        if recipients is not None:
            request["recipients"] = list(recipients)
        payload = self._request("POST", "/v1/trace", request)
        return TraceResult.from_dict(payload["trace"])

    # -- registry / operations ------------------------------------------------------------

    def list_schemes(self) -> dict[str, str]:
        """Registered deployments: ``{name: pipeline fingerprint}``."""
        return self._request("GET", "/v1/schemes")["schemes"]

    def get_scheme(self, name: str) -> WatermarkingScheme:
        payload = self._request("GET", _scheme_path(name))
        return WatermarkingScheme.from_dict(payload["scheme"])

    def put_scheme(self, name: str,
                   scheme: Union[WatermarkingScheme, dict]) -> str:
        """Register/replace a deployment; returns its fingerprint."""
        if isinstance(scheme, WatermarkingScheme):
            scheme = scheme.to_dict()
        payload = self._send("PUT", _scheme_path(name),
                             json.dumps(scheme).encode("utf-8"))
        return payload["fingerprint"]

    def healthz(self) -> dict:
        return _payload_of(self._request("GET", "/v1/healthz"))

    def stats(self) -> dict:
        return _payload_of(self._request("GET", "/v1/stats"))

    # -- transport ------------------------------------------------------------

    def _scheme_argument(self,
                        scheme: Union[str, dict, None]) -> Union[str, dict]:
        resolved = self.scheme if scheme is None else scheme
        if resolved is None:
            raise ServiceError(
                "no scheme: pass one per call or bind the client "
                "(WmXMLClient(url, scheme=...))")
        if isinstance(resolved, WatermarkingScheme):
            return resolved.to_dict()
        return resolved

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        body = None
        if payload is not None:
            body = json.dumps(
                {"format": protocol.REQUEST_FORMAT, **payload}
            ).encode("utf-8")
        return self._send(method, path, body)

    def _send(self, method: str, path: str,
              body: Optional[bytes]) -> dict:
        url = f"{self.base_url}{path}"
        headers = {"Content-Type": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        request = urllib.request.Request(
            url, data=body, method=method, headers=headers)
        idempotent = _is_idempotent(method, path)
        attempt = 0
        while True:
            try:
                with urllib.request.urlopen(
                        request, timeout=self.timeout) as response:
                    return self._decode(response.read())
            except urllib.error.HTTPError as error:
                if error.code in (503, 429) and attempt < self.retries:
                    # The daemon is up but degraded (registry storage
                    # dark, for instance) or rate-limiting this tenant,
                    # and told us when to come back.  Safe for every
                    # endpoint: a 503'd append persisted nothing
                    # (single-transaction batches), and a 429 is
                    # refused before any work happens.
                    delay = _retry_after_delay(
                        error.headers.get("Retry-After"),
                        self.retry_delay * (2 ** attempt))
                    error.close()
                    time.sleep(delay)
                    attempt += 1
                    continue
                raise _remote_error(error) from error
            except urllib.error.URLError as error:
                reason = error.reason
                # Connection refused proves the request was never
                # sent: always safe to retry.  RemoteDisconnected (a
                # ConnectionResetError subclass — the daemon accepted,
                # read, then closed without answering) is ambiguous:
                # the work may have happened, so only idempotent
                # requests retry; a disconnected embed must NOT be
                # replayed, or it could append twice to the ledger.
                disconnected = isinstance(
                    reason, http.client.RemoteDisconnected)
                retryable = (isinstance(reason, ConnectionRefusedError)
                             or (disconnected and idempotent))
                if retryable and attempt < self.retries:
                    time.sleep(min(self.retry_delay * (2 ** attempt),
                                   RETRY_DELAY_CAP))
                    attempt += 1
                    continue
                if disconnected and not idempotent:
                    raise RemoteServiceError(
                        "connection-closed",
                        f"the daemon at {self.base_url} disconnected "
                        f"mid-request; {method} {path} is not "
                        "idempotent, so it was not retried — verify "
                        "server-side state (e.g. /v1/records) before "
                        "resending") from error
                if (not retryable
                        and isinstance(reason, (BrokenPipeError,
                                                ConnectionResetError))):
                    # The connection died while we were still sending.
                    # Inherently ambiguous: the daemon may have died,
                    # or refused an oversize body 413-without-reading
                    # (our blocked write then cannot read the
                    # response) — so the code/status stay neutral.
                    size = len(body or b"")
                    hint = (f"; the {size}-byte body may exceed its "
                            "--max-body-bytes ceiling"
                            if size else "")
                    raise RemoteServiceError(
                        "connection-closed",
                        f"the daemon at {self.base_url} closed the "
                        f"connection mid-request (daemon restarted or "
                        f"died{hint})") from error
                raise ServiceUnavailableError(
                    f"no WmXML daemon answered at {self.base_url} "
                    f"({reason}) after {attempt + 1} attempt(s)"
                ) from error
            except TimeoutError as error:
                # A read timeout escapes urllib undressed; keep the
                # one-handler contract (everything is a WmXMLError).
                raise ServiceUnavailableError(
                    f"no response from {self.base_url} within "
                    f"{self.timeout}s") from error
            except (OSError, http.client.HTTPException) as error:
                # Errors after the request was sent escape urllib
                # unwrapped (urllib only wraps *send*-side errors in
                # URLError): a daemon killed before answering raises
                # RemoteDisconnected right here, so the idempotency
                # policy applies on this path too.
                if isinstance(error, http.client.RemoteDisconnected):
                    if idempotent and attempt < self.retries:
                        time.sleep(min(
                            self.retry_delay * (2 ** attempt),
                            RETRY_DELAY_CAP))
                        attempt += 1
                        continue
                    if not idempotent:
                        raise RemoteServiceError(
                            "connection-closed",
                            f"the daemon at {self.base_url} "
                            f"disconnected mid-request; {method} "
                            f"{path} is not idempotent, so it was not "
                            "retried — verify server-side state (e.g. "
                            "/v1/records) before resending") from error
                raise ServiceUnavailableError(
                    f"connection to {self.base_url} failed "
                    f"mid-response ({error})") from error

    @staticmethod
    def _decode(raw: bytes) -> dict:
        # A proxy splash page / wrong service on the port: keep the
        # one-handler contract rather than leaking a raw decode error.
        data = load_json_object(raw or b"{}", ServiceError, "response")
        if data.get("format") != protocol.RESPONSE_FORMAT:
            raise ServiceError(
                f"response is not a {protocol.RESPONSE_FORMAT} envelope "
                f"(format={data.get('format')!r})")
        if not data.get("ok", False):
            error = data.get("error") or {}
            raise RemoteServiceError(
                error.get("code", "remote-error"),
                error.get("message", "unspecified remote error"),
                error.get("http_status"))
        return data


def _remote_error(error: urllib.error.HTTPError) -> WmXMLError:
    """An HTTP error status -> the daemon's envelope, best effort."""
    try:
        # read() itself can die (connection reset / truncated body
        # mid-envelope) — still an envelope-less remote error, never a
        # raw http.client exception.
        data = load_json_object(error.read(), ServiceError, "error reply")
    except (ServiceError, OSError, http.client.HTTPException):
        data = None
    if data is not None:
        envelope = data.get("error")
        envelope = envelope if isinstance(envelope, dict) else {}
        return RemoteServiceError(
            envelope.get("code", "remote-error"),
            envelope.get("message", f"HTTP {error.code}"),
            error.code)
    # Not a WmXML envelope at all (proxy error page, other service).
    return RemoteServiceError("remote-error",
                              f"HTTP {error.code} from {error.url}",
                              error.code)


def _payload_of(envelope: dict) -> dict:
    """Strip the wire-framing keys so SDK callers never couple to the
    envelope (a future ``-v2`` framing change stays transparent)."""
    return {key: value for key, value in envelope.items()
            if key not in ("format", "ok")}


def _scheme_path(name: str) -> str:
    # Percent-encode so names with '#', '?', '/' or spaces survive the
    # URL (the server unquotes); otherwise urllib would silently treat
    # them as fragment/query/path syntax.
    return f"/v1/schemes/{urllib.parse.quote(name, safe='')}"


def _as_xml(document: DocumentLike) -> str:
    if isinstance(document, Document):
        return serialize(document)
    if isinstance(document, str):
        return document
    raise ServiceError(
        f"cannot send {type(document).__name__} as a document; "
        "pass a Document or XML text")


def _as_message(message: Union[str, Watermark]) -> str:
    if isinstance(message, Watermark):
        try:
            return message.to_message(strict=True)
        except WatermarkDecodeError as error:
            # Don't mislabel this as a detect-time decode failure: the
            # limitation is the wire format, not the watermark.
            raise ServiceError(
                "the wmxml-request-v1 protocol carries text messages "
                f"only, and this Watermark does not decode to text "
                f"({error}); use a local Pipeline for raw-bit "
                "watermarks") from error
    return message


def _as_optional_message(message) -> Optional[str]:
    return None if message is None else _as_message(message)


def _as_record_dict(record: Union[WatermarkRecord, dict]) -> dict:
    if isinstance(record, WatermarkRecord):
        return record.to_dict()
    return record


def _as_shape_dict(shape) -> Optional[dict]:
    if shape is None or isinstance(shape, dict):
        return shape
    return shape.to_dict()


def _embedding_result(payload: dict) -> EmbeddingResult:
    return EmbeddingResult(
        document=None,
        record=WatermarkRecord.from_dict(payload["record"]),
        stats=EmbeddingStats.from_dict(payload["stats"]),
        xml=payload["xml"],
    )
