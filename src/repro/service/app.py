"""The WmXML watermarking daemon: one ``WmXMLSystem`` behind HTTP.

The paper presents WmXML as a system that *sits beside* an XML
database and watermarks/verifies documents on demand (§1, Figure 4);
this module is that deployment shape.  A :class:`WmXMLService` wraps
one :class:`~repro.api.WmXMLSystem` — the secret key never crosses the
wire; documents, records and verdicts do — and exposes the versioned
JSON protocol of :mod:`repro.service.protocol` over a dependency-free
``http.server`` stack:

====================  ======================================================
endpoint              behaviour
====================  ======================================================
POST /v1/embed        watermark one document (raw XML in, marked XML out)
POST /v1/embed/batch  watermark a fleet; rides the PR 4 process pool
POST /v1/detect       verify one suspected copy against a record
POST /v1/detect/batch many copies, one (or per-item) record(s); pooled
GET  /v1/records      persisted registry records (filter + paginate)
GET  /v1/ledger/verify  re-verify the provenance chain end to end
POST /v1/trace        trace a leaked copy against all issued copies
GET  /v1/schemes      registry listing (name -> pipeline fingerprint)
GET  /v1/schemes/{n}  the ``wmxml-scheme-v1`` artefact; ``ETag`` = fingerprint
PUT  /v1/schemes/{n}  register/replace a deployment
GET  /v1/healthz      liveness + registry summary
GET  /v1/stats        request counts and per-endpoint latency
====================  ======================================================

Requests are served by :class:`http.server.ThreadingHTTPServer` — one
thread per request over the compiled, thread-safe pipelines — while
batch endpoints escape the GIL through ``embed_many``/``detect_many``
with the daemon's configured worker-process count.

:meth:`WmXMLService.dispatch` is a pure ``(method, path, body) ->
(status, payload, headers)`` function with no socket I/O, so the whole
routing/error-mapping surface is unit-testable without a server.

Constructed with ``tenants=`` (a :class:`~repro.tenants.TenantDirectory`)
instead of a single system, the same daemon serves many tenants: every
endpoint except ``/v1/healthz`` demands a bearer token, scopes gate each
route (401/403), token buckets answer 429 + ``Retry-After``, and
schemes, records, trace and stats are namespaced per tenant.
"""

from __future__ import annotations

import contextlib
import json
import math
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro import __version__
from repro.api.system import SchemeLike, WmXMLSystem
from repro.core.record import WatermarkRecord
from repro.core.scheme import WatermarkingScheme
from repro.faults import fault_point
from repro.registry import (RegistryNotConfiguredError,
                            RegistryUnavailableError, WatermarkRegistry)
from repro.semantics.shape import DocumentShape
from repro.errors import WmXMLError, error_code, http_status_for
from repro.perf.timers import StageTimer
from repro.service import protocol
from repro.tenants import TenantDirectory
from repro.tenants.errors import (ForbiddenError, RateLimitedError,
                                  UnauthorizedError)
from repro.tenants.tokens import TokenClaims
from repro.xmlmodel.parser import parse
from repro.service.protocol import (
    MalformedRequestError,
    MethodNotAllowedError,
    NotFoundError,
    OversizeBodyError,
    RegistryFullError,
)

#: Accepted strategy values mirror the pipeline's.
from repro.api.pipeline import DETECTION_STRATEGIES


class WmXMLService:
    """Routing, error mapping and stats for one ``WmXMLSystem``.

    Two construction modes, mutually exclusive:

    * ``WmXMLService(system)`` — the classic single-tenant daemon: one
      key, one scheme namespace, no authentication.  Behaviour is
      byte-for-byte what it was before tenancy existed.
    * ``WmXMLService(tenants=directory)`` — multi-tenant: every
      endpoint except ``/v1/healthz`` requires a bearer token, scopes
      gate each route, token buckets rate-limit each tenant, and
      schemes/records/trace/stats are namespaced per tenant.
    """

    def __init__(self, system: Optional[WmXMLSystem] = None, *,
                 tenants: Optional[TenantDirectory] = None,
                 processes: Optional[int] = None,
                 max_body_bytes: int = protocol.MAX_BODY_BYTES,
                 max_schemes: int = protocol.MAX_SCHEMES,
                 retry_after: int = 1) -> None:
        if (system is None) == (tenants is None):
            raise ValueError(
                "pass exactly one of system= or tenants=")
        self.system = system
        self.tenants = tenants
        self.processes = processes
        self.max_body_bytes = max_body_bytes
        self.max_schemes = max_schemes
        #: Delta-seconds advertised in ``Retry-After`` on every 503.
        self.retry_after = retry_after
        # ``max_schemes`` bounds *wire-registered* additions: schemes
        # the operator loaded at boot never count against it.  Tenant
        # mode tracks one ceiling per namespace.
        if system is not None:
            self._scheme_ceiling = len(system.scheme_names()) + max_schemes
            self._scheme_ceilings = {}
        else:
            self._scheme_ceiling = max_schemes
            self._scheme_ceilings = {
                name: len(tenants.scheme_names(name)) + max_schemes
                for name in tenants.tenant_names()}
        # Which tenant the request thread authenticated as, for stats
        # attribution after dispatch's try/except collapses the path.
        self._local = threading.local()
        self._tenant_counters = {
            name: {"requests": 0, "errors": 0, "embedded_documents": 0}
            for name in (tenants.tenant_names()
                         if tenants is not None else ())}
        # Serialises the ceiling check + insert of PUT /v1/schemes so
        # concurrent PUTs cannot race past the ceiling.
        self._registry_lock = threading.Lock()
        self._timer = StageTimer()
        self._stats_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._started = time.monotonic()
        # Graceful degradation: flipped when registry storage fails
        # like a failing disk; healthz probes self-heal it.  Embed and
        # detect keep serving while degraded (embeds unrecorded);
        # registry-only endpoints 503 with Retry-After.
        self._degraded = False
        # In-flight request accounting, so SIGTERM can drain running
        # requests before the process exits (see :meth:`drain`).
        self._inflight = 0
        self._inflight_cv = threading.Condition()

    # -- lifecycle ------------------------------------------------------------

    def begin_request(self) -> None:
        with self._inflight_cv:
            self._inflight += 1

    def end_request(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            if self._inflight <= 0:
                self._inflight_cv.notify_all()

    @property
    def inflight(self) -> int:
        with self._inflight_cv:
            return self._inflight

    def drain(self, timeout: float = 5.0) -> bool:
        """Wait until every in-flight request has been answered.

        The SIGTERM half of graceful shutdown: the server stops
        accepting, then drains, then closes — a request that was being
        served when the signal arrived still gets its response.
        Returns False if requests were still running at ``timeout``.
        """
        deadline = time.monotonic() + timeout
        with self._inflight_cv:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cv.wait(remaining)
        return True

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, method: str, path: str, body: bytes = b"",
                 headers: Optional[dict] = None
                 ) -> tuple[int, Optional[dict], dict]:
        """One request -> ``(status, payload | None, response headers)``.

        Every library or protocol error becomes an error envelope with
        the status from :data:`repro.errors.HTTP_STATUS_BY_CODE`; the
        daemon never leaks a traceback onto the wire.
        """
        label = f"{method} {_endpoint_label(path)}"
        start = time.perf_counter()
        failed = False
        self._local.tenant = None
        try:
            # A fault here models any request-handling crash before
            # routing; one after routing models a late failure with
            # the work already done.  Either way the contract holds:
            # an error envelope, never a dropped connection.
            fault_point("service.dispatch")
            if len(body) > self.max_body_bytes:
                raise OversizeBodyError(
                    f"request body of {len(body)} bytes exceeds the "
                    f"{self.max_body_bytes}-byte ceiling")
            status, payload, extra = self._route(method, path, body,
                                                 headers or {})
            fault_point("service.response")
        except WmXMLError as error:
            failed = True
            if isinstance(error, RegistryUnavailableError):
                self._degraded = True
            status = http_status_for(error_code(error))
            payload = protocol.error_response(error)
            extra = {}
            if isinstance(error, RateLimitedError):
                # 429 carries the bucket's exact refill time (whole
                # seconds, at least 1) so the client SDK knows when
                # the retry can succeed.
                extra = {"Retry-After":
                         str(max(1, math.ceil(error.retry_after)))}
        except Exception as error:  # noqa: BLE001
            # Anything a wire-reachable path raises that is not a
            # WmXMLError (e.g. a KeyError from a half-valid artefact)
            # still becomes an envelope, never a dropped connection.
            failed = True
            status = http_status_for(WmXMLError.code)
            payload = protocol.error_response(
                WmXMLError(f"unhandled {type(error).__name__}: {error}"))
            extra = {}
        response_headers = {protocol.PROTOCOL_HEADER:
                            protocol.RESPONSE_FORMAT}
        response_headers.update(extra)
        if status == 503:
            # Every 503 is a transient condition by contract; tell
            # clients when to come back instead of letting them
            # hammer a struggling daemon.
            response_headers.setdefault("Retry-After",
                                        str(self.retry_after))
        tenant = getattr(self._local, "tenant", None)
        with self._stats_lock:
            self._requests += 1
            self._errors += failed
            self._timer.record(label, time.perf_counter() - start)
            if tenant is not None:
                counters = self._tenant_counters[tenant]
                counters["requests"] += 1
                counters["errors"] += failed
        return status, payload, response_headers

    def note_refusal(self, method: str, path: str) -> None:
        """Count a handler-level refusal (oversize/invalid framing).

        Those never reach :meth:`dispatch`, but operators polling
        ``/v1/stats`` must still see them in the request/error counts.
        """
        # A distinct label: refusals never execute, so mixing their
        # zero-duration samples into the endpoint's bucket would
        # poison its mean latency.
        label = f"{method} {_endpoint_label(path)} (refused)"
        with self._stats_lock:
            self._requests += 1
            self._errors += 1
            self._timer.record(label, 0.0)

    def _route(self, method: str, path: str, body: bytes,
               headers: dict) -> tuple[int, Optional[dict], dict]:
        path, _, query_string = path.partition("?")
        query = urllib.parse.parse_qs(query_string)
        path = path.rstrip("/") or "/"
        if path == "/v1/healthz":
            # Health stays open in tenant mode: load balancers and
            # orchestrators probe it without credentials, and it
            # reveals no tenant data.
            _require_method(method, "GET")
            return 200, protocol.ok_response(self._healthz()), {}
        auth = self._authenticate(method, path, headers)
        if path == "/v1/stats":
            _require_method(method, "GET")
            return 200, protocol.ok_response(self._stats(auth)), {}
        if path == "/v1/embed":
            _require_method(method, "POST")
            return self._embed(protocol.parse_request(body), batch=False,
                               auth=auth)
        if path == "/v1/embed/batch":
            _require_method(method, "POST")
            return self._embed(protocol.parse_request(body), batch=True,
                               auth=auth)
        if path == "/v1/detect":
            _require_method(method, "POST")
            return self._detect(protocol.parse_request(body), batch=False,
                                auth=auth)
        if path == "/v1/detect/batch":
            _require_method(method, "POST")
            return self._detect(protocol.parse_request(body), batch=True,
                                auth=auth)
        if path == "/v1/records":
            _require_method(method, "GET")
            return self._records(query, auth)
        if path == "/v1/ledger/verify":
            _require_method(method, "GET")
            return self._ledger_verify()
        if path == "/v1/trace":
            _require_method(method, "POST")
            return self._trace(protocol.parse_request(body), auth)
        if path == "/v1/schemes":
            _require_method(method, "GET")
            return 200, protocol.ok_response(
                {"schemes": self._system_for(auth).list_schemes()}), {}
        if path.startswith("/v1/schemes/"):
            name = urllib.parse.unquote(path[len("/v1/schemes/"):])
            if method == "GET":
                return self._get_scheme(name, headers, auth)
            if method == "PUT":
                return self._put_scheme(name, body, auth)
            raise MethodNotAllowedError(
                f"{method} not allowed on /v1/schemes/{{name}} "
                "(use GET or PUT)")
        raise NotFoundError(f"no such endpoint: {method} {path}")

    # -- auth / tenancy ------------------------------------------------------------

    def _authenticate(self, method: str, path: str,
                      headers: dict) -> Optional[TokenClaims]:
        """The tenant-mode gate: token -> scopes -> request bucket.

        Single-tenant daemons return ``None`` without looking at the
        headers, so the pre-tenancy wire behaviour is untouched.  The
        order is deliberate: a missing credential is 401 before a
        missing scope is 403 before an empty bucket is 429 — and only
        an *authenticated* request is charged or counted against its
        tenant.
        """
        if self.tenants is None:
            return None
        claims = self.tenants.authenticate(_bearer_token(headers))
        scope = _required_scope(method, path)
        if scope is not None and scope not in claims.scopes:
            raise ForbiddenError(
                f"token for tenant {claims.tenant!r} lacks the "
                f"{scope!r} scope required by {method} {path} "
                f"(granted: {sorted(claims.scopes)})")
        # Attribute before charging: a 429 is the tenant's own
        # traffic, so it must land in that tenant's error counter.
        self._local.tenant = claims.tenant
        self.tenants.charge_request(claims.tenant)
        return claims

    def _system_for(self, auth: Optional[TokenClaims],
                    key_id: Optional[int] = None) -> WmXMLSystem:
        """The system serving this request: the single-tenant one, or
        the authenticated tenant's system under ``key_id`` (``None``
        = the active generation)."""
        if self.tenants is None:
            return self.system
        return self.tenants.system(auth.tenant, key_id=key_id)

    def _registry_source(self) -> Optional[WatermarkRegistry]:
        if self.tenants is not None:
            return self.tenants.registry
        return self.system.registry

    # -- endpoints ------------------------------------------------------------

    def _healthz(self) -> dict:
        # The health probe doubles as the self-heal path: a successful
        # registry read clears the degraded flag, a failing one sets
        # it.  Health always answers 200 — "degraded" is a state
        # report, not an error.
        registry = self._registry_source()
        summary = None
        if registry is not None:
            try:
                summary = {"records": registry.count(),
                           "blocks": registry.backend.block_count()}
                self._degraded = False
            except RegistryUnavailableError as error:
                self._degraded = True
                summary = {"available": False, "error": str(error)}
        payload = {
            "status": "degraded" if self._degraded else "ok",
            "version": __version__,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "processes": self.processes,
            "registry": summary,
        }
        if self.tenants is None:
            payload["schemes"] = self.system.scheme_names()
            payload["key_fingerprint"] = self.system.key_fingerprint
        else:
            # No per-tenant detail on the open probe: just the master
            # key fingerprint (a public hash) and the population size.
            payload["key_fingerprint"] = self.tenants.keys.fingerprint()
            payload["tenants"] = len(self.tenants.tenant_names())
        return payload

    def _stats(self, auth: Optional[TokenClaims] = None) -> dict:
        with self._stats_lock:
            endpoints = {
                name: {"calls": stats.calls,
                       "total_ms": stats.total_ms,
                       "mean_ms": stats.mean_ms}
                for name, stats in self._timer.stages.items()
            }
            payload = {"requests": self._requests,
                       "errors": self._errors,
                       "version": __version__,
                       "uptime_s": round(time.monotonic()
                                         - self._started, 3),
                       "endpoints": endpoints}
            if auth is not None:
                counters = dict(self._tenant_counters[auth.tenant])
                payload["tenant"] = {
                    "name": auth.tenant,
                    **counters,
                    "quota": self.tenants.quota_snapshot(auth.tenant),
                }
            return payload

    def _scheme_argument(self, request: dict) -> SchemeLike:
        scheme = request.get("scheme")
        if isinstance(scheme, (str, dict)):
            return scheme
        if scheme is None:
            raise MalformedRequestError(
                "request is missing required field 'scheme' "
                "(a registered name or an inline wmxml-scheme-v1 object)")
        raise MalformedRequestError(
            f"request field 'scheme' must be a name or an object, got "
            f"{type(scheme).__name__}")

    def _embed(self, request: dict, batch: bool,
               auth: Optional[TokenClaims] = None
               ) -> tuple[int, dict, dict]:
        system = self._system_for(auth)
        scheme = self._scheme_argument(request)
        recipient = _request_recipient(request)
        if recipient is not None:
            # Fingerprinted issuance: the recipient id is the message
            # (self-describing evidence) under the derived key.
            pipeline = system.recipient_pipeline(scheme, recipient)
            message = recipient
        else:
            pipeline = system.pipeline(scheme)
            message = protocol.required_field(request, "message", str)
        if batch:
            documents = _document_list(request)
            processes = self.processes
        else:
            documents = [protocol.required_field(request, "document", str)]
            processes = None
        if auth is not None:
            # The document bucket charges per embedded copy, before
            # any compute is spent — a 429'd batch costs the daemon
            # nothing but the parse.
            self.tenants.charge_documents(auth.tenant, len(documents))
        # Routed through the system (not the pipeline) so an attached
        # registry records every copy that leaves over the wire.  When
        # registry storage is dark the daemon degrades instead of
        # refusing: the embed still serves, flagged ``recorded: false``
        # so the caller knows this copy left no ledger trace.
        recorded: Optional[bool] = None
        if self._registry_source() is not None:
            recorded = not self._degraded or self._registry_recovered()
        if recorded is False:
            results = pipeline.embed_many(documents, message,
                                          processes=processes,
                                          output="xml")
        else:
            try:
                results = system.embed_many(
                    scheme, documents, message, processes=processes,
                    output="xml", recipient=recipient)
            except RegistryUnavailableError:
                # The batched append is all-or-nothing, so nothing was
                # persisted; serve the embed unrecorded.  (Embedding
                # is deterministic, so the re-run is bit-identical.)
                self._degraded = True
                recorded = False
                results = pipeline.embed_many(documents, message,
                                              processes=processes,
                                              output="xml")
        if batch:
            payload = {"results": [_embed_payload(item)
                                   for item in results]}
        else:
            payload = _embed_payload(results[0])
        if recorded is not None:
            payload["recorded"] = recorded
        if auth is not None:
            payload["tenant"] = auth.tenant
            payload["key_id"] = system.key_id
            with self._stats_lock:
                self._tenant_counters[auth.tenant][
                    "embedded_documents"] += len(documents)
        return 200, protocol.ok_response(payload), {
            protocol.FINGERPRINT_HEADER: pipeline.fingerprint}

    def _detect(self, request: dict, batch: bool,
                auth: Optional[TokenClaims] = None
                ) -> tuple[int, dict, dict]:
        scheme = self._scheme_argument(request)
        expected = request.get("expected")
        if expected is not None and not isinstance(expected, str):
            raise MalformedRequestError(
                "request field 'expected' must be a string")
        strategy = request.get("strategy", "auto")
        if strategy not in DETECTION_STRATEGIES:
            raise MalformedRequestError(
                f"unknown detection strategy {strategy!r}; choices: "
                f"{DETECTION_STRATEGIES}")
        shape = _request_shape(request)
        if batch:
            documents = _document_list(request)
            records = _record_list(request, len(documents))
        else:
            documents = [protocol.required_field(request, "document",
                                                 str)]
            records = [WatermarkRecord.from_dict(
                protocol.required_field(request, "record", dict))]
        pipeline = self._detect_system(auth, records).pipeline(scheme)
        if batch:
            outcomes = pipeline.detect_many(
                list(zip(documents, records)), expected=expected,
                shape=shape, strategy=strategy,
                processes=self.processes)
            payload = {"results": [outcome.to_dict()
                                   for outcome in outcomes]}
        else:
            outcome = pipeline.detect_many(
                [(documents[0], records[0])], expected=expected,
                shape=shape, strategy=strategy)[0]
            payload = {"result": outcome.to_dict()}
        return 200, protocol.ok_response(payload), {
            protocol.FINGERPRINT_HEADER: pipeline.fingerprint}

    def _detect_system(self, auth: Optional[TokenClaims],
                       records: list) -> WmXMLSystem:
        """The system whose key can verify these records.

        Tenant mode resolves each record's stamped generation (a
        record from another tenant's namespace is 403, a forged
        ``key_id`` is refused by the key map); a batch that mixes
        generations would silently mis-verify under a single key, so
        it is rejected outright.  Unstamped records verify under the
        caller's active generation.
        """
        if self.tenants is None:
            return self.system
        systems = {self.tenants.system_for_record(auth.tenant, record)
                   for record in records}
        if len(systems) > 1:
            raise MalformedRequestError(
                "detect batch mixes records from different key "
                "generations; split the batch per key_id")
        return systems.pop()

    # -- registry endpoints ------------------------------------------------------------

    def _registry(self) -> WatermarkRegistry:
        registry = self._registry_source()
        if registry is None:
            raise RegistryNotConfiguredError(
                "this daemon runs without a registry; restart it with "
                "--registry path.db to persist and query issued copies")
        if self._degraded and not self._registry_recovered():
            # Registry-only endpoints answer 503 + Retry-After while
            # storage is dark, without re-poking the failing backend
            # on the full query path.
            raise RegistryUnavailableError(
                "registry storage is currently unavailable; the "
                "daemon is serving in degraded mode — retry shortly")
        return registry

    def _registry_recovered(self) -> bool:
        """One cheap probe: a readable registry clears the flag."""
        registry = self._registry_source()
        try:
            registry.backend.record_count()
        except RegistryUnavailableError:
            return False
        self._degraded = False
        return True

    def _scheme_filters(self, query: dict,
                        auth: Optional[TokenClaims]
                        ) -> Optional[list[str]]:
        """The ``scheme`` query param as registry fingerprints: a
        registered name resolves to its fingerprint(s), anything else
        passes through as a raw pipeline fingerprint.

        Tenant mode resolves a name across *every* key generation —
        records embedded before a rotation carry the older
        generation's fingerprint, and a tenant asking for "their
        scheme" means all of them.
        """
        value = _single_param(query, "scheme")
        if value is None:
            return None
        if self.tenants is not None:
            if value in self.tenants.scheme_names(auth.tenant):
                return self.tenants.scheme_fingerprints(
                    auth.tenant, value)
            return [value]
        if value in self.system.scheme_names():
            return [self.system.scheme_fingerprint(value)]
        return [value]

    def _records(self, query: dict,
                 auth: Optional[TokenClaims] = None
                 ) -> tuple[int, dict, dict]:
        registry = self._registry()
        recipient = _single_param(query, "recipient")
        fingerprints = self._scheme_filters(query, auth)
        document_hash = _single_param(query, "document_hash")
        tenant = auth.tenant if auth is not None else None
        offset = _int_param(query, "offset", 0)
        limit = _int_param(query, "limit", 100)
        if offset < 0 or limit < 0:
            raise MalformedRequestError(
                "'offset' and 'limit' must be non-negative")
        if fingerprints is None or len(fingerprints) == 1:
            fingerprint = fingerprints[0] if fingerprints else None
            entries = registry.records(
                recipient=recipient, scheme_fingerprint=fingerprint,
                document_hash=document_hash, tenant=tenant,
                offset=offset, limit=limit)
            total = registry.count(
                recipient=recipient, scheme_fingerprint=fingerprint,
                document_hash=document_hash, tenant=tenant)
        else:
            # A rotated scheme spans several fingerprints; merge the
            # per-generation result sets back into sequence order and
            # page the merge by hand.
            merged = []
            for fingerprint in fingerprints:
                merged.extend(registry.records(
                    recipient=recipient,
                    scheme_fingerprint=fingerprint,
                    document_hash=document_hash, tenant=tenant))
            merged.sort(key=lambda entry: entry.sequence
                        if entry.sequence is not None else 0)
            total = len(merged)
            entries = merged[offset:offset + limit]
        return 200, protocol.ok_response({
            "records": [entry.to_dict() for entry in entries],
            "total": total, "offset": offset, "limit": limit,
        }), {}

    def _ledger_verify(self) -> tuple[int, dict, dict]:
        verification = self._registry().verify_chain()
        # A broken chain is a conflict between the stored rows and the
        # append-only contract -> the chain-broken envelope (409).
        verification.raise_if_broken()
        return 200, protocol.ok_response(
            {"ledger": verification.to_dict()}), {}

    def _trace(self, request: dict,
               auth: Optional[TokenClaims] = None
               ) -> tuple[int, dict, dict]:
        self._registry()
        scheme = self._scheme_argument(request)
        document = parse(
            protocol.required_field(request, "document", str),
            strip_whitespace=True)
        recipients = request.get("recipients")
        if recipients is not None and (
                not isinstance(recipients, list)
                or not all(isinstance(item, str) for item in recipients)):
            raise MalformedRequestError(
                "request field 'recipients' must be a list of strings")
        strategy = request.get("strategy", "auto")
        if strategy not in DETECTION_STRATEGIES:
            raise MalformedRequestError(
                f"unknown detection strategy {strategy!r}; choices: "
                f"{DETECTION_STRATEGIES}")
        if auth is not None:
            # The directory's trace never leaves the tenant's registry
            # namespace and sweeps every key generation of the scheme.
            trace = self.tenants.trace(
                auth.tenant, scheme, document,
                shape=_request_shape(request), strategy=strategy,
                recipients=recipients)
        else:
            trace = self.system.trace(
                scheme, document, shape=_request_shape(request),
                strategy=strategy, recipients=recipients)
        return 200, protocol.ok_response({"trace": trace.to_dict()}), {
            protocol.FINGERPRINT_HEADER:
                self._system_for(auth).scheme_fingerprint(scheme)}

    def _get_scheme(self, name: str, headers: dict,
                    auth: Optional[TokenClaims] = None
                    ) -> tuple[int, Optional[dict], dict]:
        # Atomic pair: a concurrent PUT must not pair the old body
        # with the new ETag (which would pin conditional GETs to the
        # stale scheme) — and repeat polls hit the fingerprint cache.
        scheme, fingerprint = self._system_for(auth) \
            .scheme_with_fingerprint(name)
        etag = f'"{fingerprint}"'
        response_headers = {"ETag": etag,
                            protocol.FINGERPRINT_HEADER: fingerprint}
        if _etag_matches(_if_none_match(headers), etag):
            return 304, None, response_headers
        return 200, protocol.ok_response(
            {"name": name, "scheme": scheme.to_dict(),
             "fingerprint": fingerprint}), response_headers

    def _put_scheme(self, name: str, body: bytes,
                    auth: Optional[TokenClaims] = None
                    ) -> tuple[int, dict, dict]:
        # The body is the wmxml-scheme-v1 artefact itself (it carries
        # its own format tag), not a request envelope.
        scheme = WatermarkingScheme.from_dict(protocol.parse_json(body))
        with self._registry_lock:
            if auth is not None:
                registered = self.tenants.scheme_names(auth.tenant)
                ceiling = self._scheme_ceilings[auth.tenant]
                if (name not in registered
                        and len(registered) >= ceiling):
                    raise RegistryFullError(
                        f"tenant {auth.tenant!r} holds "
                        f"{len(registered)} schemes "
                        f"({self.max_schemes} wire-registered "
                        "allowed); replace an existing name or raise "
                        "--max-schemes")
                self.tenants.register(auth.tenant, name, scheme)
            else:
                registered = self.system.scheme_names()
                if (name not in registered
                        and len(registered) >= self._scheme_ceiling):
                    raise RegistryFullError(
                        f"registry holds {len(registered)} schemes "
                        f"({self.max_schemes} wire-registered "
                        "allowed); replace an existing name or raise "
                        "--max-schemes")
                self.system.add_scheme(name, scheme)
        # Fingerprint the object we registered, not the name: a
        # concurrent PUT to the same name must not leak its fingerprint
        # into our response/ETag.
        fingerprint = self._system_for(auth).scheme_fingerprint(scheme)
        return 200, protocol.ok_response(
            {"registered": name, "fingerprint": fingerprint}), {
                "ETag": f'"{fingerprint}"',
                protocol.FINGERPRINT_HEADER: fingerprint}


def _require_method(method: str, allowed: str) -> None:
    if method != allowed:
        raise MethodNotAllowedError(
            f"{method} not allowed here (use {allowed})")


def _bearer_token(headers: dict) -> Optional[str]:
    """The token of an ``Authorization: Bearer <token>`` header.

    ``None`` when the header is absent (the verifier turns that into
    a 401 with its own message); a present-but-malformed header is
    refused here with a hint at the expected shape.
    """
    for key, value in headers.items():
        if key.lower() == "authorization":
            kind, _, token = value.strip().partition(" ")
            token = token.strip()
            if kind.lower() != "bearer" or not token:
                raise UnauthorizedError(
                    "Authorization header must be 'Bearer <token>'")
            return token
    return None


def _required_scope(method: str, path: str) -> Optional[str]:
    """The scope a route demands, or ``None`` for any valid token.

    ``/v1/stats`` needs only authentication (every tenant may read
    its own counters); unknown paths also map to ``None`` so probing
    an invalid URL with a valid token answers 404, while probing it
    without one answers 401 — the URL space is not enumerable
    anonymously.
    """
    if path in ("/v1/embed", "/v1/embed/batch"):
        return "embed"
    if path in ("/v1/detect", "/v1/detect/batch"):
        return "detect"
    if path == "/v1/trace":
        return "trace"
    if path in ("/v1/records", "/v1/ledger/verify"):
        return "records"
    if path == "/v1/schemes" or path.startswith("/v1/schemes/"):
        return "schemes-write" if method == "PUT" else "schemes"
    return None


#: Routed paths get their own stats bucket; everything else collapses
#: to one, so a scanner probing random URLs cannot grow the StageTimer
#: (and every /v1/stats payload) without bound.
_KNOWN_ENDPOINTS = frozenset({
    "/v1/healthz", "/v1/stats", "/v1/embed", "/v1/embed/batch",
    "/v1/detect", "/v1/detect/batch", "/v1/schemes",
    "/v1/records", "/v1/ledger/verify", "/v1/trace",
})


def _single_param(query: dict, name: str) -> Optional[str]:
    """The single value of a query param, or None when absent."""
    values = query.get(name)
    if not values:
        return None
    if len(values) > 1:
        raise MalformedRequestError(
            f"query parameter {name!r} given {len(values)} times")
    return values[0]


def _int_param(query: dict, name: str, default: int) -> int:
    value = _single_param(query, name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise MalformedRequestError(
            f"query parameter {name!r} must be an integer, got "
            f"{value!r}") from None


def _request_recipient(request: dict) -> Optional[str]:
    recipient = request.get("recipient")
    if recipient is None:
        return None
    if not isinstance(recipient, str) or not recipient:
        raise MalformedRequestError(
            "request field 'recipient' must be a non-empty string")
    return recipient


def _endpoint_label(path: str) -> str:
    """Stable stats label: named-scheme paths collapse to one bucket."""
    path = path.split("?", 1)[0].rstrip("/") or "/"
    if path.startswith("/v1/schemes/"):
        return "/v1/schemes/{name}"
    if path in _KNOWN_ENDPOINTS:
        return path
    return "(unknown)"


def _if_none_match(headers: dict) -> Optional[str]:
    for key, value in headers.items():
        if key.lower() == "if-none-match":
            return value
    return None


def _etag_matches(header_value: Optional[str], etag: str) -> bool:
    """RFC 7232 If-None-Match: lists, weak validators and ``*``.

    Fingerprint ETags are content hashes, so a weak match is as good
    as a strong one here.
    """
    if header_value is None:
        return False
    if header_value.strip() == "*":
        return True
    for candidate in header_value.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


def _request_shape(request: dict) -> Optional[DocumentShape]:
    """The suspected copy's *current* organisation, if reorganized.

    Figure 2 of the paper: detecting a reorganized copy needs the
    document's current shape so every stored query can be rewritten
    for it — without a wire field for it, remote detection of
    reorganized copies would be impossible.
    """
    shape = request.get("shape")
    if shape is None:
        return None
    if not isinstance(shape, dict):
        raise MalformedRequestError(
            "request field 'shape' must be a shape object")
    try:
        return DocumentShape.from_dict(shape)
    except WmXMLError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise MalformedRequestError(
            f"malformed 'shape' object: {error}") from error


def _document_list(request: dict) -> list[str]:
    documents = protocol.required_field(request, "documents", list)
    if not documents or not all(isinstance(item, str)
                                for item in documents):
        raise MalformedRequestError(
            "request field 'documents' must be a non-empty list of "
            "XML strings")
    return documents


def _record_list(request: dict, count: int) -> list[WatermarkRecord]:
    """One shared record or per-item ``records``, aligned with documents.

    The shared form re-uses one ``WatermarkRecord`` *object* for every
    item, which downstream lets the pooled engine ship it once per
    chunk instead of once per document.
    """
    if "records" in request:
        entries = protocol.required_field(request, "records", list)
        if len(entries) != count:
            raise MalformedRequestError(
                f"'records' has {len(entries)} entries for {count} "
                "documents")
        return [WatermarkRecord.from_dict(entry) for entry in entries]
    record = WatermarkRecord.from_dict(
        protocol.required_field(request, "record", dict))
    return [record] * count


def _embed_payload(result) -> dict:
    return {"xml": result.xml, "record": result.record.to_dict(),
            "stats": result.stats.to_dict()}


# -- the HTTP layer ------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    """Thin socket adapter around :meth:`WmXMLService.dispatch`."""

    service: WmXMLService  # set on the subclass built by make_server
    protocol_version = "HTTP/1.1"
    quiet = True
    # Socket timeout: a client that claims a Content-Length but never
    # sends the body (or idles a keep-alive connection) must not pin a
    # server thread forever.  BaseHTTPRequestHandler turns the timeout
    # into close_connection.
    timeout = 60

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - operator convenience
            super().log_message(format, *args)

    def _refuse(self, error: WmXMLError) -> None:
        """Answer an error envelope and close: the body stays unread,
        which would desync the next keep-alive request."""
        self.close_connection = True
        self.service.note_refusal(self.command, self.path)
        self._respond(http_status_for(error_code(error)),
                      protocol.error_response(error),
                      {protocol.PROTOCOL_HEADER:
                       protocol.RESPONSE_FORMAT},
                      head_only=self.command == "HEAD")

    def _handle(self) -> None:
        if self.headers.get("Transfer-Encoding"):
            # Chunked bodies are unsupported: reading Content-Length
            # bytes would leave the chunks unread on the stream.
            self._refuse(MalformedRequestError(
                "Transfer-Encoding is not supported; send a "
                "Content-Length body"))
            return
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            # A negative value would turn rfile.read into read-to-EOF
            # (blocking the thread, ignoring the body ceiling).
            self._refuse(MalformedRequestError(
                f"invalid Content-Length: {raw_length!r}"))
            return
        if length > self.service.max_body_bytes:
            # Refuse without reading the oversize body.
            self._refuse(OversizeBodyError(
                f"request body of {length} bytes exceeds the "
                f"{self.service.max_body_bytes}-byte ceiling"))
            return
        body = self.rfile.read(length) if length else b""
        # HEAD is GET with the body suppressed (health probes use it).
        method = "GET" if self.command == "HEAD" else self.command
        # In-flight accounting brackets dispatch *and* the response
        # write, so a SIGTERM drain only returns once the bytes of
        # every running request are on the wire.
        self.service.begin_request()
        try:
            status, payload, headers = self.service.dispatch(
                method, self.path, body, dict(self.headers))
            self._respond(status, payload, headers,
                          head_only=self.command == "HEAD")
        finally:
            self.service.end_request()

    def _respond(self, status: int, payload: Optional[dict],
                 headers: dict, head_only: bool = False) -> None:
        data = (b"" if payload is None
                else json.dumps(payload).encode("utf-8"))
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        if data and not head_only:
            self.wfile.write(data)

    # Every verb routes through dispatch so even a DELETE/PATCH gets
    # the method-not-allowed *envelope*, not http.server's HTML 501;
    # HEAD answers like GET minus the body.
    do_GET = _handle
    do_HEAD = _handle
    do_POST = _handle
    do_PUT = _handle
    do_DELETE = _handle
    do_PATCH = _handle
    do_OPTIONS = _handle


def make_server(service: WmXMLService, host: str = "127.0.0.1",
                port: int = 0, quiet: bool = True) -> ThreadingHTTPServer:
    """A ready-to-run threading HTTP server bound to ``host:port``.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address[1]``) — what tests use.  Call
    ``server.serve_forever()`` to run and ``server.shutdown()`` (from
    another thread) to stop.
    """
    handler = type("WmXMLHandler", (_Handler,),
                   {"service": service, "quiet": quiet})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


@contextlib.contextmanager
def running_server(service: WmXMLService, host: str = "127.0.0.1",
                   port: int = 0, quiet: bool = True,
                   drain_timeout: float = 5.0):
    """A served daemon for the scope of a ``with`` block.

    The one start/stop choreography (serve on a thread, ``shutdown()``
    to stop accepting, **drain in-flight requests**, then
    ``server_close()`` and join) shared by the CLI and the tests —
    yields the bound server so callers read ``server.server_address``.
    The drain step is what makes SIGTERM graceful: a request being
    served when shutdown starts still gets its response before the
    socket closes.
    """
    server = make_server(service, host=host, port=port, quiet=quiet)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        service.drain(timeout=drain_timeout)
        server.server_close()
        thread.join(timeout=5)
