"""The consolidated WmXML error hierarchy.

Every exception the library raises on purpose descends from
:class:`WmXMLError`, so service callers — the ``repro.api`` facade's
audience — can wrap any WmXML operation in one ``except WmXMLError``
instead of learning the per-layer families.  The per-layer bases
(:class:`~repro.xmlmodel.errors.XMLError`,
:class:`~repro.xpath.errors.XPathError`,
:class:`~repro.semantics.errors.SemanticsError`,
:class:`~repro.core.algorithms.AlgorithmError`, ...) still exist and
still work in ``except`` clauses; they are now subclasses of the single
root defined here.

This module sits below every other package (it imports nothing from
``repro``) so any layer can raise from the shared hierarchy without
import cycles.

Dual inheritance note: errors that historically derived from a builtin
(``ValueError``, ``KeyError``, ``RuntimeError``) keep that builtin as a
second base, so pre-existing ``except ValueError`` call sites continue
to catch them.

Error codes
-----------

Every error class carries a stable, machine-readable ``code`` slug —
the contract a *service boundary* needs: the HTTP daemon
(:mod:`repro.service`) puts the code in its error envelopes, the CLI
puts it in ``--result`` JSON, and clients branch on the slug instead of
parsing prose.  :data:`HTTP_STATUS_BY_CODE` is the one table mapping
every code to its HTTP status; a regression test asserts the table
covers every :class:`WmXMLError` subclass in the system, so adding an
error class without wiring its service behaviour fails CI.
"""

from __future__ import annotations


class WmXMLError(Exception):
    """Base class for every error raised by the WmXML system.

    ``code`` is the stable machine-readable slug surfaced over every
    service boundary (HTTP error envelopes, CLI ``--result`` JSON);
    subclasses each declare their own.
    """

    code = "internal-error"


class SerializationError(WmXMLError, ValueError):
    """A persisted WmXML artefact (scheme, record, result) is malformed."""

    code = "malformed-artefact"


class SchemeFormatError(SerializationError):
    """A declarative scheme document failed to parse or validate."""

    code = "bad-scheme"


class RecordFormatError(SerializationError):
    """A watermark record or detection-result document is malformed."""

    code = "bad-record"


class UnknownSchemeError(WmXMLError, KeyError):
    """A scheme name is not present in the system's registry."""

    code = "unknown-scheme"

    def __init__(self, name: str, known=()) -> None:
        hint = f"; registered: {sorted(known)}" if known else ""
        super().__init__(f"unknown scheme {name!r}{hint}")
        self.name = name

    def __str__(self) -> str:
        # KeyError.__str__ would repr() the message, printing spurious
        # quotes around it; render it like every other exception.
        return self.args[0]


class WatermarkDecodeError(WmXMLError, ValueError):
    """Recovered watermark bits do not decode to a text message."""

    code = "watermark-decode"


class WatermarkMessageError(WmXMLError, ValueError):
    """A watermark message is empty, too long, or not the length its
    record was embedded with."""

    code = "bad-message"


#: The one code -> HTTP status table, shared by the service's error
#: envelopes and the CLI's ``--result`` JSON.  Codes declared by other
#: layers (xmlmodel, xpath, semantics, core, service, registry, tenants,
#: faults) appear here too, so the whole mapping is auditable in one
#: place; the test suite asserts every WmXMLError subclass's code has an
#: entry.
HTTP_STATUS_BY_CODE: dict[str, int] = {
    # root / artefacts
    "internal-error": 500,
    "malformed-artefact": 400,
    "bad-scheme": 400,
    "bad-record": 400,
    "unknown-scheme": 404,
    "watermark-decode": 422,
    "bad-message": 400,
    # repro.xmlmodel — the suspect document itself is bad input
    "xml-error": 400,
    "xml-syntax": 400,
    "xml-tree": 500,
    "xml-name": 400,
    # repro.xpath — stored queries failed against the input
    "xpath-error": 422,
    "xpath-syntax": 422,
    "xpath-type": 422,
    "xpath-function": 422,
    # repro.semantics
    "semantics-error": 422,
    "schema-error": 422,
    "schema-validation": 422,
    "constraint-error": 422,
    "record-mismatch": 422,
    # repro.core
    "algorithm-error": 400,
    # repro.service — request-level protocol errors
    "service-error": 500,
    "malformed-request": 400,
    "unsupported-protocol": 400,
    "not-found": 404,
    "method-not-allowed": 405,
    "oversize-body": 413,
    # the daemon cannot store another wire-registered scheme
    "registry-full": 507,
    # repro.registry — persistent watermark registry + provenance ledger
    "registry-error": 500,
    "bad-registry-record": 400,
    "registry-schema": 500,
    # the feature exists but this deployment runs without a registry
    "registry-not-configured": 501,
    # the persisted chain fails verification: stored state conflicts
    # with what the append path wrote
    "chain-broken": 409,
    "unknown-recipient": 404,
    # registry storage answered like a failing disk (I/O error, lock
    # timeout): transient — clients should retry after a pause
    "registry-unavailable": 503,
    # repro.tenants — multi-tenant auth, key hierarchy, and quotas
    "tenant-error": 500,
    "bad-tenant-config": 400,
    # no credential / bad credential vs. a valid credential that lacks
    # the right — the classic 401/403 split, kept distinct on purpose
    "unauthorized": 401,
    "forbidden": 403,
    # token-bucket quota exhausted; responses carry Retry-After
    "rate-limited": 429,
    # a record names a key generation absent from the master-key map
    "unknown-key": 400,
    # repro.faults — a deliberately injected fault fired
    "fault-injected": 500,
    "remote-error": 502,
    # client-side diagnosis of a mid-request close — ambiguous between
    # a dying daemon and the 413-without-reading oversize refusal (the
    # client's blocked write cannot read that response), so neutral.
    "connection-closed": 502,
    "service-unavailable": 503,
}


def error_code(error: BaseException) -> str:
    """The stable slug for ``error`` (``internal-error`` for foreigners).

    Reads the instance attribute, so wrappers that re-raise a remote
    error (:class:`repro.service.client.RemoteServiceError`) can carry
    the server's code through verbatim.  Foreign exceptions that happen
    to carry a ``.code`` of their own (``HTTPError.code`` is an int,
    ``SystemExit.code`` an exit status) are NOT trusted.
    """
    if isinstance(error, WmXMLError):
        return getattr(error, "code", WmXMLError.code)
    return WmXMLError.code


def http_status_for(code: str) -> int:
    """HTTP status for a code slug; unknown codes are server faults."""
    return HTTP_STATUS_BY_CODE.get(code, 500)


def error_payload(error: BaseException) -> dict:
    """The wire form of an error, shared by service and CLI output."""
    code = error_code(error)
    return {
        "code": code,
        "message": str(error),
        "http_status": http_status_for(code),
    }
