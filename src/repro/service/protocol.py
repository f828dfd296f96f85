"""The versioned WmXML wire protocol (``wmxml-request-v1``).

The service and its client SDK speak JSON envelopes over HTTP:

* Requests to the ``POST`` endpoints are objects tagged
  ``"format": "wmxml-request-v1"`` plus endpoint-specific fields
  (``scheme``, ``document``, ``message``, ...).  ``PUT
  /v1/schemes/{name}`` is the exception: its body is the
  ``wmxml-scheme-v1`` artefact itself, which already carries its own
  format tag.
* Every response is an object tagged ``"format": "wmxml-response-v1"``
  with ``"ok": true`` plus the payload, or ``"ok": false`` plus an
  ``"error"`` object — the :func:`repro.errors.error_payload` form,
  whose ``code`` slug and HTTP status come from the one table in
  :mod:`repro.errors`.

Versioning contract: a ``-v1`` parser must reject any other version
tag (``unsupported-protocol``) rather than guess; a future ``-v2`` can
then change semantics without silently corrupting v1 callers.

This module also defines the request-level protocol errors.  They are
ordinary :class:`~repro.errors.WmXMLError` subclasses with ``code``
slugs, so the service's one ``except WmXMLError`` handler maps them to
HTTP statuses exactly like library errors.
"""

from __future__ import annotations

from repro.errors import WmXMLError, error_payload
from repro.serialize import load_json_object

#: Version tags of the request and response envelopes.
REQUEST_FORMAT = "wmxml-request-v1"
RESPONSE_FORMAT = "wmxml-response-v1"

#: Every response names the protocol version it speaks.
PROTOCOL_HEADER = "X-WmXML-Protocol"

#: Embed/detect responses expose the compiled pipeline's content
#: fingerprint, so a caching client can tell whether the deployment
#: that served it changed (also the ``ETag`` of ``GET /v1/schemes/*``).
FINGERPRINT_HEADER = "X-WmXML-Pipeline"

#: Default request-body ceiling (bytes).  Large enough for a multi-
#: document batch of real datasets, small enough that one request
#: cannot balloon the daemon's memory.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Default ceiling on wire-registered schemes: ``PUT /v1/schemes``
#: pins each name (and its compiled pipeline) for the daemon's life,
#: so an unbounded registry is an unbounded memory sink.
MAX_SCHEMES = 256


class ServiceError(WmXMLError):
    """Base class for request-level service errors."""

    code = "service-error"


class MalformedRequestError(ServiceError):
    """The request body is not valid JSON / misses required fields."""

    code = "malformed-request"


class UnsupportedProtocolError(ServiceError):
    """The request speaks a format version this daemon does not."""

    code = "unsupported-protocol"


class NotFoundError(ServiceError):
    """No such endpoint or resource."""

    code = "not-found"


class MethodNotAllowedError(ServiceError):
    """The endpoint exists but not for this HTTP method."""

    code = "method-not-allowed"


class OversizeBodyError(ServiceError):
    """The request body exceeds the daemon's configured ceiling."""

    code = "oversize-body"


class RegistryFullError(ServiceError):
    """``PUT /v1/schemes`` would grow the registry past its ceiling."""

    code = "registry-full"


def ok_response(payload: dict) -> dict:
    """Wrap an endpoint payload in the success envelope."""
    return {"format": RESPONSE_FORMAT, "ok": True, **payload}


def error_response(error: BaseException) -> dict:
    """Wrap any error in the error envelope (code from the one table)."""
    return {"format": RESPONSE_FORMAT, "ok": False,
            "error": error_payload(error)}


def parse_json(body: bytes) -> dict:
    """Bytes -> JSON object, or :class:`MalformedRequestError`."""
    return load_json_object(body, MalformedRequestError, "request body")


def parse_request(body: bytes) -> dict:
    """Parse and version-check a ``wmxml-request-v1`` envelope."""
    data = parse_json(body)
    tag = data.get("format")
    if tag != REQUEST_FORMAT:
        raise UnsupportedProtocolError(
            f"expected a {REQUEST_FORMAT} envelope, got format={tag!r}")
    return data


def required_field(data: dict, name: str, kind: type) -> object:
    """Fetch a typed required field or raise ``malformed-request``."""
    try:
        value = data[name]
    except KeyError:
        raise MalformedRequestError(
            f"request is missing required field {name!r}") from None
    if not isinstance(value, kind):
        raise MalformedRequestError(
            f"request field {name!r} must be {kind.__name__}, got "
            f"{type(value).__name__}")
    return value
