"""The persisted watermark record: the query set Q plus metadata.

Paper §2.2, step 1: "Create queries as identifiers of these data
elements or structure units, and safeguard the set of queries (denoted
by Q) along with the secret key."

A :class:`WatermarkRecord` is that artefact.  It is JSON-serialisable so
the owner can store it next to (but never inside) the published data.
It contains **no secret material**: identities, logical queries, bit
indices and algorithm parameters are all safe to keep in escrow — an
adversary holding the record but not the key still cannot forge or
surgically erase the mark, because embedding decisions (digit
directions, byte offsets, domain orderings) all require the key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional

from repro.core.watermark import MAX_WATERMARK_BITS
from repro.errors import RecordFormatError
from repro.rewriting.logical import LogicalQuery
from repro.serialize import VersionedDocument

#: Version tag of the persisted record format.
RECORD_FORMAT = "wmxml-record-v1"


def _field(data: dict, name: str, kind: type, low: Optional[int] = None,
           high: Optional[int] = None, optional: bool = False) -> Any:
    """``data[name]`` if it is a ``kind`` within ``[low, high]``.

    Records arrive over the wire, so the fields detection computes with
    are checked when a record is parsed, not deep inside detection.  A
    JSON ``true`` is not an integer, although Python counts it as one.
    """
    value = data.get(name) if optional else data[name]
    if value is None and optional:
        return None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise RecordFormatError(
            f"record field {name!r} must be {kind.__name__}, got "
            f"{type(value).__name__}")
    if low is not None and value < low:
        raise RecordFormatError(
            f"record field {name!r} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise RecordFormatError(
            f"record field {name!r} must be <= {high}, got {value}")
    return value


@dataclass(frozen=True)
class WatermarkQuery:
    """One identity query of Q with its embedding bookkeeping."""

    identity: str
    query: LogicalQuery
    bit_index: int
    field: str
    algorithm: str
    params: tuple[tuple[str, Any], ...] = ()

    @property
    def param_map(self) -> dict[str, Any]:
        return {name: value for name, value in self.params}

    @cached_property
    def algorithm_cache_key(self) -> str:
        """Stable key identifying ``(algorithm, params)`` plug-in state."""
        return self.algorithm + repr(sorted(self.params))

    def __getstate__(self) -> dict:
        # Records ride along with every document a pool worker detects;
        # keep the pickle lean by dropping memoised derived state (the
        # cached_property above), which the worker recomputes on use.
        state = dict(self.__dict__)
        state.pop("algorithm_cache_key", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "query": self.query.to_dict(),
            "bit_index": self.bit_index,
            "field": self.field,
            "algorithm": self.algorithm,
            "params": [[name, value] for name, value in self.params],
        }

    @classmethod
    def from_dict(cls, data: dict,
                  nbits: int = MAX_WATERMARK_BITS) -> "WatermarkQuery":
        # Checked inline, not through _field: a trace parses every
        # query of every issued record.
        identity, field_name = data["identity"], data["field"]
        algorithm, bit_index = data["algorithm"], data["bit_index"]
        if not (isinstance(identity, str) and isinstance(field_name, str)
                and isinstance(algorithm, str)):
            raise RecordFormatError(
                "a record query's identity, field and algorithm must be "
                "strings")
        if type(bit_index) is not int or not 0 <= bit_index < nbits:
            raise RecordFormatError(
                f"a record query's bit_index must be an integer in "
                f"[0, {nbits})")
        params = []
        for name, value in data["params"]:
            if not isinstance(name, str):
                raise RecordFormatError(
                    "a record query's params must be named by strings")
            params.append((name, value))
        return cls(
            identity=identity,
            query=LogicalQuery.from_dict(data["query"]),
            bit_index=bit_index,
            field=field_name,
            algorithm=algorithm,
            params=tuple(params),
        )


@dataclass
class WatermarkRecord(VersionedDocument):
    """Everything the decoder needs besides the secret key and the data."""

    format_tag = RECORD_FORMAT
    format_error = RecordFormatError

    gamma: int
    nbits: int
    shape_name: str
    key_fingerprint: str
    queries: list[WatermarkQuery] = field(default_factory=list)
    #: Tenancy provenance, stamped by a multi-tenant ``WmXMLSystem``:
    #: which tenant's derived key embedded this mark, and under which
    #: master-key generation — the hooks that let detections keep
    #: verifying after key rotation.  ``None``/``None`` for classic
    #: single-key embeds, and *omitted* from the serialized form then,
    #: so pre-tenancy records and golden vectors are byte-identical.
    tenant: Optional[str] = None
    key_id: Optional[int] = None

    def to_dict(self) -> dict:
        data = {
            "format": RECORD_FORMAT,
            "gamma": self.gamma,
            "nbits": self.nbits,
            "shape_name": self.shape_name,
            "key_fingerprint": self.key_fingerprint,
            "queries": [query.to_dict() for query in self.queries],
        }
        if self.tenant is not None:
            data["tenant"] = self.tenant
        if self.key_id is not None:
            data["key_id"] = self.key_id
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "WatermarkRecord":
        cls._check_format(data)
        try:
            nbits = _field(data, "nbits", int, 1, MAX_WATERMARK_BITS)
            return cls(
                gamma=_field(data, "gamma", int, 1),
                nbits=nbits,
                shape_name=_field(data, "shape_name", str),
                key_fingerprint=_field(data, "key_fingerprint", str),
                queries=[WatermarkQuery.from_dict(q, nbits)
                         for q in _field(data, "queries", list)],
                tenant=_field(data, "tenant", str, optional=True),
                key_id=_field(data, "key_id", int, 1, optional=True),
            )
        except RecordFormatError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            # A record with the right format tag but missing/mangled
            # fields is malformed client input (wire-reachable via
            # POST /v1/detect), not an internal fault.
            raise RecordFormatError(
                f"malformed record document: {error}") from error

    def __len__(self) -> int:
        return len(self.queries)


def all_same_record(records) -> bool:
    """True when every entry is the same record — the one-record-
    many-copies batch shape.

    Identity alone is not enough: pickle's memo already collapses one
    object repeated within a payload, so the real saving is equal-but-
    *distinct* records (the same ``record.json`` loaded per suspected
    copy) — hence identity-then-equality.  Shared by the pooled
    engine's chunk tasks and the client SDK's wire form, so both
    always agree on what "shared" means.
    """
    if not records:
        return False
    first = records[0]
    return all(record is first or record == first for record in records)
