"""The persisted issuance artefact: ``wmxml-registry-record-v1``.

One :class:`RegistryRecord` is the durable answer to "who was this
copy issued to?": the recipient identity, the query set Q
(:class:`~repro.core.record.WatermarkRecord`), the content hash of the
exact marked bytes that left the system, and the fingerprints of the
scheme and key that produced them.  Like every WmXML artefact it is
versioned JSON with **no secret material** — safe to escrow, export,
and serve over the wire.

``keying`` distinguishes the two issuance models:

* ``"system"`` — a plain embed under the owner's key; the recipient is
  whatever identity the message named.
* ``"recipient"`` — a fingerprinted copy under the *derived*
  per-recipient key (:meth:`~repro.api.system.WmXMLSystem.recipient_key`),
  which is what makes collusion-resistant traitor tracing possible:
  derived keys select *different* element subsets per recipient.

``content_hash()`` is the record's binding into the provenance ledger:
a :class:`~repro.registry.ledger.LedgerBlock` stores it at append
time, so retroactively editing any persisted field breaks
``verify_chain()``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from repro.core.record import WatermarkRecord
from repro.registry.errors import RegistryFormatError
from repro.serialize import VersionedDocument

#: Version tag of the persisted registry-record format.
REGISTRY_RECORD_FORMAT = "wmxml-registry-record-v1"

#: Accepted values of :attr:`RegistryRecord.keying`.
KEYING_MODES = ("system", "recipient")


def hash_document(xml: str) -> str:
    """Content hash of a marked document's exact serialised bytes."""
    return hashlib.sha256(xml.encode("utf-8")).hexdigest()


@dataclass
class RegistryRecord(VersionedDocument):
    """One issued copy: who, what, under which scheme/key, when."""

    format_tag = REGISTRY_RECORD_FORMAT
    format_error = RegistryFormatError

    recipient: str
    record: WatermarkRecord
    document_hash: str
    scheme_fingerprint: str
    key_fingerprint: str
    keying: str
    issuer: str
    created_at: str
    #: Assigned by the backend on append (position in the corpus);
    #: ``None`` for a record not yet persisted.
    sequence: Optional[int] = None
    #: Tenancy provenance (multi-tenant daemons): which tenant's
    #: namespace this issuance belongs to, and which master-key
    #: generation derived the embedding key.  ``None`` on single-key
    #: systems and *omitted* from the serialized form then, so
    #: pre-tenancy exports, ledger bindings, and content hashes are
    #: unchanged.  Unlike ``sequence`` these are evidence, so they DO
    #: participate in :meth:`content_hash`.
    tenant: Optional[str] = None
    key_id: Optional[int] = None

    #: What a trace's held verifier keeps for this exact object (its
    #: detection plan; see :mod:`repro.api.system`), so the plan dies
    #: with the record.  Derived state: not a field, so never
    #: serialised, hashed, compared, copied or pickled.
    _held_plan = None

    def __post_init__(self) -> None:
        if self.keying not in KEYING_MODES:
            raise RegistryFormatError(
                f"unknown keying mode {self.keying!r}; "
                f"choices: {KEYING_MODES}")

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_held_plan", None)
        return state

    def to_dict(self) -> dict:
        data = {
            "format": REGISTRY_RECORD_FORMAT,
            "recipient": self.recipient,
            "record": self.record.to_dict(),
            "document_hash": self.document_hash,
            "scheme_fingerprint": self.scheme_fingerprint,
            "key_fingerprint": self.key_fingerprint,
            "keying": self.keying,
            "issuer": self.issuer,
            "created_at": self.created_at,
        }
        if self.tenant is not None:
            data["tenant"] = self.tenant
        if self.key_id is not None:
            data["key_id"] = self.key_id
        if self.sequence is not None:
            data["sequence"] = self.sequence
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RegistryRecord":
        cls._check_format(data)
        try:
            return cls(
                recipient=data["recipient"],
                record=WatermarkRecord.from_dict(data["record"]),
                document_hash=data["document_hash"],
                scheme_fingerprint=data["scheme_fingerprint"],
                key_fingerprint=data["key_fingerprint"],
                keying=data["keying"],
                issuer=data["issuer"],
                created_at=data["created_at"],
                sequence=data.get("sequence"),
                tenant=data.get("tenant"),
                key_id=data.get("key_id"),
            )
        except RegistryFormatError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise RegistryFormatError(
                f"malformed registry record: {error}") from error

    def content_hash(self) -> str:
        """Hash of the record's *content* (sequence excluded).

        The sequence is storage bookkeeping assigned at append time;
        everything else is evidence, and this hash is what the ledger
        block seals — so the hash of a record is the same before and
        after persistence, and tampering any persisted field changes
        it.
        """
        content = {key: value for key, value in self.to_dict().items()
                   if key != "sequence"}
        canonical = json.dumps(content, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
