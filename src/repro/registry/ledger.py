"""The append-only provenance ledger: a hash chain of embed receipts.

Every embed through a registry-enabled system appends one
:class:`LedgerBlock`::

    block_i = (index, prev_hash, record_hash, document_hash, issuer,
               scheme_fingerprint, key_fingerprint, timestamp, seal)

where ``prev_hash`` is the hash of block ``i-1`` (:data:`GENESIS_HASH`
for the first), ``record_hash`` binds the block to the persisted
:class:`~repro.registry.records.RegistryRecord`'s content, the
timestamp is monotonically non-decreasing along the chain, and ``seal``
is an HMAC over the block content under the system's secret key.

:func:`verify_chain` re-derives everything.  The hash links make any
*historical* edit visible (changing block ``i`` breaks block
``i+1``'s ``prev_hash``); the seals extend that to the **final** block
(which no later block covers) and to wholesale chain rewrites — an
adversary without the key cannot re-seal the rows they forged.  Record
hashes close the last hole: editing a persisted registry record
without touching the ledger at all still fails verification.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from repro.core.crypto import KeyedPRF
from repro.faults import fault_point
from repro.registry.errors import ChainBrokenError, RegistryFormatError
from repro.registry.records import RegistryRecord

#: ``prev_hash`` of the first block.
GENESIS_HASH = "0" * 64

#: Domain-separation purpose string for ledger seals (never shared with
#: any embedding PRF purpose).
SEAL_PURPOSE = "wmxml-ledger-seal-v1"


@dataclass(frozen=True)
class LedgerBlock:
    """One sealed embed receipt in the hash chain."""

    index: int
    prev_hash: str
    record_hash: str
    document_hash: str
    issuer: str
    scheme_fingerprint: str
    key_fingerprint: str
    timestamp: float
    seal: str

    def content(self) -> str:
        """The canonical byte string the seal and hash commit to."""
        return "\x1f".join([
            str(self.index), self.prev_hash, self.record_hash,
            self.document_hash, self.issuer, self.scheme_fingerprint,
            self.key_fingerprint, repr(self.timestamp),
        ])

    def block_hash(self) -> str:
        """Hash of the whole block *including* the seal, so the next
        block's ``prev_hash`` covers the seal too."""
        material = self.content() + "\x1f" + self.seal
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "prev_hash": self.prev_hash,
            "record_hash": self.record_hash,
            "document_hash": self.document_hash,
            "issuer": self.issuer,
            "scheme_fingerprint": self.scheme_fingerprint,
            "key_fingerprint": self.key_fingerprint,
            "timestamp": self.timestamp,
            "seal": self.seal,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LedgerBlock":
        try:
            return cls(
                index=int(data["index"]),
                prev_hash=data["prev_hash"],
                record_hash=data["record_hash"],
                document_hash=data["document_hash"],
                issuer=data["issuer"],
                scheme_fingerprint=data["scheme_fingerprint"],
                key_fingerprint=data["key_fingerprint"],
                timestamp=float(data["timestamp"]),
                seal=data["seal"],
            )
        except (KeyError, TypeError, ValueError) as error:
            raise RegistryFormatError(
                f"malformed ledger block: {error}") from error


def seal_block_content(sealer: KeyedPRF, content: str) -> str:
    """HMAC seal for a block's canonical content."""
    return sealer.digest(SEAL_PURPOSE, content).hex()


def next_block(previous: Optional[LedgerBlock],
               record: RegistryRecord,
               sealer: KeyedPRF,
               now: Optional[float] = None) -> LedgerBlock:
    """Build the sealed successor block for a freshly appended record.

    The timestamp is wall-clock time clamped to be monotonically
    non-decreasing along the chain, so a host clock stepping backwards
    (NTP) can never produce a chain that looks reordered.
    """
    timestamp = time.time() if now is None else now
    if previous is not None:
        timestamp = max(timestamp, previous.timestamp)
    draft = LedgerBlock(
        index=0 if previous is None else previous.index + 1,
        prev_hash=(GENESIS_HASH if previous is None
                   else previous.block_hash()),
        record_hash=record.content_hash(),
        document_hash=record.document_hash,
        issuer=record.issuer,
        scheme_fingerprint=record.scheme_fingerprint,
        key_fingerprint=record.key_fingerprint,
        timestamp=timestamp,
        seal="",
    )
    # The "ledger.seal" fault point models silent seal corruption — a
    # bit flipped between sealing and persistence.  verify_chain() must
    # catch it, and crash recovery must quarantine it.
    seal = fault_point("ledger.seal",
                       value=seal_block_content(sealer, draft.content()))
    return replace(draft, seal=seal)


@dataclass
class ChainVerification:
    """Outcome of :func:`verify_chain`."""

    intact: bool
    blocks: int
    records: int
    sealed: bool
    broken_index: Optional[int] = None
    reason: Optional[str] = None

    def raise_if_broken(self) -> "ChainVerification":
        if not self.intact:
            where = ("" if self.broken_index is None
                     else f" at block {self.broken_index}")
            raise ChainBrokenError(
                f"provenance ledger failed verification{where}: "
                f"{self.reason}")
        return self

    def to_dict(self) -> dict:
        return {
            "intact": self.intact,
            "blocks": self.blocks,
            "records": self.records,
            "sealed": self.sealed,
            "broken_index": self.broken_index,
            "reason": self.reason,
        }


def verify_chain(blocks: Iterable[LedgerBlock],
                 records: Optional[Sequence[RegistryRecord]] = None,
                 sealer: Optional[KeyedPRF] = None) -> ChainVerification:
    """Re-derive the whole chain and report the first inconsistency.

    ``records`` (when given, in sequence order) binds each block to its
    persisted registry record; ``sealer`` (the system key) additionally
    verifies every HMAC seal — without it only the hash links and
    timestamps are checked, which still catches every historical edit
    but not a forgery of the final block.
    """
    chain = list(blocks)

    def broken(index: Optional[int], reason: str) -> ChainVerification:
        return ChainVerification(
            intact=False, blocks=len(chain),
            records=len(records) if records is not None else len(chain),
            sealed=sealer is not None, broken_index=index, reason=reason)

    if records is not None and len(records) != len(chain):
        return broken(None,
                      f"{len(records)} records but {len(chain)} ledger "
                      "blocks — rows were added or removed outside the "
                      "append path")
    previous: Optional[LedgerBlock] = None
    for position, block in enumerate(chain):
        if block.index != position:
            return broken(position,
                          f"block index {block.index} at position "
                          f"{position}")
        expected_prev = (GENESIS_HASH if previous is None
                         else previous.block_hash())
        if block.prev_hash != expected_prev:
            return broken(position,
                          "hash link does not match the previous block")
        if previous is not None and block.timestamp < previous.timestamp:
            return broken(position,
                          "timestamp moved backwards along the chain")
        if sealer is not None:
            if block.seal != seal_block_content(sealer, block.content()):
                return broken(position,
                              "HMAC seal does not verify under the "
                              "system key")
        if records is not None:
            record = records[position]
            if block.record_hash != record.content_hash():
                return broken(position,
                              "block does not match the persisted "
                              "registry record (record tampered)")
            if block.document_hash != record.document_hash:
                return broken(position,
                              "block and record disagree on the "
                              "document hash")
        previous = block
    return ChainVerification(
        intact=True, blocks=len(chain),
        records=len(records) if records is not None else len(chain),
        sealed=sealer is not None)
