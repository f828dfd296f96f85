"""Fingerprinting: per-recipient watermarks and traitor tracing.

The paper motivates watermarking with "prove his ownership or **trace
any reproduction** of the data".  Tracing needs per-copy marks: each
recipient receives the data watermarked with a *recipient-specific* key
and message (the fingerprint).  When a copy leaks, the owner detects
every issued fingerprint against it; the recipient whose fingerprint
verifies (lowest p-value) is the traitor.

Key separation keeps this cheap and safe:

* recipient key = HMAC(master key, recipient id) — one secret to store;
* recipient message = the recipient id itself — self-describing
  evidence;
* because selection is keyed per recipient, different copies mark
  *different* element subsets, which is what gives collusion attacks
  (averaging several copies — see
  :class:`~repro.attacks.collusion.CollusionAttack`) only partial
  erasure: marks in positions where the colluders' copies agree
  survive verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.crypto import KeyedPRF
from repro.core.decoder import DetectionResult, WmXMLDecoder
from repro.core.encoder import WmXMLEncoder
from repro.core.record import WatermarkRecord
from repro.core.scheme import WatermarkingScheme
from repro.core.watermark import Watermark
from repro.errors import RecordFormatError
from repro.rewriting.executor import LogicalExecutor
from repro.semantics.shape import DocumentShape
from repro.serialize import VersionedDocument
from repro.xmlmodel.tree import Document


@dataclass
class IssuedCopy:
    """One recipient's fingerprinted copy and its detection record."""

    recipient: str
    document: Document
    record: WatermarkRecord


@dataclass
class TraceResult(VersionedDocument):
    """Outcome of tracing a leaked copy against every issued fingerprint."""

    format_tag = "wmxml-trace-v1"
    format_error = RecordFormatError

    verdicts: dict[str, DetectionResult] = field(default_factory=dict)

    @property
    def accused(self) -> list[str]:
        """Recipients whose fingerprint verifies in the leaked copy.

        Strongest evidence first; equal p-values tie-break on the
        recipient name, so a persisted trace is byte-stable across runs
        (dict insertion order must never decide who tops the list).
        """
        return sorted(
            (name for name, outcome in self.verdicts.items()
             if outcome.detected),
            key=lambda name: (self.verdicts[name].p_value, name))

    @property
    def prime_suspect(self) -> Optional[str]:
        accused = self.accused
        return accused[0] if accused else None

    def to_dict(self) -> dict:
        return {
            "format": self.format_tag,
            "verdicts": {name: outcome.to_dict()
                         for name, outcome in sorted(self.verdicts.items())},
            "accused": self.accused,
            "prime_suspect": self.prime_suspect,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceResult":
        cls._check_format(data)
        try:
            verdicts = {name: DetectionResult.from_dict(outcome)
                        for name, outcome in data["verdicts"].items()}
        except (KeyError, TypeError, AttributeError) as error:
            raise RecordFormatError(
                f"malformed trace result: {error}") from error
        return cls(verdicts=verdicts)

    def __str__(self) -> str:
        if not self.accused:
            return "trace: no issued fingerprint verifies"
        parts = ", ".join(
            f"{name} (p={self.verdicts[name].p_value:.2e})"
            for name in self.accused)
        return f"trace: {parts}"


class Fingerprinter:
    """Issue fingerprinted copies and trace leaks back to recipients."""

    def __init__(self, scheme: WatermarkingScheme,
                 master_key: Union[str, bytes],
                 alpha: float = 1e-3) -> None:
        self.scheme = scheme
        self._master = KeyedPRF(master_key)
        self.alpha = alpha
        self._issued: dict[str, WatermarkRecord] = {}

    def recipient_key(self, recipient: str) -> bytes:
        """The derived secret key for one recipient."""
        return self._master.digest("fingerprint-key", recipient)

    def issue(self, document: Document, recipient: str) -> IssuedCopy:
        """Watermark a copy for ``recipient`` and remember its record."""
        if not recipient:
            raise ValueError("recipient id must not be empty")
        encoder = WmXMLEncoder(self.scheme, self.recipient_key(recipient))
        result = encoder.embed(document,
                               Watermark.from_message(recipient))
        self._issued[recipient] = result.record
        return IssuedCopy(recipient, result.document, result.record)

    @property
    def issued_recipients(self) -> list[str]:
        return sorted(self._issued)

    def trace(self, suspected: Document,
              shape: Optional[DocumentShape] = None,
              indexed: bool = True) -> TraceResult:
        """Detect every issued fingerprint against a leaked copy.

        The leaked copy is shredded once, into one executor that every
        recipient's detection reuses; each is still authenticated under
        that recipient's own key.
        """
        target_shape = shape or self.scheme.shape
        executor = None
        if indexed and self._issued:
            executor = LogicalExecutor(suspected, target_shape)
        result = TraceResult()
        for recipient, record in self._issued.items():
            decoder = WmXMLDecoder(self.recipient_key(recipient),
                                   alpha=self.alpha)
            result.verdicts[recipient] = decoder.detect(
                suspected, record, target_shape,
                expected=Watermark.from_message(recipient),
                indexed=indexed, executor=executor)
        return result
