"""The outcome of tracing a leaked copy: :class:`TraceResult`.

The paper motivates watermarking with "prove his ownership or **trace
any reproduction** of the data".  Tracing needs per-copy marks: each
recipient receives the data watermarked under a key derived from the
owner's (:meth:`~repro.api.system.WmXMLSystem.recipient_key`), with
the recipient id itself as the message — self-describing evidence.
When a copy leaks, every issued record is verified against it, and the
recipient whose mark verifies with the lowest p-value is the prime
suspect.  Because selection is keyed per recipient, different copies
mark *different* element subsets, which is what leaves a collusion
attack (averaging several copies — see
:class:`~repro.attacks.collusion.CollusionAttack`) only partial
erasure: marks in positions where the colluders' copies agree survive
verbatim.

Issuing and tracing live in :mod:`repro.api.system`
(:class:`~repro.api.system.WmXMLSystem`, and the
:class:`~repro.api.system.Fingerprinter` front door over it); this
module holds only the versioned verdict they return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.decoder import DetectionResult
from repro.errors import RecordFormatError
from repro.serialize import VersionedDocument


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
