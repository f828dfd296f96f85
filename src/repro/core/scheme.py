"""The watermarking scheme: the user's inputs to encoder and decoder.

Figure 4 of the paper shows the user handing the system a watermark, a
secret key, query templates, and the keys/FDs discovered from the
schema.  A :class:`WatermarkingScheme` bundles the data-dependent parts:

* the document's :class:`~repro.semantics.shape.DocumentShape`,
* the carrier specs (capacity fields + identifier rules + plug-ins),
* the usability templates,
* the selection density ``gamma``.

The scheme validates itself eagerly so misconfigurations (unknown
fields, carrier inside its own identifier, unknown plug-in name) fail at
construction, not mid-embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.algorithms import create_algorithm
from repro.core.identity import CarrierSpec
from repro.core.usability import UsabilityTemplate
from repro.errors import SchemeFormatError, WmXMLError
from repro.semantics.errors import RecordError
from repro.semantics.shape import DocumentShape
from repro.serialize import VersionedDocument

#: Version tag of the declarative scheme format.
SCHEME_FORMAT = "wmxml-scheme-v1"


@dataclass
class WatermarkingScheme(VersionedDocument):
    """User configuration for one watermarking deployment."""

    format_tag = SCHEME_FORMAT
    format_error = SchemeFormatError

    shape: DocumentShape
    carriers: list[CarrierSpec]
    templates: list[UsabilityTemplate] = field(default_factory=list)
    gamma: int = 4

    def __post_init__(self) -> None:
        if self.gamma < 1:
            raise RecordError("gamma must be >= 1")
        if not self.carriers:
            raise RecordError("a scheme needs at least one carrier field")
        known = set(self.shape.placements)
        for carrier in self.carriers:
            needed = {carrier.field, *carrier.identifier.fields}
            missing = sorted(needed - known)
            if missing:
                raise RecordError(
                    f"carrier {carrier.field!r} references fields "
                    f"{missing!r} absent from shape {self.shape.name!r}")
            # Fail fast on unknown plug-ins / bad parameters.
            create_algorithm(carrier.algorithm, carrier.param_map)
        for template in self.templates:
            missing = sorted(
                ({template.target, *template.conditions}) - known)
            if missing:
                raise RecordError(
                    f"template {template.name!r} references fields "
                    f"{missing!r} absent from shape {self.shape.name!r}")

    # -- serialisation ------------------------------------------------------------

    def to_dict(self) -> dict:
        """The versioned declarative form: a deployment as a document.

        Everything the scheme holds — shape (with its nesting levels),
        carriers (with identifier rules and algorithm parameters),
        usability templates, and gamma — round-trips through this dict,
        so a deployment can live in version control as a JSON artefact
        instead of Python code.
        """
        return {
            "format": SCHEME_FORMAT,
            "shape": self.shape.to_dict(),
            "carriers": [carrier.to_dict() for carrier in self.carriers],
            "templates": [template.to_dict() for template in self.templates],
            "gamma": self.gamma,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WatermarkingScheme":
        cls._check_format(data)
        try:
            return cls(
                shape=DocumentShape.from_dict(data["shape"]),
                carriers=[CarrierSpec.from_dict(entry)
                          for entry in data["carriers"]],
                templates=[UsabilityTemplate.from_dict(entry)
                           for entry in data.get("templates", ())],
                gamma=data.get("gamma", 4),
            )
        except SchemeFormatError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError,
                WmXMLError) as error:
            # Everything a malformed document can trip — missing keys,
            # wrong value shapes, and the scheme's own eager semantic
            # validation (RecordError, AlgorithmError...) — surfaces as
            # the one documented loading error.
            raise SchemeFormatError(
                f"malformed scheme document: {error}") from error

    def carrier_for(self, field_name: str) -> CarrierSpec:
        for carrier in self.carriers:
            if carrier.field == field_name:
                return carrier
        raise RecordError(f"no carrier declared for field {field_name!r}")

    def describe(self) -> str:
        """Multi-line human-readable summary (used by the CLI)."""
        lines = [
            f"shape: {self.shape!r}",
            f"gamma: {self.gamma}",
            "carriers:",
        ]
        for carrier in self.carriers:
            rule = carrier.identifier
            lines.append(
                f"  - {carrier.field} via {carrier.algorithm} "
                f"({rule.kind()} identifier on {', '.join(rule.fields)})")
        lines.append("templates:")
        for template in self.templates:
            conds = ", ".join(template.conditions)
            lines.append(
                f"  - {template.name}: [{conds}] -> {template.target}"
                + (f" (tol {template.tolerance})" if template.tolerance else ""))
        return "\n".join(lines)
