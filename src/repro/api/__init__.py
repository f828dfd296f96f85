"""``repro.api`` — the one public entry point to the WmXML system.

The paper presents WmXML as a *system* (Figure 4): the owner hands it a
watermark, a secret key, query templates, and the keys/FDs discovered
from the schema, and the system does the rest.  This package is that
system boundary for the reproduction:

* :class:`SchemeBuilder` — fluent construction of a
  :class:`~repro.core.scheme.WatermarkingScheme`; the built scheme
  round-trips through a versioned JSON document
  (``scheme.to_dict()`` / ``WatermarkingScheme.from_dict`` /
  ``scheme.save("scheme.json")``), so a deployment is a config
  artefact, not Python code;
* :class:`WmXMLSystem` — the facade that owns the secret key and a
  scheme registry, and compiles each scheme once into a reusable
  :class:`Pipeline`;
* :class:`Pipeline` — a compiled (scheme, key) pair with single and
  batch ``embed`` / ``detect`` APIs and an explicit detection
  ``strategy`` (``"indexed"`` / ``"scan"`` / ``"auto"``);
* the consolidated :class:`~repro.errors.WmXMLError` hierarchy — every
  error the library raises on purpose is catchable through this one
  base class.

Quickstart::

    from repro import api

    scheme = (api.SchemeBuilder()
              .shape(my_shape)
              .carrier("year", "numeric", key=("title",))
              .gamma(2)
              .build())
    scheme.save("scheme.json")                  # the deployment artefact

    system = api.WmXMLSystem("owner-secret")
    system.register("books", scheme)            # or register_file(...)
    pipeline = system.pipeline("books")

    result = pipeline.embed(document, "(c) me")
    result.record.save("record.json")

    outcome = pipeline.detect(suspect, result.record, expected="(c) me")
    assert outcome.detected

The pre-existing import paths (``repro.core.WmXMLEncoder`` and friends)
keep working; they are the engine room this facade drives.
"""

from repro.api.builder import SchemeBuilder
from repro.api.pipeline import (
    DETECTION_STRATEGIES,
    EMBED_OUTPUTS,
    Pipeline,
)
from repro.api.system import WmXMLSystem
from repro.attacks import (
    Attack,
    AttackReport,
    CollusionAttack,
    CompositeAttack,
    NodeDeletionAttack,
    NodeInsertionAttack,
    RedundancyUnificationAttack,
    ReductionAttack,
    ReorganizationAttack,
    SiblingShuffleAttack,
    ValueAlterationAttack,
)
from repro.core import (
    CarrierSpec,
    DetectionResult,
    EmbeddingResult,
    EmbeddingStats,
    FDIdentifier,
    Fingerprinter,
    KeyIdentifier,
    UsabilityBaseline,
    UsabilityReport,
    UsabilityTemplate,
    Watermark,
    WatermarkRecord,
    WatermarkingScheme,
)
from repro.core.algorithms import AlgorithmError, algorithm_names
from repro.errors import (
    HTTP_STATUS_BY_CODE,
    RecordFormatError,
    SchemeFormatError,
    SerializationError,
    UnknownSchemeError,
    WatermarkDecodeError,
    WatermarkMessageError,
    WmXMLError,
    error_code,
    error_payload,
    http_status_for,
)
from repro.core.fingerprint import IssuedCopy, TraceResult
from repro.registry import (
    ChainBrokenError,
    ChainVerification,
    LedgerBlock,
    MemoryBackend,
    RegistryBackend,
    RegistryError,
    RegistryFormatError,
    RegistryNotConfiguredError,
    RegistryRecord,
    RegistrySchemaError,
    SQLiteBackend,
    UnknownRecipientError,
    WatermarkRegistry,
)
from repro.semantics import DocumentShape, level, shape
from repro.semantics.errors import RecordError, SemanticsError
from repro.xmlmodel import (
    XMLError,
    parse,
    parse_file,
    parse_many,
    pretty,
    serialize,
    write_file,
)
from repro.xpath import XPathError

__all__ = [
    # facade
    "WmXMLSystem",
    "Pipeline",
    "SchemeBuilder",
    "DETECTION_STRATEGIES",
    "EMBED_OUTPUTS",
    # scheme / data model
    "CarrierSpec",
    "DocumentShape",
    "FDIdentifier",
    "KeyIdentifier",
    "UsabilityTemplate",
    "WatermarkingScheme",
    "level",
    "shape",
    "algorithm_names",
    # artefacts
    "DetectionResult",
    "EmbeddingResult",
    "EmbeddingStats",
    "Watermark",
    "WatermarkRecord",
    # usability
    "UsabilityBaseline",
    "UsabilityReport",
    # fingerprinting
    "Fingerprinter",
    "IssuedCopy",
    "TraceResult",
    # registry / provenance
    "WatermarkRegistry",
    "RegistryBackend",
    "MemoryBackend",
    "SQLiteBackend",
    "RegistryRecord",
    "LedgerBlock",
    "ChainVerification",
    "RegistryError",
    "RegistryFormatError",
    "RegistrySchemaError",
    "RegistryNotConfiguredError",
    "ChainBrokenError",
    "UnknownRecipientError",
    # attacks
    "Attack",
    "AttackReport",
    "CollusionAttack",
    "CompositeAttack",
    "NodeDeletionAttack",
    "NodeInsertionAttack",
    "RedundancyUnificationAttack",
    "ReductionAttack",
    "ReorganizationAttack",
    "SiblingShuffleAttack",
    "ValueAlterationAttack",
    # XML I/O
    "parse",
    "parse_file",
    "parse_many",
    "pretty",
    "serialize",
    "write_file",
    # errors
    "WmXMLError",
    "HTTP_STATUS_BY_CODE",
    "error_code",
    "error_payload",
    "http_status_for",
    "AlgorithmError",
    "RecordError",
    "RecordFormatError",
    "SchemeFormatError",
    "SemanticsError",
    "SerializationError",
    "UnknownSchemeError",
    "WatermarkDecodeError",
    "WatermarkMessageError",
    "XMLError",
    "XPathError",
]
