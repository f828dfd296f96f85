"""WmXML core: the paper's primary contribution.

The public API mirrors the system architecture of Figure 4:

* :class:`~repro.core.scheme.WatermarkingScheme` — the user's inputs
  (shape, carrier fields with identifier rules, usability templates,
  selection density),
* :class:`~repro.core.encoder.WmXMLEncoder` — watermark insertion,
  returning the marked document and the query set Q
  (:class:`~repro.core.record.WatermarkRecord`),
* :class:`~repro.core.decoder.WmXMLDecoder` — detection, with query
  rewriting when the suspected document was reorganised,
* :class:`~repro.core.watermark.Watermark` — the bit-string message,
* :mod:`~repro.core.algorithms` — the per-type embedding plug-ins,
* :class:`~repro.core.usability.UsabilityBaseline` — the §2.1
  query-template usability metric.

Quickstart::

    from repro.core import (CarrierSpec, KeyIdentifier, Watermark,
                            WatermarkingScheme, WmXMLDecoder, WmXMLEncoder)

    scheme = WatermarkingScheme(shape=my_shape, carriers=[
        CarrierSpec.create("year", "numeric", KeyIdentifier(("title",)))])
    encoder = WmXMLEncoder(scheme, secret_key="owner-secret")
    result = encoder.embed(doc, Watermark.from_message("(c) me"))
    decoder = WmXMLDecoder("owner-secret")
    outcome = decoder.detect(result.document, result.record, my_shape,
                             expected=Watermark.from_message("(c) me"))
    assert outcome.detected
"""

from repro.core.algorithms import (
    AlgorithmError,
    WatermarkAlgorithm,
    algorithm_names,
    create_algorithm,
)
from repro.core.crypto import KeyedPRF
from repro.core.decoder import DetectionResult, WmXMLDecoder
from repro.core.ecc import ECCode, Hamming74Code, RepetitionCode, choose_code
from repro.core.fingerprint import TraceResult
from repro.core.encoder import (
    EmbeddingResult,
    EmbeddingStats,
    WmXMLEncoder,
    read_node_value,
    write_node_value,
)
from repro.core.identity import (
    CarrierGroup,
    CarrierSpec,
    FDIdentifier,
    IdentifierRule,
    KeyIdentifier,
    build_carrier_groups,
    identity_string,
)
from repro.core.record import WatermarkQuery, WatermarkRecord
from repro.core.scheme import WatermarkingScheme
from repro.core.selection import EmbeddingSlot, SelectionStats, select_groups
from repro.core.usability import (
    UsabilityBaseline,
    UsabilityReport,
    UsabilityTemplate,
    values_match,
)
from repro.core.watermark import (
    VoteTally,
    Watermark,
    binomial_pvalue,
    bit_error_rate,
)

__all__ = [
    "AlgorithmError",
    "CarrierGroup",
    "CarrierSpec",
    "DetectionResult",
    "ECCode",
    "Hamming74Code",
    "EmbeddingResult",
    "EmbeddingSlot",
    "EmbeddingStats",
    "FDIdentifier",
    "IdentifierRule",
    "KeyIdentifier",
    "KeyedPRF",
    "RepetitionCode",
    "SelectionStats",
    "TraceResult",
    "UsabilityBaseline",
    "UsabilityReport",
    "UsabilityTemplate",
    "VoteTally",
    "Watermark",
    "WatermarkAlgorithm",
    "WatermarkQuery",
    "WatermarkRecord",
    "WatermarkingScheme",
    "WmXMLDecoder",
    "WmXMLEncoder",
    "algorithm_names",
    "binomial_pvalue",
    "bit_error_rate",
    "choose_code",
    "build_carrier_groups",
    "create_algorithm",
    "identity_string",
    "read_node_value",
    "select_groups",
    "values_match",
    "write_node_value",
]
