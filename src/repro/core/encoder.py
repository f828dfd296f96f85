"""Watermark insertion (paper §2.2, step 2; the Encoder of Figure 4).

Pipeline::

    shred document -> build carrier groups (identity.py)
                   -> keyed 1-in-gamma selection (selection.py)
                   -> per-type plug-in embedding (algorithms/)
                   -> marked document + WatermarkRecord (the query set Q)

Every instance in a selected group receives the *same* bit through the
*same* identity-bound PRF stream, so FD duplicates end up bit-for-bit
identical — the property that defeats the redundancy-removal attack.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Union

from repro.core.algorithms.base import WatermarkAlgorithm, cached_algorithm
from repro.core.crypto import KeyedPRF
from repro.core.identity import build_carrier_groups
from repro.core.record import WatermarkQuery, WatermarkRecord
from repro.core.scheme import WatermarkingScheme
from repro.core.selection import SelectionStats, select_groups
from repro.core.watermark import Watermark
from repro.perf import profiled
from repro.xmlmodel.tree import Document, Element, Text
from repro.xpath import NodeLike
from repro.xpath.values import AttributeNode


def write_node_value(node: NodeLike, value: str) -> None:
    """Write a new value through whichever node kind carries it."""
    if isinstance(node, AttributeNode):
        node.set_value(value)
    elif isinstance(node, Element):
        node.set_text(value)
    elif isinstance(node, Text):
        node.value = value
    else:
        raise TypeError(f"cannot write value into {type(node).__name__}")


def read_node_value(node: NodeLike) -> str:
    """Read the current value of a carrier node."""
    if isinstance(node, AttributeNode):
        return node.value
    if isinstance(node, Element):
        return node.text.strip()
    if isinstance(node, Text):
        return node.value.strip()
    raise TypeError(f"cannot read value from {type(node).__name__}")


@dataclass
class EmbeddingStats:
    """What the encoder did, for capacity/usability analysis."""

    capacity_groups: int = 0
    selected_groups: int = 0
    embedded_groups: int = 0
    nodes_modified: int = 0
    nodes_unchanged: int = 0
    inapplicable_values: int = 0
    per_field: dict[str, int] = field(default_factory=dict)
    total_distortion: float = 0.0
    gamma: int = 0

    @property
    def utilisation(self) -> float:
        if self.capacity_groups == 0:
            return 0.0
        return self.selected_groups / self.capacity_groups

    @property
    def mean_distortion(self) -> float:
        touched = self.nodes_modified + self.nodes_unchanged
        return self.total_distortion / touched if touched else 0.0

    def to_dict(self) -> dict:
        """JSON-safe form; what the service ships next to the record.

        ``asdict`` so a future field cannot be silently dropped from
        the wire form.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EmbeddingStats":
        try:
            return cls(**data)
        except TypeError as error:
            from repro.errors import RecordFormatError

            raise RecordFormatError(
                f"malformed embedding stats: {error}") from error


@dataclass
class EmbeddingResult:
    """Marked document, the query set Q, and statistics.

    Exactly one of ``document``/``xml`` may be the primary output:
    batch embedding with ``output="xml"`` serialises the marked tree
    where it was built (inside a pool worker, avoiding the cost of
    pickling a whole tree back to the parent) and ships the markup
    text instead — ``document`` is then ``None`` and ``xml`` holds the
    serialised form.  :meth:`to_document` converts either way.
    """

    document: Optional[Document]
    record: WatermarkRecord
    stats: EmbeddingStats
    xml: Optional[str] = None

    def to_document(self) -> Document:
        """The marked tree, parsing ``xml`` when that is all we carry."""
        if self.document is not None:
            return self.document
        if self.xml is None:
            raise ValueError("embedding result carries neither a document "
                             "nor serialised XML")
        from repro.xmlmodel.parser import parse

        return parse(self.xml, strip_whitespace=True)

    def to_xml(self) -> str:
        """The marked document as markup, serialising when needed."""
        if self.xml is not None:
            return self.xml
        from repro.xmlmodel.serializer import serialize

        return serialize(self.to_document())


class WmXMLEncoder:
    """The encoder component of the WmXML architecture."""

    def __init__(self, scheme: WatermarkingScheme,
                 secret_key: Union[str, bytes]) -> None:
        self.scheme = scheme
        self.prf = KeyedPRF(secret_key)
        self._algorithms: dict[str, WatermarkAlgorithm] = {}

    # Pickling ships only the configuration (scheme + PRF, itself lean —
    # see KeyedPRF.__getstate__); the plug-in cache is derived state a
    # pool worker rebuilds lazily on its first document.

    def __getstate__(self) -> dict:
        return {"scheme": self.scheme, "prf": self.prf}

    def __setstate__(self, state: dict) -> None:
        self.scheme = state["scheme"]
        self.prf = state["prf"]
        self._algorithms = {}

    # -- public API ------------------------------------------------------------

    @profiled("encoder.embed")
    def embed(self, document: Document, watermark: Watermark,
              in_place: bool = False) -> EmbeddingResult:
        """Embed ``watermark`` and return the marked copy plus Q.

        With ``in_place=True`` the input document itself is modified
        (used by the benchmarks to avoid copy overhead).
        """
        target = document if in_place else document.copy()
        rows = self.scheme.shape.shred(target)
        groups = build_carrier_groups(rows, self.scheme.carriers,
                                      self.scheme.shape)
        slots, selection_stats = select_groups(
            groups, self.prf, self.scheme.gamma, len(watermark))

        stats = EmbeddingStats(
            capacity_groups=selection_stats.candidates,
            selected_groups=selection_stats.selected,
            gamma=self.scheme.gamma,
        )
        record = WatermarkRecord(
            gamma=self.scheme.gamma,
            nbits=len(watermark),
            shape_name=self.scheme.shape.name,
            key_fingerprint=self.prf.fingerprint(),
        )

        for slot in slots:
            group = slot.group
            carrier = group.carrier
            algorithm = cached_algorithm(self._algorithms, carrier.algorithm,
                                         carrier.params,
                                         carrier.algorithm_cache_key)
            bit = watermark.bits[slot.bit_index]
            embedded_any = False
            for node, value in zip(group.nodes, group.values):
                if not algorithm.applicable(value):
                    stats.inapplicable_values += 1
                    continue
                marked = algorithm.embed(value, bit, self.prf, group.identity)
                stats.total_distortion += algorithm.distortion(value, marked)
                if marked != value:
                    write_node_value(node, marked)
                    stats.nodes_modified += 1
                else:
                    stats.nodes_unchanged += 1
                embedded_any = True
            if not embedded_any:
                continue
            stats.embedded_groups += 1
            stats.per_field[carrier.field] = (
                stats.per_field.get(carrier.field, 0) + 1)
            record.queries.append(WatermarkQuery(
                identity=group.identity,
                query=group.query,
                bit_index=slot.bit_index,
                field=carrier.field,
                algorithm=carrier.algorithm,
                params=carrier.params,
            ))
        return EmbeddingResult(document=target, record=record, stats=stats)
