"""Identifier creation from keys and functional dependencies (paper §2.3).

This is the heart of WmXML.  Carrier fields (the fields with watermark
bandwidth) are grouped into *carrier groups*, each with an identifier
that is

* **differentiating** — distinct data elements get distinct identifiers
  (built from entity-key values), so the scarce bandwidth is fully used;
* **redundancy-aware** — duplicates implied by an FD share one
  identifier (built from the FD's lhs values), so an adversary who makes
  all duplicates identical has not erased anything;
* **usability-coupled** — the identifier doubles as a
  :class:`~repro.rewriting.logical.LogicalQuery`; destroying it means
  destroying the key/FD values user queries rely on.

Two identifier rules implement this:

* :class:`KeyIdentifier` — identity from the entity key fields; one
  group per entity;
* :class:`FDIdentifier` — identity from the FD lhs fields; one group per
  lhs value, folding every duplicate rhs occurrence into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring as _json_string
from typing import Any, Mapping, Optional, Sequence, Union

from repro.perf import profiled
from repro.rewriting.logical import LogicalQuery
from repro.semantics.errors import RecordError
from repro.semantics.records import Row
from repro.semantics.shape import DocumentShape
from repro.xpath import NodeLike


@dataclass(frozen=True)
class KeyIdentifier:
    """Identify carrier instances by the values of the entity key."""

    fields: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.fields:
            raise RecordError("key identifier needs at least one field")

    def kind(self) -> str:
        return "key"


@dataclass(frozen=True)
class FDIdentifier:
    """Identify (and fold) carrier instances by an FD's lhs values."""

    fields: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.fields:
            raise RecordError("FD identifier needs at least one field")

    def kind(self) -> str:
        return "fd"


IdentifierRule = Union[KeyIdentifier, FDIdentifier]

_IDENTIFIER_KINDS = {"key": KeyIdentifier, "fd": FDIdentifier}


def identifier_to_dict(rule: IdentifierRule) -> dict:
    """Declarative form of an identifier rule."""
    return {"kind": rule.kind(), "fields": list(rule.fields)}


def identifier_from_dict(data: dict) -> IdentifierRule:
    """Rebuild an identifier rule from its declarative form."""
    try:
        rule_cls = _IDENTIFIER_KINDS[data["kind"]]
    except KeyError:
        raise RecordError(
            f"unknown identifier kind {data.get('kind')!r}; "
            f"expected one of {sorted(_IDENTIFIER_KINDS)}")
    return rule_cls(tuple(data["fields"]))


@dataclass(frozen=True)
class CarrierSpec:
    """One watermark-capable field and how to identify its instances.

    ``algorithm``/``params`` name the plug-in that perturbs the value;
    ``identifier`` decides how instances are grouped (and therefore how
    redundancy is handled).  The carrier field must not belong to its
    own identifier — perturbing a value must never change its identity.
    """

    field: str
    algorithm: str
    identifier: IdentifierRule
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def create(
        cls,
        field_name: str,
        algorithm: str,
        identifier: IdentifierRule,
        params: Optional[Mapping[str, Any]] = None,
    ) -> "CarrierSpec":
        if field_name in identifier.fields:
            raise RecordError(
                f"carrier field {field_name!r} may not be part of its own "
                "identifier (perturbation would destroy the identity)")
        items = tuple(sorted((params or {}).items(),
                             key=lambda item: item[0]))
        return cls(field_name, algorithm, identifier, items)

    @property
    def param_map(self) -> dict[str, Any]:
        return {name: value for name, value in self.params}

    @cached_property
    def algorithm_cache_key(self) -> str:
        """Stable key identifying ``(algorithm, params)`` plug-in state.

        Precomputed once per spec so the encoder's per-slot plug-in
        lookup is a dict hit instead of a sort + ``repr`` per call.
        """
        return self.algorithm + repr(sorted(self.params))

    # -- serialisation ------------------------------------------------------------

    def to_dict(self) -> dict:
        data: dict = {
            "field": self.field,
            "algorithm": self.algorithm,
            "identifier": identifier_to_dict(self.identifier),
        }
        if self.params:
            data["params"] = [[name, value] for name, value in self.params]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CarrierSpec":
        return cls.create(
            data["field"],
            data["algorithm"],
            identifier_from_dict(data["identifier"]),
            {name: value for name, value in data.get("params", ())},
        )


def identity_string(field_name: str,
                    bindings: Sequence[tuple[str, str]]) -> str:
    """Canonical, organisation-independent identity of a carrier group.

    Built purely from field names and semantic values — never from
    positions or paths — which is exactly why WmXML identities survive
    reorganisation.  JSON encoding makes the string unambiguous no
    matter what characters the values contain.

    The string is assembled directly from the C-accelerated JSON string
    encoder rather than through ``json.dumps`` — identity strings are
    built once per shredded row, so the generic encoder's dispatch
    overhead is measurable.  Output is byte-identical to
    ``json.dumps([field_name, sorted(bindings)], ensure_ascii=False,
    separators=(",", ":"))`` (locked by the test suite).
    """
    pairs = ",".join(
        f"[{_json_string(name)},{_json_string(value)}]"
        for name, value in sorted(bindings))
    return f"[{_json_string(field_name)},[{pairs}]]"


@dataclass
class CarrierGroup:
    """All instances of one carrier that share an identity.

    For key-identified carriers the group usually has one node; for
    FD-identified carriers it contains every duplicate of the rhs value
    for one lhs value.
    """

    carrier: CarrierSpec
    identity: str
    query: LogicalQuery
    nodes: list[NodeLike]
    values: list[str]

    @property
    def size(self) -> int:
        return len(self.nodes)

    def is_consistent(self) -> bool:
        """True when all duplicate instances currently agree."""
        return len(set(self.values)) <= 1


@profiled("identity.group")
def build_carrier_groups(
    rows: Sequence[Row],
    carriers: Sequence[CarrierSpec],
    shape: DocumentShape,
) -> list[CarrierGroup]:
    """Group carrier-field instances by identity over the shredded rows.

    Rows missing the carrier field or any identifier field contribute
    nothing (they have no capacity).  Node lists are deduplicated
    because multi-field expansion makes several rows share nodes.
    """
    for carrier in carriers:
        missing = [
            name for name in (carrier.field,) + carrier.identifier.fields
            if name not in shape.placements
        ]
        if missing:
            raise RecordError(
                f"shape {shape.name!r} does not materialise {missing!r} "
                f"needed by carrier {carrier.field!r}")

    groups: list[CarrierGroup] = []
    for carrier in carriers:
        carrier_field = carrier.field
        identifier_fields = carrier.identifier.fields
        by_identity: dict[str, CarrierGroup] = {}
        order: list[str] = []
        # Hash-set dedupe per group: tree nodes hash by object identity,
        # AttributeNode by (owner, name) — both correct here because
        # shredding re-wraps the same attribute in fresh AttributeNode
        # instances for every row.  (A linear `node in group.nodes` scan
        # here made grouping O(n²) for large FD groups.)
        seen_nodes: dict[str, set] = {}
        for row in rows:
            values = row.values
            if carrier_field not in values:
                continue
            if any(name not in values for name in identifier_fields):
                continue
            bindings = [(name, values[name]) for name in identifier_fields]
            identity = identity_string(carrier_field, bindings)
            group = by_identity.get(identity)
            if group is None:
                group = CarrierGroup(
                    carrier=carrier,
                    identity=identity,
                    query=LogicalQuery.create(
                        carrier_field, dict(bindings)),
                    nodes=[],
                    values=[],
                )
                by_identity[identity] = group
                order.append(identity)
                seen_nodes[identity] = set()
            node = row.nodes[carrier_field]
            seen = seen_nodes[identity]
            if node not in seen:
                seen.add(node)
                group.nodes.append(node)
                group.values.append(values[carrier_field])
        groups.extend(by_identity[identity] for identity in order)
    return groups
