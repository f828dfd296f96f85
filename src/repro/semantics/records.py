"""Shredding XML documents into a logical relation.

The rewriting layer (paper §2.2, Figure 2) needs a representation of the
data that is independent of any particular XML organisation.  WmXML's
reproduction uses the classical one: a *logical relation* obtained by
shredding entity subtrees into flat rows.

* A :class:`FieldSpec` names one field and gives the relative path from
  an entity node to its value (``@name`` paths address attributes).
  ``multi=True`` marks set-valued fields (e.g. a book's authors).
* A :class:`RecordSpec` names the entity path plus its fields and turns
  a document into :class:`Row` objects.  Multi-valued fields expand into
  one row per value (a cross product when several multi fields exist),
  mirroring the relational encoding of nested data.

Rows keep *node references* alongside values so the watermark embedder
can rewrite the exact text/attribute nodes it selected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.semantics.errors import RecordError
from repro.xmlmodel.tree import Document, Element
from repro.xpath import NodeLike, compile_xpath, node_string_value


@dataclass(frozen=True)
class FieldSpec:
    """One field of the logical relation."""

    name: str
    path: str
    multi: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise RecordError("field name must not be empty")
        if self.path.startswith("/"):
            raise RecordError(
                f"field {self.name!r}: path must be relative to the entity")


@dataclass
class Row:
    """One logical row: field values plus the nodes carrying them.

    ``entity`` is the entity element the row was shredded from; several
    rows share one entity when multi-valued fields were expanded.
    Synthetic rows (from the dataset generators) have no backing
    document: ``entity`` is None and ``nodes`` is empty.
    """

    entity: Optional[Element]
    values: dict[str, str]
    nodes: dict[str, NodeLike]

    @classmethod
    def from_values(cls, values: dict[str, str]) -> "Row":
        """A synthetic row carrying values only (generator output)."""
        return cls(entity=None, values=dict(values), nodes={})

    def __getitem__(self, field_name: str) -> str:
        return self.values[field_name]

    def get(self, field_name: str, default: Optional[str] = None) -> Optional[str]:
        return self.values.get(field_name, default)

    def key(self, fields: tuple[str, ...]) -> tuple[str, ...]:
        """Tuple of this row's values for ``fields``."""
        return tuple(self.values[f] for f in fields)


@dataclass(frozen=True)
class RecordSpec:
    """Entity path plus field specs; the schema of the logical relation."""

    entity: str
    fields: tuple[FieldSpec, ...]

    def __post_init__(self) -> None:
        if not self.entity.startswith("/"):
            raise RecordError("entity must be an absolute path")
        names = [f.name for f in self.fields]
        if len(names) != len(set(names)):
            raise RecordError("duplicate field names in record spec")

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def field(self, name: str) -> FieldSpec:
        for spec in self.fields:
            if spec.name == name:
                return spec
        raise RecordError(f"unknown field {name!r}")

    # -- shredding ------------------------------------------------------------

    def shred(self, document: Union[Document, Element]) -> list[Row]:
        """Flatten ``document`` into rows (document order preserved)."""
        rows: list[Row] = []
        for entity in compile_xpath(self.entity).select(document):
            if not isinstance(entity, Element):
                raise RecordError(
                    f"entity path {self.entity!r} selected a non-element")
            rows.extend(self._shred_entity(entity))
        return rows

    def _shred_entity(self, entity: Element) -> Iterator[Row]:
        single_values: dict[str, str] = {}
        single_nodes: dict[str, NodeLike] = {}
        multi_fields: list[tuple[FieldSpec, list[NodeLike]]] = []
        for spec in self.fields:
            nodes = compile_xpath(spec.path).select(entity)
            if spec.multi:
                multi_fields.append((spec, nodes))
                continue
            if not nodes:
                continue  # optional field absent on this entity
            if len(nodes) > 1:
                raise RecordError(
                    f"field {spec.name!r} is single-valued but "
                    f"{entity.path()} has {len(nodes)} matches; "
                    "declare it multi=True")
            single_values[spec.name] = node_string_value(nodes[0]).strip()
            single_nodes[spec.name] = nodes[0]

        if not multi_fields:
            yield Row(entity, dict(single_values), dict(single_nodes))
            return
        yield from self._expand_multi(
            entity, single_values, single_nodes, multi_fields)

    def _expand_multi(
        self,
        entity: Element,
        base_values: dict[str, str],
        base_nodes: dict[str, NodeLike],
        multi_fields: list[tuple[FieldSpec, list[NodeLike]]],
    ) -> Iterator[Row]:
        """Cross-product expansion of multi-valued fields."""
        combos: list[tuple[dict[str, str], dict[str, NodeLike]]] = [({}, {})]
        for spec, nodes in multi_fields:
            if not nodes:
                continue  # absent multi field contributes nothing
            expanded: list[tuple[dict[str, str], dict[str, NodeLike]]] = []
            for values, value_nodes in combos:
                for node in nodes:
                    new_values = dict(values)
                    new_nodes = dict(value_nodes)
                    new_values[spec.name] = node_string_value(node).strip()
                    new_nodes[spec.name] = node
                    expanded.append((new_values, new_nodes))
            combos = expanded
        for values, value_nodes in combos:
            merged_values = dict(base_values)
            merged_values.update(values)
            merged_nodes = dict(base_nodes)
            merged_nodes.update(value_nodes)
            yield Row(entity, merged_values, merged_nodes)

    # -- entity-level access (no multi expansion) -----------------------------------

    def entities(self, document: Union[Document, Element]) -> list[Element]:
        """The entity elements themselves, in document order."""
        nodes = compile_xpath(self.entity).select(document)
        return [node for node in nodes if isinstance(node, Element)]


def distinct_values(rows: list[Row], field_name: str) -> list[str]:
    """Distinct values of a field across rows, first-seen order."""
    return list(dict.fromkeys(
        row.values[field_name] for row in rows if field_name in row.values))


def project(rows: list[Row], fields: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Distinct projections of rows onto ``fields`` (first-seen order).

    Rows missing any of the fields are skipped.
    """
    seen: dict[tuple[str, ...], None] = {}
    for row in rows:
        if any(f not in row.values for f in fields):
            continue
        seen.setdefault(row.key(fields))
    return list(seen)
