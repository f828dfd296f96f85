"""Document shapes: a nesting spec plus the record spec it induces.

A :class:`DocumentShape` is WmXML's formalisation of "a schema mapping"
(paper Figure 2): two shapes over the same field vocabulary describe two
organisations of the same logical relation.  Shredding with one shape
and building with another *is* the reorganisation of Figure 1; compiling
a logical query against another shape *is* the query rewriting the
decoder performs.

The record spec is derived from the nesting:

* the entity path is the chain of level tags under the root,
* a field placed as an attribute/text at level ``i`` is read through
  ``../`` hops from the entity,
* leaf placements are declared multi-valued (safe generalisation — a
  single-valued leaf behaves identically under the cross-product
  expansion).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

from repro.perf.profiler import profiled
from repro.semantics.errors import RecordError
from repro.semantics.nesting import LevelSpec, NestingSpec, require_name
from repro.semantics.records import FieldSpec, RecordSpec, Row
from repro.xmlmodel.tree import Document, Element, Text
from repro.xpath.values import AttributeNode, NodeLike

#: Kinds of field placement within a shape.
ATTRIBUTE = "attribute"
LEAF = "leaf"
TEXT = "text"


@dataclass(frozen=True)
class FieldPlacement:
    """Where one field lives inside a shape.

    ``level_index`` is 0-based into ``nesting.levels``; ``name`` is the
    attribute name or leaf tag (None for text placements).
    """

    field: str
    level_index: int
    kind: str  # ATTRIBUTE | LEAF | TEXT
    name: Optional[str]


@dataclass(frozen=True)
class DocumentShape:
    """A named document organisation over a field vocabulary."""

    name: str
    nesting: NestingSpec

    # -- placements ------------------------------------------------------------

    @cached_property
    def placements(self) -> dict[str, FieldPlacement]:
        """field -> placement; the *shallowest* placement wins on ties."""
        table: dict[str, FieldPlacement] = {}
        for index, level in enumerate(self.nesting.levels):
            for attr_name, field_name in level.attributes:
                table.setdefault(field_name, FieldPlacement(
                    field_name, index, ATTRIBUTE, attr_name))
            if level.text_field is not None:
                table.setdefault(level.text_field, FieldPlacement(
                    level.text_field, index, TEXT, None))
            for leaf_tag, field_name in level.leaves:
                table.setdefault(field_name, FieldPlacement(
                    field_name, index, LEAF, leaf_tag))
        return table

    def placement(self, field_name: str) -> FieldPlacement:
        """Placement of ``field_name``; raises when the shape drops it."""
        placement = self.placements.get(field_name)
        if placement is None:
            raise RecordError(
                f"shape {self.name!r} does not materialise field "
                f"{field_name!r}")
        return placement

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(self.placements)

    # -- induced record spec ------------------------------------------------------------

    @cached_property
    def record_spec(self) -> RecordSpec:
        """The record spec that shreds documents of this shape."""
        levels = self.nesting.levels
        entity_depth = len(levels)
        entity_path = "/" + "/".join(
            [self.nesting.root] + [level.tag for level in levels])
        fields: list[FieldSpec] = []
        for field_name, placement in self.placements.items():
            hops = entity_depth - 1 - placement.level_index
            prefix = "../" * hops
            if placement.kind == ATTRIBUTE:
                path = f"{prefix}@{placement.name}"
                multi = False
            elif placement.kind == TEXT:
                path = f"{prefix}text()" if prefix else "text()"
                multi = False
            else:
                path = f"{prefix}{placement.name}"
                multi = True
            fields.append(FieldSpec(field_name, path, multi=multi))
        return RecordSpec(entity_path, tuple(fields))

    # -- shredding / building ------------------------------------------------------------

    @cached_property
    def _shred_plan(self) -> tuple[tuple[FieldSpec, str, Optional[str], int], ...]:
        """Per-field access plan: (spec, kind, name, parent hops).

        Aligned with ``record_spec.fields`` order so the fast shredder
        expands multi-valued fields in exactly the order the compiled
        XPath path would, keeping row order bit-identical.
        """
        entity_depth = len(self.nesting.levels)
        plan = []
        for spec in self.record_spec.fields:
            placement = self.placements[spec.name]
            hops = entity_depth - 1 - placement.level_index
            plan.append((spec, placement.kind, placement.name, hops))
        return tuple(plan)

    @profiled("shape.shred")
    def shred(self, document: Union[Document, Element]) -> list[Row]:
        """Flatten a document of this shape into logical rows.

        Single-pass tree-walk shredder: entities are found by walking
        the level-tag chain through the child-tag indexes, and each
        field is read through direct parent hops — no XPath evaluation
        per entity.  Produces exactly the rows
        ``record_spec.shred(document)`` would (asserted by the test
        suite), in the same order.
        """
        root = document.root if isinstance(document, Document) else document.root()
        if not isinstance(root, Element) or root.tag != self.nesting.root:
            return []
        level_tags = self.level_tags()
        rows: list[Row] = []
        frontier: list[Element] = [root]
        for tag in level_tags:
            frontier = [
                child for parent in frontier
                for child in parent.children_by_tag(tag)
            ]
        for entity in frontier:
            rows.extend(self._shred_entity_fast(entity))
        return rows

    def _shred_entity_fast(self, entity: Element):
        spec_for_errors = self.record_spec
        single_values: dict[str, str] = {}
        single_nodes: dict[str, NodeLike] = {}
        multi_fields: list[tuple[FieldSpec, list[NodeLike]]] = []
        for spec, kind, name, hops in self._shred_plan:
            owner = entity
            for _ in range(hops):
                owner = owner.parent
            if kind == ATTRIBUTE:
                value = owner.attributes.get(name)
                if value is None:
                    continue  # optional field absent on this entity
                single_values[spec.name] = value.strip()
                single_nodes[spec.name] = AttributeNode(owner, name)
            elif kind == TEXT:
                texts = [child for child in owner.children
                         if isinstance(child, Text)]
                if not texts:
                    continue
                if len(texts) > 1:
                    raise RecordError(
                        f"field {spec.name!r} is single-valued but "
                        f"{entity.path()} has {len(texts)} matches; "
                        "declare it multi=True")
                single_values[spec.name] = texts[0].value.strip()
                single_nodes[spec.name] = texts[0]
            else:  # LEAF (multi-valued)
                multi_fields.append(
                    (spec, list(owner.children_by_tag(name))))
        if not multi_fields:
            return [Row(entity, dict(single_values), dict(single_nodes))]
        return spec_for_errors._expand_multi(
            entity, single_values, single_nodes, multi_fields)

    def build(self, rows: Sequence[Row]) -> Document:
        """Materialise rows as a document of this shape."""
        return self.nesting.build(rows)

    def level_tags(self) -> tuple[str, ...]:
        return tuple(level.tag for level in self.nesting.levels)

    def dropped_fields(self, other: "DocumentShape") -> list[str]:
        """Fields this shape materialises that ``other`` would lose."""
        return sorted(set(self.field_names) - set(other.field_names))

    # -- serialisation ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Declarative form of the shape (part of the scheme format)."""
        return {"name": self.name, "nesting": self.nesting.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "DocumentShape":
        return cls(require_name(data["name"], "shape name"),
                   NestingSpec.from_dict(data["nesting"]))

    def __repr__(self) -> str:
        chain = "/".join((self.nesting.root,) + self.level_tags())
        return f"DocumentShape({self.name!r}, {chain})"


def shape(
    name: str,
    root: str,
    levels: Sequence[LevelSpec],
) -> DocumentShape:
    """Convenience constructor for a :class:`DocumentShape`."""
    return DocumentShape(name, NestingSpec(root, tuple(levels)))


def level(
    tag: str,
    group_by: Sequence[str],
    attributes: Optional[dict[str, str]] = None,
    leaves: Optional[dict[str, str]] = None,
    text_field: Optional[str] = None,
) -> LevelSpec:
    """Convenience constructor for a :class:`LevelSpec`.

    ``attributes`` maps attribute name -> field; ``leaves`` maps child
    leaf tag -> field.
    """
    return LevelSpec(
        tag=tag,
        group_by=tuple(group_by),
        attributes=tuple((attributes or {}).items()),
        leaves=tuple((leaves or {}).items()),
        text_field=text_field,
    )
