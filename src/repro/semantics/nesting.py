"""Re-nesting a logical relation into an XML document.

The inverse of shredding: a :class:`NestingSpec` describes a target
document organisation as a linear hierarchy of levels, each grouping the
rows by some fields.  Rebuilding Figure 1 of the paper:

* db1.xml is ``book``-centric — one level grouped by ``title``, with
  ``publisher`` as an attribute and ``author``/``editor``/``year`` as
  leaf children;
* db2.xml is ``publisher``/``author``-centric — a ``publisher`` level
  grouped by publisher, an ``author`` level grouped by author, and a
  ``book`` level whose element text is the title.

Because both shapes describe the *same* relation, reorganisation (the
attack of §4C) is ``shred(db1-shape) |> build(db2-shape)``, and query
rewriting is re-compiling a logical query against the other shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import SchemeFormatError
from repro.semantics.errors import RecordError
from repro.semantics.records import Row
from repro.xmlmodel.tree import Document, Element


def require_name(value, what: str) -> str:
    """``value`` if it is a string: a shape names tags and fields only
    by strings, and anything else would fail at the first shred."""
    if not isinstance(value, str):
        raise SchemeFormatError(
            f"{what} must be a string, got {type(value).__name__}")
    return value


def _name_pairs(entries, what: str) -> tuple[tuple[str, str], ...]:
    return tuple((require_name(name, what), require_name(field_name, what))
                 for name, field_name in entries)


@dataclass(frozen=True)
class LevelSpec:
    """One level of the target hierarchy.

    * ``tag`` — element tag created per group,
    * ``group_by`` — fields whose values define the groups at this level
      (within the parent group),
    * ``attributes`` — attribute name -> field placed on the element,
    * ``leaves`` — child leaf tag -> field placed under the element; a
      field with several distinct values in the group yields one child
      per value,
    * ``text_field`` — field stored as the element's own text content.
    """

    tag: str
    group_by: tuple[str, ...]
    attributes: tuple[tuple[str, str], ...] = ()
    leaves: tuple[tuple[str, str], ...] = ()
    text_field: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.group_by:
            raise RecordError(f"level {self.tag!r} needs group_by fields")

    def placed_fields(self) -> set[str]:
        """Every field this level materialises."""
        placed = {field_name for _, field_name in self.attributes}
        placed.update(field_name for _, field_name in self.leaves)
        if self.text_field is not None:
            placed.add(self.text_field)
        return placed

    def to_dict(self) -> dict:
        data: dict = {"tag": self.tag, "group_by": list(self.group_by)}
        if self.attributes:
            data["attributes"] = [list(pair) for pair in self.attributes]
        if self.leaves:
            data["leaves"] = [list(pair) for pair in self.leaves]
        if self.text_field is not None:
            data["text_field"] = self.text_field
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "LevelSpec":
        text_field = data.get("text_field")
        return cls(
            tag=require_name(data["tag"], "level tag"),
            group_by=tuple(require_name(name, "group_by field")
                           for name in data["group_by"]),
            attributes=_name_pairs(data.get("attributes", ()),
                                   "attribute name"),
            leaves=_name_pairs(data.get("leaves", ()), "leaf name"),
            text_field=(None if text_field is None
                        else require_name(text_field, "text_field")),
        )


@dataclass(frozen=True)
class NestingSpec:
    """A linear hierarchy of levels under a root element."""

    root: str
    levels: tuple[LevelSpec, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise RecordError("nesting spec needs at least one level")

    def placed_fields(self) -> set[str]:
        placed: set[str] = set()
        for level in self.levels:
            placed.update(level.placed_fields())
        return placed

    def grouping_fields(self) -> set[str]:
        grouped: set[str] = set()
        for level in self.levels:
            grouped.update(level.group_by)
        return grouped

    def check_covers(self, field_names: Sequence[str]) -> list[str]:
        """Fields of the relation that this nesting would drop."""
        placed = self.placed_fields()
        return [name for name in field_names if name not in placed]

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "levels": [level.to_dict() for level in self.levels],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NestingSpec":
        return cls(
            root=require_name(data["root"], "root tag"),
            levels=tuple(LevelSpec.from_dict(entry)
                         for entry in data["levels"]),
        )

    # -- building ------------------------------------------------------------

    def build(self, rows: Sequence[Row]) -> Document:
        """Materialise ``rows`` as a document in this organisation.

        Grouping preserves first-seen order at every level, so building
        is deterministic for a given row order.
        """
        root = Element(self.root)
        self._build_level(root, list(rows), 0)
        return Document(root)

    def _build_level(self, parent: Element, rows: list[Row],
                     depth: int) -> None:
        if depth >= len(self.levels):
            return
        level = self.levels[depth]
        groups: dict[tuple[str, ...], list[Row]] = {}
        for row in rows:
            if any(f not in row.values for f in level.group_by):
                continue  # row lacks this level's identity; skip it
            groups.setdefault(row.key(level.group_by), []).append(row)
        for group_key, group_rows in groups.items():
            element = parent.add_child(level.tag)
            head = group_rows[0]
            for attr_name, field_name in level.attributes:
                value = head.get(field_name)
                if value is not None:
                    element.set_attribute(attr_name, value)
            if level.text_field is not None:
                value = head.get(level.text_field)
                if value is not None:
                    element.set_text(value)
            for leaf_tag, field_name in level.leaves:
                for value in _distinct_in_order(group_rows, field_name):
                    element.add_child(leaf_tag, text=value)
            self._build_level(element, group_rows, depth + 1)


def _distinct_in_order(rows: list[Row], field_name: str) -> list[str]:
    seen: dict[str, None] = {}
    for row in rows:
        value = row.get(field_name)
        if value is not None:
            seen.setdefault(value)
    return list(seen)
