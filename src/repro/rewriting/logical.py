"""Logical (organisation-independent) queries.

WmXML's identity queries must survive schema reorganisation (paper
§2.2).  The reproduction achieves this by storing each identity query in
a *logical form* — "select field F of the rows where C1=v1 and C2=v2" —
and compiling that form to concrete XPath for whichever
:class:`~repro.semantics.shape.DocumentShape` the document currently
has.  Rewriting a query for a reorganised document is then simply
re-compilation against the new shape (Figure 2 of the paper).

The logical form is JSON-serialisable because the paper requires the
query set Q to be "safeguarded along with the secret key" — i.e.
persisted by the owner between embedding and detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


@dataclass(frozen=True)
class LogicalQuery:
    """Select the ``target`` field of rows matching all ``conditions``."""

    target: str
    conditions: tuple[tuple[str, str], ...]

    @classmethod
    def create(cls, target: str,
               conditions: Mapping[str, str]) -> "LogicalQuery":
        """Build from a mapping, normalising condition order."""
        return cls(target, tuple(sorted(conditions.items())))

    def fields_used(self) -> set[str]:
        """Every field the query mentions (target plus conditions)."""
        used = {self.target}
        used.update(name for name, _ in self.conditions)
        return used

    # -- serialisation ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "conditions": [[name, value] for name, value in self.conditions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogicalQuery":
        target = data["target"]
        conditions = []
        for name, value in data["conditions"]:
            if not (isinstance(name, str) and isinstance(value, str)):
                raise TypeError("a logical query's conditions must pair "
                                "string names with string values")
            conditions.append((name, value))
        if not isinstance(target, str):
            raise TypeError("a logical query's target must be a string")
        return cls(target, tuple(conditions))

    def __str__(self) -> str:
        conds = " and ".join(f"{n}={v!r}" for n, v in self.conditions)
        return f"select {self.target} where {conds or 'true'}"


def xpath_literal(value: str) -> str:
    """Render ``value`` as an XPath string literal.

    XPath 1.0 has no escape syntax inside literals, so values containing
    both quote kinds are assembled with ``concat()`` — the standard
    workaround.
    """
    if "'" not in value:
        return f"'{value}'"
    if '"' not in value:
        return f'"{value}"'
    parts: list[str] = []
    for chunk in value.split("'"):
        if parts:
            parts.append('"\'"')
        if chunk:
            parts.append(f"'{chunk}'")
    return f"concat({', '.join(parts)})"
