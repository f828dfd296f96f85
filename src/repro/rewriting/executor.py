"""Indexed execution of logical queries.

Detection executes one identity query per stored record entry; compiled
XPath evaluates each from the document root, making detection
O(|Q| × |document|).  The paper's architecture runs the queries through
its "XML query engine" — this module is the engine's indexed fast path:

* the document is shredded **once** through its shape,
* every ``(field, value)`` gets an inverted index of row ids,
* a :class:`~repro.rewriting.logical.LogicalQuery` is answered by
  intersecting the posting lists of its conditions and projecting the
  target field's nodes.

Semantics match XPath compilation for the queries WmXML generates
(equality conditions over shape fields) — asserted by the test suite on
clean *and* attacked documents — while detection cost drops to
O(|document| + |Q|).

An executor is read-only once built: :meth:`LogicalExecutor.execute`
only reads the rows and posting lists, so one instance answers the
queries of any number of records.  A trace builds one over the
suspected copy and verifies every issued record against it.

The postings are keyed by the ``(field, value)`` pair a query's
condition names, and the executor keeps those keys as
:attr:`LogicalExecutor.posting_keys`: a query whose first condition is
not among them matches no row, so a decoder skips it without running
it (see :class:`repro.core.decoder.DetectionPlan`).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.rewriting.logical import LogicalQuery
from repro.semantics.errors import RecordError
from repro.semantics.shape import DocumentShape
from repro.xmlmodel.tree import Document, Element
from repro.xpath import NodeLike


class LogicalExecutor:
    """One-document, one-shape query executor with inverted indexes."""

    def __init__(self, document: Union[Document, Element],
                 shape: DocumentShape) -> None:
        self.document = document
        self.shape = shape
        self._rows = shape.shred(document)
        # (field, value) -> sorted row ids; a row names a field once
        self._postings: dict[tuple[str, str], list[int]] = {}
        for row_id, row in enumerate(self._rows):
            for condition in row.values.items():
                self._postings.setdefault(condition, []).append(row_id)
        #: Every ``(field, value)`` some row holds: a condition outside
        #: this set matches no row.
        self.posting_keys: frozenset[tuple[str, str]] = frozenset(
            self._postings)

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def _candidate_ids(self, query: LogicalQuery) -> Optional[list[int]]:
        """Row ids matching all conditions; None means 'all rows'."""
        candidate: Optional[list[int]] = None
        for condition in query.conditions:
            ids = self._postings.get(condition, [])
            if candidate is None:
                candidate = ids
            else:
                id_set = set(ids)
                candidate = [row_id for row_id in candidate
                             if row_id in id_set]
            if not candidate:
                return []
        return candidate

    def execute(self, query: LogicalQuery) -> list[NodeLike]:
        """The target-field nodes of rows matching the query.

        Nodes are deduplicated (several rows share a node after
        multi-field expansion) and returned in document/row order.
        """
        if query.target not in self.shape.placements:
            raise RecordError(
                f"shape {self.shape.name!r} does not materialise "
                f"{query.target!r}")
        candidate = self._candidate_ids(query)
        if candidate is None:
            candidate = range(len(self._rows))
        nodes: list[NodeLike] = []
        for row_id in candidate:
            node = self._rows[row_id].nodes.get(query.target)
            if node is None:
                continue
            if node not in nodes:
                nodes.append(node)
        return nodes

    def execute_strings(self, query: LogicalQuery) -> list[str]:
        """String values of the query result (test/debug helper)."""
        from repro.xpath import node_string_value

        return [node_string_value(node) for node in self.execute(query)]
