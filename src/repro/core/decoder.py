"""Watermark detection (paper §2.2, step 3; the Decoder of Figure 4).

"Execute the same set of queries to retrieve the data elements or
structure units embedded with watermark bits, and reconstruct the
watermark from them.  As the schema and the XML data could be
reorganized by attackers, these queries may have to be rewritten for the
reorganized data."

The decoder therefore takes the stored :class:`WatermarkRecord` (the
query set Q) plus the :class:`DocumentShape` the *suspected* document
currently has.  When the shapes differ, compilation against the new
shape **is** the query rewriting of Figure 2 — no other adjustment is
needed because Q is stored in logical form.

Detection modes:

* **verification** — the owner supplies the expected watermark; votes
  agreeing with it are counted and a binomial p-value bounds the
  probability that unmarked data matches this well by chance;
* **blind reconstruction** — per-bit majority voting recovers the
  embedded message without prior knowledge.

Every detection runs through a :class:`DetectionPlan` of the record
under the decoder's key.  With an indexed executor only the plan's
queries whose first condition some row of the suspect holds run: any
other would match no row.  A trace hands in the plans its warm
verifiers hold (see :mod:`repro.api.system`); every other call builds
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from repro.core.algorithms.base import WatermarkAlgorithm, cached_algorithm
from repro.core.crypto import KeyedPRF
from repro.core.encoder import read_node_value
from repro.core.record import WatermarkQuery, WatermarkRecord
from repro.core.watermark import (
    VoteTally,
    Watermark,
    binomial_pvalue,
    bit_error_rate,
)
from repro.errors import RecordFormatError, WatermarkMessageError
from repro.serialize import VersionedDocument
from repro.perf import profiled
from repro.rewriting.executor import LogicalExecutor
from repro.rewriting.rewriter import compile_logical
from repro.semantics.errors import RecordError
from repro.semantics.shape import DocumentShape
from repro.xmlmodel.tree import Document
from repro.xpath import XPathError, compile_xpath


#: Version tag of the persisted detection-result format.
DETECTION_FORMAT = "wmxml-detection-v1"


@dataclass
class DetectionResult(VersionedDocument):
    """Everything the decoder can say about a suspected document.

    ``message_status`` explains the ``recovered_message`` field instead
    of leaving a silent ``None``: ``"decoded"`` (message recovered),
    ``"incomplete"`` (some bit positions had no votes or tied),
    ``"not-byte-aligned"`` (the scheme embeds a bit count that is not a
    whole number of bytes), or ``"invalid-utf8"`` (every bit recovered
    but the bytes decode to no text — typical of a damaged mark).
    """

    format_tag = DETECTION_FORMAT
    format_error = RecordFormatError

    votes_total: int
    votes_matching: int
    queries_total: int
    queries_answered: int
    p_value: float
    detected: bool
    alpha: float
    recovered_bits: list[Optional[int]] = field(default_factory=list)
    recovered_message: Optional[str] = None
    bit_error: Optional[float] = None
    recovered_fraction: float = 0.0
    queries_rejected: int = 0
    message_status: str = "incomplete"

    @property
    def match_ratio(self) -> float:
        if self.votes_total == 0:
            return 0.0
        return self.votes_matching / self.votes_total

    @property
    def query_survival(self) -> float:
        if self.queries_total == 0:
            return 0.0
        return self.queries_answered / self.queries_total

    def __str__(self) -> str:
        verdict = "DETECTED" if self.detected else "not detected"
        return (
            f"{verdict}: {self.votes_matching}/{self.votes_total} votes "
            f"match (p={self.p_value:.2e}), "
            f"{self.queries_answered}/{self.queries_total} queries answered")

    # -- serialisation ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Versioned JSON-safe form, so results survive process hops."""
        return {
            "format": DETECTION_FORMAT,
            "votes_total": self.votes_total,
            "votes_matching": self.votes_matching,
            "queries_total": self.queries_total,
            "queries_answered": self.queries_answered,
            "p_value": self.p_value,
            "detected": self.detected,
            "alpha": self.alpha,
            "recovered_bits": list(self.recovered_bits),
            "recovered_message": self.recovered_message,
            "bit_error": self.bit_error,
            "recovered_fraction": self.recovered_fraction,
            "queries_rejected": self.queries_rejected,
            "message_status": self.message_status,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DetectionResult":
        cls._check_format(data)
        fields = {key: value for key, value in data.items()
                  if key != "format"}
        try:
            return cls(**fields)
        except TypeError as error:
            raise RecordFormatError(
                f"malformed detection result: {error}") from error


class DetectionPlan(NamedTuple):
    """One record's detection work under one key, prepared once.

    ``queries_rejected`` counts the stored entries the key does not
    authenticate.  Each authentic entry is grouped in ``groups`` by
    its query's first condition ``(field, value)``, or listed in
    ``free`` when its query has no condition, and ``plugins`` holds
    the plug-in of every authentic entry by its
    ``algorithm_cache_key``.  A plan holds no reference to its record
    and depends neither on the suspect nor on its shape, so it serves
    every detection of that record under that key.
    """

    queries_rejected: int
    groups: dict[tuple[str, str], list[WatermarkQuery]]
    free: list[WatermarkQuery]
    plugins: dict[str, WatermarkAlgorithm]


class WmXMLDecoder:
    """The decoder component of the WmXML architecture."""

    def __init__(self, secret_key: Union[str, bytes],
                 alpha: float = 1e-3) -> None:
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        self.prf = KeyedPRF(secret_key)
        self.alpha = alpha
        self._algorithms: dict[str, WatermarkAlgorithm] = {}

    # Pickling ships only the configuration (PRF + alpha); the plug-in
    # cache is derived state a pool worker rebuilds lazily.

    def __getstate__(self) -> dict:
        return {"prf": self.prf, "alpha": self.alpha}

    def __setstate__(self, state: dict) -> None:
        self.prf = state["prf"]
        self.alpha = state["alpha"]
        self._algorithms = {}

    # -- public API ------------------------------------------------------------

    @profiled("decoder.detect")
    def detect(
        self,
        document: Document,
        record: WatermarkRecord,
        shape: DocumentShape,
        expected: Optional[Watermark] = None,
        indexed: bool = False,
        executor: Optional[LogicalExecutor] = None,
        plan: Optional[DetectionPlan] = None,
    ) -> DetectionResult:
        """Run the query set Q against ``document`` and tally votes.

        ``shape`` describes the document's *current* organisation; when
        it differs from the embedding-time shape, each logical query is
        recompiled — i.e. rewritten — for it.

        ``indexed=True`` answers the queries through a
        :class:`~repro.rewriting.executor.LogicalExecutor` (one shred +
        inverted indexes) instead of per-query XPath evaluation, turning
        detection from O(|Q|·|doc|) into O(|doc| + |Q|) — same votes,
        same verdict.  ``executor`` is one already built over
        ``document`` in ``shape``; the indexed path then reuses it
        instead of shredding the document again (a trace verifies every
        issued record against one).  Without it, ``indexed=True``
        builds its own.  The indexed path runs only the queries whose
        first condition some row holds (:class:`DetectionPlan`); the
        rest would match no row.  ``plan`` is :meth:`plan` of this
        ``record`` under this decoder's key, built here when not given.

        Every stored query is first *authenticated against the key*: its
        keyed selection and bit index must re-derive from (key,
        identity).  The derivation is deterministic, so the owner's key
        authenticates **every** entry; a single rejected entry proves the
        record does not belong to the presented key, and the claim is
        refused outright (``detected=False``) no matter how the votes
        fall.  This closes the accidental-authentication forgery: a
        wrong key that happens to pass the 1-in-(gamma*nbits) check for
        a few entries would otherwise harvest their honestly-embedded —
        hence perfectly matching — votes.
        """
        if expected is not None and len(expected) != record.nbits:
            raise WatermarkMessageError(
                f"the expected message has {len(expected)} bits, but the "
                f"record's watermark has {record.nbits}")
        if not indexed:
            executor = None
        elif executor is None:
            executor = LogicalExecutor(document, shape)
        elif executor.document is not document or executor.shape != shape:
            raise ValueError(
                "executor was built over another document or shape")
        if plan is None:
            plan = self.plan(record)
        if executor is None:
            runs = [*plan.groups.values(), plan.free]
        else:
            # Votes are counts, so the order the groups run in changes
            # neither the tally nor the answered count.
            runs = [plan.groups[key] for key in
                    executor.posting_keys.intersection(plan.groups)]
            runs.append(plan.free)
        tally = VoteTally()
        queries_answered = 0
        for queries in runs:
            for wm_query in queries:
                algorithm = plan.plugins[wm_query.algorithm_cache_key]
                if executor is not None:
                    try:
                        nodes = executor.execute(wm_query.query)
                    except RecordError:
                        nodes = []
                else:
                    nodes = self._execute(document, wm_query.query, shape)
                answered = False
                for node in nodes:
                    value = read_node_value(node)
                    bit = algorithm.extract(value, self.prf,
                                            wm_query.identity)
                    if bit is None:
                        continue
                    tally.add(wm_query.bit_index, bit)
                    answered = True
                if answered:
                    queries_answered += 1

        recovered = tally.reconstruct(record.nbits)
        recovered_message, message_status = self._decode_message(recovered)

        if expected is not None:
            matching, total = tally.matching_votes(expected)
            p_value = binomial_pvalue(matching, total)
            bit_error: Optional[float] = bit_error_rate(recovered, expected)
        else:
            # Blind mode: judge the strength of the majority consensus.
            matching = sum(
                max(tally.zeros.get(i, 0), tally.ones.get(i, 0))
                for i in tally.indices())
            total = tally.total_votes
            p_value = binomial_pvalue(matching, total)
            bit_error = None

        record_authentic = plan.queries_rejected == 0
        return DetectionResult(
            votes_total=total,
            votes_matching=matching,
            queries_total=len(record.queries),
            queries_answered=queries_answered,
            p_value=p_value,
            detected=record_authentic and p_value < self.alpha,
            alpha=self.alpha,
            recovered_bits=recovered,
            recovered_message=recovered_message,
            bit_error=bit_error,
            recovered_fraction=tally.recovered_fraction(record.nbits),
            queries_rejected=plan.queries_rejected,
            message_status=message_status,
        )

    def plan(self, record: WatermarkRecord) -> DetectionPlan:
        """``record``'s :class:`DetectionPlan` under this decoder's key.

        An entry is authentic when it re-derives from the key: its
        keyed selection fires and its stored bit index matches the
        key's derivation.  Both decisions run through the PRF's batch
        APIs; one pass over the entries then counts the rejected ones,
        resolves each authentic entry's plug-in (an unknown one raises
        here) and groups it by its query's first condition.
        """
        identities = [query.identity for query in record.queries]
        selected = self.prf.selects_many(identities, record.gamma)
        indices = self.prf.bit_indices(identities, record.nbits)
        rejected = 0
        groups: dict[tuple[str, str], list[WatermarkQuery]] = {}
        free: list[WatermarkQuery] = []
        plugins: dict[str, WatermarkAlgorithm] = {}
        for query, chosen, index in zip(record.queries, selected, indices):
            if not chosen or index != query.bit_index:
                rejected += 1
                continue
            key = query.algorithm_cache_key
            if key not in plugins:
                plugins[key] = cached_algorithm(
                    self._algorithms, query.algorithm, query.params, key)
            conditions = query.query.conditions
            if conditions:
                groups.setdefault(conditions[0], []).append(query)
            else:
                free.append(query)
        return DetectionPlan(rejected, groups, free, plugins)

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _execute(document: Document, query, shape: DocumentShape) -> list:
        try:
            xpath = compile_logical(query, shape)
            return compile_xpath(xpath).select(document)
        except (XPathError, RecordError):
            # A query that no longer compiles or matches contributes no
            # votes; detection degrades gracefully.
            return []

    @staticmethod
    def _decode_message(
            recovered: list[Optional[int]]) -> tuple[Optional[str], str]:
        """(message, status) — status says *why* when message is None."""
        if any(bit is None for bit in recovered):
            return None, "incomplete"
        if len(recovered) % 8 != 0:
            return None, "not-byte-aligned"
        message = Watermark(recovered).to_message()
        if message is None:
            return None, "invalid-utf8"
        return message, "decoded"
