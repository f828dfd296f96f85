"""Detection plans: one record's work under one key, prepared once.

A :class:`~repro.core.decoder.DetectionPlan` holds a record's
authentication outcome, each authentic query's plug-in, and the
authentic queries grouped by their first condition.  With an indexed
executor only the groups whose ``(field, value)`` some row of the
suspect holds run.  A trace's warm verifiers keep each charged record's
plan on the registry's record object, so a second trace of a leak
re-authenticates nothing; every other detection builds a plan per call
and keeps none.  These tests pin that:

* the edge cases a skipped query could get wrong (a second condition
  the suspect lacks, a query with no condition, a wrong key, an
  unknown plug-in) give the verdicts of ``strategy="scan"`` and of a
  cold decoder, on a cold and a warm trace;
* which records hold a plan, and that none outlives its record;
* the verdict arithmetic that walks a tally's entries equals the loops
  it replaced.
"""

import dataclasses
import json
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.registry.sqlite as sqlite_mod
from repro.api import WmXMLSystem
from repro.core import Watermark, WmXMLDecoder
from repro.core.algorithms.base import AlgorithmError
from repro.core.decoder import DetectionPlan
from repro.core.watermark import VoteTally
from repro.datasets import bibliography
from repro.datasets.bibliography import BibliographyConfig
from repro.registry import (RegistryRecord, SQLiteBackend,
                            WatermarkRegistry)
from repro.rewriting import LogicalExecutor
from repro.rewriting.logical import LogicalQuery
from repro.xmlmodel import parse, serialize

from test_trace_vectors import (  # noqa: F401  (small_budget: a fixture)
    _vector,
    build_corpus,
    canonical,
    small_budget,
)

KEY = "detection-plan-key"
SHAPE = bibliography.book_shape()


def _text(seed, books=20):
    return serialize(bibliography.generate_document(
        BibliographyConfig(books=books, editors=4, seed=seed)))


def _system(registry=None):
    system = WmXMLSystem(KEY, registry=registry or WatermarkRegistry())
    system.register("books", bibliography.default_scheme(1))
    return system


@pytest.fixture
def plan_builds(monkeypatch):
    """Counts every plan a decoder builds."""
    built = []
    original = WmXMLDecoder.plan

    def counting(self, record):
        built.append(record)
        return original(self, record)

    monkeypatch.setattr(WmXMLDecoder, "plan", counting)
    return built


# -- edge cases ---------------------------------------------------------------


@pytest.fixture(scope="module")
def issued():
    """Ann's copy of a 20-book document and the record it was issued with."""
    system = _system()
    copy = system.issue("books", parse(_text(41)), "ann")
    return copy.document, copy.record


def _with_queries(record, rewrite):
    """``record`` with each stored query passed through ``rewrite(index,
    query)``; identities and bit indices are kept, so every entry still
    authenticates under the key that issued it."""
    return dataclasses.replace(record, queries=[
        rewrite(index, query) for index, query in enumerate(record.queries)])


def _verdicts(record, suspect, recipient="ann"):
    """Every engine's verdict on ``record`` filed for ``recipient``:
    a cold and a warm trace, a scan trace, and cold decoders."""
    system = _system()
    system.registry.record_embed(
        recipient, record, "<db/>", system.scheme_fingerprint("books"),
        "unused", "recipient", "wmxml")
    traces = [system.trace("books", suspect) for _ in range(2)]
    traces.append(system.trace("books", suspect, strategy="scan"))
    verdicts = [json.dumps(trace.verdicts[recipient].to_dict(),
                           sort_keys=True) for trace in traces]
    expected = Watermark.from_message(recipient)
    for indexed in (True, False):
        cold = WmXMLDecoder(system.recipient_key(recipient)).detect(
            suspect, record, SHAPE, expected=expected, indexed=indexed)
        verdicts.append(json.dumps(cold.to_dict(), sort_keys=True))
    assert len(set(verdicts)) == 1, verdicts
    return traces[0].verdicts[recipient]


class TestSkippedQueriesChangeNoVerdict:
    def test_second_condition_the_suspect_lacks(self, issued):
        """The suspect holds the first condition, so the query runs,
        and its second condition matches no row."""
        document, record = issued
        keys = LogicalExecutor(document, SHAPE).posting_keys

        def narrowed(index, query):
            if index % 2:
                return query
            first = query.query.conditions[0]
            assert first in keys
            return dataclasses.replace(query, query=LogicalQuery(
                query.query.target, (first, ("year", "no such year"))))

        plain = _verdicts(record, document)
        verdict = _verdicts(_with_queries(record, narrowed), document)
        assert 0 < verdict.queries_answered < plain.queries_answered
        assert verdict.queries_rejected == 0

    def test_query_with_no_condition_always_runs(self, issued):
        """A query with no condition runs even on a suspect that holds
        the first condition it had."""
        document, record = issued
        unrelated = parse(_text(99))
        keys = LogicalExecutor(unrelated, SHAPE).posting_keys
        victim = next(index for index, query in enumerate(record.queries)
                      if query.query.conditions[0] not in keys)

        def unconditioned(index, query):
            if index != victim:
                return query
            return dataclasses.replace(
                query, query=LogicalQuery(query.query.target, ()))

        changed = _with_queries(record, unconditioned)
        assert _verdicts(changed, unrelated).queries_answered \
            == _verdicts(record, unrelated).queries_answered + 1
        assert _verdicts(changed, document).votes_total \
            > _verdicts(record, document).votes_total

    def test_wrong_key_rejects_alike_cold_and_warm(self, issued):
        document, record = issued
        verdict = _verdicts(record, document, recipient="bob")
        assert verdict.queries_rejected > 0
        assert not verdict.detected

    def test_unknown_plug_in_raises_on_every_path(self, issued):
        document, record = issued
        broken = _with_queries(record, lambda index, query: query if index
                               else dataclasses.replace(
                                   query, algorithm="no-such-plug-in"))
        system = _system()
        system.registry.record_embed(
            "ann", broken, "<db/>", system.scheme_fingerprint("books"),
            "unused", "recipient", "wmxml")
        for strategy in ("auto", "auto", "scan"):
            with pytest.raises(AlgorithmError, match="no-such-plug-in"):
                system.trace("books", document, strategy=strategy)
        decoder = WmXMLDecoder(system.recipient_key("ann"))
        with pytest.raises(AlgorithmError, match="no-such-plug-in"):
            decoder.detect(document, broken, SHAPE, indexed=True)
        # Under a key that rejects the entry, its plug-in is never
        # looked up, as before plans.
        stranger = WmXMLDecoder(system.recipient_key("bob"))
        assert stranger.plan(broken).queries_rejected > 0

    def test_posting_keys_are_the_shredded_values(self, issued):
        document, _ = issued
        executor = LogicalExecutor(document, SHAPE)
        assert executor.posting_keys == {
            (name, value) for row in SHAPE.shred(document)
            for name, value in row.values.items()}


# -- which records hold a plan ------------------------------------------------


def _recipients_corpus(registry=None):
    """Six recipients' copies of three documents; returns (system, leak)."""
    system = _system(registry)
    texts = [_text(seed) for seed in (51, 52, 53)]
    copies = [system.issue("books", parse(texts[index % 3]), f"r{index}")
              for index in range(6)]
    return system, copies[4].document


class TestHeldPlans:
    def test_second_trace_builds_no_plan(self, plan_builds):
        system, leak = _recipients_corpus()
        first = canonical(system.trace("books", leak))
        assert len(plan_builds) == 6
        plan_builds.clear()
        assert canonical(system.trace("books", leak)) == first
        assert plan_builds == []
        assert all(isinstance(entry._held_plan[1], DetectionPlan)
                   for entry in system.registry.records())

    def test_owner_records_build_a_plan_per_trace(self, plan_builds):
        """The vector corpus: 13 recipient records and one owner embed."""
        system, leak = build_corpus()
        for builds in (14, 1):
            plan_builds.clear()
            assert canonical(system.trace("books", leak)) \
                == _vector("altered-leak")
            assert len(plan_builds) == builds
        owner = [entry for entry in system.registry.records()
                 if entry.keying == "system"]
        assert len(owner) == 1 and owner[0]._held_plan is None

    def test_records_past_the_budget_hold_no_plan(self, small_budget):
        system, leak = _recipients_corpus()
        queries = len(system.registry.records()[0].record.queries)
        small_budget(3 * queries)
        for _ in range(2):
            system.trace("books", leak)
        charged = {sequence for _, sequence in system._verified}
        assert len(charged) == 3
        for entry in system.registry.records():
            assert (entry._held_plan is not None) == (entry.sequence
                                                      in charged)

    def test_another_systems_verifier_builds_its_own(self, plan_builds):
        """Two systems over one registry share its record objects; a
        plan is reused only by the verifier that built it."""
        system, leak = _recipients_corpus()
        other = WmXMLSystem(KEY, registry=system.registry)
        other.register("books", bibliography.default_scheme(1))
        first = canonical(system.trace("books", leak))
        assert canonical(other.trace("books", leak)) == first
        assert len(plan_builds) == 12

    def test_a_pickled_record_leaves_its_plan_behind(self):
        system, leak = _recipients_corpus()
        system.trace("books", leak)
        entry = system.registry.records()[0]
        assert entry._held_plan is not None
        copy = pickle.loads(pickle.dumps(entry))
        assert copy == entry and copy._held_plan is None
        assert RegistryRecord.from_dict(entry.to_dict()) == entry


class TestNothingOutsideATraceHoldsAPlan:
    def test_detect_and_detect_many(self):
        """``Pipeline.detect`` and serial and pooled ``detect_many``
        build a plan per call: afterwards the registry record, its
        watermark record and the decoder hold only what they held."""
        system, leak = _recipients_corpus()
        entry = system.registry.records()[4]
        pipeline = system.recipient_pipeline("books", "r4")
        decoder_state = set(vars(pipeline._decoder))
        assert pipeline.detect(leak, entry.record, expected="r4").detected
        for processes in (None, 2):
            results = pipeline.detect_many([(leak, entry.record)] * 4,
                                           expected="r4",
                                           processes=processes)
            assert all(result.detected for result in results)
        assert system.detect("books", leak, entry.record).queries_rejected
        assert entry._held_plan is None
        assert set(vars(entry.record)) == {
            field.name for field in dataclasses.fields(entry.record)}
        assert set(vars(pipeline._decoder)) == decoder_state \
            == {"prf", "alpha", "_algorithms"}


def test_a_plan_does_not_outlive_its_record(monkeypatch, tmp_path,
                                            plan_builds):
    """Past the SQLite decode budget every read decodes afresh: the
    records a trace read, plans and all, die when it returns."""
    monkeypatch.setattr(sqlite_mod, "DECODE_BUDGET_CHARS", 0)
    registry = WatermarkRegistry(SQLiteBackend(str(tmp_path / "r.db")))
    system, leak = _recipients_corpus(registry)
    read = []
    original = WatermarkRegistry.records

    def recording(self, *args, **kwargs):
        found = original(self, *args, **kwargs)
        read.extend(weakref.ref(entry) for entry in found)
        return found

    monkeypatch.setattr(WatermarkRegistry, "records", recording)
    for _ in range(2):
        read.clear()
        plan_builds.clear()
        trace = system.trace("books", leak)
        assert trace.prime_suspect == "r4"
        assert len(read) == len(plan_builds) == 6
        assert all(ref() is None for ref in read)
    registry.close()


# -- verdict arithmetic -------------------------------------------------------


def _reconstruct_loop(tally, nbits):
    """``VoteTally.reconstruct`` as it walked every bit position."""
    return [tally.majority(index) for index in range(nbits)]


def _matching_votes_loop(tally, expected):
    """``VoteTally.matching_votes`` as it walked every bit position."""
    matching = 0
    for index in range(len(expected)):
        bit = expected.bits[index]
        matching += (tally.ones if bit else tally.zeros).get(index, 0)
    return matching, tally.total_votes


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=40),
       votes=st.lists(st.tuples(st.integers(-3, 45), st.integers(0, 1)),
                      max_size=60))
def test_tally_walks_equal_the_loops(bits, votes):
    tally = VoteTally()
    for index, bit in votes:
        tally.add(index, bit)
    expected = Watermark(bits)
    assert tally.reconstruct(len(bits)) == _reconstruct_loop(tally,
                                                             len(bits))
    assert tally.matching_votes(expected) == _matching_votes_loop(
        tally, expected)


def test_message_bits_are_memoised():
    first = Watermark.from_message("r042")
    assert Watermark.from_message("r042") is first
    assert first.bits == tuple(
        (byte >> position) & 1 for byte in b"r042"
        for position in range(7, -1, -1))
