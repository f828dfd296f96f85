"""The parallel batch engine: picklability + pooled/serial equivalence.

The worker-sharded ``embed_many``/``detect_many`` engine rests on two
contracts this module locks down:

* **Picklability** — a compiled :class:`~repro.api.Pipeline` (and the
  result objects it produces) survives ``pickle.dumps/loads`` with
  embed/detect outputs *bit-identical* to the original's, even though
  the hot-path state it carries (HMAC key schedule, digest memos,
  plug-in caches) cannot itself be pickled and is lazily rebuilt.
* **Pooled == serial** — sharding a batch over worker processes changes
  throughput, never output: marked documents, records, and every
  detection vote match the serial run exactly, for every strategy, and
  the golden vectors hold through a ``processes=2`` batch.
"""

import gc
import hashlib
import json
import os
import pickle

import pytest

from repro.api import Pipeline, WmXMLSystem
from repro.api import pipeline as pipeline_module
from repro.core import Watermark
from repro.core.crypto import KeyedPRF
from repro.datasets import bibliography, library
from repro.errors import WmXMLError
from repro.parallel import shared_pool
from repro.xmlmodel import parse, serialize
from repro.xmlmodel.errors import XMLSyntaxError

KEY = "parallel-engine-key"
MESSAGE = "(c) pool"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def pipeline():
    return Pipeline(bibliography.default_scheme(2), KEY)


@pytest.fixture(scope="module")
def batch_texts():
    return [
        serialize(bibliography.generate_document(
            bibliography.BibliographyConfig(books=12, editors=3,
                                            seed=500 + index)))
        for index in range(8)
    ]


@pytest.fixture(scope="module")
def marked(pipeline, batch_texts):
    """Serial reference embedding of the fixture batch."""
    return pipeline.embed_many(batch_texts, MESSAGE)


class TestPicklability:
    def test_keyed_prf_round_trip(self):
        prf = KeyedPRF(KEY)
        prf.digest("warm", "a")  # populate the memo before pickling
        clone = pickle.loads(pickle.dumps(prf))
        assert clone.fingerprint() == prf.fingerprint()
        assert clone.digest("warm", "a") == prf.digest("warm", "a")
        assert clone.selects("id-1", 3) == prf.selects("id-1", 3)

    def test_prf_pickle_is_lean(self):
        prf = KeyedPRF(KEY)
        for index in range(500):
            prf.digest("fill", str(index))
        assert len(pickle.dumps(prf)) < 200  # memos must not travel

    def test_warm_pipeline_round_trip_is_bit_identical(
            self, pipeline, batch_texts, marked):
        # ``pipeline`` is warm: PRF memo + plug-in caches populated by
        # the ``marked`` fixture.  The clone must reproduce its output
        # exactly from rebuilt state.
        clone = pickle.loads(pickle.dumps(pipeline))
        cloned = clone.embed_many(batch_texts, MESSAGE)
        assert ([serialize(item.document) for item in cloned]
                == [serialize(item.document) for item in marked])
        assert ([item.record.to_dict() for item in cloned]
                == [item.record.to_dict() for item in marked])

    def test_detection_matches_after_pipeline_round_trip(
            self, pipeline, marked):
        clone = pickle.loads(pickle.dumps(pipeline))
        result = marked[0]
        original = pipeline.detect(result.document, result.record,
                                   expected=MESSAGE)
        cloned = clone.detect(result.document, result.record,
                              expected=MESSAGE)
        assert cloned.to_dict() == original.to_dict()

    def test_embedding_result_round_trip(self, marked):
        result = marked[0]
        clone = pickle.loads(pickle.dumps(result))
        assert serialize(clone.document) == serialize(result.document)
        assert clone.record.to_dict() == result.record.to_dict()
        assert clone.stats == result.stats

    def test_detection_result_round_trip(self, pipeline, marked):
        result = marked[0]
        outcome = pipeline.detect(result.document, result.record,
                                  expected=MESSAGE)
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.to_dict() == outcome.to_dict()

    def test_record_pickle_drops_memoised_cache_keys(self, marked):
        record = marked[0].record
        for query in record.queries:
            query.algorithm_cache_key  # warm the cached_property
        clone = pickle.loads(pickle.dumps(record))
        assert "algorithm_cache_key" not in clone.queries[0].__dict__
        assert clone.to_dict() == record.to_dict()

    def test_fingerprint_is_content_keyed(self, pipeline):
        twin = Pipeline(bibliography.default_scheme(2), KEY)
        other_key = Pipeline(bibliography.default_scheme(2), "other")
        other_gamma = Pipeline(bibliography.default_scheme(3), KEY)
        other_alpha = Pipeline(bibliography.default_scheme(2), KEY,
                               alpha=0.01)
        assert twin.fingerprint == pipeline.fingerprint
        assert other_key.fingerprint != pipeline.fingerprint
        assert other_gamma.fingerprint != pipeline.fingerprint
        assert other_alpha.fingerprint != pipeline.fingerprint


class TestPooledEmbed:
    def test_pooled_embed_matches_serial(self, pipeline, batch_texts,
                                         marked):
        pooled = pipeline.embed_many(batch_texts, MESSAGE, processes=2)
        assert ([serialize(item.document) for item in pooled]
                == [serialize(item.document) for item in marked])
        assert ([item.record.to_dict() for item in pooled]
                == [item.record.to_dict() for item in marked])

    def test_pooled_xml_output_matches_serial_serialisation(
            self, pipeline, batch_texts, marked):
        pooled = pipeline.embed_many(batch_texts, MESSAGE, processes=2,
                                     output="xml")
        assert all(item.document is None for item in pooled)
        assert ([item.xml for item in pooled]
                == [serialize(item.document) for item in marked])
        # to_document() reconstructs an equivalent tree on demand.
        assert (serialize(pooled[0].to_document())
                == serialize(marked[0].document))

    def test_serial_xml_output_matches_pooled(self, pipeline, batch_texts,
                                              marked):
        serial = pipeline.embed_many(batch_texts, MESSAGE, output="xml")
        assert ([item.xml for item in serial]
                == [serialize(item.document) for item in marked])

    def test_pooled_accepts_parsed_documents(self, pipeline, batch_texts,
                                             marked):
        documents = [parse(text, strip_whitespace=True)
                     for text in batch_texts]
        # Caller documents stay untouched on both paths: the step
        # marks a copy of every Document it is given.
        for processes in (None, 2):
            results = pipeline.embed_many(documents, MESSAGE,
                                          processes=processes)
            assert ([serialize(item.document) for item in results]
                    == [serialize(item.document) for item in marked])
            assert ([serialize(document) for document in documents]
                    == batch_texts)

    def test_syntax_error_propagates_from_workers(self, pipeline,
                                                  batch_texts):
        bad = batch_texts[:3] + ["<oops>"]
        with pytest.raises(XMLSyntaxError):
            pipeline.embed_many(bad, MESSAGE, processes=2)

    def test_unknown_output_rejected_before_dispatch(self, pipeline,
                                                     batch_texts):
        with pytest.raises(WmXMLError):
            pipeline.embed_many(batch_texts, MESSAGE, processes=2,
                                output="tree")

    def test_single_document_batch_stays_serial(self, pipeline,
                                                batch_texts, marked):
        results = pipeline.embed_many(batch_texts[:1], MESSAGE, processes=8)
        assert (serialize(results[0].document)
                == serialize(marked[0].document))


class TestPooledDetect:
    @pytest.fixture(scope="class")
    def items(self, marked):
        return [(serialize(result.document), result.record)
                for result in marked]

    @pytest.mark.parametrize("strategy", ["scan", "indexed", "auto"])
    def test_pooled_votes_match_serial_for_every_strategy(
            self, pipeline, items, strategy):
        serial = pipeline.detect_many(items, expected=MESSAGE,
                                      strategy=strategy)
        pooled = pipeline.detect_many(items, expected=MESSAGE,
                                      strategy=strategy, processes=2)
        assert ([outcome.to_dict() for outcome in pooled]
                == [outcome.to_dict() for outcome in serial])
        assert all(outcome.detected for outcome in pooled)

    def test_blind_detection_matches_serial(self, pipeline, items):
        serial = pipeline.detect_many(items)
        pooled = pipeline.detect_many(items, processes=2)
        assert ([outcome.to_dict() for outcome in pooled]
                == [outcome.to_dict() for outcome in serial])

    def test_pooled_accepts_parsed_documents(self, pipeline, marked):
        items = [(result.document, result.record) for result in marked]
        serial = pipeline.detect_many(items, expected=MESSAGE)
        pooled = pipeline.detect_many(items, expected=MESSAGE, processes=2)
        assert ([outcome.to_dict() for outcome in pooled]
                == [outcome.to_dict() for outcome in serial])

    def test_unknown_strategy_rejected_before_dispatch(self, pipeline,
                                                       items):
        with pytest.raises(WmXMLError):
            pipeline.detect_many(items, strategy="quantum", processes=2)

    def test_shared_record_batch_matches_serial(self, pipeline, marked):
        # The piracy-hunting shape: many suspected copies of ONE marked
        # document, judged by one record object.  Pooled votes must
        # match serial exactly even though the chunk tasks ship the
        # record once per chunk instead of once per item.
        reference = marked[0]
        copies = [(serialize(reference.document), reference.record)
                  for _ in range(6)]
        serial = pipeline.detect_many(copies, expected=MESSAGE)
        pooled = pipeline.detect_many(copies, expected=MESSAGE, processes=2)
        assert ([outcome.to_dict() for outcome in pooled]
                == [outcome.to_dict() for outcome in serial])
        assert all(outcome.detected for outcome in pooled)

    def test_shared_record_ships_once_per_chunk(self, pipeline, marked,
                                                monkeypatch):
        # Inspect the actual chunk tasks, run in-process so payloads
        # are visible.  A task carries one record per document; a batch
        # judged by one record, whether one object or equal but
        # distinct ones (the same record.json loaded per suspected
        # copy), repeats one object, which pickle's memo writes once
        # per chunk.
        from repro import parallel
        from repro.core.record import WatermarkRecord

        captured = []

        def capture_and_run(processes, func, tasks):
            tasks = list(tasks)
            captured.extend(tasks)
            return [func(task) for task in tasks]

        monkeypatch.setattr(parallel, "map_recovering", capture_and_run)

        reference = marked[0]
        text = serialize(reference.document)
        shared = [(text, reference.record) for _ in range(24)]
        reloaded = [(text,
                     WatermarkRecord.from_dict(reference.record.to_dict()))
                    for _ in range(24)]
        for copies in (shared, reloaded):
            captured.clear()
            pooled = pipeline.detect_many(copies, expected=MESSAGE,
                                          processes=2)
            serial = pipeline.detect_many(copies, expected=MESSAGE)
            assert len(captured) > 1, "batch did not go through the pool"
            assert sum(len(task[2]) for task in captured) == len(copies)
            for task in captured:
                records = task[3]
                assert len(records) == len(task[2]) > 1
                assert all(record is copies[0][1] for record in records)
                single = task[:3] + (records[:1],) + task[4:]
                assert (len(pickle.dumps(task))
                        - len(pickle.dumps(single))) < 16 * len(records)
            assert ([outcome.to_dict() for outcome in pooled]
                    == [outcome.to_dict() for outcome in serial])

        captured.clear()
        items = [(serialize(result.document), result.record)
                 for result in marked] * 3
        pooled = pipeline.detect_many(items, expected=MESSAGE, processes=2)
        serial = pipeline.detect_many(items, expected=MESSAGE)
        # Per-item records stay aligned with their documents.
        shipped = [pair for task in captured
                   for pair in zip(task[2], task[3], strict=True)]
        assert len(shipped) == len(items)
        assert all(document == sent and record is wanted
                   for (document, record), (sent, wanted)
                   in zip(shipped, items))
        assert ([outcome.to_dict() for outcome in pooled]
                == [outcome.to_dict() for outcome in serial])

    def test_rewriting_shape_ships_to_workers(self, pipeline, marked):
        # Reorganise the marked documents into another shape; pooled
        # detection must rewrite the stored queries for it, exactly as
        # the serial engine does (Figure 2 of the paper).
        from repro.rewriting import reorganize

        target = bibliography.publisher_shape()
        items = [
            (serialize(reorganize(result.document, pipeline.shape,
                                  target).document), result.record)
            for result in marked[:4]
        ]
        serial = pipeline.detect_many(items, expected=MESSAGE, shape=target)
        pooled = pipeline.detect_many(items, expected=MESSAGE, shape=target,
                                      processes=2)
        assert ([outcome.to_dict() for outcome in pooled]
                == [outcome.to_dict() for outcome in serial])
        assert all(outcome.detected for outcome in pooled)


class TestGoldenVectorsThroughThePool:
    """The PR 1 golden shas must survive a ``processes=2`` batch."""

    GOLDEN_BIB_MARKED = (
        "e4be42bf4221ef09cf9fcfd618cb373c773758bea13c6b4206fce51d229e3833")
    GOLDEN_BIB_RECORD = (
        "f560a2be927e49a15d9bf452b13fe5e3f5031a72147a446c4d96c48bf0ce303d")

    def test_bibliography_golden_vectors(self):
        document = bibliography.generate_document(
            bibliography.BibliographyConfig(books=60, editors=6, seed=1234))
        text = serialize(document)
        pipeline = Pipeline(bibliography.default_scheme(2), "golden-key-bib")
        watermark = Watermark.from_message("(c) golden")
        pooled = pipeline.embed_many([text, text], watermark, processes=2)
        for result in pooled:
            assert (_sha256(serialize(result.document))
                    == self.GOLDEN_BIB_MARKED)
            record_json = json.dumps(result.record.to_dict(),
                                     sort_keys=True)
            assert _sha256(record_json) == self.GOLDEN_BIB_RECORD
        outcomes = pipeline.detect_many(
            [(serialize(result.document), result.record)
             for result in pooled],
            expected=watermark, processes=2)
        for outcome in outcomes:
            assert outcome.detected
            assert outcome.votes_total == 87
            assert outcome.votes_matching == 87
            assert outcome.queries_answered == 64

    def test_library_profile_through_the_pool(self):
        document = library.generate_document(
            library.LibraryConfig(items=60, seed=99))
        text = serialize(document)
        pipeline = Pipeline(library.default_scheme(3), "golden-key-lib")
        watermark = Watermark.from_message("GOLD")
        serial = pipeline.embed_many([text, text], watermark)
        pooled = pipeline.embed_many([text, text], watermark, processes=2)
        assert ([serialize(item.document) for item in pooled]
                == [serialize(item.document) for item in serial])


class TestSystemFacade:
    def test_system_batch_apis_forward_processes_and_output(self):
        system = WmXMLSystem(KEY)
        system.register("bib", bibliography.default_scheme(2))
        texts = [
            serialize(bibliography.generate_document(
                bibliography.BibliographyConfig(books=12, editors=3,
                                                seed=800 + index)))
            for index in range(4)
        ]
        serial = system.embed_many("bib", texts, MESSAGE, output="xml")
        pooled = system.embed_many("bib", texts, MESSAGE, processes=2,
                                   output="xml")
        assert [item.xml for item in pooled] == [item.xml for item in serial]
        items = [(item.xml, item.record) for item in serial]
        serial_outcomes = system.detect_many("bib", items, expected=MESSAGE,
                                             strategy="scan")
        pooled_outcomes = system.detect_many("bib", items, expected=MESSAGE,
                                             strategy="scan", processes=2)
        assert ([outcome.to_dict() for outcome in pooled_outcomes]
                == [outcome.to_dict() for outcome in serial_outcomes])


class TestTreesTooDeepToPickle:
    """A tree pickles as one flat list, not by recursion, so a document
    far deeper than the recursion limit travels to and from the pool
    like any other, and its chunk runs in a worker."""

    DEPTH = 5000

    def test_deep_document_batch_matches_serial(self, pipeline,
                                                batch_texts, monkeypatch):
        chain = "<note>" * self.DEPTH + "x" + "</note>" * self.DEPTH
        deep = batch_texts[0].replace("</book>", chain + "</book>", 1)
        documents = [parse(text, strip_whitespace=True)
                     for text in [deep] + batch_texts[1:4]]
        serial = pipeline.embed_many(documents, MESSAGE, output="xml")
        # Every run of the embed task passes its "pool.chunk" fault
        # seam; a spy there counts the runs in this process (a worker
        # forked while it is in place just calls through).
        chunks_run_here = []
        caller, seam = os.getpid(), pipeline_module.fault_point

        def spy(point):
            if os.getpid() == caller:
                chunks_run_here.append(point)
            seam(point)

        monkeypatch.setattr(pipeline_module, "fault_point", spy)
        pooled = pipeline.embed_many(documents, MESSAGE, processes=2,
                                     output="xml")
        assert chunks_run_here == []
        assert chain in pooled[0].xml
        assert [item.xml for item in pooled] == [item.xml for item in serial]
        assert ([item.record.to_dict() for item in pooled]
                == [item.record.to_dict() for item in serial])

    def test_deep_text_batch_matches_serial(self, pipeline, batch_texts,
                                            monkeypatch):
        """A deep text is parsed by the worker's step, then marked and
        checked there like any other."""
        chain = "<note>" * self.DEPTH + "x" + "</note>" * self.DEPTH
        texts = ([batch_texts[0].replace("</book>", chain + "</book>", 1)]
                 + batch_texts[1:4])
        serial = pipeline.embed_many(texts, MESSAGE, output="xml")
        items = [(item.xml, item.record) for item in serial]
        serial_outcomes = pipeline.detect_many(items, expected=MESSAGE)
        chunks_run_here = []
        caller, seam = os.getpid(), pipeline_module.fault_point

        def spy(point):
            if os.getpid() == caller:
                chunks_run_here.append(point)
            seam(point)

        monkeypatch.setattr(pipeline_module, "fault_point", spy)
        pooled = pipeline.embed_many(texts, MESSAGE, processes=2,
                                     output="xml")
        pooled_outcomes = pipeline.detect_many(items, expected=MESSAGE,
                                               processes=2)
        assert chunks_run_here == []
        assert chain in pooled[0].xml
        assert [item.xml for item in pooled] == [item.xml for item in serial]
        assert ([item.record.to_dict() for item in pooled]
                == [item.record.to_dict() for item in serial])
        assert ([outcome.to_dict() for outcome in pooled_outcomes]
                == [outcome.to_dict() for outcome in serial_outcomes])
        assert all(outcome.detected for outcome in pooled_outcomes)


class TestWorkersFreezeTheirInheritedHeap:
    def test_a_pool_worker_has_frozen_objects(self):
        """Each worker's initializer is ``gc.freeze``: what it inherited
        sits in the permanent generation, out of its collections."""
        assert shared_pool(2).submit(gc.get_freeze_count).result() > 0
