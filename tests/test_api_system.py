"""The ``repro.api`` facade: builder, system registry, pipelines, batches.

The facade must be a *pure* wrapper: everything it produces has to be
bit-identical to driving the core encoder/decoder by hand — asserted
here against the same golden digests the core golden-vector suite
locks.
"""

import hashlib
import json
import threading

import pytest

from repro import api
from repro.datasets import bibliography, library
from repro.xmlmodel import serialize

from test_golden_vectors import EMBEDDERS, GOLDEN


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _small_bibliography(seed=1):
    return bibliography.generate_document(
        bibliography.BibliographyConfig(books=30, editors=5, seed=seed))


class TestSchemeBuilder:
    def test_builds_a_valid_scheme(self):
        scheme = (api.SchemeBuilder(bibliography.book_shape())
                  .carrier("year", "numeric", key="title")
                  .carrier("publisher", "categorical", fd="editor",
                           params={"domain": ["mkp", "acm"]})
                  .template("authors-of-title", "author", "title")
                  .gamma(2)
                  .build())
        assert scheme.gamma == 2
        assert [c.field for c in scheme.carriers] == ["year", "publisher"]
        assert scheme.carriers[0].identifier.kind() == "key"
        assert scheme.carriers[1].identifier.kind() == "fd"
        assert scheme.templates[0].name == "authors-of-title"

    def test_requires_a_shape(self):
        with pytest.raises(api.WmXMLError):
            api.SchemeBuilder().carrier("year", "numeric",
                                        key="title").build()

    def test_requires_exactly_one_identifier_kind(self):
        builder = api.SchemeBuilder(bibliography.book_shape())
        with pytest.raises(api.WmXMLError):
            builder.carrier("year", "numeric")
        with pytest.raises(api.WmXMLError):
            builder.carrier("year", "numeric", key="title", fd="editor")

    def test_builder_output_matches_handwritten_scheme(self):
        built = (api.SchemeBuilder(bibliography.book_shape())
                 .carrier("year", "numeric", key="title")
                 .gamma(3)
                 .build())
        handwritten = api.WatermarkingScheme(
            shape=bibliography.book_shape(),
            carriers=[api.CarrierSpec.create(
                "year", "numeric", api.KeyIdentifier(("title",)))],
            gamma=3)
        assert built.to_dict() == handwritten.to_dict()


class TestWmXMLSystem:
    def test_registry_round_trip(self):
        system = api.WmXMLSystem("secret")
        scheme = bibliography.default_scheme(2)
        system.register("bib", scheme)
        assert system.scheme("bib") is scheme
        assert system.scheme_names() == ["bib"]

    def test_unknown_scheme_is_a_wmxml_error(self):
        system = api.WmXMLSystem("secret")
        with pytest.raises(api.UnknownSchemeError):
            system.scheme("nope")
        with pytest.raises(api.WmXMLError):
            system.pipeline("nope")
        with pytest.raises(KeyError):  # legacy catch style still works
            system.scheme("nope")

    def test_register_accepts_declarative_dicts(self):
        system = api.WmXMLSystem("secret")
        registered = system.register(
            "bib", bibliography.default_scheme(2).to_dict())
        assert isinstance(registered, api.WatermarkingScheme)
        assert registered.gamma == 2

    def test_register_file(self, tmp_path):
        path = tmp_path / "scheme.json"
        bibliography.default_scheme(2).save(str(path))
        system = api.WmXMLSystem("secret")
        scheme = system.register_file("bib", str(path))
        assert scheme.shape.name == "book-centric"

    def test_pipeline_is_compiled_once_and_cached(self):
        system = api.WmXMLSystem("secret")
        system.register("bib", bibliography.default_scheme(2))
        assert system.pipeline("bib") is system.pipeline("bib")

    def test_pipeline_cache_is_keyed_by_content_for_adhoc_schemes(self):
        # The service case: a scheme dict arrives with every request;
        # equal content must hit the same compiled pipeline instead of
        # growing the cache per call.
        system = api.WmXMLSystem("secret")
        first = system.pipeline(bibliography.default_scheme(2).to_dict())
        second = system.pipeline(bibliography.default_scheme(2).to_dict())
        assert first is second
        # Distinct-but-equal scheme objects share it too.
        assert system.pipeline(bibliography.default_scheme(2)) is first
        # Different content is a different pipeline.
        assert system.pipeline(
            bibliography.default_scheme(4).to_dict()) is not first

    def test_content_cache_evicts_lru_beyond_its_ceiling(self):
        # Inline schemes can arrive from the wire on every request; a
        # client cycling unique deployments must not grow the daemon's
        # memory without bound.
        from repro.api.system import CONTENT_CACHE_MAX

        system = api.WmXMLSystem("secret")
        kept = system.pipeline(bibliography.default_scheme(2).to_dict())
        for gamma in range(3, CONTENT_CACHE_MAX + 8):
            # Re-touching the first scheme keeps it most-recent.
            system.pipeline(bibliography.default_scheme(2).to_dict())
            system.pipeline(bibliography.default_scheme(gamma).to_dict())
        assert len(system._pipelines) <= CONTENT_CACHE_MAX
        assert system.pipeline(
            bibliography.default_scheme(2).to_dict()) is kept

    def test_one_lru_holds_owner_and_recipient_pipelines(self):
        # Owner and recipient pipelines, named and inline, share one
        # LRU: together they never exceed its ceiling, and a named
        # pipeline used since the last CONTENT_CACHE_MAX - 1 compiles
        # stays cached.
        from repro.api.system import CONTENT_CACHE_MAX

        system = api.WmXMLSystem("secret")
        system.register("bib", bibliography.default_scheme(2))
        named = system.pipeline("bib")
        # Equal content shares one pipeline, by name or inline.
        assert system.pipeline(bibliography.default_scheme(2)) is named
        compiles = [
            lambda i: system.recipient_pipeline("bib", f"r{i}"),
            lambda i: system.pipeline(
                bibliography.default_scheme(3 + i).to_dict()),
            lambda i: system.recipient_pipeline(
                bibliography.default_scheme(3 + i), f"r{i}"),
        ]
        for i in range(3 * CONTENT_CACHE_MAX):
            if i % (CONTENT_CACHE_MAX - 1) == 0:
                assert system.pipeline("bib") is named
            compiles[i % 3](i)
            assert len(system._pipelines) <= CONTENT_CACHE_MAX
        assert len(system._pipelines) == CONTENT_CACHE_MAX
        assert system.pipeline("bib") is named
        for i in range(CONTENT_CACHE_MAX):
            compiles[i % 3](1000 + i)
        assert system.pipeline("bib") is not named

    def test_scheme_fingerprint_matches_pipeline_without_compiling(self):
        # GET /v1/schemes lists fingerprints for every deployment; the
        # listing must not compile (and pin) pipelines to do so.
        system = api.WmXMLSystem("secret")
        system.register("bib", bibliography.default_scheme(2))
        fingerprint = system.scheme_fingerprint("bib")
        assert not system._pipelines
        assert fingerprint == system.pipeline("bib").fingerprint

    def test_scheme_with_fingerprint_is_cached_and_consistent(self):
        # The daemon's conditional-GET endpoint polls this; repeat
        # reads must hit the cache and the pair must track replaces.
        system = api.WmXMLSystem("secret")
        system.register("bib", bibliography.default_scheme(2))
        scheme, fingerprint = system.scheme_with_fingerprint("bib")
        assert scheme is system.scheme("bib")
        assert fingerprint == system.scheme_fingerprint("bib")
        system.register("bib", bibliography.default_scheme(4))
        scheme2, fingerprint2 = system.scheme_with_fingerprint("bib")
        assert scheme2.gamma == 4
        assert fingerprint2 != fingerprint

    def test_scheme_fingerprint_cache_invalidates_on_replace(self):
        # Named fingerprints are cached (the registry listing is a
        # polling endpoint) but must track re-registration.
        system = api.WmXMLSystem("secret")
        system.register("bib", bibliography.default_scheme(2))
        old = system.scheme_fingerprint("bib")
        assert system.scheme_fingerprint("bib") == old  # cache hit
        system.register("bib", bibliography.default_scheme(4))
        new = system.scheme_fingerprint("bib")
        assert new != old
        assert new == system.pipeline("bib").fingerprint

    def test_reregistering_mid_compile_does_not_pin_the_stale_pipeline(
            self, monkeypatch):
        # A PUT replacing 'bib' while another thread compiles the old
        # scheme must not let the stale pipeline land in the cache —
        # that would silently serve the replaced deployment forever
        # while the registry advertises the new fingerprint.
        import repro.api.system as system_module

        system = api.WmXMLSystem("secret")
        system.register("bib", bibliography.default_scheme(2))
        real_pipeline = system_module.Pipeline
        raced = []

        def racing_pipeline(scheme, key, alpha):
            if not raced:  # replace the name mid-first-compile
                raced.append(True)
                system.register("bib", bibliography.default_scheme(4))
            return real_pipeline(scheme, key, alpha=alpha)

        monkeypatch.setattr(system_module, "Pipeline",
                            lambda scheme, key, alpha: racing_pipeline(
                                scheme, key, alpha))
        pipeline = system.pipeline("bib")
        assert pipeline.scheme.gamma == 4
        assert system.pipeline("bib") is pipeline
        assert (system.scheme_fingerprint("bib")
                == pipeline.fingerprint)

    @pytest.mark.parametrize("use", [
        lambda system, scheme: system.pipeline(scheme),
        lambda system, scheme: system.register("bib", scheme),
        lambda system, scheme: system.recipient_pipeline(scheme, "alice"),
        lambda system, scheme: system.scheme_fingerprint(scheme),
        lambda system, scheme: api.Pipeline(scheme, "secret").fingerprint,
    ], ids=["pipeline", "register", "recipient_pipeline",
            "scheme_fingerprint", "Pipeline.fingerprint"])
    def test_non_json_scheme_params_raise_a_wmxml_error(self, use):
        # A frozenset domain builds a working in-memory scheme but has
        # no JSON form, so it has no content key; every entry point
        # must say so, not leak a TypeError or key it some other way.
        scheme = (api.SchemeBuilder(bibliography.book_shape())
                  .carrier("publisher", "categorical", fd="editor",
                           params={"domain": frozenset(("mkp", "acm"))})
                  .build())
        with pytest.raises(api.SchemeFormatError):
            use(api.WmXMLSystem("secret"), scheme)

    def test_reregistering_rebinds_the_name(self):
        system = api.WmXMLSystem("secret")
        system.register("bib", bibliography.default_scheme(2))
        old = system.pipeline("bib")
        system.register("bib", bibliography.default_scheme(4))
        new = system.pipeline("bib")
        assert new is not old
        assert new.scheme.gamma == 4

    def test_key_never_exposed_in_repr(self):
        system = api.WmXMLSystem("super-secret-key")
        assert "super-secret-key" not in repr(system)
        assert system.key_fingerprint in repr(system)

    def test_embed_detect_convenience(self):
        system = api.WmXMLSystem("secret")
        system.register("bib", bibliography.default_scheme(2))
        result = system.embed("bib", _small_bibliography(), "(c) me")
        outcome = system.detect("bib", result.document, result.record,
                                expected="(c) me")
        assert outcome.detected


class TestPipelineGoldenEquivalence:
    """The facade reproduces the golden vectors bit-for-bit."""

    CONFIGS = {
        "bibliography": (
            lambda: bibliography.generate_document(
                bibliography.BibliographyConfig(
                    books=60, editors=6, seed=1234)),
            lambda: bibliography.default_scheme(2),
            "(c) golden", "golden-key-bib"),
        "library": (
            lambda: library.generate_document(
                library.LibraryConfig(items=60, seed=99)),
            lambda: library.default_scheme(3),
            "GOLD", "golden-key-lib"),
    }

    @pytest.mark.parametrize("profile", sorted(CONFIGS))
    def test_embed_via_facade_is_bit_identical(self, profile):
        make_doc, make_scheme, message, key = self.CONFIGS[profile]
        golden = GOLDEN[profile]
        pipeline = api.WmXMLSystem(key).pipeline(make_scheme())
        result = pipeline.embed(make_doc(), message)
        assert _sha256(serialize(result.document)) == golden["marked_sha256"]
        record_json = json.dumps(result.record.to_dict(), sort_keys=True)
        assert _sha256(record_json) == golden["record_sha256"]

    @pytest.mark.parametrize("profile", sorted(CONFIGS))
    @pytest.mark.parametrize("strategy", ["scan", "indexed", "auto"])
    def test_detect_via_facade_matches_golden(self, profile, strategy):
        make_doc, make_scheme, message, key = self.CONFIGS[profile]
        golden = GOLDEN[profile]
        pipeline = api.WmXMLSystem(key).pipeline(make_scheme())
        result = pipeline.embed(make_doc(), message)
        outcome = pipeline.detect(result.document, result.record,
                                  expected=message, strategy=strategy)
        assert outcome.detected
        assert outcome.votes_total == golden["votes_total"]
        assert outcome.votes_matching == golden["votes_matching"]
        assert outcome.queries_answered == golden["queries_answered"]


class TestPipelineBatch:
    def test_embed_many_matches_one_by_one(self):
        scheme = bibliography.default_scheme(2)
        docs = [_small_bibliography(seed) for seed in (1, 2, 3)]
        batch = api.Pipeline(scheme, "k").embed_many(docs, "(c) batch")
        for seed, result in zip((1, 2, 3), batch):
            solo = api.Pipeline(scheme, "k").embed(
                _small_bibliography(seed), "(c) batch")
            assert serialize(result.document) == serialize(solo.document)
            assert result.record.to_dict() == solo.record.to_dict()

    def test_embed_many_leaves_inputs_untouched_by_default(self):
        scheme = bibliography.default_scheme(1)
        doc = _small_bibliography()
        before = serialize(doc)
        api.Pipeline(scheme, "k").embed_many([doc], "(c) x")
        assert serialize(doc) == before

    def test_detect_many(self):
        scheme = bibliography.default_scheme(2)
        pipeline = api.Pipeline(scheme, "k")
        results = pipeline.embed_many(
            [_small_bibliography(seed) for seed in (1, 2)], "(c) many")
        outcomes = pipeline.detect_many(
            [(r.document, r.record) for r in results], expected="(c) many")
        assert len(outcomes) == 2
        assert all(o.detected for o in outcomes)

    def test_embed_many_accepts_raw_xml_text(self):
        scheme = bibliography.default_scheme(2)
        docs = [_small_bibliography(seed) for seed in (1, 2)]
        from_docs = api.Pipeline(scheme, "k").embed_many(docs, "(c) t")
        from_text = api.Pipeline(scheme, "k").embed_many(
            [serialize(doc) for doc in docs], "(c) t")
        for a, b in zip(from_docs, from_text):
            assert serialize(a.document) == serialize(b.document)
            assert a.record.to_dict() == b.record.to_dict()

    def test_embed_many_text_with_process_sharding(self):
        scheme = bibliography.default_scheme(2)
        texts = [serialize(_small_bibliography(seed)) for seed in (1, 2, 3)]
        serial = api.Pipeline(scheme, "k").embed_many(texts, "(c) p")
        sharded = api.Pipeline(scheme, "k").embed_many(texts, "(c) p",
                                                       processes=2)
        for a, b in zip(serial, sharded):
            assert serialize(a.document) == serialize(b.document)

    def test_detect_many_accepts_iterator_input(self):
        scheme = bibliography.default_scheme(2)
        pipeline = api.Pipeline(scheme, "k")
        results = pipeline.embed_many(
            [_small_bibliography(seed) for seed in (1, 2)], "(c) gen")
        outcomes = pipeline.detect_many(
            iter([(r.document, r.record) for r in results]),
            expected="(c) gen")
        assert len(outcomes) == 2
        assert all(o.detected for o in outcomes)

    def test_detect_many_accepts_raw_xml_text(self):
        scheme = bibliography.default_scheme(2)
        pipeline = api.Pipeline(scheme, "k")
        results = pipeline.embed_many(
            [_small_bibliography(seed) for seed in (1, 2)], "(c) many")
        outcomes = pipeline.detect_many(
            [(serialize(r.document), r.record) for r in results],
            expected="(c) many", processes=2)
        assert len(outcomes) == 2
        assert all(o.detected for o in outcomes)

    def test_unknown_strategy_rejected(self):
        scheme = bibliography.default_scheme(2)
        pipeline = api.Pipeline(scheme, "k")
        result = pipeline.embed(_small_bibliography(), "(c) s")
        with pytest.raises(api.WmXMLError):
            pipeline.detect(result.document, result.record,
                            strategy="warp")

    def test_concurrent_embeds_are_deterministic(self):
        scheme = bibliography.default_scheme(2)
        pipeline = api.Pipeline(scheme, "k")
        reference = serialize(
            pipeline.embed(_small_bibliography(), "(c) mt").document)
        outputs = [None] * 8
        def work(slot):
            result = pipeline.embed(_small_bibliography(), "(c) mt")
            outputs[slot] = serialize(result.document)
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(output == reference for output in outputs)


def test_goldens_also_hold_for_core_embedders_used_here():
    """Guard: the fixtures this module borrows still exist upstream."""
    assert set(EMBEDDERS) == {"bibliography", "library"}
