"""EXT benches: the implemented extensions beyond the demo paper.

* EXT-1 — indexed detection: same votes as the XPath scan, order-of-
  magnitude faster (the E9 "future work" implemented);
* EXT-2 — ECC blind recovery: message recovery rate under reduction,
  raw vs repetition-coded;
* EXT-3 — fingerprint tracing under collusion: coalition size sweep.
"""

from benchmarks.conftest import BENCH_CONFIG, archive
from repro.api import Fingerprinter
from repro.attacks import CollusionAttack, ReductionAttack
from repro.core import (
    RepetitionCode,
    Watermark,
    WmXMLDecoder,
    WmXMLEncoder,
)
from repro.datasets import bibliography
from repro.harness import ResultTable


def _document():
    return bibliography.generate_document(bibliography.BibliographyConfig(
        books=BENCH_CONFIG.books, editors=BENCH_CONFIG.editors,
        seed=BENCH_CONFIG.seed))


def test_ext1_indexed_detection(benchmark, results_dir):
    document = _document()
    scheme = bibliography.default_scheme(BENCH_CONFIG.gamma)
    watermark = Watermark.from_message(BENCH_CONFIG.message)
    result = WmXMLEncoder(scheme, BENCH_CONFIG.secret_key).embed(
        document, watermark)
    decoder = WmXMLDecoder(BENCH_CONFIG.secret_key)

    outcome = benchmark(
        lambda: decoder.detect(result.document, result.record, scheme.shape,
                               expected=watermark, indexed=True))
    assert outcome.detected

    scan = decoder.detect(result.document, result.record, scheme.shape,
                          expected=watermark)
    assert (scan.votes_total, scan.votes_matching) == \
        (outcome.votes_total, outcome.votes_matching)


def test_ext2_ecc_blind_recovery(benchmark, results_dir):
    document = _document()
    message = "EC"
    code = RepetitionCode(3)
    raw_wm = Watermark.from_message(message)
    coded_wm = code.encode_watermark(raw_wm)
    scheme = bibliography.default_scheme(1)

    raw_result = WmXMLEncoder(scheme, "raw-key").embed(document, raw_wm)
    coded_result = WmXMLEncoder(scheme, "ecc-key").embed(document, coded_wm)
    raw_decoder = WmXMLDecoder("raw-key")
    coded_decoder = WmXMLDecoder("ecc-key")

    table = ResultTable(
        "EXT-2: blind message recovery, raw vs repetition-3 ECC",
        ["keep-fraction", "raw-recovered", "ecc-recovered"])
    for keep in (1.0, 0.8, 0.6, 0.4, 0.3, 0.2):
        attack = ReductionAttack(keep, seed=5)
        raw_doc = attack.apply(raw_result.document).document
        coded_doc = attack.apply(coded_result.document).document
        raw_out = raw_decoder.detect(raw_doc, raw_result.record,
                                     scheme.shape)
        coded_out = coded_decoder.detect(coded_doc, coded_result.record,
                                         scheme.shape)
        table.add(keep,
                  raw_out.recovered_message == message,
                  code.decode_message(coded_out.recovered_bits) == message)
    archive(results_dir, "ext2_ecc", table)
    raw_wins = sum(bool(v) for v in table.column("raw-recovered"))
    ecc_wins = sum(bool(v) for v in table.column("ecc-recovered"))
    assert ecc_wins >= raw_wins  # the code can only help
    assert table.rows[0][1] and table.rows[0][2]  # both fine unattacked

    outcome = benchmark(
        lambda: coded_decoder.detect(coded_result.document,
                                     coded_result.record, scheme.shape))
    assert outcome.votes_total > 0


def test_ext3_collusion_tracing(benchmark, results_dir):
    document = _document()
    scheme = bibliography.default_scheme(BENCH_CONFIG.gamma)
    tracer = Fingerprinter(scheme, "master", alpha=1e-3)
    recipients = [f"user-{i}" for i in range(5)]
    copies = {name: tracer.issue(document, name) for name in recipients}

    table = ResultTable(
        "EXT-3: traitor tracing vs coalition size (random-pick collusion)",
        ["colluders", "accused", "colluders-caught", "innocents-accused"])
    for size in (1, 2, 3, 4):
        coalition = recipients[:size]
        if size == 1:
            merged = copies[coalition[0]].document
        else:
            merged = CollusionAttack(
                [copies[name].document for name in coalition],
                strategy="random", seed=7).apply(
                copies[coalition[0]].document).document
        trace = tracer.trace(merged)
        caught = [name for name in trace.accused if name in coalition]
        innocents = [name for name in trace.accused
                     if name not in coalition]
        table.add(size, len(trace.accused), len(caught), len(innocents))
    archive(results_dir, "ext3_collusion", table)
    assert table.rows[0][2] == 1        # single leaker always caught
    assert all(row[3] == 0 for row in table.rows)  # never frame innocents
    assert table.rows[1][2] >= 1        # 2-coalitions leak a member

    trace = benchmark(lambda: tracer.trace(copies["user-0"].document))
    assert trace.prime_suspect == "user-0"
