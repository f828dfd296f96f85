"""Registry smoke: live ``wmxml serve --registry``, collusion, restart.

The CI leg for the provenance subsystem.  It exercises the full
deployment story: start ``wmxml serve`` with a SQLite registry, issue
20 fingerprinted copies across five recipients over the wire, **kill
the daemon**, start a fresh one over the same database file, then
majority-collude three recipients' copies of the shared corpus
document and assert that ``POST /v1/trace`` accuses a true colluder,
that ``GET /v1/ledger/verify`` still reports an intact chain, and that
both daemon lifetimes exit 0 on SIGTERM.

Run from the repo root::

    PYTHONPATH=src python benchmarks/registry_smoke.py
"""

from __future__ import annotations

import os
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.api import CollusionAttack  # noqa: E402
from repro.datasets import bibliography  # noqa: E402
from repro.service import WmXMLClient  # noqa: E402
from repro.xmlmodel import parse, serialize  # noqa: E402

from service_smoke import (  # noqa: E402
    read_bound_port,
    start_daemon,
    stop_daemon,
)

RECIPIENTS = ("alice", "bob", "carol", "dave", "erin")
COLLUDERS = ("alice", "carol", "erin")
#: 5 recipients x 4 documents = the 20 issued copies the registry holds.
DOCS_PER_RECIPIENT = 4


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        scheme_path = os.path.join(tmp, "books.json")
        bibliography.default_scheme(2).save(scheme_path)
        registry_path = os.path.join(tmp, "registry.db")
        serve_args = ("--scheme", f"books={scheme_path}",
                      "--key", "smoke-secret", "--registry", registry_path,
                      "--issuer", "registry-smoke")

        # The shared corpus document is large enough that a three-way
        # majority collusion still leaves each colluder detectable.
        corpus = serialize(bibliography.generate_document(
            bibliography.BibliographyConfig(books=200, editors=8,
                                            seed=1234)))
        extras = [
            serialize(bibliography.generate_document(
                bibliography.BibliographyConfig(books=30, editors=4,
                                                seed=100 + index)))
            for index in range(DOCS_PER_RECIPIENT - 1)
        ]

        # -- first daemon lifetime: populate the registry ----------------
        daemon = start_daemon(*serve_args)
        copies: dict[str, str] = {}
        try:
            port = read_bound_port(daemon)
            client = WmXMLClient(f"http://127.0.0.1:{port}",
                                 scheme="books", retries=30,
                                 retry_delay=0.1)
            health = client.healthz()
            assert health["registry"] is not None, health
            for name in RECIPIENTS:
                copies[name] = client.issue(corpus, name).xml
                for extra in extras:
                    client.issue(extra, name)
            expected = len(RECIPIENTS) * DOCS_PER_RECIPIENT
            total = client.records(limit=1)["total"]
            assert total == expected, (total, expected)
            print(f"issued {expected} copies into {registry_path}")
        finally:
            returncode = stop_daemon(daemon)
        assert returncode == 0, f"daemon exited {returncode}, not 0"
        print("first lifetime: clean shutdown ok (exit 0)")

        # -- the leak: three recipients collude offline ------------------
        attacked = CollusionAttack(
            [parse(copies[name]) for name in COLLUDERS],
            strategy="majority", seed=7,
        ).apply(parse(copies[COLLUDERS[0]]))
        leak = serialize(attacked.document)

        # -- second daemon lifetime over the same database ---------------
        daemon = start_daemon(*serve_args)
        try:
            port = read_bound_port(daemon)
            client = WmXMLClient(f"http://127.0.0.1:{port}",
                                 scheme="books", retries=30,
                                 retry_delay=0.1)
            total = client.records(limit=1)["total"]
            assert total == len(RECIPIENTS) * DOCS_PER_RECIPIENT, total

            trace = client.trace(leak)
            assert trace.prime_suspect in COLLUDERS, trace.to_dict()
            print(f"trace ok: accused {trace.accused!r}, "
                  f"prime suspect {trace.prime_suspect!r} "
                  f"(colluders were {list(COLLUDERS)!r})")

            report = client.verify_ledger()
            assert report["intact"] is True, report
            assert report["sealed"] is True, report
            assert report["blocks"] == total, report
            print(f"ledger ok: {report['blocks']} sealed blocks intact "
                  "after restart")
        finally:
            returncode = stop_daemon(daemon)
        assert returncode == 0, f"daemon exited {returncode}, not 0"
        print("second lifetime: clean shutdown ok (exit 0)")
        print("REGISTRY SMOKE PASSED")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
