"""Registry smoke: live ``wmxml serve --registry``, collusion, restart.

The CI leg for the provenance subsystem.  It exercises the full
deployment story: start ``wmxml serve`` with a SQLite registry, issue
20 fingerprinted copies across five recipients over the wire, **kill
the daemon**, start a fresh one over the same database file, then
majority-collude three recipients' copies of the shared corpus
document and assert that ``POST /v1/trace`` accuses a true colluder,
that a second trace answers the same verdicts from the records the
first one decoded, that ``GET /v1/ledger/verify`` still reports an
intact chain, that rewriting one record's payload in the database file
under the running daemon makes it answer ``chain-broken`` and that a
trace after it still answers without accusing the renamed id, that a
colluder's record whose stored bit index is rewritten under the daemon
is refused by the next trace (the plan the daemon held for the old row
is not reused), and that both daemon lifetimes exit 0 on SIGTERM with
the write-ahead log checkpointed into the database file
(``registry.db-wal`` absent or empty).

Run from the repo root::

    PYTHONPATH=src python benchmarks/registry_smoke.py
"""

from __future__ import annotations

import json
import os
import sqlite3
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.api import CollusionAttack  # noqa: E402
from repro.datasets import bibliography  # noqa: E402
from repro.service import RemoteServiceError, WmXMLClient  # noqa: E402
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


def assert_wal_checkpointed(registry_path: str) -> None:
    """A cleanly stopped daemon leaves no write-ahead log behind."""
    wal = registry_path + "-wal"
    size = os.path.getsize(wal) if os.path.exists(wal) else 0
    assert size == 0, f"{wal} still holds {size} bytes after SIGTERM"


def rewrite_payload(registry_path: str, sequence: int, text: str) -> None:
    """Replace one record row's payload in the database file."""
    conn = sqlite3.connect(registry_path)
    conn.execute("UPDATE records SET payload = ? WHERE sequence = ?",
                 (text, sequence))
    conn.commit()
    conn.close()


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
        assert_wal_checkpointed(registry_path)
        print("first lifetime: clean shutdown ok (exit 0, WAL checkpointed)")

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
            # The second trace reuses the records the first decoded.
            again = client.trace(leak)
            assert again.to_dict() == trace.to_dict(), again.to_dict()
            print("second trace ok: identical verdicts")

            report = client.verify_ledger()
            assert report["intact"] is True, report
            assert report["sealed"] is True, report
            assert report["blocks"] == total, report
            print(f"ledger ok: {report['blocks']} sealed blocks intact "
                  "after restart")

            # Rewrite a colluder's leaked copy's first bit index: the
            # next trace must refuse that record, not reuse the plan the
            # daemon holds for the row as it was.  The row is then put
            # back, so the chain verifies again.
            tampered = COLLUDERS[1]
            conn = sqlite3.connect(registry_path)
            sequence, original = conn.execute(
                "SELECT sequence, payload FROM records WHERE recipient = ? "
                "ORDER BY sequence LIMIT 1", (tampered,)).fetchone()
            conn.close()
            payload = json.loads(original)
            first = payload["record"]["queries"][0]
            first["bit_index"] = (first["bit_index"] + 1) \
                % payload["record"]["nbits"]
            rewrite_payload(registry_path, sequence, json.dumps(payload))
            after = client.trace(leak)
            rewrite_payload(registry_path, sequence, original)
            verdict = after.verdicts[tampered]
            assert verdict.queries_rejected >= 1, verdict.to_dict()
            assert tampered not in after.accused, after.to_dict()
            assert client.verify_ledger()["intact"] is True
            print(f"tamper ok: {tampered!r}'s rewritten record is refused "
                  f"({verdict.queries_rejected} query rejected; accused "
                  f"{after.accused!r}), and verifies again once restored")

            # Rewrite one record under the running daemon: the decode
            # it holds must not hide the change from the ledger check.
            conn = sqlite3.connect(registry_path)
            payload = json.loads(conn.execute(
                "SELECT payload FROM records WHERE sequence = 0"
            ).fetchone()[0])
            payload["recipient"] = "mallory"
            conn.execute("UPDATE records SET payload = ?, recipient = ? "
                         "WHERE sequence = 0",
                         (json.dumps(payload), "mallory"))
            conn.commit()
            conn.close()
            try:
                client.verify_ledger()
            except RemoteServiceError as error:
                assert error.code == "chain-broken", error.code
            else:
                raise AssertionError("a rewritten row left the ledger "
                                     "verifying intact")
            print("tamper ok: a row rewritten under the live daemon "
                  "answers chain-broken")
            # The renamed row fails its own verdict, not the whole trace.
            renamed = client.trace(leak)
            verdict = renamed.verdicts["mallory"]
            assert verdict.votes_total == 0, verdict.to_dict()
            assert "mallory" not in renamed.accused, renamed.to_dict()
            print(f"renamed row ok: the trace answers (accused "
                  f"{renamed.accused!r}), 'mallory' has an empty tally")
        finally:
            returncode = stop_daemon(daemon)
        assert returncode == 0, f"daemon exited {returncode}, not 0"
        assert_wal_checkpointed(registry_path)
        print("second lifetime: clean shutdown ok (exit 0, WAL "
              "checkpointed)")
        print("REGISTRY SMOKE PASSED")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
