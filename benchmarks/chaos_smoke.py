"""Chaos smoke: every fault point against a real ``wmxml serve`` daemon.

The CI leg for the resilience subsystem.  For each registered fault
point it starts a **real** ``wmxml serve --registry`` **daemon
subprocess** armed through the ``WMXML_FAULTS`` environment variable
(the production arming path — the fault state is inside the daemon
process, not the test), fires a request mix over the wire, and asserts
the system-level invariants:

* every request completes — a clean envelope or a result, never a hang;
* the daemon survives the fault and answers ``/v1/healthz``;
* after the sweep, ``wmxml ledger recover`` + ``wmxml ledger verify``
  report a verifiable chain (torn tails quarantined, never deleted);
* a SIGTERM'd daemon exits 0 (the drain path).

Run from the repo root::

    PYTHONPATH=src python benchmarks/chaos_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro import faults  # noqa: E402
from repro.datasets import bibliography  # noqa: E402
from repro.errors import WmXMLError  # noqa: E402
from repro.service import WmXMLClient  # noqa: E402
from repro.xmlmodel import serialize  # noqa: E402

from service_smoke import (  # noqa: E402
    daemon_env,
    read_bound_port,
    start_daemon,
    stop_daemon,
)

KEY = "chaos-smoke-secret"

#: How each seam is armed for its daemon lifetime (the same shapes the
#: in-process sweep in tests/test_chaos.py uses).  ``times`` keeps the
#: fault transient so the daemon can demonstrate *recovery*;
#: ``pool.chunk`` stays armed to prove the serial fallback finishes
#: batches even when every fresh worker dies.
SCENARIOS = {
    "service.dispatch": "service.dispatch=raise:times=1",
    "service.response": "service.response=raise:times=1",
    "pool.chunk": "pool.chunk=exit:scope=worker",
    "registry.sqlite.commit":
        "registry.sqlite.commit=raise:error=sqlite:times=1",
    # after=2 skips the boot-time recovery pass and readiness probe so
    # the outage hits a live wire request (the 503 + Retry-After +
    # client-retry path), not just startup.
    "registry.sqlite.read":
        "registry.sqlite.read=raise:error=sqlite:after=2:times=1",
    "registry.append.torn":
        "registry.append.torn=raise:error=os:times=1",
    # after=3: the 3-document batch consumes hits 1-3, so the corrupt
    # lands on the lifetime's *final* append — the crash-shaped
    # trailing case recovery quarantines.  (Corrupting earlier would
    # bury the damage under later blocks: interior damage, which
    # recovery rightly refuses to touch.)
    "ledger.seal": "ledger.seal=corrupt:times=1:after=3",
}


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = daemon_env()
    env.pop("WMXML_FAULTS", None)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=120)


def sweep_point(point: str, arming: str, scheme_path: str,
                tmp: str, texts: list[str]) -> None:
    registry_path = os.path.join(tmp, f"{point.replace('.', '-')}.db")
    daemon = start_daemon(
        "--scheme", f"books={scheme_path}", "--key", KEY,
        "--registry", registry_path, "--issuer", "chaos-smoke",
        "--processes", "2", "--retry-after", "0",
        env=dict(daemon_env(), WMXML_FAULTS=arming))
    try:
        port = read_bound_port(daemon)
        client = WmXMLClient(f"http://127.0.0.1:{port}", scheme="books",
                             timeout=120, retries=5, retry_delay=0.1)

        # the request mix under fire (the daemon is armed from its
        # first request — WMXML_FAULTS is parsed at import): clean
        # envelope or result, never a hang (the client timeout would
        # fail the sweep otherwise)
        envelopes = 0
        for action in (lambda: client.healthz(),
                       lambda: client.issue_many(texts, "alice"),
                       lambda: client.records(),
                       lambda: client.healthz()):
            try:
                action()
            except WmXMLError as error:
                envelopes += 1
                print(f"  [{point}] clean failure: "
                      f"{type(error).__name__}: {error}")

        # the daemon survived the fault
        health = client.healthz()
        assert health["status"] in ("ok", "degraded"), health
        result = client.issue(texts[0], "bob")
        assert result.record is not None
        print(f"  [{point}] daemon alive after fault "
              f"({envelopes} enveloped failure(s), "
              f"health={health['status']})")
    finally:
        returncode = stop_daemon(daemon)
    assert returncode == 0, (
        f"[{point}] daemon exited {returncode}, not 0")

    # offline: recover (quarantining any torn tail), then verify
    recover = run_cli("ledger", "recover", "--registry", registry_path,
                      "--key", KEY)
    assert recover.returncode == 0, (
        f"[{point}] recover failed:\n{recover.stdout}{recover.stderr}")
    verify = run_cli("ledger", "verify", "--registry", registry_path,
                     "--key", KEY)
    assert verify.returncode == 0, (
        f"[{point}] verify failed:\n{verify.stdout}{verify.stderr}")
    print(f"  [{point}] ledger verifiable after recovery")


def main() -> int:
    points = sorted(faults.fault_points())
    missing = set(points) - set(SCENARIOS)
    assert not missing, f"fault points without a chaos scenario: {missing}"

    with tempfile.TemporaryDirectory() as tmp:
        scheme_path = os.path.join(tmp, "books.json")
        bibliography.default_scheme(2).save(scheme_path)
        texts = [
            serialize(bibliography.generate_document(
                bibliography.BibliographyConfig(books=12, editors=3,
                                                seed=8000 + index)))
            for index in range(3)
        ]
        for point in points:
            print(f"chaos sweep: {point} ({SCENARIOS[point]})")
            sweep_point(point, SCENARIOS[point], scheme_path, tmp, texts)
    print(f"CHAOS SMOKE PASSED ({len(points)} fault points swept)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
