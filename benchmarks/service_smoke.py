"""Service smoke: real ``wmxml serve`` subprocess, real client, clean exit.

The CI leg for the daemon.  It exercises exactly what a deployment
does: start ``wmxml serve`` as its own process, wait for it through the
client's connection-refused retry loop, run an embed/detect round-trip
plus a pooled batch over loopback HTTP, read ``/v1/healthz`` and
``/v1/stats``, then SIGTERM the daemon and assert it exits 0.  The
other smoke scripts import their daemon start/stop plumbing from here.

Run from the repo root::

    PYTHONPATH=src python benchmarks/service_smoke.py
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import threading

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.datasets import bibliography  # noqa: E402
from repro.service import WmXMLClient  # noqa: E402
from repro.xmlmodel import serialize  # noqa: E402


def daemon_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO, "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    return env


def start_daemon(*serve_args: str, env=None) -> subprocess.Popen:
    """``wmxml serve`` on an ephemeral port, stdout piped for
    :func:`read_bound_port`."""
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", *serve_args,
         "--port", "0"],
        env=env or daemon_env(), cwd=REPO, stdout=subprocess.PIPE,
        text=True)


def read_bound_port(daemon: subprocess.Popen) -> int:
    """Parse the ephemeral port from the daemon's startup banner.

    ``--port 0`` lets the daemon pick the port itself — no
    probe-then-rebind race with other processes on a busy CI host.
    The remaining output keeps draining on a thread (echoed through)
    so the pipe can never fill and block the daemon.
    """
    for line in daemon.stdout:
        print(line, end="")
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            threading.Thread(
                target=lambda: [print(rest, end="")
                                for rest in daemon.stdout],
                daemon=True).start()
            return int(match.group(1))
    raise AssertionError(
        f"daemon exited (code {daemon.wait()}) before printing its port")


def stop_daemon(daemon: subprocess.Popen) -> int:
    """SIGTERM the daemon and return its exit code.

    A daemon still running after 15 s is killed (reported as -9), so a
    wedged daemon cannot mask the real failure or outlive the run.
    """
    daemon.send_signal(signal.SIGTERM)
    try:
        return daemon.wait(timeout=15)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.wait()
        return -9


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        scheme_path = os.path.join(tmp, "books.json")
        bibliography.default_scheme(2).save(scheme_path)

        daemon = start_daemon("--scheme", f"books={scheme_path}",
                              "--key", "smoke-secret", "--processes", "2")
        try:
            port = read_bound_port(daemon)
            client = WmXMLClient(f"http://127.0.0.1:{port}",
                                 scheme="books", retries=30,
                                 retry_delay=0.1)

            health = client.healthz()
            assert health["status"] == "ok", health
            assert "books" in health["schemes"], health
            print(f"healthz ok: {health}")

            document = bibliography.generate_document(
                bibliography.BibliographyConfig(books=40, seed=11))
            text = serialize(document)

            result = client.embed(text, "(c) smoke")
            outcome = client.detect(result.xml, result.record,
                                    expected="(c) smoke")
            assert outcome.detected, outcome
            print(f"round-trip ok: {outcome}")

            batch = client.embed_many([text] * 4, "(c) smoke")
            assert len(batch) == 4
            verdicts = client.detect_many(
                [(item.xml, batch[0].record) for item in batch[:1]]
                + [(batch[i].xml, batch[i].record) for i in range(1, 4)],
                expected="(c) smoke")
            assert all(item.detected for item in verdicts), verdicts
            print(f"batch ok: {len(batch)} embeds, "
                  f"{sum(v.detected for v in verdicts)} detects")

            # The stats snapshot is taken while the /v1/stats request
            # itself is still in flight, so it counts the 5 prior ones.
            stats = client.stats()
            assert stats["requests"] >= 5, stats
            assert stats["errors"] == 0, stats
            print(f"stats ok: {stats['requests']} requests, "
                  f"{len(stats['endpoints'])} endpoints timed")
        finally:
            returncode = stop_daemon(daemon)
        assert returncode == 0, f"daemon exited {returncode}, not 0"
        print("clean shutdown ok (exit 0)")
        print("SERVICE SMOKE PASSED")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
