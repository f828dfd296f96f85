"""The three workloads: how each sets up, runs its closed loop, checks.

Every workload is a closed loop: a caller sends its next request only
when the previous reply is in.  A workload object is built per run from
a :class:`Context`; :meth:`setup` returns an environment that
:meth:`run`, :meth:`check` and :meth:`close` take.  Inputs come only
from the seed.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from stats import MIN_CALLS, MIN_SAMPLES, peak_rss_mb, percentile

HERE = os.path.dirname(os.path.abspath(__file__))

#: Share of values a leaked or suspected copy has rewritten.
ALTER_RATE = 0.1

#: A phase that has not reached MIN_SAMPLES of every kind by its
#: deadline keeps going, up to this many extra seconds.
GRACE_S = 60.0


@dataclass
class Context:
    root: str           # checkout root (holds src/)
    workdir: str        # scratch space for this run, inside the checkout
    seed: int
    read_delay_ms: float = 0.0
    spans_dir: str = ""  # set for the traced phase
    _dirs: itertools.count = field(default_factory=itertools.count)

    def fresh_dir(self):
        path = os.path.join(self.workdir, f"setup-{next(self._dirs)}")
        os.makedirs(path)
        return path


@dataclass
class Phase:
    """What one timed phase produced."""

    #: kind -> [(seconds, documents)] of each successful operation
    samples: dict
    start: float
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    #: Peak memory of the program's processes when the phase ended,
    #: read before the output checks, which load more than the phase.
    peak_rss_mb: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, kind, seconds, docs, ok):
        """Count one finished operation (callers may share the phase)."""
        with self.lock:
            self.attempted += 1
            if ok:
                self.samples[kind].append((seconds, docs))
            else:
                self.failed += 1

    def count(self, kind):
        return sum(docs for _, docs in self.samples.get(kind, ()))

    def latencies(self, kind):
        return [seconds for seconds, _ in self.samples[kind]]

    @property
    def ops(self):
        return sum(self.count(kind) for kind in self.samples)


def _timed_loop(phase, deadline, step, enough):
    """Run ``step()`` until ``deadline`` and until ``enough()``, but no
    longer than GRACE_S past the deadline.  ``step`` returns
    ``(kind, seconds, documents, ok)``; successes become samples."""
    hard_stop = deadline + GRACE_S
    while True:
        now = time.perf_counter()
        if now >= hard_stop or (now >= deadline and enough()):
            return
        phase.record(*step())


def _enough(phase, min_samples):
    """True once every kind has ``min_samples`` operations, and enough
    timed calls for its median (a batch call carries many operations)."""
    min_calls = min(min_samples, MIN_CALLS)

    def enough():
        with phase.lock:
            return all(phase.count(kind) >= min_samples
                       and len(samples) >= min_calls
                       for kind, samples in phase.samples.items())
    return enough


def quantile_ms(latencies, q):
    """``(q-quantile in ms, unit, samples)`` of latencies."""
    return (percentile(latencies, q) * 1e3, "ms", len(latencies))


def _op(recorder, docs=1):
    """Open the benchmark's own span around one operation."""
    if recorder is None:
        return None
    span = recorder.begin("bench.op")
    if docs != 1:
        span.add("docs", docs)
    return span


def _bibliographies(rng, count, low, high):
    """``count`` documents whose sizes spread geometrically over
    ``low..high`` books, so the median document has ``sqrt(low * high)``
    books (40 of 20..80, about 8 KB).  The seed picks their content and
    order, not their sizes, so every seed offers the same amount of
    work."""
    from repro.datasets import bibliography
    from repro.xmlmodel import serialize

    sizes = [round(low * (high / low) ** (index / max(1, count - 1)))
             for index in range(count)]
    rng.shuffle(sizes)
    return [serialize(bibliography.generate_document(
        bibliography.BibliographyConfig(books=books,
                                        seed=rng.randrange(2 ** 31))))
        for books in sizes]


def _altered(xml, seed):
    """``xml`` with ALTER_RATE of its values rewritten."""
    from repro.attacks.alteration import ValueAlterationAttack
    from repro.xmlmodel import parse, serialize

    document = parse(xml, strip_whitespace=True)
    return serialize(ValueAlterationAttack(ALTER_RATE, seed=seed)
                     .apply(document).document)


def _scheme_file(directory, gamma):
    """The bibliography scheme, marking one carrier group in ``gamma``."""
    from repro.datasets import bibliography

    path = os.path.join(directory, "books.json")
    bibliography.default_scheme(gamma).save(path)
    return path


def _file_bytes(*paths):
    return sum(os.path.getsize(path) for path in paths
               if os.path.exists(path))


class Daemon:
    """A ``wmxml serve`` subprocess started through ``launcher.py``."""

    def __init__(self, ctx, directory, cli_args):
        command = [sys.executable, "-u", os.path.join(HERE, "launcher.py")]
        if ctx.spans_dir:
            command += ["--spans", os.path.join(ctx.spans_dir,
                                                "daemon.json")]
        if ctx.read_delay_ms:
            command += ["--read-delay-ms", str(ctx.read_delay_ms)]
        self._log_path = os.path.join(directory, "daemon.log")
        self._log = open(self._log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            command + ["--"] + cli_args, cwd=ctx.root,
            stdout=subprocess.PIPE, stderr=self._log, text=True)
        try:
            self.url = self._read_url(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _read_url(self, timeout):
        deadline = time.monotonic() + timeout
        marker = "listening on "
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, deadline - time.monotonic()))
            if not ready:
                break
            line = self.proc.stdout.readline()
            if not line:
                break
            if marker in line:
                return line.split(marker, 1)[1].split()[0]
        self._log.flush()
        with open(self._log_path, encoding="utf-8") as handle:
            tail = handle.read()[-2000:]
        raise RuntimeError(f"daemon did not start: {tail}")

    def peak_rss_mb(self):
        return peak_rss_mb(self.proc.pid)

    def stop(self):
        """SIGTERM, wait for the clean exit; True when it exited 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            except BaseException:
                # This run is being stopped itself: never leave the
                # daemon behind.
                self.proc.kill()
                self.proc.wait()
                raise
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode == 0


# -- serve-issue ---------------------------------------------------------------


class ServeIssue:
    """Two tenants issue and detect over the wire against one daemon."""

    name = "serve-issue"
    kinds = ("embed", "detect")
    main_kind = "embed"
    TENANTS = ("acme", "globex")
    POOL = 32
    BOOKS = (20, 80)
    RECIPIENTS = 200
    # Every carrier group is marked.  With one in two, a 20-book copy
    # carries about 21 votes, and 10% alteration left one copy of about
    # 1,500 undetected (17 of 21 votes, p = 0.004 > 1e-3): one run in 23
    # failed.  With all groups marked, the weakest of 1,664 probed
    # copies gave p = 1e-8.
    GAMMA = 1
    ISSUE_SHARE = 0.75
    SAMPLED_SHARE = 0.05
    SAMPLED_MAX = 12

    def __init__(self):
        # Zipf(1) over the recipients: a skewed draw whose working set
        # is larger than the 64-entry recipient pipeline cache.
        weights = [1.0 / (rank + 1) for rank in range(self.RECIPIENTS)]
        self._cumulative = list(itertools.accumulate(weights))

    def setup(self, ctx):
        from repro.service.client import WmXMLClient
        from repro.tenants import TenantDirectory, TenantsConfig

        rng = random.Random(ctx.seed)
        docs = _bibliographies(rng, self.POOL, *self.BOOKS)
        directory = ctx.fresh_dir()
        big = 10 ** 6  # far above the offered load, so nothing is refused
        config = {
            "format": "wmxml-tenants-v1",
            "keys": {"1": f"perfbench-master-{ctx.seed}"},
            "tenants": {name: {"quota": {
                "requests_per_minute": big, "request_burst": big,
                "documents_per_minute": big, "document_burst": big}}
                for name in self.TENANTS},
        }
        tenants_path = os.path.join(directory, "tenants.json")
        with open(tenants_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        scheme_path = _scheme_file(directory, self.GAMMA)
        database = os.path.join(directory, "registry.db")
        daemon = Daemon(ctx, directory, [
            "serve", "--scheme", f"books={scheme_path}",
            "--tenants", tenants_path, "--port", "0",
            "--registry", database])
        env = {"daemon": daemon, "docs": docs, "config": config,
               "scheme_path": scheme_path, "database": database,
               "tenants": [], "seed": ctx.seed}
        try:
            minter = TenantDirectory(TenantsConfig.from_dict(config))
            for name in self.TENANTS:
                client = WmXMLClient(daemon.url, scheme="books",
                                     token=minter.mint_token(name))
                tenant = {"name": name, "client": client,
                          "message": f"(c) {name}", "sent": 0,
                          "embedded": 0, "errors": 0, "sampled": []}
                suspects = []
                for doc in docs:
                    marked = client.embed(doc, tenant["message"])
                    suspects.append((_altered(marked.xml,
                                              rng.randrange(2 ** 31)),
                                     marked.record))
                tenant["sent"] += len(docs)
                tenant["embedded"] += len(docs)
                tenant["suspects"] = suspects
                env["tenants"].append(tenant)
            # Warm-up: both request kinds on every tenant, untimed.
            for tenant in env["tenants"]:
                warm = random.Random(ctx.seed + 1)
                for _ in range(8):
                    self._step(env, tenant, warm, None, issue=True)
                for _ in range(4):
                    self._step(env, tenant, warm, None, issue=False)
        except BaseException:
            daemon.stop()
            raise
        return env

    def _recipient(self, tenant, rng):
        rank = rng.choices(range(self.RECIPIENTS),
                           cum_weights=self._cumulative)[0]
        return f"{tenant['name']}-r{rank:03d}"

    def _step(self, env, tenant, rng, recorder, issue=None):
        from repro.errors import WmXMLError

        if issue is None:
            issue = rng.random() < self.ISSUE_SHARE
        client = tenant["client"]
        tenant["sent"] += 1
        if issue:
            index = rng.randrange(self.POOL)
            recipient = self._recipient(tenant, rng)
            sampled = rng.random() < self.SAMPLED_SHARE
            span = _op(recorder)
            start = time.perf_counter()
            try:
                result = client.issue(env["docs"][index], recipient)
                ok = True
            except WmXMLError:
                tenant["errors"] += 1
                ok = False
            seconds = time.perf_counter() - start
            if span is not None:
                recorder.end(span)
            if ok:
                tenant["embedded"] += 1
                if sampled and len(tenant["sampled"]) < self.SAMPLED_MAX:
                    tenant["sampled"].append(
                        (index, recipient, result.xml,
                         result.record.to_dict()))
            return "embed", seconds, 1, ok
        suspect, record = tenant["suspects"][rng.randrange(self.POOL)]
        span = _op(recorder)
        start = time.perf_counter()
        try:
            ok = client.detect(suspect, record,
                               expected=tenant["message"]).detected
        except WmXMLError:
            tenant["errors"] += 1
            ok = False
        seconds = time.perf_counter() - start
        if span is not None:
            recorder.end(span)
        return "detect", seconds, 1, ok

    def run(self, env, seconds, recorder=None, min_samples=MIN_SAMPLES):
        phase = Phase(samples={kind: [] for kind in self.kinds},
                      start=time.perf_counter())
        deadline = phase.start + seconds

        def client_thread(position, tenant):
            rng = random.Random(env["seed"] * 1000 + 7 + position)
            _timed_loop(phase, deadline,
                        lambda: self._step(env, tenant, rng, recorder),
                        _enough(phase, min_samples))

        threads = [threading.Thread(target=client_thread, args=(i, t),
                                    daemon=True)
                   for i, t in enumerate(env["tenants"])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.elapsed = time.perf_counter() - phase.start
        phase.peak_rss_mb = env["daemon"].peak_rss_mb()
        return phase

    def check(self, env):
        """Output checks; returns ``(attempted, failures)``."""
        from repro.tenants import TenantDirectory, TenantsConfig
        from repro.core.scheme import WatermarkingScheme

        failures = []
        attempted = 0
        local = TenantDirectory(TenantsConfig.from_dict(env["config"]))
        local.register_all("books",
                           WatermarkingScheme.load(env["scheme_path"]))
        for tenant in env["tenants"]:
            system = local.system(tenant["name"])
            for index, recipient, xml, record in tenant["sampled"]:
                attempted += 1
                mine = system.embed_many("books", [env["docs"][index]],
                                         recipient, output="xml",
                                         recipient=recipient)[0]
                if mine.xml != xml or mine.record.to_dict() != record:
                    failures.append(f"{tenant['name']}: issue to "
                                    f"{recipient} differs from a local "
                                    "embed")
        first = env["tenants"][0]
        attempted += 1
        first["sent"] += 1
        if not first["client"].verify_ledger().get("intact"):
            failures.append("ledger does not verify")
        for tenant in env["tenants"]:
            attempted += 2
            tenant["sent"] += 1
            total = tenant["client"].records(limit=1)["total"]
            if total != tenant["embedded"]:
                failures.append(f"{tenant['name']}: registry holds {total} "
                                f"records, {tenant['embedded']} issued")
            counters = tenant["client"].stats()["tenant"]
            want = {"requests": tenant["sent"], "errors": tenant["errors"],
                    "embedded_documents": tenant["embedded"]}
            got = {key: counters[key] for key in want}
            if got != want:
                failures.append(f"{tenant['name']}: /v1/stats {got} != "
                                f"sent {want}")
        return attempted, failures

    def close(self, env):
        clean = env["daemon"].stop()
        database = env["database"]
        recorded = sum(tenant["embedded"] for tenant in env["tenants"])
        return {"clean_exit": clean,
                "registry_bytes": _file_bytes(database, database + "-wal"),
                "registry_docs": recorded}

    def detail(self, phase):
        embed = phase.latencies("embed")
        detect = phase.latencies("detect")
        return {
            "embed_p90_ms": quantile_ms(embed, 0.9),
            "detect_p50_ms": quantile_ms(detect, 0.5),
            "detect_p90_ms": quantile_ms(detect, 0.9),
        }


# -- trace-leak ----------------------------------------------------------------


class TraceLeak:
    """One client traces leaked copies against 100 issued records."""

    name = "trace-leak"
    kinds = ("trace",)
    main_kind = "trace"
    COPIES = 100
    BASE_DOCS = 10
    BOOKS = 20
    LEAKS = 32
    # Every carrier group is marked: with one in two, 20-book copies
    # altered by 10% left about one leaker in a hundred unaccused.
    GAMMA = 1

    def setup(self, ctx):
        from repro.service.client import WmXMLClient

        rng = random.Random(ctx.seed)
        base = _bibliographies(rng, self.BASE_DOCS, self.BOOKS, self.BOOKS)
        directory = ctx.fresh_dir()
        scheme_path = _scheme_file(directory, self.GAMMA)
        database = os.path.join(directory, "registry.db")
        daemon = Daemon(ctx, directory, [
            "serve", "--scheme", f"books={scheme_path}",
            "--key", f"perfbench-key-{ctx.seed}", "--port", "0",
            "--registry", database])
        try:
            client = WmXMLClient(daemon.url, scheme="books")
            issued = [client.issue(base[index % self.BASE_DOCS],
                                   f"r{index:03d}").xml
                      for index in range(self.COPIES)]
            leakers = [rng.randrange(self.COPIES) for _ in range(self.LEAKS)]
            leaks = [(f"r{leaker:03d}",
                      _altered(issued[leaker], rng.randrange(2 ** 31)))
                     for leaker in leakers]
            env = {"daemon": daemon, "client": client, "leaks": leaks,
                   "database": database, "seed": ctx.seed}
            warm = random.Random(ctx.seed + 1)
            for _ in range(2):
                self._step(env, warm, None)
        except BaseException:
            daemon.stop()
            raise
        return env

    def _step(self, env, rng, recorder):
        from repro.errors import WmXMLError

        leaker, xml = env["leaks"][rng.randrange(self.LEAKS)]
        span = _op(recorder)
        start = time.perf_counter()
        try:
            ok = env["client"].trace(xml).prime_suspect == leaker
        except WmXMLError:
            ok = False
        seconds = time.perf_counter() - start
        if span is not None:
            recorder.end(span)
        return "trace", seconds, 1, ok

    def run(self, env, seconds, recorder=None, min_samples=MIN_SAMPLES):
        rng = random.Random(env["seed"] * 1000 + 7)
        phase = Phase(samples={kind: [] for kind in self.kinds},
                      start=time.perf_counter())
        _timed_loop(phase, phase.start + seconds,
                    lambda: self._step(env, rng, recorder),
                    _enough(phase, min_samples))
        phase.elapsed = time.perf_counter() - phase.start
        phase.peak_rss_mb = env["daemon"].peak_rss_mb()
        return phase

    def check(self, env):
        failures = []
        if not env["client"].verify_ledger().get("intact"):
            failures.append("ledger does not verify")
        total = env["client"].records(limit=1)["total"]
        if total != self.COPIES:
            failures.append(f"registry holds {total} records, "
                            f"{self.COPIES} issued")
        return 2, failures

    def close(self, env):
        clean = env["daemon"].stop()
        database = env["database"]
        return {"clean_exit": clean,
                "registry_bytes": _file_bytes(database, database + "-wal"),
                "registry_docs": self.COPIES}

    def detail(self, phase):
        return {"trace_p90_ms": quantile_ms(phase.latencies("trace"), 0.9)}


# -- batch-pool ----------------------------------------------------------------


class BatchPool:
    """An in-process system marks and checks batches on a 2-worker pool."""

    name = "batch-pool"
    kinds = ("embed", "detect")
    main_kind = "embed"
    BATCH = 24
    BATCHES = 2
    BOOKS = (150, 250)
    PROCESSES = 2
    GAMMA = 2
    MESSAGE = "(c) perfbench"

    def setup(self, ctx):
        from repro.api import WmXMLSystem
        from repro.core.scheme import WatermarkingScheme
        from repro.registry import WatermarkRegistry

        rng = random.Random(ctx.seed)
        batches = [_bibliographies(rng, self.BATCH, *self.BOOKS)
                   for _ in range(self.BATCHES)]
        directory = ctx.fresh_dir()
        database = os.path.join(directory, "registry.db")
        registry = WatermarkRegistry.open(database)
        system = WmXMLSystem(f"perfbench-key-{ctx.seed}", registry=registry)
        system.register("books", WatermarkingScheme.load(
            _scheme_file(directory, self.GAMMA)))
        env = {"system": system, "registry": registry, "batches": batches,
               "database": database, "seed": ctx.seed, "position": 0}
        # Warm-up forks the pool workers and compiles the pipeline in
        # each of them.
        self._step(env, None)
        self._step(env, None)
        return env

    def _step(self, env, recorder):
        """Embed the next batch, or detect over the batch just marked."""
        system = env["system"]
        if "marked" not in env:
            batch = env["batches"][env["position"] % self.BATCHES]
            env["position"] += 1
            span = _op(recorder, len(batch))
            start = time.perf_counter()
            results = system.embed_many("books", batch, self.MESSAGE,
                                        processes=self.PROCESSES,
                                        output="xml")
            seconds = time.perf_counter() - start
            if span is not None:
                recorder.end(span)
            env["marked"] = results
            return "embed", seconds, len(batch), len(results) == len(batch)
        marked = env.pop("marked")
        items = [(result.xml, result.record) for result in marked]
        span = _op(recorder, len(items))
        start = time.perf_counter()
        verdicts = system.detect_many("books", items, expected=self.MESSAGE,
                                      processes=self.PROCESSES)
        seconds = time.perf_counter() - start
        if span is not None:
            recorder.end(span)
        return "detect", seconds, len(items), all(
            verdict.detected for verdict in verdicts)

    def run(self, env, seconds, recorder=None, min_samples=MIN_SAMPLES):
        phase = Phase(samples={kind: [] for kind in self.kinds},
                      start=time.perf_counter())
        _timed_loop(phase, phase.start + seconds,
                    lambda: self._step(env, recorder),
                    _enough(phase, min_samples))
        if "marked" in env:  # end on a detect, so every batch is checked
            phase.record(*self._step(env, recorder))
        phase.elapsed = time.perf_counter() - phase.start
        # The caller's peak plus each pool worker's.
        phase.peak_rss_mb = peak_rss_mb(os.getpid()) + sum(
            peak_rss_mb(worker.pid)
            for worker in multiprocessing.active_children())
        return phase

    def check(self, env):
        system = env["system"]
        batch = env["batches"][0]
        failures = []
        pooled = system.embed_many("books", batch, self.MESSAGE,
                                   processes=self.PROCESSES, output="xml")
        serial = system.embed_many("books", batch, self.MESSAGE,
                                   output="xml")
        for index, (one, other) in enumerate(zip(pooled, serial)):
            if one.xml != other.xml or \
                    one.record.to_dict() != other.record.to_dict():
                failures.append(f"document {index}: pooled embed differs "
                                "from serial")
        verdicts = system.detect_many(
            "books", [(result.xml, result.record) for result in pooled],
            expected=self.MESSAGE, processes=self.PROCESSES)
        failures += [f"document {index}: not detected"
                     for index, verdict in enumerate(verdicts)
                     if not verdict.detected]
        if not env["registry"].verify_chain().intact:
            failures.append("ledger does not verify")
        return len(batch) * 2 + 1, failures

    def close(self, env):
        from repro import parallel

        workers = multiprocessing.active_children()
        parallel.discard_pool(self.PROCESSES)
        for worker in workers:
            worker.join(timeout=30)
        registry = env["registry"]
        recorded = registry.count()
        registry.close()
        database = env["database"]
        return {"clean_exit": True,
                "registry_bytes": _file_bytes(database, database + "-wal"),
                "registry_docs": recorded}

    def detail(self, phase):
        def docs_per_s(kind):
            samples = phase.samples[kind]
            return (sum(docs for _, docs in samples)
                    / sum(seconds for seconds, _ in samples),
                    "1/s", phase.count(kind))

        return {"embed_docs_per_s": docs_per_s("embed"),
                "detect_docs_per_s": docs_per_s("detect")}


WORKLOADS = {workload.name: workload
             for workload in (ServeIssue, TraceLeak, BatchPool)}
