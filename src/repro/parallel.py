"""Shared process-pool infrastructure for batch sharding.

The facade's batch APIs, ``Pipeline.embed_many``/``detect_many``,
escape the GIL by sharding their per-document step over a worker pool
from this module; :func:`map_recovering` maps only their two chunk
tasks.  Pools are *persistent*: the first batch with ``processes=N``
forks the workers, subsequent batches reuse them, so the
fork/bootstrap cost is paid once per process count instead of once per
call.  That matters for the service workload the facade targets:
a 50-document batch embeds in tens of milliseconds, which a
per-call pool would spend entirely on process startup.

Worker-side state (per-worker compiled pipelines, warm PRF memos) is
keyed by content fingerprints in the task payloads, so one pool serves
any number of deployments concurrently — see
:mod:`repro.api.pipeline`.

Each worker's initializer freezes the heap it was forked with (moves
it into the collector's permanent generation), so its collections walk
only the objects it built itself, not the modules it inherited, and
marks the process a worker (:func:`in_worker`), so worker-side caches
fill only in workers.

Failure handling is :func:`map_recovering`'s alone: a pool whose
workers died (``BrokenProcessPool``) is discarded so the next request
forks a fresh one, each chunk lost with it is retried once there, and a
chunk that raised runs once in this process — parallelism is a
throughput optimisation, never a correctness dependency.
"""

from __future__ import annotations

import atexit
import gc
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = [
    "BrokenProcessPool",
    "CHUNKS_PER_WORKER",
    "chunk_evenly",
    "discard_pool",
    "in_worker",
    "map_recovering",
    "shared_pool",
    "shutdown_pools",
]

T = TypeVar("T")

#: Chunks dispatched per worker by the sharded batch APIs: enough
#: slack to balance uneven items without flooding the task queue with
#: per-chunk payloads.
CHUNKS_PER_WORKER = 4

#: Live executors, keyed by worker count.  Guarded by a lock: the
#: service daemon's request threads call the batch APIs concurrently,
#: and a check-then-create race would orphan a whole executor's worker
#: processes.
_POOLS: dict[int, ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()

#: Set by a pool worker's initializer; false in every other process.
_IN_WORKER = False


def _start_worker() -> None:
    """A pool worker's initializer: mark the process, freeze its heap."""
    global _IN_WORKER
    _IN_WORKER = True
    gc.freeze()


def in_worker() -> bool:
    """True inside a pool worker; false in the process that maps, where
    :func:`map_recovering` may run a chunk too."""
    return _IN_WORKER


def shared_pool(processes: int) -> ProcessPoolExecutor:
    """The persistent executor with ``processes`` workers (lazily forked).

    Workers are started on demand by the executor itself, so asking for
    a pool is cheap until work is actually submitted.  Each worker
    starts by freezing what it inherited.
    """
    if processes < 1:
        raise ValueError("processes must be >= 1")
    with _POOLS_LOCK:
        pool = _POOLS.get(processes)
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=processes,
                                       initializer=_start_worker)
            _POOLS[processes] = pool
        return pool


def discard_pool(processes: int) -> None:
    """Drop (and shut down) the pool for ``processes`` workers.

    Called after a :class:`BrokenProcessPool` so the next batch forks a
    healthy pool instead of failing forever on the dead one.
    """
    with _POOLS_LOCK:
        pool = _POOLS.pop(processes, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every persistent pool (atexit; also handy in tests)."""
    while True:
        with _POOLS_LOCK:
            if not _POOLS:
                return
            _, pool = _POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


def chunk_evenly(items: Sequence[T], chunks: int) -> list[Sequence[T]]:
    """Split ``items`` into at most ``chunks`` contiguous, even slices.

    Contiguity preserves input order under ``pool.map`` + flatten; even
    sizing (the first ``remainder`` chunks get one extra item) keeps the
    worker load balanced without a scheduler.
    """
    count = len(items)
    chunks = max(1, min(chunks, count))
    size, remainder = divmod(count, chunks)
    out: list[Sequence[T]] = []
    start = 0
    for index in range(chunks):
        end = start + size + (1 if index < remainder else 0)
        out.append(items[start:end])
        start = end
    return out


def map_recovering(processes: int, func: Callable, tasks: Iterable) -> list:
    """``func`` over pre-chunked ``tasks`` on the shared pool, in order;
    a failure costs one *chunk*, not the batch.

    A worker death (``BrokenProcessPool``) fails every in-flight
    future, but only the chunk that killed the worker is actually
    poisoned — so each chunk lost to a broken pool is retried once on a
    fresh pool, and one lost again runs ``func`` serially in this
    process.  A chunk whose future raised anything else (an error raised
    in the worker, a task that could not be pickled) runs once in this
    process, with no pool retry.  Chunks that completed keep their
    results.

    A chunk whose serial run *also* raises propagates normally, exactly
    as a serial batch would raise it: the recovery ladder absorbs
    infrastructure failures, never correctness errors.
    """
    tasks = list(tasks)
    results: list = [None] * len(tasks)
    pending = set(range(len(tasks)))
    raised: set[int] = set()
    for _attempt in range(2):
        if not pending:
            break
        pool = shared_pool(processes)
        try:
            futures = {index: pool.submit(func, tasks[index])
                       for index in sorted(pending)}
        except RuntimeError:
            # The pool was shut down under us (interpreter teardown,
            # concurrent discard): skip straight to the serial ladder.
            discard_pool(processes)
            break
        broken = False
        for index, future in futures.items():
            try:
                results[index] = future.result()
                pending.discard(index)
            except BrokenProcessPool:
                broken = True
            except Exception:
                # The pool survived: a fresh one would fail the same
                # way, so the chunk goes straight to the serial run.
                pending.discard(index)
                raised.add(index)
        if broken:
            discard_pool(processes)
    for index in sorted(pending | raised):
        results[index] = func(tasks[index])
    return results
