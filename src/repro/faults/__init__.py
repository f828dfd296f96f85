"""repro.faults — deterministic, seedable fault injection.

The WmXML stack sits beside an XML database, and the north star
("heavy traffic from millions of users") makes partial failure the
normal case: workers die mid-chunk, SQLite writes tear under a power
cut, a daemon is SIGTERM'd with requests in flight.  This package puts
**named fault points** at exactly those seams so every failure mode is
a repeatable experiment instead of a production surprise::

    from repro import faults

    with faults.injected("registry.sqlite.commit", "raise",
                         error="sqlite"):
        system.embed(...)          # the append fails like a disk would

Host modules register their seams at import time
(:func:`register_fault_point`) and call :func:`fault_point` inline.
Disarmed — the only state production ever runs in — the hook is a
single falsy dict check, so the hot paths pay nothing.

Arming
------

* programmatically: :func:`arm` / :func:`disarm` / :func:`injected`
* from the environment: ``WMXML_FAULTS="point=mode[:k=v...][,...]"``
  parsed at import, which is how ``benchmarks/chaos_smoke.py`` (one
  leg of CI's ``smoke`` job) arms a real ``wmxml serve`` subprocess,
  e.g.::

      WMXML_FAULTS="pool.chunk=exit:times=1" wmxml serve ...

Modes
-----

``raise``
    Raise an error at the seam.  ``error`` picks what: ``"fault"``
    (:class:`FaultInjectedError`, the default), ``"os"`` (an
    :class:`OSError`), ``"sqlite"`` (``sqlite3.OperationalError`` —
    what a torn disk actually raises inside the registry), or any
    exception instance/class you pass programmatically.
``delay``
    Sleep ``ms`` milliseconds, then continue (slow-disk / slow-request
    simulation; what the drain-on-SIGTERM tests use).
``corrupt``
    Pass the seam's value through a corruptor (default: flip the last
    character/byte/bit) and continue — e.g. a ledger seal that no
    longer verifies.
``exit``
    ``os._exit(1)`` — the kill -9 simulation.  Scoped to worker
    processes by default (``scope="worker"``): a fault armed in the
    parent fires only in processes forked *after* arming, so the
    parent's own serial fallback path survives the sweep.

Determinism
-----------

Every spec is deterministic by construction: ``times=N`` fires the
first N hits then disarms, ``after=K`` skips the first K hits, and a
probabilistic ``p`` draws from ``random.Random(seed)`` — same seed,
same firing pattern.  Counters are per-process (workers inherit the
armed state and the counter at fork), so a sweep's behaviour is a pure
function of the spec.
"""

from __future__ import annotations

import os
import random
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.errors import WmXMLError

__all__ = [
    "FaultInjectedError",
    "FaultSpec",
    "arm",
    "arm_from_env",
    "armed",
    "disarm",
    "fault_point",
    "fault_points",
    "injected",
    "register_fault_point",
]

#: Environment variable ``benchmarks/chaos_smoke.py`` arms daemons through.
FAULTS_ENV = "WMXML_FAULTS"

#: Accepted ``mode`` values of a :class:`FaultSpec`.
MODES = ("raise", "delay", "corrupt", "exit")


class FaultInjectedError(WmXMLError):
    """The default error a ``raise``-mode fault point raises."""

    code = "fault-injected"


#: Named error kinds an env-armed ``raise`` fault can pick from —
#: the exceptions the hardened seams actually defend against.
ERROR_KINDS: dict[str, Callable[[str], BaseException]] = {
    "fault": lambda point: FaultInjectedError(
        f"injected fault at {point}"),
    "os": lambda point: OSError(f"injected I/O fault at {point}"),
    "sqlite": lambda point: sqlite3.OperationalError(
        f"injected disk I/O error at {point}"),
}


def _flip(value):
    """Default corruptor: deterministically damage one trailing unit."""
    if isinstance(value, str) and value:
        return value[:-1] + ("0" if value[-1] != "0" else "1")
    if isinstance(value, (bytes, bytearray)) and value:
        return value[:-1] + bytes([value[-1] ^ 1])
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ 1
    return value


@dataclass
class FaultSpec:
    """One armed fault: what happens when its point is hit."""

    point: str
    mode: str = "raise"
    #: ``raise``: an :data:`ERROR_KINDS` name, or an exception
    #: instance/class supplied programmatically.
    error: Union[str, BaseException, type, None] = None
    #: ``delay``: how long to stall the seam.
    ms: float = 50.0
    #: ``corrupt``: value transformer (defaults to :func:`_flip`).
    corrupt: Optional[Callable] = None
    #: Fire at most this many times, then the spec disarms itself.
    times: Optional[int] = None
    #: Skip the first ``after`` hits before firing.
    after: int = 0
    #: Fire with probability ``p`` per hit (1.0 = always), drawn from
    #: ``random.Random(seed)`` so runs replay identically.
    p: float = 1.0
    seed: int = 0
    #: ``"all"`` fires everywhere; ``"worker"`` only in processes
    #: forked after arming (never the arming process itself).
    scope: str = "all"
    _hits: int = field(default=0, repr=False)
    _fired: int = field(default=0, repr=False)
    _rng: Optional[random.Random] = field(default=None, repr=False)
    _owner_pid: int = field(default_factory=os.getpid, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; choices: {MODES}")
        if self.scope not in ("all", "worker"):
            raise ValueError(
                f"unknown fault scope {self.scope!r}; choices: "
                "('all', 'worker')")
        if self.p < 1.0:
            self._rng = random.Random(self.seed)

    def should_fire(self) -> bool:
        """Advance the deterministic counters and decide."""
        if self.scope == "worker" and os.getpid() == self._owner_pid:
            return False
        self._hits += 1
        if self._hits <= self.after:
            return False
        if self.times is not None and self._fired >= self.times:
            return False
        if self._rng is not None and self._rng.random() >= self.p:
            return False
        self._fired += 1
        return True

    def build_error(self) -> BaseException:
        error = self.error
        if error is None:
            error = "fault"
        if isinstance(error, str):
            try:
                return ERROR_KINDS[error](self.point)
            except KeyError:
                raise ValueError(
                    f"unknown fault error kind {error!r}; choices: "
                    f"{sorted(ERROR_KINDS)}") from None
        if isinstance(error, type) and issubclass(error, BaseException):
            return error(f"injected fault at {self.point}")
        return error


#: Registered seams: name -> one-line description.  Populated by host
#: modules at import; :func:`fault_points` is the introspection surface
#: (``wmxml faults``) and the chaos sweep's work list.
_POINTS: dict[str, str] = {}

#: Armed specs.  The emptiness of this dict is the disarmed fast path.
_ARMED: dict[str, FaultSpec] = {}
_LOCK = threading.Lock()


def register_fault_point(name: str, description: str) -> str:
    """Declare a seam (idempotent; host modules call this at import)."""
    _POINTS[name] = description
    return name


def fault_points() -> dict[str, str]:
    """Every registered seam: ``{name: description}``, sorted."""
    return dict(sorted(_POINTS.items()))


def armed() -> dict[str, FaultSpec]:
    """The currently armed specs (a snapshot)."""
    with _LOCK:
        return dict(_ARMED)


def arm(point: str, mode: str = "raise", **options) -> FaultSpec:
    """Arm ``point`` with a :class:`FaultSpec` built from ``options``.

    Unregistered names are refused — a typo must fail the experiment,
    not silently test nothing.
    """
    if point not in _POINTS:
        raise ValueError(
            f"unknown fault point {point!r}; registered: "
            f"{sorted(_POINTS)}")
    spec = FaultSpec(point=point, mode=mode, **options)
    with _LOCK:
        _ARMED[point] = spec
    return spec


def disarm(point: Optional[str] = None) -> None:
    """Disarm one point, or every point when ``point`` is None."""
    with _LOCK:
        if point is None:
            _ARMED.clear()
        else:
            _ARMED.pop(point, None)


@contextmanager
def injected(point: str, mode: str = "raise", **options):
    """Arm for the scope of a ``with`` block, then disarm."""
    spec = arm(point, mode, **options)
    try:
        yield spec
    finally:
        with _LOCK:
            if _ARMED.get(point) is spec:
                del _ARMED[point]


def fault_point(name: str, value=None):
    """The inline hook host code places at a seam.

    Returns ``value`` (possibly corrupted) — seams that guard a value
    write ``value = fault_point("x", value=value)``; seams that guard
    control flow just call ``fault_point("x")``.  Disarmed, this is a
    single dict check.
    """
    if not _ARMED:
        return value
    spec = _ARMED.get(name)
    if spec is None or not spec.should_fire():
        return value
    if spec.mode == "delay":
        time.sleep(spec.ms / 1000.0)
        return value
    if spec.mode == "corrupt":
        return (spec.corrupt or _flip)(value)
    if spec.mode == "exit":
        os._exit(1)
    raise spec.build_error()


def _parse_options(parts: list[str]) -> dict:
    options: dict = {}
    for part in parts:
        key, eq, raw = part.partition("=")
        if not eq:
            raise ValueError(
                f"malformed fault option {part!r} (expected key=value)")
        if key in ("times", "after", "seed"):
            options[key] = int(raw)
        elif key in ("ms", "p"):
            options[key] = float(raw)
        elif key in ("error", "scope"):
            options[key] = raw
        else:
            raise ValueError(f"unknown fault option {key!r}")
    return options


def arm_from_env(value: Optional[str] = None) -> list[FaultSpec]:
    """Arm every spec named by ``WMXML_FAULTS`` (or ``value``).

    Grammar: ``point=mode[:key=val...]``, comma-separated, e.g.
    ``"pool.chunk=exit:times=1,service.dispatch=delay:ms=100"``.
    Called once at import, so a daemon subprocess started with the
    variable set comes up armed; re-callable from tests.
    """
    raw = os.environ.get(FAULTS_ENV) if value is None else value
    specs: list[FaultSpec] = []
    if not raw:
        return specs
    for clause in raw.split(","):
        clause = clause.strip()
        if not clause:
            continue
        point, eq, rest = clause.partition("=")
        if not eq:
            raise ValueError(
                f"malformed {FAULTS_ENV} clause {clause!r} "
                "(expected point=mode[:key=val...])")
        mode, *parts = rest.split(":")
        specs.append(arm(point.strip(), mode.strip(),
                         **_parse_options(parts)))
    return specs


# -- the registered seams ------------------------------------------------------------
#
# Declared here (not in the host modules) so importing repro.faults
# alone is enough to arm from the environment before any host module
# loads — the order a daemon subprocess actually experiences.

register_fault_point(
    "service.dispatch",
    "inside WmXMLService.dispatch, before routing — a request-handling "
    "crash; must become an error envelope, never a dropped connection")
register_fault_point(
    "service.response",
    "after routing, before the response is returned — a late failure "
    "with the work already done")
register_fault_point(
    "pool.chunk",
    "inside a process-pool chunk task — a dying/raising worker; the "
    "batch must recover per-chunk, not wholesale")
register_fault_point(
    "registry.sqlite.commit",
    "inside the SQLite append transaction, before commit — a torn "
    "write; the record/block pair must roll back together")
register_fault_point(
    "registry.sqlite.read",
    "on the SQLite query path — storage gone read-dark; the service "
    "must degrade (503 + Retry-After), not crash")
register_fault_point(
    "registry.append.torn",
    "between the record insert and the block insert — the legacy torn "
    "append; atomicity must leave no orphan row")
register_fault_point(
    "ledger.seal",
    "the HMAC seal of a freshly built ledger block — silent seal "
    "corruption; verify_chain must detect it and recovery quarantine it")

arm_from_env()
