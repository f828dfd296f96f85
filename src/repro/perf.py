"""Stage timing for the WmXML pipeline: one timer, one ``@profiled`` seam.

A :class:`StageTimer` accumulates wall-clock time per named stage.
Stages may repeat (every call adds to the stage's total and count) and
may nest (each stage records its own wall time; "shred" inside "embed"
simply shows up as both).  ``embed``/``detect --profile-stages`` print
one, and the service keeps its per-endpoint latency for ``/v1/stats``
in another.

Library internals cannot take a timer argument without polluting every
signature, so ``use_timer(timer)`` activates one for a ``with`` block
and any ``@profiled`` function that runs inside records into it.  The
active timer lives in a :class:`contextvars.ContextVar`: each thread
records only into the timer it activated itself, so a daemon's request
threads never see each other's stages.  With no timer active the
decorator costs one context-variable lookup — cheap enough to leave on
hot paths.

Regression measurement lives in the repository's ``perfbench/``
benchmark.  This module imports nothing else from ``repro``, because
core modules below every other layer use ``@profiled``.
"""

from __future__ import annotations

import contextvars
import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, TypeVar

F = TypeVar("F", bound=Callable)


@dataclass
class StageStats:
    """Accumulated timing for one named stage."""

    name: str
    total_seconds: float = 0.0
    calls: int = 0

    @property
    def total_ms(self) -> float:
        return self.total_seconds * 1000.0

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.calls if self.calls else 0.0

    def add(self, seconds: float) -> None:
        self.total_seconds += seconds
        self.calls += 1


class StageTimer:
    """Accumulates wall-clock durations per named pipeline stage."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stages: dict[str, StageStats] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time the enclosed block under ``name``."""
        start = self._clock()
        try:
            yield
        finally:
            self.record(name, self._clock() - start)

    def record(self, name: str, seconds: float) -> None:
        """Add a measured duration to stage ``name``."""
        stats = self._stages.get(name)
        if stats is None:
            stats = self._stages[name] = StageStats(name)
        stats.add(seconds)

    @property
    def stages(self) -> dict[str, StageStats]:
        """name -> stats, in first-recorded order."""
        return dict(self._stages)

    def render(self, title: Optional[str] = None) -> str:
        """Human-readable stage table."""
        lines: list[str] = []
        if title:
            lines.append(title)
            lines.append("-" * len(title))
        width = max((len(name) for name in self._stages), default=5)
        lines.append(f"{'stage'.ljust(width)}  {'total-ms':>10}  "
                     f"{'calls':>6}  {'mean-ms':>10}")
        for stats in self._stages.values():
            lines.append(
                f"{stats.name.ljust(width)}  {stats.total_ms:>10.3f}  "
                f"{stats.calls:>6}  {stats.mean_ms:>10.3f}")
        return "\n".join(lines)


_ACTIVE: contextvars.ContextVar[Optional[StageTimer]] = \
    contextvars.ContextVar("repro.perf.timer", default=None)


@contextmanager
def use_timer(timer: StageTimer) -> Iterator[StageTimer]:
    """Activate ``timer`` for the enclosed block, in this context only."""
    token = _ACTIVE.set(timer)
    try:
        yield timer
    finally:
        _ACTIVE.reset(token)


def profiled(stage: Optional[str] = None) -> Callable[[F], F]:
    """Record the wrapped function's wall time under ``stage``.

    ``stage`` defaults to the function's qualified name.  Recording only
    happens while a timer is active (see :func:`use_timer`); otherwise
    the call passes straight through.
    """

    def decorate(func: F) -> F:
        name = stage or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            timer = _ACTIVE.get()
            if timer is None:
                return func(*args, **kwargs)
            with timer.stage(name):
                return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate
