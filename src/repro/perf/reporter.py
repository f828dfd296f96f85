"""Throughput reporting: timings + work counts -> rates.

The E9 experiment (and the paper's §3 performance discussion) talks in
throughput — elements marked per second, queries answered per second —
not raw milliseconds.  :class:`ThroughputReporter` owns that conversion
so the CLI and the experiment tables derive rates the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.perf.timers import StageTimer


@dataclass(frozen=True)
class ThroughputLine:
    """One measured stage with its work count."""

    stage: str
    count: int
    seconds: float
    unit: str = "items"

    @property
    def rate(self) -> float:
        """Work items per second (0 when the stage took no time)."""
        if self.seconds <= 0:
            return 0.0
        return self.count / self.seconds

    def render(self) -> str:
        return (f"{self.stage}: {self.count} {self.unit} in "
                f"{self.seconds * 1000:.1f} ms -> {self.rate:,.0f} "
                f"{self.unit}/s")


class ThroughputReporter:
    """Collects stage/count pairs and renders a throughput summary."""

    def __init__(self) -> None:
        self._lines: list[ThroughputLine] = []

    def add(self, stage: str, count: int, seconds: float,
            unit: str = "items") -> ThroughputLine:
        line = ThroughputLine(stage, count, seconds, unit)
        self._lines.append(line)
        return line

    def add_from_timer(self, timer: StageTimer, stage: str, count: int,
                       unit: str = "items") -> Optional[ThroughputLine]:
        """Add a line for ``stage`` using the timer's recorded total."""
        total_ms = timer.total_ms(stage)
        if not total_ms:
            return None
        return self.add(stage, count, total_ms / 1000.0, unit)

    @property
    def lines(self) -> list[ThroughputLine]:
        return list(self._lines)

    def render(self, title: str = "throughput") -> str:
        out = [title, "-" * len(title)]
        out.extend(line.render() for line in self._lines)
        return "\n".join(out)
