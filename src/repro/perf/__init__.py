"""Performance instrumentation for the WmXML pipeline.

The ROADMAP north star is a system that "runs as fast as the hardware
allows"; this package is how that is *measured* rather than assumed:

* :mod:`repro.perf.timers` — :class:`StageTimer`, a nestable stage
  stopwatch the CLI's ``--profile`` flag and the ``wmxml perf``
  subcommand wrap around the embed/detect pipeline;
* :mod:`repro.perf.profiler` — the ``@profiled`` decorator and the
  active-timer stack that let library internals report stages without
  threading a timer argument everywhere;
* :mod:`repro.perf.reporter` — :class:`ThroughputReporter`, which turns
  raw stage timings plus work counts into elements/sec and queries/sec.

Regression measurement lives in the repository's ``perfbench/``
benchmark, which times the program end to end and layer by layer.  This
package stays importable from below the core layer, because core
modules use ``@profiled`` on their hot paths.
"""

from repro.perf.profiler import active_timer, profiled, use_timer
from repro.perf.reporter import ThroughputReporter
from repro.perf.timers import StageStats, StageTimer

__all__ = [
    "StageStats",
    "StageTimer",
    "ThroughputReporter",
    "active_timer",
    "profiled",
    "use_timer",
]
