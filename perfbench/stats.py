"""Percentiles with a sample floor, host fingerprint, peak memory."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess

#: Samples needed beyond a reported percentile.
TAIL_SAMPLES = 10

#: Samples every timed kind of operation must reach in one run: p90
#: then has at least TAIL_SAMPLES beyond it.
MIN_SAMPLES = 100

#: Timed calls of every kind in one run: a median then has
#: TAIL_SAMPLES beyond it, also where one call carries many operations.
MIN_CALLS = 2 * TAIL_SAMPLES


class TooFewSamples(Exception):
    """A percentile was asked of too few samples to support it."""


def percentile(values, q):
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``values``.

    Refuses when fewer than :data:`TAIL_SAMPLES` samples lie beyond the
    quantile, so a p90 needs at least 100 samples.
    """
    count = len(values)
    if count * (1.0 - q) < TAIL_SAMPLES - 1e-9:
        raise TooFewSamples(
            f"p{round(q * 100)} needs {math.ceil(TAIL_SAMPLES / (1 - q))} "
            f"samples, got {count}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * count) - 1)]


def require_samples(counts):
    """Refuse a run in which some timed kind has too few samples.

    ``counts`` maps each kind of operation to its sample count.
    """
    short = {kind: count for kind, count in counts.items()
             if count < MIN_SAMPLES}
    if short:
        raise TooFewSamples(
            f"fewer than {MIN_SAMPLES} samples: "
            + ", ".join(f"{kind}={count}" for kind, count in short.items()))


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint():
    """What makes timings comparable: node, CPU model, cores, Python."""
    return {"node": platform.node(), "cpu_model": _cpu_model(),
            "cores": os.cpu_count(), "python": platform.python_version()}


def program_version(root):
    """The git commit of ``root``, or a hash of its ``src`` tree.

    The benchmark may run from an export that is not a git repository;
    the source hash still tells two program versions apart.
    """
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
        if commit:
            return commit
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def peak_rss_mb(pid):
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")
