"""Sample statistics and host provenance for one benchmark run.

Everything here is independent of the library under test, so the helper
tests can pin it down exactly.
"""

from __future__ import annotations

import math
import os
import resource
import statistics

__all__ = [
    "MIN_BEYOND",
    "InsufficientSamples",
    "cpu_times",
    "load_average",
    "peak_rss_mb",
    "percentile",
    "steal_fraction",
]

#: A percentile is reported only with at least this many samples above
#: it, so that p90 needs >= 100 samples in the run.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` sorted samples lie above the ``pct``-th
    percentile (nearest-rank definition)."""
    return count - math.ceil(pct / 100.0 * count)


def percentile(samples, pct: float) -> float:
    """Nearest-rank ``pct``-th percentile of ``samples``.

    The median (``pct == 50``) is always reported; any higher percentile
    raises :class:`InsufficientSamples` unless at least
    :data:`MIN_BEYOND` samples lie beyond it.
    """
    values = sorted(samples)
    if not values:
        raise InsufficientSamples("no samples")
    if pct == 50:
        return statistics.median(values)
    beyond = samples_beyond(len(values), pct)
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{pct:g} of {len(values)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return values[math.ceil(pct / 100.0 * len(values)) - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_average() -> "list[float] | None":
    try:
        return [round(v, 2) for v in os.getloadavg()]
    except OSError:
        return None


def cpu_times() -> "list[int] | None":
    """Aggregate ``cpu`` jiffies from ``/proc/stat`` (``None`` off Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            first = fh.readline().split()
    except OSError:
        return None
    if not first or first[0] != "cpu":
        return None
    return [int(v) for v in first[1:]]


def steal_fraction(before, after) -> "float | None":
    """Share of CPU time stolen by the hypervisor between two
    :func:`cpu_times` readings (field 8 of the ``cpu`` line; the guest
    fields after it are already counted in user time)."""
    if before is None or after is None or len(before) < 8 or len(after) < 8:
        return None
    total = sum(after[:8]) - sum(before[:8])
    if total <= 0:
        return 0.0
    return (after[7] - before[7]) / total
