"""Small measurement helpers shared by the benchmark's workloads.

Everything here reads the outside of a process (``/proc``) or summarises
samples; nothing imports the program under test.

The shared hosts this benchmark runs on switch between a fast state and
states 1.3-2x slower, in phases from seconds to minutes: the median of a
run follows whichever state the run mostly saw.  End-to-end timings are
therefore taken from the fastest ``FAST_SHARE`` of a run's samples (calls
offline, windows of a few seconds online), which track the program's
speed in the fastest state the run saw.  A change that slows the program
slows those samples as much as any other.
"""

from __future__ import annotations

import math
import os
import statistics
import time

#: Every timing in the benchmark uses this clock.  On Linux it is
#: CLOCK_MONOTONIC, which is system-wide, so spans recorded in the server
#: process and in the load generator share one timeline.
now = time.perf_counter


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0-100); 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


#: Share of a run's samples the end-to-end timings are taken from.
FAST_SHARE = 0.2


def fastest(samples: list[float], share: float = FAST_SHARE) -> list[float]:
    """The smallest ``share`` of ``samples`` (at least one), ascending."""
    ordered = sorted(samples)
    return ordered[: max(1, math.ceil(share * len(ordered)))]


def fast_windows(
    samples: list[tuple[float, float]],
    begin: float,
    end: float,
    window_s: float,
    share: float = FAST_SHARE,
) -> tuple[list[float], float]:
    """Latencies of the samples in a run's fastest windows, and their length.

    ``samples`` are ``(start, latency)`` pairs of a closed loop.
    ``[begin, end)`` is cut into whole windows of ``window_s``; the more
    samples started in a window, the faster it is.  Returns the latencies
    of the fastest ``share`` of windows and the seconds those windows cover.
    """
    count = int((end - begin) / window_s)
    if count == 0:  # a run shorter than a window is one window
        count, window_s = 1, end - begin
    windows: list[list[float]] = [[] for _ in range(count)]
    for start, latency in samples:
        index = int((start - begin) / window_s)
        if 0 <= index < count:
            windows[index].append(latency)
    chosen = sorted(windows, key=len, reverse=True)[: max(1, math.ceil(share * count))]
    return [latency for window in chosen for latency in window], window_s * len(chosen)


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def mean(samples: list[float]) -> float:
    return statistics.fmean(samples) if samples else 0.0


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time a live process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of proc(5) (utime, stime), counted after the comm field.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
