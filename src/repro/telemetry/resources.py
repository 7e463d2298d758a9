"""Best-effort per-worker resource sampling: RSS and CPU gauges.

A :class:`ResourceSampler` is a daemon thread that periodically emits two
gauges for the process it runs in — ``worker.rss_bytes`` (resident set, read
from ``/proc/self/statm`` where available, falling back to
``resource.getrusage``) and ``worker.cpu_seconds`` (user+system CPU time,
monotone) — labelled with the worker id it was started for (helper threads
do not inherit :func:`~repro.telemetry.worker_scope`, so the label rides
explicitly on every sample).

Everything is stdlib and everything is best-effort, like the rest of the
telemetry stack: a sampler started with telemetry disabled emits nothing, a
read that fails is skipped, and :meth:`stop` joins the thread so a worker
exit leaves no sampling behind.  Science bytes are untouched — samples ride
the out-of-band metric stream only.
"""

from __future__ import annotations

import os
import resource
import sys
import threading
from typing import Optional

from repro.telemetry import api as _api
from repro.telemetry import metrics

__all__ = ["DEFAULT_SAMPLE_SECONDS", "ResourceSampler", "start_resource_sampler"]

#: Default sampling period; coarse on purpose — resource curves matter at the
#: cycle/run scale, not per-millisecond, and the sampler must stay invisible.
DEFAULT_SAMPLE_SECONDS = 0.25

#: ``ru_maxrss`` is bytes on macOS, kilobytes on Linux.
_RU_MAXRSS_SCALE = 1 if sys.platform == "darwin" else 1024


def _rss_bytes() -> Optional[float]:
    """Resident set size of this process, or ``None`` when unreadable."""
    try:
        # Bytes, not text: a text read would import a codec mid-run.
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return float(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        pass
    try:
        # Peak RSS, not current — still a useful memory ceiling when /proc
        # is absent (non-Linux hosts).
        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * (
            _RU_MAXRSS_SCALE
        )
    except (OSError, ValueError):
        return None


def _cpu_seconds() -> Optional[float]:
    """User + system CPU seconds consumed by this process so far."""
    try:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return float(usage.ru_utime + usage.ru_stime)
    except (OSError, ValueError):
        return None


class ResourceSampler:
    """Daemon thread emitting RSS/CPU gauges for one worker label."""

    def __init__(
        self, worker: str, interval_seconds: float = DEFAULT_SAMPLE_SECONDS
    ) -> None:
        self._worker = worker
        self._interval = max(0.01, float(interval_seconds))
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def worker(self) -> str:
        return self._worker

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def sample_once(self) -> None:
        """Emit one RSS and one CPU gauge (skipping unreadable sources)."""
        rss = _rss_bytes()
        if rss is not None:
            metrics.gauge("worker.rss_bytes", rss, worker=self._worker)
        cpu = _cpu_seconds()
        if cpu is not None:
            metrics.gauge("worker.cpu_seconds", cpu, worker=self._worker)

    def start(self) -> "ResourceSampler":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._loop, name=f"resource-sampler-{self._worker}", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        # One sample immediately, so even a worker that drains in less than
        # one interval leaves a resource footprint in the stream.
        self.sample_once()
        while not self._stop.wait(self._interval):
            self.sample_once()

    def stop(self) -> None:
        """Stop sampling and join the thread (final sample included)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.sample_once()


def start_resource_sampler(
    worker: str, interval_seconds: float = DEFAULT_SAMPLE_SECONDS
) -> Optional[ResourceSampler]:
    """Start a sampler for ``worker`` — or return ``None`` when untraced.

    The guard keeps the disabled path truly free: no thread is spawned
    unless a telemetry writer is active in this process.
    """
    if _api.active_writer() is None:
        return None
    return ResourceSampler(worker, interval_seconds).start()
