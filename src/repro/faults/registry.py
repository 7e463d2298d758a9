"""The failpoint registry: named injection sites at durability-critical seams.

A *failpoint* is one line at a seam that must survive real-world failure —
``faults.failpoint("store.append")`` — and it costs a dict lookup and a
``None`` check when no plan is active (the overwhelmingly common case; the
orchestrate benchmark pins the disabled overhead).  With an active
:class:`~repro.faults.plan.FaultPlan` the crossing may come back as a
:class:`~repro.faults.plan.FaultEvent`, which the seam applies with honest
semantics:

* ``io_error`` / ``enospc`` — :meth:`FaultEvent raise <raise_error>` before
  the seam touches disk (a transient filesystem refusal);
* ``slow_io`` — sleep the event's deterministic delay, then proceed;
* ``torn_write`` — the seam persists a *prefix* of its payload, then raises
  (a torn line / torn coordination file on a non-atomic filesystem);
* ``crash_after_write`` — the seam completes its write, then the process
  dies by SIGKILL (no cleanup, no release — the caller never learns);
* ``crash_before_rename`` — the process dies between staging the write and
  committing it (temp file written, ``os.replace`` never runs); at an
  append seam (a checkpoint save that appends its line) the write itself
  is the commit point, so the process dies before writing anything;
* ``clock_skew`` — lease timestamps are offset by the event's deterministic
  skew (only the ``lease.clock`` site draws it).

Activation is process-wide: :func:`activate` installs a plan in this process;
the :data:`~repro.faults.plan.FAULTS_ENV` environment variable installs one
lazily on first crossing, which is how injected *worker subprocesses* fault
— the chaos harness exports the plan, every durability seam in the child
sees it, and the harness's own process (which runs the clean serial
reference) stays fault-free.

Sites and their applicable kinds are registered in :data:`SITE_KINDS`; a
kind a site cannot express (there is no rename to crash before inside a
store append) is mapped to the nearest honest behaviour or never drawn.
"""

from __future__ import annotations

import errno
import os
import signal
import time
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from contextlib import contextmanager

from repro.faults.plan import FAULT_KINDS, FaultEvent, FaultPlan
from repro.telemetry import api as _telemetry
from repro.telemetry.writer import TelemetryWriter

__all__ = [
    "SITE_KINDS",
    "activate",
    "active_plan",
    "crash",
    "deactivate",
    "failpoint",
    "injected_plan",
    "raise_error",
]

#: Which fault kinds each registered failpoint site can express.  Sites not
#: listed accept every kind except ``clock_skew`` (which only the lease
#: clock consults).
SITE_KINDS: Dict[str, Tuple[str, ...]] = {
    "store.append": (
        "io_error", "enospc", "torn_write", "crash_after_write", "slow_io",
    ),
    "checkpoint.save": (
        "io_error", "enospc", "torn_write", "crash_after_write",
        "crash_before_rename", "slow_io",
    ),
    "queue.mark_done": (
        "io_error", "enospc", "torn_write", "crash_after_write",
        "crash_before_rename", "slow_io",
    ),
    "queue.mark_failed": (
        "io_error", "enospc", "torn_write", "crash_after_write",
        "crash_before_rename", "slow_io",
    ),
    "lease.refresh": (
        "io_error", "enospc", "torn_write", "crash_after_write",
        "crash_before_rename", "slow_io",
    ),
    "lease.try_claim": ("io_error", "torn_write", "crash_after_write", "slow_io"),
    "lease.try_steal": ("io_error", "slow_io"),
    "lease.clock": ("clock_skew",),
}

_DEFAULT_KINDS = tuple(kind for kind in FAULT_KINDS if kind != "clock_skew")

#: The active plan; ``_UNRESOLVED`` until the environment has been consulted.
_UNRESOLVED = object()
_plan = _UNRESOLVED


def active_plan() -> Optional[FaultPlan]:
    """The plan governing this process, resolving the environment once."""
    global _plan
    if _plan is _UNRESOLVED:
        _plan = FaultPlan.from_env()
    return _plan  # type: ignore[return-value]


def activate(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` in this process (``None`` disables injection)."""
    global _plan
    _plan = plan


def deactivate() -> None:
    """Disable injection in this process (the environment is *not* re-read)."""
    activate(None)


@contextmanager
def injected_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scope ``plan`` to a ``with`` block (tests), restoring the prior state."""
    global _plan
    previous = _plan
    _plan = plan
    try:
        yield plan
    finally:
        _plan = previous


def failpoint(site: str) -> Optional[FaultEvent]:
    """Cross the failpoint ``site``; the scheduled fault event, if any.

    The hot-path contract: with no active plan this is one global read and
    one comparison — cheap enough to sit on every store append and lease
    refresh unconditionally (no build flags, no monkeypatching).
    """
    plan = _plan
    if plan is None:
        return None
    if plan is _UNRESOLVED:
        plan = active_plan()
        if plan is None:
            return None
    event = plan.decide(site, SITE_KINDS.get(site, _DEFAULT_KINDS))
    if event is not None:
        _log_event(plan, event)
        if event.kind == "slow_io":
            time.sleep(event.delay)
            return None  # the stall is the whole fault; the seam proceeds
    return event


def raise_error(event: FaultEvent) -> None:
    """Raise the :class:`OSError` an ``io_error``/``enospc``/``torn_write``
    event stands for (named constructor so every seam reports identically)."""
    code = errno.ENOSPC if event.kind == "enospc" else errno.EIO
    raise OSError(
        code,
        f"injected {event.kind} at {event.site}#{event.index}",
    )


def crash(event: FaultEvent) -> None:
    """Die the way a preempted/OOM-killed worker dies: SIGKILL, no cleanup.

    Heartbeat threads, buffered writes and context managers all perish with
    the process — exactly the failure the lease/steal/heal machinery exists
    to absorb.
    """
    os.kill(os.getpid(), signal.SIGKILL)
    # Unreachable on POSIX; belt-and-braces for exotic platforms.
    os._exit(137)  # pragma: no cover


#: Fallback writers for processes without an active telemetry stream, keyed
#: by ``(log_dir, pid)`` — the pid guards against writers inherited across a
#: ``fork`` sharing a handle.
_fallback_writers: Dict[Tuple[str, int], TelemetryWriter] = {}


def _log_event(plan: FaultPlan, event: FaultEvent) -> None:
    """Best-effort observability of fired events, on the telemetry schema.

    Fired faults are ordinary telemetry: with a stream active in this
    process the event rides it (``name="fault"``, the
    :meth:`FaultEvent.as_dict` payload as attrs), so chaos reports and fleet
    timelines read one format.  Without one — a fault-injected process run
    outside an instrumented harness — the plan's ``log_dir`` gets a per-pid
    stream in the same schema.  Crash events are logged *before* the process
    dies, so a chaos report can count them; a logging failure never masks or
    alters the injection.
    """
    writer = _telemetry.active_writer()
    if writer is not None:
        _telemetry.event("fault", **event.as_dict())
        return
    if plan.log_dir is None:
        return
    key = (str(plan.log_dir), os.getpid())
    fallback = _fallback_writers.get(key)
    if fallback is None:
        fallback = TelemetryWriter(
            Path(plan.log_dir) / f"{os.getpid()}.jsonl",
            worker=f"pid-{os.getpid()}",
        )
        _fallback_writers[key] = fallback
    fallback.write_event("fault", event.as_dict())
