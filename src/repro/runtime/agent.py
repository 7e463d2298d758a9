"""The agent: asynchronous placement and execution of tasks inside a pilot.

The agent is the component of the pilot runtime that lives "on the machine":
it pulls submitted tasks, places them onto free devices through a
:class:`~repro.hpc.scheduler.PlacementScheduler`, models the per-task
execution overheads RADICAL-Pilot reports (sandbox / launch-script creation,
i.e. "Exec setup" in Fig 5), runs the surrogate payload, and releases the
devices when the task completes.  Everything happens inside the platform's
discrete-event loop, so any number of tasks execute concurrently in simulated
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.exceptions import ConfigurationError
from repro.hpc.allocation import Allocation
from repro.hpc.platform import ComputePlatform
from repro.hpc.profiling import ResourceInterval
from repro.hpc.scheduler import QueuedRequest, make_scheduler
from repro.runtime.durations import DurationModel
from repro.runtime.states import TaskState
from repro.runtime.task import Task

__all__ = ["AgentConfig", "Agent"]

#: Event-loop priority used for completion events (fires before placements).
_PRIORITY_COMPLETE = 0
#: Event-loop priority used for placement attempts (fires after releases).
_PRIORITY_PLACE = 10


@dataclass(frozen=True)
class AgentConfig:
    """Agent tuning knobs.

    Attributes
    ----------
    scheduler_policy:
        ``"fifo"`` or ``"backfill"`` (see :mod:`repro.hpc.scheduler`).
    backfill_window:
        Lookahead depth when ``scheduler_policy == "backfill"``.
    sandbox_files:
        Number of files created per task sandbox; multiplied by the shared
        filesystem's metadata latency to obtain the "Exec setup" overhead.
    max_concurrent_tasks:
        Optional cap on simultaneously executing tasks (``None`` = bounded
        only by resources).  Used by the concurrency ablation benchmark.
    """

    scheduler_policy: str = "fifo"
    backfill_window: int = 16
    sandbox_files: int = 6
    max_concurrent_tasks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sandbox_files < 0:
            raise ConfigurationError("sandbox_files must be non-negative")
        if self.max_concurrent_tasks is not None and self.max_concurrent_tasks < 1:
            raise ConfigurationError("max_concurrent_tasks must be >= 1 or None")


class Agent:
    """Schedules and executes tasks on a :class:`ComputePlatform`."""

    def __init__(
        self,
        platform: ComputePlatform,
        durations: DurationModel,
        config: Optional[AgentConfig] = None,
    ) -> None:
        self._platform = platform
        self._durations = durations
        self._config = config or AgentConfig()
        kwargs = {}
        if self._config.scheduler_policy == "backfill":
            kwargs["window"] = self._config.backfill_window
        self._scheduler = make_scheduler(
            self._config.scheduler_policy, platform.allocator, **kwargs
        )
        self._tasks: Dict[str, Task] = {}
        self._running: Dict[str, Allocation] = {}
        self._completion_callbacks: List[Callable[[Task], None]] = []
        self._placement_scheduled = False

    # -- introspection ---------------------------------------------------- #

    @property
    def config(self) -> AgentConfig:
        return self._config

    @property
    def platform(self) -> ComputePlatform:
        return self._platform

    @property
    def running_count(self) -> int:
        """Number of tasks currently executing."""
        return len(self._running)

    @property
    def waiting_count(self) -> int:
        """Number of tasks waiting for placement."""
        return self._scheduler.queue_length

    def task(self, uid: str) -> Task:
        """Look up a submitted task by uid."""
        return self._tasks[uid]

    def tasks(self) -> List[Task]:
        """All tasks ever submitted to this agent."""
        return list(self._tasks.values())

    def on_completion(self, callback: Callable[[Task], None]) -> None:
        """Register a callback invoked whenever a task reaches a final state."""
        self._completion_callbacks.append(callback)

    # -- submission -------------------------------------------------------- #

    def submit(self, task: Task) -> None:
        """Accept a task for scheduling and (eventually) execution."""
        now = self._platform.now
        if task.state is TaskState.NEW:
            task.advance(TaskState.TMGR_SCHEDULING, now)
        task.advance(TaskState.AGENT_SCHEDULING, now)
        task.schedule_time = now
        if task.submit_time is None:
            task.submit_time = now
        self._tasks[task.uid] = task
        self._scheduler.submit(
            QueuedRequest(
                request_id=task.uid,
                request=task.description.request,
                enqueue_time=now,
            )
        )
        self._request_placement()

    def cancel(self, task: Task) -> bool:
        """Cancel a task that is still waiting for placement.

        Running tasks cannot be cancelled (the simulation has already
        committed their completion event); returns whether the cancellation
        took effect.
        """
        if task.uid in self._running or task.is_final:
            return False
        removed = self._scheduler.cancel(task.uid)
        if removed:
            task.advance(TaskState.CANCELED, self._platform.now)
            task.end_time = self._platform.now
            self._notify(task)
        return removed

    # -- internal machinery ------------------------------------------------ #

    def _request_placement(self) -> None:
        """Schedule a placement pass at the current sim time (coalesced)."""
        if self._placement_scheduled:
            return
        self._placement_scheduled = True
        self._platform.loop.schedule(
            0.0, self._placement_pass, priority=_PRIORITY_PLACE
        )

    def _placement_pass(self) -> None:
        self._placement_scheduled = False
        limit: Optional[int] = None
        if self._config.max_concurrent_tasks is not None:
            limit = max(0, self._config.max_concurrent_tasks - len(self._running))
            if limit == 0:
                return
        for item, allocation in self._scheduler.try_place(limit=limit):
            self._start_task(self._tasks[item.request_id], allocation)

    def _start_task(self, task: Task, allocation: Allocation) -> None:
        now = self._platform.now
        filesystem = self._platform.filesystem
        setup_seconds = filesystem.sandbox_setup_time(self._config.sandbox_files)
        setup_seconds /= max(1.0, self._durations.speedup)
        run_seconds = self._durations.duration(task.description, filesystem)

        task.allocation = allocation
        task.start_time = now
        task.advance(TaskState.EXECUTING, now)
        self._running[task.uid] = allocation

        profiler = self._platform.profiler
        profiler.record_phase(task.uid, "exec_setup", now, now + setup_seconds)
        profiler.record_phase(
            task.uid, "running", now + setup_seconds, now + setup_seconds + run_seconds
        )
        self._platform.loop.schedule(
            setup_seconds + run_seconds,
            self._complete_task,
            task,
            priority=_PRIORITY_COMPLETE,
        )

    def _complete_task(self, task: Task) -> None:
        now = self._platform.now
        allocation = self._running.pop(task.uid)

        final_state = TaskState.DONE
        if task.description.payload is not None:
            try:
                task.result = task.description.payload()
            except Exception as exc:  # payload failures become task failures
                task.exception = exc
                task.stderr = f"{type(exc).__name__}: {exc}"
                final_state = TaskState.FAILED

        self._platform.profiler.record_resource_interval(
            ResourceInterval(
                task_id=task.uid,
                node=allocation.node,
                cpu_core_ids=allocation.cpu_core_ids,
                gpu_ids=allocation.gpu_ids,
                start=task.start_time if task.start_time is not None else now,
                end=now,
            )
        )
        self._platform.allocator.release(allocation)
        task.end_time = now
        task.advance(final_state, now)
        self._notify(task)
        self._request_placement()

    def _notify(self, task: Task) -> None:
        for callback in list(self._completion_callbacks):
            callback(task)
