"""Sequential, middleware-free execution — the CONT-V substrate.

The paper's control implementation (CONT-V) runs the same pipeline stages
but *without* RADICAL-Pilot: tasks execute one after the other on the node,
each holding only the resources it needs, with no overlap between pipelines
and no adaptive decision-making.  :class:`SequentialRunner` reproduces that
execution model on the same simulated platform so that utilization and
makespan comparisons against the pilot runtime are apples-to-apples (same
node, same duration model, same profiler).
"""

from __future__ import annotations

from typing import Callable, List

from repro.exceptions import TaskError
from repro.hpc.platform import ComputePlatform
from repro.hpc.profiling import ResourceInterval
from repro.runtime.durations import DurationModel
from repro.runtime.states import TaskState
from repro.runtime.task import Task, TaskDescription

__all__ = ["SequentialRunner"]


class SequentialRunner:
    """Executes tasks strictly one at a time on a simulated platform."""

    def __init__(
        self,
        platform: ComputePlatform,
        durations: DurationModel,
    ) -> None:
        self._platform = platform
        self._durations = durations
        self._tasks: List[Task] = []
        self._callbacks: List[Callable[[Task], None]] = []

    @property
    def platform(self) -> ComputePlatform:
        return self._platform

    def tasks(self) -> List[Task]:
        """All tasks executed so far, in execution order."""
        return list(self._tasks)

    def on_completion(self, callback: Callable[[Task], None]) -> None:
        """Register a callback invoked after each task finishes."""
        self._callbacks.append(callback)

    def run_task(self, description: TaskDescription) -> Task:
        """Execute one task to completion, advancing simulated time.

        The task's devices are allocated, the payload runs, time advances by
        the modelled duration, and the devices are released — all before the
        call returns.  This is the blocking, script-like execution style of
        the control implementation.
        """
        task = Task(description)
        now = self._platform.now
        task.submit_time = now
        task.advance(TaskState.TMGR_SCHEDULING, now)
        task.advance(TaskState.AGENT_SCHEDULING, now)
        task.schedule_time = now

        allocation = self._platform.allocator.allocate(description.request)
        task.allocation = allocation
        task.start_time = now
        task.advance(TaskState.EXECUTING, now)

        duration = self._durations.duration(description, self._platform.filesystem)
        self._platform.profiler.record_phase(task.uid, "running", now, now + duration)
        # Advance virtual time past the task's execution window.
        self._platform.loop.run_until(now + duration)
        end = self._platform.now

        final_state = TaskState.DONE
        if description.payload is not None:
            try:
                task.result = description.payload()
            except Exception as exc:
                task.exception = exc
                task.stderr = f"{type(exc).__name__}: {exc}"
                final_state = TaskState.FAILED

        self._platform.profiler.record_resource_interval(
            ResourceInterval(
                task_id=task.uid,
                node=allocation.node,
                cpu_core_ids=allocation.cpu_core_ids,
                gpu_ids=allocation.gpu_ids,
                start=task.start_time,
                end=end,
            )
        )
        self._platform.allocator.release(allocation)
        task.end_time = end
        task.advance(final_state, end)
        self._tasks.append(task)
        for callback in list(self._callbacks):
            callback(task)
        return task

    def run_tasks(
        self, descriptions: List[TaskDescription], raise_on_failure: bool = False
    ) -> List[Task]:
        """Execute a list of tasks back-to-back."""
        tasks = [self.run_task(description) for description in descriptions]
        if raise_on_failure:
            failures = [task for task in tasks if task.failed]
            if failures:
                raise TaskError(
                    "tasks failed: "
                    + ", ".join(f"{task.uid} ({task.stderr})" for task in failures)
                )
        return tasks
