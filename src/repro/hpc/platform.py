"""The :class:`ComputePlatform` facade.

A ``ComputePlatform`` bundles everything the pilot runtime needs from the
simulated machine: the event loop (virtual time), the allocator (devices),
the shared filesystem (I/O costs) and the profiler (traces).  One platform
instance corresponds to one job allocation on the real machine — exactly the
unit a RADICAL pilot occupies.
"""

from __future__ import annotations

from typing import Optional

from repro.hpc.allocation import NodeAllocator
from repro.hpc.events import EventLoop
from repro.hpc.filesystem import FilesystemSpec, SharedFilesystem
from repro.hpc.profiling import ExecutionProfiler
from repro.hpc.resources import PlatformSpec, amarel_platform

__all__ = ["ComputePlatform"]


class ComputePlatform:
    """Simulated HPC allocation: clock + devices + filesystem + traces.

    Parameters
    ----------
    spec:
        Static platform description; defaults to one Amarel-like GPU node as
        used in the paper's evaluation.
    filesystem:
        Shared-filesystem cost model; a default GPFS-like model is created
        when omitted.
    """

    def __init__(
        self,
        spec: Optional[PlatformSpec] = None,
        filesystem: Optional[SharedFilesystem] = None,
    ) -> None:
        self._spec = spec or amarel_platform(1)
        self._loop = EventLoop()
        self._allocator = NodeAllocator(self._spec)
        self._filesystem = filesystem or SharedFilesystem(FilesystemSpec())
        self._profiler = ExecutionProfiler(self._spec)

    # -- accessors ------------------------------------------------------ #

    @property
    def spec(self) -> PlatformSpec:
        return self._spec

    @property
    def loop(self) -> EventLoop:
        return self._loop

    @property
    def allocator(self) -> NodeAllocator:
        return self._allocator

    @property
    def filesystem(self) -> SharedFilesystem:
        return self._filesystem

    @property
    def profiler(self) -> ExecutionProfiler:
        return self._profiler

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._loop.now

    # -- convenience ----------------------------------------------------- #

    def run(self) -> int:
        """Run the event loop until it drains; returns executed event count."""
        return self._loop.run()

    def describe(self) -> dict:
        """Summary dictionary used by reports."""
        summary = self._spec.describe()
        summary["filesystem"] = self._filesystem.spec.name
        return summary
