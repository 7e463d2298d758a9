"""Pilots: resource placeholders that host the agent.

A pilot represents one batch-job allocation on the target machine.  Launching
a pilot costs *bootstrap* time (queueing is out of scope; RADICAL-Pilot's
bootstrapper installing the agent environment is not) — this is the
"Bootstrap" band in Fig 5.  Once the pilot is ``ACTIVE`` its agent accepts
tasks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.hpc.platform import ComputePlatform
from repro.runtime.agent import Agent, AgentConfig
from repro.runtime.durations import DurationModel
from repro.runtime.states import PilotState, validate_pilot_transition

__all__ = ["PilotDescription", "Pilot"]

_pilot_counter = itertools.count(1)


@dataclass(frozen=True)
class PilotDescription:
    """Immutable recipe for one pilot.

    Attributes
    ----------
    nodes:
        Number of nodes requested (the paper uses 1).
    runtime_hours:
        Maximum wall time of the allocation; tasks submitted after the pilot
        would exceed this limit are rejected by the session layer.
    bootstrap_seconds:
        Time between pilot launch and the agent becoming able to execute
        tasks ("Bootstrap" in Fig 5).
    agent_config:
        Configuration of the agent started inside the pilot.
    uid:
        Stable identifier; autogenerated when not supplied.
    """

    nodes: int = 1
    runtime_hours: float = 48.0
    bootstrap_seconds: float = 180.0
    agent_config: AgentConfig = field(default_factory=AgentConfig)
    uid: str = ""

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigurationError("a pilot needs at least one node")
        if self.runtime_hours <= 0:
            raise ConfigurationError("pilot runtime must be positive")
        if self.bootstrap_seconds < 0:
            raise ConfigurationError("bootstrap time must be non-negative")
        if not self.uid:
            object.__setattr__(self, "uid", f"pilot.{next(_pilot_counter):04d}")


class Pilot:
    """A live pilot bound to a simulated platform."""

    def __init__(
        self,
        description: PilotDescription,
        platform: ComputePlatform,
        durations: DurationModel,
    ) -> None:
        self._description = description
        self._platform = platform
        self._agent = Agent(platform, durations, description.agent_config)
        self._state = PilotState.NEW
        self.launch_time: Optional[float] = None
        self.active_time: Optional[float] = None
        self.end_time: Optional[float] = None

    @property
    def uid(self) -> str:
        return self._description.uid

    @property
    def description(self) -> PilotDescription:
        return self._description

    @property
    def platform(self) -> ComputePlatform:
        return self._platform

    @property
    def agent(self) -> Agent:
        return self._agent

    @property
    def state(self) -> PilotState:
        return self._state

    @property
    def is_active(self) -> bool:
        return self._state is PilotState.ACTIVE

    def advance(self, target: PilotState, time: float) -> None:
        """Move the pilot to ``target``, validating the transition."""
        validate_pilot_transition(self.uid, self._state, target)
        self._state = target

    def launch(self) -> None:
        """Start the pilot: bootstrap, then become ACTIVE.

        The bootstrap interval is recorded in the profiler so the analysis
        layer can produce the Fig 5 phase breakdown.
        """
        now = self._platform.now
        self.launch_time = now
        self.advance(PilotState.PMGR_LAUNCHING, now)
        bootstrap = self._description.bootstrap_seconds
        self._platform.profiler.record_phase(self.uid, "bootstrap", now, now + bootstrap)
        self._platform.loop.schedule(bootstrap, self._become_active)

    def _become_active(self) -> None:
        now = self._platform.now
        self.active_time = now
        self.advance(PilotState.ACTIVE, now)

    def shutdown(self, failed: bool = False) -> None:
        """Terminate the pilot (after all its tasks completed)."""
        now = self._platform.now
        self.end_time = now
        self.advance(PilotState.FAILED if failed else PilotState.DONE, now)

    @property
    def remaining_walltime_seconds(self) -> float:
        """Seconds of allocation remaining at the current simulation time."""
        if self.launch_time is None:
            return self._description.runtime_hours * 3600.0
        used = self._platform.now - self.launch_time
        return max(0.0, self._description.runtime_hours * 3600.0 - used)
