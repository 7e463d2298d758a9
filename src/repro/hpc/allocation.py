"""Per-node slot bookkeeping.

The agent-side scheduler places tasks onto nodes; :class:`NodeAllocator`
tracks which cores, GPUs and how much memory are in use on each node and
enforces that the platform is never oversubscribed.  Individual core and GPU
indices are tracked (not just counts) so the profiler can attribute busy time
to concrete devices, which is what Figs 4 and 5 plot.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.exceptions import AllocationError, InsufficientResourcesError
from repro.hpc.resources import NodeSpec, PlatformSpec, ResourceRequest

__all__ = ["Allocation", "NodeAllocator"]


@dataclass(frozen=True)
class Allocation:
    """A concrete placement of a request on a node.

    Attributes
    ----------
    allocation_id:
        Unique id within the allocator that produced it.
    node:
        Name of the node hosting the allocation.
    cpu_core_ids / gpu_ids:
        The concrete device indices occupied.
    memory_gb:
        Host memory reserved.
    """

    allocation_id: int
    node: str
    cpu_core_ids: Tuple[int, ...]
    gpu_ids: Tuple[int, ...]
    memory_gb: float

    @property
    def cpu_cores(self) -> int:
        return len(self.cpu_core_ids)

    @property
    def gpus(self) -> int:
        return len(self.gpu_ids)


@dataclass
class _NodeState:
    spec: NodeSpec
    free_cores: Set[int] = field(default_factory=set)
    free_gpus: Set[int] = field(default_factory=set)
    #: Memory held per live allocation id.  Free memory is derived from this
    #: rather than kept as a running difference, so an empty node reports
    #: exactly ``spec.memory_gb`` again (no float-accumulation drift).
    allocated_memory_gb: Dict[int, float] = field(default_factory=dict)

    @classmethod
    def fresh(cls, spec: NodeSpec) -> "_NodeState":
        return cls(
            spec=spec,
            free_cores=set(range(spec.cpu_cores)),
            free_gpus=set(range(spec.gpus)),
        )

    @property
    def free_memory_gb(self) -> float:
        return self.spec.memory_gb - math.fsum(self.allocated_memory_gb.values())

    def fits(self, request: ResourceRequest) -> bool:
        return (
            len(self.free_cores) >= request.cpu_cores
            and len(self.free_gpus) >= request.gpus
            and self.free_memory_gb >= request.memory_gb - 1e-9
        )


class NodeAllocator:
    """Tracks free/busy devices across all nodes of a platform.

    The allocator is purely a bookkeeping structure: it has no notion of time
    or queueing.  The scheduler decides *when* to try a placement; the
    allocator decides *whether* it fits and *which* devices it occupies.
    """

    def __init__(self, platform: PlatformSpec) -> None:
        self._platform = platform
        self._nodes: Dict[str, _NodeState] = {
            node.name: _NodeState.fresh(node) for node in platform.nodes
        }
        self._node_names = sorted(self._nodes)
        self._live: Dict[int, Allocation] = {}
        self._ids = itertools.count(1)

    @property
    def platform(self) -> PlatformSpec:
        return self._platform

    @property
    def live_allocations(self) -> List[Allocation]:
        """Currently outstanding allocations."""
        return list(self._live.values())

    def free_cores(self, node: Optional[str] = None) -> int:
        """Free core count on ``node`` (or across the platform)."""
        if node is not None:
            return len(self._nodes[node].free_cores)
        return sum(len(state.free_cores) for state in self._nodes.values())

    def free_gpus(self, node: Optional[str] = None) -> int:
        """Free GPU count on ``node`` (or across the platform)."""
        if node is not None:
            return len(self._nodes[node].free_gpus)
        return sum(len(state.free_gpus) for state in self._nodes.values())

    def free_memory_gb(self, node: Optional[str] = None) -> float:
        """Free host memory on ``node`` (or across the platform)."""
        if node is not None:
            return self._nodes[node].free_memory_gb
        return sum(state.free_memory_gb for state in self._nodes.values())

    def busy_cores(self) -> int:
        return self._platform.total_cpu_cores - self.free_cores()

    def busy_gpus(self) -> int:
        return self._platform.total_gpus - self.free_gpus()

    def can_ever_fit(self, request: ResourceRequest) -> bool:
        """Whether ``request`` could fit on some node of an *empty* platform."""
        return self._platform.can_ever_fit(request)

    def fits_now(self, request: ResourceRequest) -> bool:
        """Whether ``request`` fits on some node right now."""
        return any(state.fits(request) for state in self._nodes.values())

    def allocate(self, request: ResourceRequest) -> Allocation:
        """Place ``request`` on the first node with capacity.

        Devices are assigned lowest-index-first which keeps placements
        deterministic and makes per-device utilization plots stable.

        Raises
        ------
        InsufficientResourcesError
            If no node could ever satisfy the request (even when idle).
        AllocationError
            If the request fits the platform in principle but not right now.
        """
        if not self.can_ever_fit(request):
            raise InsufficientResourcesError(
                f"request {request} exceeds the capacity of every node in "
                f"platform {self._platform.name!r}"
            )
        for name in self._node_names:
            state = self._nodes[name]
            if not state.fits(request):
                continue
            core_ids = tuple(sorted(state.free_cores)[: request.cpu_cores])
            gpu_ids = tuple(sorted(state.free_gpus)[: request.gpus])
            state.free_cores.difference_update(core_ids)
            state.free_gpus.difference_update(gpu_ids)
            allocation = Allocation(
                allocation_id=next(self._ids),
                node=name,
                cpu_core_ids=core_ids,
                gpu_ids=gpu_ids,
                memory_gb=request.memory_gb,
            )
            state.allocated_memory_gb[allocation.allocation_id] = request.memory_gb
            self._live[allocation.allocation_id] = allocation
            return allocation
        raise AllocationError(
            f"request {request} does not fit right now "
            f"(free cores={self.free_cores()}, gpus={self.free_gpus()})"
        )

    def release(self, allocation: Allocation) -> None:
        """Return an allocation's devices to the free pool.

        Raises
        ------
        AllocationError
            If the allocation is unknown or was already released.
        """
        stored = self._live.pop(allocation.allocation_id, None)
        if stored is None:
            raise AllocationError(
                f"allocation {allocation.allocation_id} is not live (double release?)"
            )
        state = self._nodes[stored.node]
        overlap_cores = state.free_cores.intersection(stored.cpu_core_ids)
        overlap_gpus = state.free_gpus.intersection(stored.gpu_ids)
        if overlap_cores or overlap_gpus:
            raise AllocationError(
                f"allocation {allocation.allocation_id} devices already free: "
                f"cores={sorted(overlap_cores)}, gpus={sorted(overlap_gpus)}"
            )
        state.free_cores.update(stored.cpu_core_ids)
        state.free_gpus.update(stored.gpu_ids)
        if state.allocated_memory_gb.pop(stored.allocation_id, None) is None:
            raise AllocationError(
                f"memory accounting error on node {stored.node!r}: "
                f"allocation {stored.allocation_id} held no memory record"
            )

    def utilization(self) -> Dict[str, float]:
        """Instantaneous utilization fractions (cores, GPUs, memory)."""
        total_cores = self._platform.total_cpu_cores
        total_gpus = self._platform.total_gpus
        total_mem = self._platform.total_memory_gb
        return {
            "cpu": (total_cores - self.free_cores()) / total_cores if total_cores else 0.0,
            "gpu": (total_gpus - self.free_gpus()) / total_gpus if total_gpus else 0.0,
            "memory": (total_mem - self.free_memory_gb()) / total_mem if total_mem else 0.0,
        }
