"""Task duration models.

The real IMPRESS tasks are ProteinMPNN and AlphaFold2 executions whose
runtimes on the paper's hardware (NVIDIA Quadro M6000, 28-core node, shared
GPFS filesystem) span minutes to hours.  The discrete-event simulation needs
a duration for every task it executes; this module supplies them.

The model captures the structure that drives the paper's computational
results:

* **ProteinMPNN** — a short GPU task whose cost grows with the number of
  sequences requested and the protein length.
* **AlphaFold MSA / feature construction** — a long, CPU- and I/O-bound phase
  (the ParaFold observation cited by the paper): hours of database search
  during which GPUs are idle.
* **AlphaFold inference** — a GPU-bound phase, shorter than the MSA phase.
* **Scoring / ranking / selection / comparison** — cheap CPU tasks.

Each sampled duration gets multiplicative log-normal jitter so repeated runs
are not artificially synchronous, while remaining deterministic under a fixed
seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hpc.filesystem import SharedFilesystem
from repro.hpc.resources import ResourceRequest
from repro.runtime.task import TaskDescription
from repro.utils.rng import spawn_rng

__all__ = ["TaskKind", "KindProfile", "DurationModel", "DEFAULT_DURATIONS", "default_request"]


class TaskKind(str, enum.Enum):
    """Task kinds understood by the duration model."""

    MPNN_GENERATE = "mpnn_generate"
    SEQUENCE_RANK = "sequence_rank"
    SEQUENCE_SELECT = "sequence_select"
    AF_MSA = "af_msa"
    AF_INFERENCE = "af_inference"
    SCORING = "scoring"
    COMPARE = "compare"
    GENERIC = "generic"


#: ``{value: member}``.  ``TaskKind`` is a ``str`` enum, so a member hashes
#: and compares like its value and both look up the same entry.
_KINDS: Dict[str, TaskKind] = {kind.value: kind for kind in TaskKind}


@dataclass(frozen=True)
class KindProfile:
    """Base cost profile for one task kind.

    Attributes
    ----------
    base_seconds:
        Duration for a reference-size input (one ~100-residue complex,
        10 sequences) before scaling and jitter.
    per_sequence_seconds:
        Additional seconds per generated/evaluated sequence beyond the first.
    per_residue_seconds:
        Additional seconds per residue beyond the 100-residue reference.
    io_gigabytes:
        Shared-filesystem read volume attributed to the task (dominates the
        AlphaFold MSA phase).
    jitter_sigma:
        Log-normal sigma of the multiplicative runtime noise.
    request:
        Default resource request for tasks of this kind.
    """

    base_seconds: float
    per_sequence_seconds: float = 0.0
    per_residue_seconds: float = 0.0
    io_gigabytes: float = 0.0
    jitter_sigma: float = 0.08
    request: ResourceRequest = field(
        default_factory=lambda: ResourceRequest(cpu_cores=1, gpus=0, memory_gb=2.0)
    )

    def __post_init__(self) -> None:
        if self.base_seconds < 0:
            raise ConfigurationError("base_seconds must be non-negative")
        if self.jitter_sigma < 0:
            raise ConfigurationError("jitter_sigma must be non-negative")


_REFERENCE_RESIDUES = 100
_REFERENCE_SEQUENCES = 10


def _default_profiles() -> Dict[TaskKind, KindProfile]:
    """Default profiles loosely calibrated to the paper's hardware."""
    return {
        TaskKind.MPNN_GENERATE: KindProfile(
            base_seconds=480.0,
            per_sequence_seconds=25.0,
            per_residue_seconds=1.0,
            jitter_sigma=0.10,
            request=ResourceRequest(cpu_cores=2, gpus=1, memory_gb=8.0),
        ),
        TaskKind.SEQUENCE_RANK: KindProfile(
            base_seconds=20.0,
            per_sequence_seconds=1.0,
            jitter_sigma=0.05,
            request=ResourceRequest(cpu_cores=1, gpus=0, memory_gb=1.0),
        ),
        TaskKind.SEQUENCE_SELECT: KindProfile(
            base_seconds=15.0,
            per_sequence_seconds=0.5,
            jitter_sigma=0.05,
            request=ResourceRequest(cpu_cores=1, gpus=0, memory_gb=1.0),
        ),
        TaskKind.AF_MSA: KindProfile(
            base_seconds=3000.0,
            per_residue_seconds=9.0,
            io_gigabytes=60.0,
            jitter_sigma=0.12,
            request=ResourceRequest(cpu_cores=8, gpus=0, memory_gb=48.0),
        ),
        TaskKind.AF_INFERENCE: KindProfile(
            base_seconds=2400.0,
            per_residue_seconds=4.0,
            jitter_sigma=0.10,
            request=ResourceRequest(cpu_cores=2, gpus=1, memory_gb=16.0),
        ),
        TaskKind.SCORING: KindProfile(
            base_seconds=600.0,
            per_residue_seconds=1.5,
            jitter_sigma=0.08,
            request=ResourceRequest(cpu_cores=4, gpus=0, memory_gb=8.0),
        ),
        TaskKind.COMPARE: KindProfile(
            base_seconds=10.0,
            jitter_sigma=0.05,
            request=ResourceRequest(cpu_cores=1, gpus=0, memory_gb=1.0),
        ),
        TaskKind.GENERIC: KindProfile(
            base_seconds=60.0,
            jitter_sigma=0.05,
            request=ResourceRequest(cpu_cores=1, gpus=0, memory_gb=1.0),
        ),
    }


class DurationModel:
    """Maps tasks to simulated execution durations.

    Parameters
    ----------
    profiles:
        Per-kind cost profiles; omitted kinds fall back to
        :attr:`TaskKind.GENERIC`.
    seed:
        Root seed for the per-task jitter streams (jitter is derived from the
        task uid so it does not depend on execution order).
    speedup:
        Global divisor applied to all durations.  Benchmarks use large
        speedups so that simulating a multi-hour campaign costs milliseconds
        of real time without changing any relative quantity.
    """

    def __init__(
        self,
        profiles: Optional[Dict[TaskKind, KindProfile]] = None,
        seed: int = 0,
        speedup: float = 1.0,
    ) -> None:
        if speedup <= 0:
            raise ConfigurationError("speedup must be positive")
        self._profiles = dict(_default_profiles())
        if profiles:
            self._profiles.update(profiles)
        self._seed = seed
        self._speedup = float(speedup)

    @property
    def speedup(self) -> float:
        return self._speedup

    def profile(self, kind: TaskKind | str) -> KindProfile:
        """Return the profile for ``kind`` (falling back to GENERIC)."""
        kind = TaskKind(kind) if not isinstance(kind, TaskKind) else kind
        return self._profiles.get(kind, self._profiles[TaskKind.GENERIC])

    def request_for(self, kind: TaskKind | str) -> ResourceRequest:
        """Default resource request for a task of ``kind``."""
        return self.profile(kind).request

    def duration(
        self,
        description: TaskDescription,
        filesystem: Optional[SharedFilesystem] = None,
    ) -> float:
        """Simulated seconds the task will occupy its allocation.

        The duration combines the kind's base cost, scaling in the number of
        sequences (``metadata["n_sequences"]``) and residues
        (``metadata["n_residues"]``), filesystem read time for I/O-heavy
        kinds, and deterministic per-task jitter.
        """
        profile = self.profile(_KINDS.get(description.kind, TaskKind.GENERIC))

        n_sequences = int(description.metadata.get("n_sequences", _REFERENCE_SEQUENCES))
        n_residues = int(description.metadata.get("n_residues", _REFERENCE_RESIDUES))

        seconds = profile.base_seconds
        seconds += profile.per_sequence_seconds * max(0, n_sequences - 1)
        seconds += profile.per_residue_seconds * max(0, n_residues - _REFERENCE_RESIDUES)

        if profile.io_gigabytes > 0 and filesystem is not None:
            seconds += filesystem.read_time(profile.io_gigabytes, files=24)

        if profile.jitter_sigma > 0:
            # Jitter is keyed by the task *name* (unique and stable within a
            # campaign) rather than the process-global uid, so a campaign's
            # timing does not depend on what else ran in the same process.
            rng = spawn_rng(self._seed, "duration", description.name)
            seconds *= float(
                np.exp(rng.normal(loc=0.0, scale=profile.jitter_sigma))
            )

        return max(1e-3, seconds / self._speedup)


#: A default, paper-calibrated duration model (no speedup, seed 0).
DEFAULT_DURATIONS = DurationModel()


def default_request(kind: TaskKind | str) -> ResourceRequest:
    """Convenience accessor for the default resource request of a task kind."""
    return DEFAULT_DURATIONS.request_for(kind)
