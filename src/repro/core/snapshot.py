"""JSON-able snapshot codecs for cycle-boundary campaign state.

Checkpointing a campaign mid-run (see :class:`~repro.core.protocols.
CampaignState`) requires turning the live objects a pipeline carries across
cycle boundaries — complexes, metrics, trajectories, cycle results, profiler
traces and captured RNG states — into plain JSON values and back *exactly*.
Exactness is the whole point: the determinism contract promises that a run
suspended at a cycle boundary and resumed elsewhere finishes byte-identical
to an uninterrupted run, and Python's ``json`` round-trips floats losslessly
(``repr`` shortest-round-trip), so every numeric field survives the detour
through disk bit-for-bit.

Backbones travel by reference.  A pipeline's complex keeps its target's
CA coordinates for the whole run (design changes sequences, not the
backbone), and the target is rebuilt deterministically from the run spec on
resume, so re-serialising those coordinates every cycle would only repeat
bytes the reader already has.  :func:`encode_complex` therefore takes the
target's complex as ``reference`` and writes ``"coordinates": null`` for
every chain whose coordinates are bit-identical (equal ``tobytes()``) to
the reference chain's; :func:`decode_complex` fills those nulls back from
the same reference.  A chain that differs is encoded in full, and a payload
without nulls (checkpoint schema v1, or no reference at encode time)
decodes with or without one.  The encoded complex (checkpoint schema v2)::

    {"name": …, "backbone_quality": …, "designable_positions": […],
     "metadata": {…},
     "receptor": {"residues": "…", "chain_id": "A", "name": …,
                  "coordinates": null},          # = reference receptor's
     "peptide":  {…, "coordinates": [[x, y, z], …]}}  # differs: in full

The codecs live in the core layer (they know the core dataclasses); the
storage envelope around them — schema versioning, appended lines, torn-tail
fallback — is :mod:`repro.store.checkpoint`'s concern.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.trajectory import CycleResult, Trajectory
from repro.exceptions import CampaignError
from repro.hpc.profiling import ExecutionProfiler, ResourceInterval
from repro.protein.metrics import QualityMetrics
from repro.protein.sequence import ProteinSequence
from repro.protein.structure import Chain, ComplexStructure

__all__ = [
    "encode_rng_state",
    "decode_rng_state",
    "encode_complex",
    "decode_complex",
    "encode_metrics",
    "decode_metrics",
    "encode_trajectory",
    "decode_trajectory",
    "encode_cycle_result",
    "decode_cycle_result",
    "encode_profiler",
    "restore_profiler",
]


# -- RNG state ------------------------------------------------------------------ #


def encode_rng_state(rng: np.random.Generator) -> Dict[str, Any]:
    """Capture a generator's bit-generator state (plain ints and strings)."""
    return rng.bit_generator.state


def decode_rng_state(rng: np.random.Generator, state: Dict[str, Any]) -> None:
    """Restore a captured state onto ``rng`` (in place, exact continuation)."""
    expected = rng.bit_generator.state.get("bit_generator")
    found = state.get("bit_generator")
    if found != expected:
        raise CampaignError(
            f"checkpointed RNG state is for bit generator {found!r}, "
            f"this build uses {expected!r}"
        )
    rng.bit_generator.state = state


# -- protein objects ------------------------------------------------------------ #


def _encode_chain(chain: Chain, reference: Optional[Chain]) -> Dict[str, Any]:
    coordinates = chain.coordinates
    same_backbone = (
        reference is not None
        and reference.coordinates.shape == coordinates.shape
        and reference.coordinates.tobytes() == coordinates.tobytes()
    )
    return {
        "residues": chain.sequence.residues,
        "chain_id": chain.sequence.chain_id,
        "name": chain.sequence.name,
        "coordinates": None if same_backbone else coordinates.tolist(),
    }


def _decode_chain(payload: Dict[str, Any], reference: Optional[Chain]) -> Chain:
    coordinates = payload["coordinates"]
    if coordinates is None:
        if reference is None:
            raise CampaignError(
                f"chain {payload['chain_id']!r} was encoded by reference to "
                "its target's backbone, but no reference complex was given"
            )
        coordinates = reference.coordinates
    return Chain(
        sequence=ProteinSequence(
            residues=payload["residues"],
            chain_id=payload["chain_id"],
            name=payload["name"],
        ),
        coordinates=np.asarray(coordinates, dtype=float),
    )


def _chain(reference: Optional[ComplexStructure], part: str) -> Optional[Chain]:
    return None if reference is None else getattr(reference, part)


def encode_complex(
    structure: ComplexStructure, reference: Optional[ComplexStructure] = None
) -> Dict[str, Any]:
    """Encode ``structure``; chains whose coordinates are bit-identical to
    ``reference``'s matching chain are written as ``"coordinates": null``."""
    return {
        "name": structure.name,
        "receptor": _encode_chain(structure.receptor, _chain(reference, "receptor")),
        "peptide": _encode_chain(structure.peptide, _chain(reference, "peptide")),
        "backbone_quality": structure.backbone_quality,
        "designable_positions": list(structure.designable_positions),
        "metadata": dict(structure.metadata),
    }


def decode_complex(
    payload: Dict[str, Any], reference: Optional[ComplexStructure] = None
) -> ComplexStructure:
    """Inverse of :func:`encode_complex`; null coordinates are taken from
    ``reference`` (:class:`CampaignError` when it is ``None``)."""
    return ComplexStructure(
        name=payload["name"],
        receptor=_decode_chain(payload["receptor"], _chain(reference, "receptor")),
        peptide=_decode_chain(payload["peptide"], _chain(reference, "peptide")),
        backbone_quality=payload["backbone_quality"],
        designable_positions=tuple(payload["designable_positions"]),
        metadata=dict(payload["metadata"]),
    )


def encode_metrics(metrics: Optional[QualityMetrics]) -> Optional[Dict[str, float]]:
    return None if metrics is None else metrics.as_dict()


def decode_metrics(payload: Optional[Dict[str, float]]) -> Optional[QualityMetrics]:
    return None if payload is None else QualityMetrics(**payload)


def encode_trajectory(trajectory: Trajectory) -> Dict[str, Any]:
    # Unlike ``Trajectory.as_dict`` (a reporting view) this keeps every
    # constructor field, including the raw residue string.
    return {
        "trajectory_id": trajectory.trajectory_id,
        "pipeline_uid": trajectory.pipeline_uid,
        "target": trajectory.target,
        "cycle": trajectory.cycle,
        "retry_index": trajectory.retry_index,
        "sequence_name": trajectory.sequence_name,
        "sequence": trajectory.sequence,
        "metrics": encode_metrics(trajectory.metrics),
        "fitness": trajectory.fitness,
        "accepted": trajectory.accepted,
        "energy_total": trajectory.energy_total,
        "is_subpipeline": trajectory.is_subpipeline,
    }


def decode_trajectory(payload: Dict[str, Any]) -> Trajectory:
    return Trajectory(
        trajectory_id=payload["trajectory_id"],
        pipeline_uid=payload["pipeline_uid"],
        target=payload["target"],
        cycle=payload["cycle"],
        retry_index=payload["retry_index"],
        sequence_name=payload["sequence_name"],
        sequence=payload["sequence"],
        metrics=decode_metrics(payload["metrics"]),
        fitness=payload["fitness"],
        accepted=payload["accepted"],
        energy_total=payload["energy_total"],
        is_subpipeline=payload["is_subpipeline"],
    )


def encode_cycle_result(cycle: CycleResult) -> Dict[str, Any]:
    return {
        "pipeline_uid": cycle.pipeline_uid,
        "target": cycle.target,
        "cycle": cycle.cycle,
        "accepted": cycle.accepted,
        "best_metrics": encode_metrics(cycle.best_metrics),
        "best_sequence": cycle.best_sequence,
        "trajectories": [encode_trajectory(t) for t in cycle.trajectories],
        "retries_used": cycle.retries_used,
        "adaptive": cycle.adaptive,
    }


def decode_cycle_result(payload: Dict[str, Any]) -> CycleResult:
    return CycleResult(
        pipeline_uid=payload["pipeline_uid"],
        target=payload["target"],
        cycle=payload["cycle"],
        accepted=payload["accepted"],
        best_metrics=decode_metrics(payload["best_metrics"]),
        best_sequence=payload["best_sequence"],
        trajectories=[decode_trajectory(t) for t in payload["trajectories"]],
        retries_used=payload["retries_used"],
        adaptive=payload["adaptive"],
    )


# -- profiler traces ------------------------------------------------------------ #


def encode_profiler(profiler: ExecutionProfiler) -> Dict[str, List[Dict[str, Any]]]:
    """Serialise the recorded traces (interval order is preserved exactly —
    utilization sums iterate in recording order, and float summation order
    is part of the byte-identity contract)."""
    return {
        "resource_intervals": [
            {
                "task_id": interval.task_id,
                "node": interval.node,
                "cpu_core_ids": list(interval.cpu_core_ids),
                "gpu_ids": list(interval.gpu_ids),
                "start": interval.start,
                "end": interval.end,
            }
            for interval in profiler.resource_intervals
        ],
        "phase_intervals": [
            {
                "entity_id": interval.entity_id,
                "phase": interval.phase,
                "start": interval.start,
                "end": interval.end,
            }
            for interval in profiler.phase_intervals
        ],
    }


def restore_profiler(
    profiler: ExecutionProfiler, payload: Dict[str, List[Dict[str, Any]]]
) -> None:
    """Replay serialised traces onto a fresh profiler, in recorded order."""
    for interval in payload["resource_intervals"]:
        profiler.record_resource_interval(
            ResourceInterval(
                task_id=interval["task_id"],
                node=interval["node"],
                cpu_core_ids=tuple(interval["cpu_core_ids"]),
                gpu_ids=tuple(interval["gpu_ids"]),
                start=interval["start"],
                end=interval["end"],
            )
        )
    for interval in payload["phase_intervals"]:
        profiler.record_phase(
            interval["entity_id"],
            interval["phase"],
            interval["start"],
            interval["end"],
        )
