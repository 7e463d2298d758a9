"""Coarse-grained protein structures and two-chain complexes.

The reproduction represents structures at the CA (alpha-carbon) level: one
3-D coordinate per residue.  That is enough to support everything the
protocol touches — interface detection (which positions ProteinMPNN is
allowed to design), contact-based scoring, PDB round-trips, and a latent
``backbone_quality`` scalar that the folding surrogate updates each cycle
(standing in for the refined backbone AlphaFold feeds back into the next
ProteinMPNN round).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import StructureError
from repro.protein.sequence import ProteinSequence

__all__ = ["Chain", "ComplexStructure", "synthetic_backbone"]

#: Ideal CA-CA distance along a protein chain, in angstroms.
CA_CA_DISTANCE = 3.8


def synthetic_backbone(
    length: int,
    seed: int,
    compactness: float = 0.45,
    origin: Tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> np.ndarray:
    """Generate a synthetic, compact CA trace of ``length`` residues.

    The trace is a correlated random walk with fixed CA-CA step length and a
    weak pull toward its running centroid, which yields globular,
    protein-like point clouds without any physics.  Deterministic in
    ``seed``.

    Parameters
    ----------
    length:
        Number of residues.
    seed:
        RNG seed controlling the fold.
    compactness:
        Strength of the centroid pull in ``[0, 1)``; higher is more globular.
    origin:
        Translation applied to the whole trace.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(length, 3)`` with CA coordinates in angstroms.
    """
    if length < 1:
        raise StructureError("backbone length must be >= 1")
    if not 0.0 <= compactness < 1.0:
        raise StructureError("compactness must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    coords = np.zeros((length, 3), dtype=float)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    for index in range(1, length):
        wobble = rng.normal(scale=0.9, size=3)
        centroid = coords[:index].mean(axis=0)
        pull = centroid - coords[index - 1]
        norm = np.linalg.norm(pull)
        if norm > 1e-9:
            pull /= norm
        direction = direction + wobble + compactness * pull
        direction /= np.linalg.norm(direction)
        coords[index] = coords[index - 1] + CA_CA_DISTANCE * direction
    return coords + np.asarray(origin, dtype=float)


@dataclass(frozen=True)
class Chain:
    """One chain: a sequence plus its CA coordinates.

    ``coordinates`` is stored as a read-only view of the ``(L, 3)`` float
    array it was given, so chains (and the design targets holding them) can
    be shared between runs; the caller's own array stays writeable.  Copy
    it before modifying.
    """

    sequence: ProteinSequence
    coordinates: np.ndarray

    def __post_init__(self) -> None:
        coords = np.asarray(self.coordinates, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise StructureError(
                f"coordinates must have shape (L, 3), got {coords.shape}"
            )
        if coords.shape[0] != len(self.sequence):
            raise StructureError(
                f"chain {self.sequence.chain_id!r}: {len(self.sequence)} residues "
                f"but {coords.shape[0]} coordinates"
            )
        coords = coords.view()
        coords.flags.writeable = False
        object.__setattr__(self, "coordinates", coords)

    @property
    def chain_id(self) -> str:
        return self.sequence.chain_id

    def __len__(self) -> int:
        return len(self.sequence)

    def centroid(self) -> np.ndarray:
        """Geometric centre of the chain."""
        return self.coordinates.mean(axis=0)

    def radius_of_gyration(self) -> float:
        """Root-mean-square distance of residues from the centroid."""
        deltas = self.coordinates - self.centroid()
        return float(np.sqrt((deltas ** 2).sum(axis=1).mean()))

    def with_sequence(self, sequence: ProteinSequence) -> "Chain":
        """Copy of the chain carrying a different (equal-length) sequence."""
        if len(sequence) != len(self.sequence):
            raise StructureError(
                "replacement sequence must have the same length as the chain"
            )
        return Chain(sequence=sequence, coordinates=self.coordinates)


@dataclass(frozen=True)
class ComplexStructure:
    """A receptor/peptide complex at CA resolution.

    Attributes
    ----------
    name:
        Complex label (e.g. ``"NHERF3_asyn"``).
    receptor / peptide:
        The two chains; the receptor is the design target, the peptide is
        fixed.
    backbone_quality:
        Latent scalar in ``[0, 1]`` describing how well the current backbone
        supports the target interaction.  The folding surrogate updates it
        every cycle; the ProteinMPNN surrogate conditions its sampling on it.
    designable_positions:
        Receptor positions ProteinMPNN may redesign (the interface by
        default).  Stored as a sorted tuple for hashability.
    metadata:
        Free-form provenance (target id, design cycle, parent design...).
    """

    name: str
    receptor: Chain
    peptide: Chain
    backbone_quality: float = 0.3
    designable_positions: Tuple[int, ...] = ()
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise StructureError("complex needs a non-empty name")
        if self.receptor.chain_id == self.peptide.chain_id:
            raise StructureError("receptor and peptide must use distinct chain ids")
        if not 0.0 <= self.backbone_quality <= 1.0:
            raise StructureError("backbone_quality must lie in [0, 1]")
        positions = tuple(sorted(set(int(p) for p in self.designable_positions)))
        # Positions are sorted, so bounds-checking the extremes covers them all.
        if positions and (positions[0] < 0 or positions[-1] >= len(self.receptor)):
            offending = positions[0] if positions[0] < 0 else positions[-1]
            raise StructureError(
                f"designable position {offending} outside receptor length "
                f"{len(self.receptor)}"
            )
        object.__setattr__(self, "designable_positions", positions)

    # -- geometry -------------------------------------------------------------- #

    @property
    def total_residues(self) -> int:
        return len(self.receptor) + len(self.peptide)

    def chains(self) -> List[Chain]:
        return [self.receptor, self.peptide]

    def interface_positions(self, cutoff: float = 10.0) -> List[int]:
        """Receptor positions with a CA within ``cutoff`` angstroms of the peptide."""
        if cutoff <= 0:
            raise StructureError("cutoff must be positive")
        receptor_xyz = self.receptor.coordinates
        peptide_xyz = self.peptide.coordinates
        deltas = receptor_xyz[:, None, :] - peptide_xyz[None, :, :]
        distances = np.sqrt((deltas ** 2).sum(axis=2))
        mask = (distances < cutoff).any(axis=1)
        return [int(index) for index in np.nonzero(mask)[0]]

    def interchain_contacts(self, cutoff: float = 8.0) -> List[Tuple[int, int]]:
        """Pairs ``(receptor_pos, peptide_pos)`` whose CAs are within ``cutoff``."""
        receptor_xyz = self.receptor.coordinates
        peptide_xyz = self.peptide.coordinates
        deltas = receptor_xyz[:, None, :] - peptide_xyz[None, :, :]
        distances = np.sqrt((deltas ** 2).sum(axis=2))
        pairs = np.argwhere(distances < cutoff)
        return [(int(i), int(j)) for i, j in pairs]

    def min_interchain_distance(self) -> float:
        """Smallest CA-CA distance between the two chains."""
        deltas = (
            self.receptor.coordinates[:, None, :] - self.peptide.coordinates[None, :, :]
        )
        return float(np.sqrt((deltas ** 2).sum(axis=2)).min())

    # -- derived copies ---------------------------------------------------------- #

    def with_receptor_sequence(self, sequence: ProteinSequence) -> "ComplexStructure":
        """Copy with the receptor sequence replaced (same backbone)."""
        return replace(self, receptor=self.receptor.with_sequence(sequence))

    def with_backbone_quality(self, quality: float) -> "ComplexStructure":
        """Copy with an updated latent backbone quality."""
        return replace(self, backbone_quality=float(np.clip(quality, 0.0, 1.0)))

    def with_metadata(self, **extra: object) -> "ComplexStructure":
        """Copy with additional metadata entries merged in."""
        merged = dict(self.metadata)
        merged.update(extra)
        return replace(self, metadata=merged)

    def effective_designable_positions(self, cutoff: float = 10.0) -> List[int]:
        """Explicit designable positions, falling back to the interface."""
        if self.designable_positions:
            return list(self.designable_positions)
        return self.interface_positions(cutoff)
