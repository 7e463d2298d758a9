"""Design targets: PDZ-domain / alpha-synuclein-peptide complexes.

The paper optimises binders for two target sets:

* four named PDZ domains — NHERF3, HTRA1, SCRIB and SHANK1 — each in complex
  with the last 10 residues of alpha-synuclein (Table I, Fig 2);
* 70 experimentally resolved PDZ-peptide complexes mined from the PDB, each
  in complex with the last 4 residues of alpha-synuclein (Fig 3).

The experimental structures are not redistributable and are not required for
the protocol logic, so targets are generated synthetically: a ~90-residue
receptor with a compact synthetic CA backbone, the real alpha-synuclein
C-terminal peptide sequence docked against a surface patch, and a per-target
fitness landscape over the interface positions.  Everything is deterministic
in the dataset seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import DatasetError
from repro.protein.landscape import FitnessLandscape
from repro.protein.sequence import ProteinSequence
from repro.protein.structure import Chain, ComplexStructure, synthetic_backbone
from repro.utils.rng import derive_seed, spawn_rng
from repro.utils.stats import linear_quantile

__all__ = [
    "ALPHA_SYNUCLEIN_C10",
    "ALPHA_SYNUCLEIN_C4",
    "PDZ_TARGET_NAMES",
    "DesignTarget",
    "make_pdz_target",
    "named_pdz_targets",
    "expanded_pdz_set",
]

#: Last 10 residues of human alpha-synuclein (the Fig 2 / Table I peptide).
ALPHA_SYNUCLEIN_C10 = "EGYQDYEPEA"

#: Last 4 residues of human alpha-synuclein (the Fig 3 peptide).
ALPHA_SYNUCLEIN_C4 = "EPEA"

#: The four named PDZ domains of the paper's first experiment.
PDZ_TARGET_NAMES: Tuple[str, ...] = ("NHERF3", "HTRA1", "SCRIB", "SHANK1")

#: Typical PDZ domain length in residues.
_PDZ_LENGTH = 90

# Residue frequencies approximating natural globular-protein composition,
# used to draw plausible native receptor sequences.
_NATURAL_FREQUENCIES = {
    "A": 0.083, "C": 0.014, "D": 0.054, "E": 0.067, "F": 0.039,
    "G": 0.071, "H": 0.023, "I": 0.059, "K": 0.058, "L": 0.097,
    "M": 0.024, "N": 0.040, "P": 0.047, "Q": 0.039, "R": 0.055,
    "S": 0.066, "T": 0.053, "V": 0.068, "W": 0.011, "Y": 0.032,
}


@dataclass(frozen=True)
class DesignTarget:
    """A design problem: a starting complex plus its latent landscape."""

    name: str
    complex: ComplexStructure
    landscape: FitnessLandscape
    seed: int

    @property
    def peptide_sequence(self) -> str:
        return self.complex.peptide.sequence.residues

    @property
    def n_designable(self) -> int:
        return len(self.complex.designable_positions)

    def native_fitness(self) -> float:
        """Latent fitness of the unmodified (native) receptor."""
        return self.landscape.native_fitness()


def _natural_sequence(length: int, rng: np.random.Generator, chain_id: str, name: str) -> ProteinSequence:
    letters = list(_NATURAL_FREQUENCIES.keys())
    weights = np.array([_NATURAL_FREQUENCIES[aa] for aa in letters], dtype=float)
    weights /= weights.sum()
    indices = rng.choice(len(letters), size=length, p=weights)
    residues = "".join(letters[int(i)] for i in indices)
    return ProteinSequence(residues=residues, chain_id=chain_id, name=name)


def _dock_peptide(
    receptor_coords: np.ndarray,
    peptide_length: int,
    rng: np.random.Generator,
    standoff: float = 6.0,
) -> np.ndarray:
    """Place a peptide chain alongside a surface patch of the receptor.

    Each peptide residue sits ``standoff`` angstroms outward from a
    consecutive stretch of receptor residues, guaranteeing a non-empty
    interface under the default 10-angstrom cutoff.
    """
    length = receptor_coords.shape[0]
    if peptide_length >= length:
        raise DatasetError("peptide cannot be longer than the receptor")
    centroid = receptor_coords.mean(axis=0)
    # Choose an anchor stretch biased toward surface residues (far from centroid).
    distances = np.linalg.norm(receptor_coords - centroid, axis=1)
    # Stretches start at 0 .. length - k - 1: the last possible start,
    # ``length - k``, is excluded.  The goldens pin that, so it stays.
    candidate_starts = np.arange(0, length - peptide_length)
    stretch_distance = sliding_window_view(distances, peptide_length)[
        : length - peptide_length
    ].mean(axis=1)
    # Sample among the top-quartile most exposed stretches.
    threshold = linear_quantile(stretch_distance.tolist(), 0.75)
    exposed = candidate_starts[stretch_distance >= threshold]
    start = int(rng.choice(exposed))

    peptide_coords = np.zeros((peptide_length, 3), dtype=float)
    for offset in range(peptide_length):
        anchor = receptor_coords[start + offset]
        outward = anchor - centroid
        norm = np.linalg.norm(outward)
        if norm < 1e-9:
            outward = np.array([1.0, 0.0, 0.0])
            norm = 1.0
        peptide_coords[offset] = anchor + standoff * outward / norm
    return peptide_coords


def make_pdz_target(
    name: str,
    peptide_residues: str = ALPHA_SYNUCLEIN_C10,
    seed: int = 0,
    receptor_length: int = _PDZ_LENGTH,
    interface_cutoff: float = 10.0,
) -> DesignTarget:
    """Construct one synthetic PDZ-peptide design target.

    Parameters
    ----------
    name:
        Target name (also the complex and landscape name).
    peptide_residues:
        Peptide sequence placed in the binding groove.
    seed:
        Root seed; every target-level random choice derives from
        ``(seed, name)`` so targets are independent and reproducible.
    receptor_length:
        Number of receptor residues.
    interface_cutoff:
        CA-CA distance defining designable (interface) positions.
    """
    if receptor_length < 20:
        raise DatasetError("receptor_length must be at least 20 residues")
    if not peptide_residues:
        raise DatasetError("peptide must have at least one residue")

    target_seed = derive_seed(seed, "target", name)
    rng = spawn_rng(target_seed, "assembly")

    receptor_sequence = _natural_sequence(receptor_length, rng, chain_id="A", name=name)
    receptor_coords = synthetic_backbone(
        receptor_length, seed=derive_seed(target_seed, "backbone"), compactness=0.45
    )
    peptide_sequence = ProteinSequence(
        residues=peptide_residues, chain_id="B", name=f"{name}_peptide"
    )
    peptide_coords = _dock_peptide(receptor_coords, len(peptide_residues), rng)

    receptor = Chain(sequence=receptor_sequence, coordinates=receptor_coords)
    peptide = Chain(sequence=peptide_sequence, coordinates=peptide_coords)

    provisional = ComplexStructure(
        name=name,
        receptor=receptor,
        peptide=peptide,
        backbone_quality=float(rng.uniform(0.2, 0.35)),
    )
    designable = provisional.interface_positions(cutoff=interface_cutoff)
    if not designable:
        raise DatasetError(f"target {name!r} has an empty interface")
    complex_structure = ComplexStructure(
        name=name,
        receptor=receptor,
        peptide=peptide,
        backbone_quality=provisional.backbone_quality,
        designable_positions=tuple(designable),
        metadata={"peptide": peptide_residues, "seed": target_seed},
    )
    landscape = FitnessLandscape(
        target_name=name,
        receptor_length=receptor_length,
        designable_positions=designable,
        native_sequence=receptor_sequence,
        seed=derive_seed(target_seed, "landscape"),
    )
    return DesignTarget(
        name=name, complex=complex_structure, landscape=landscape, seed=target_seed
    )


def named_pdz_targets(
    seed: int = 0, peptide_residues: str = ALPHA_SYNUCLEIN_C10
) -> List[DesignTarget]:
    """The four named PDZ targets of Table I / Fig 2 (NHERF3, HTRA1, SCRIB, SHANK1)."""
    return [
        make_pdz_target(name, peptide_residues=peptide_residues, seed=seed)
        for name in PDZ_TARGET_NAMES
    ]


def expanded_pdz_set(
    n_targets: int = 70,
    seed: int = 0,
    peptide_residues: str = ALPHA_SYNUCLEIN_C4,
) -> List[DesignTarget]:
    """The expanded target set of Fig 3 (default 70 PDZ-peptide complexes).

    Targets are named ``PDZ_001`` ... ``PDZ_NNN``; lengths vary mildly around
    the canonical PDZ size to diversify interface sizes.
    """
    if n_targets < 1:
        raise DatasetError("n_targets must be >= 1")
    rng = spawn_rng(seed, "expanded-set")
    targets: List[DesignTarget] = []
    for index in range(n_targets):
        name = f"PDZ_{index + 1:03d}"
        length = int(rng.integers(_PDZ_LENGTH - 10, _PDZ_LENGTH + 15))
        targets.append(
            make_pdz_target(
                name,
                peptide_residues=peptide_residues,
                seed=seed,
                receptor_length=length,
            )
        )
    return targets
