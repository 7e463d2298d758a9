"""Protein-design application substrate.

The real IMPRESS pipelines call ProteinMPNN (sequence design) and AlphaFold2
(structure prediction) on PDZ-domain / peptide complexes.  Neither model nor
the experimental structures are available offline, so this subpackage
provides surrogate equivalents that preserve the *interfaces* and the
*statistical behaviour* the protocol depends on (see DESIGN.md §2):

* :mod:`repro.protein.alphabet`, :mod:`repro.protein.sequence`,
  :mod:`repro.protein.fasta` — amino-acid sequences and FASTA I/O.
* :mod:`repro.protein.structure`, :mod:`repro.protein.pdb` — coarse
  CA-backbone structures, two-chain complexes, minimal PDB I/O.
* :mod:`repro.protein.landscape` — the latent, epistatic sequence-fitness
  landscape that couples the two surrogates per design target.
* :mod:`repro.protein.mpnn` — :class:`SurrogateProteinMPNN`.
* :mod:`repro.protein.folding` — :class:`SurrogateAlphaFold` producing
  pLDDT / pTM / inter-chain pAE.
* :mod:`repro.protein.metrics` — metric containers and comparison logic.
* :mod:`repro.protein.scoring` — coarse backbone energy scoring.
* :mod:`repro.protein.mutation` — mutation and crossover operators.
* :mod:`repro.protein.datasets` — the four named PDZ targets, the
  alpha-synuclein peptide, and the 70-complex expanded set.

Only the genetic optimizer uses the mutation operators, and no protocol runs
it, so ``point_mutations`` and ``crossover`` resolve lazily (PEP 562,
:mod:`repro._lazy`); every other module here is on the run path and is
imported eagerly.
"""

from repro.protein.alphabet import AMINO_ACIDS, aa_index, is_valid_sequence
from repro.protein.sequence import ProteinSequence, ScoredSequence
from repro.protein.fasta import read_fasta, write_fasta, parse_fasta, format_fasta
from repro.protein.structure import Chain, ComplexStructure
from repro.protein.landscape import FitnessLandscape
from repro.protein.mpnn import MPNNConfig, SurrogateProteinMPNN
from repro.protein.folding import FoldingConfig, FoldingResult, SurrogateAlphaFold
from repro.protein.metrics import QualityMetrics, is_improvement, composite_score
from repro.protein.scoring import ScoringFunction, EnergyBreakdown
from repro.protein.datasets import (
    ALPHA_SYNUCLEIN_C10,
    ALPHA_SYNUCLEIN_C4,
    DesignTarget,
    expanded_pdz_set,
    named_pdz_targets,
)
from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(), {"repro.protein.mutation": ("point_mutations", "crossover")}
)

__all__ = [
    "AMINO_ACIDS",
    "aa_index",
    "is_valid_sequence",
    "ProteinSequence",
    "ScoredSequence",
    "read_fasta",
    "write_fasta",
    "parse_fasta",
    "format_fasta",
    "Chain",
    "ComplexStructure",
    "FitnessLandscape",
    "MPNNConfig",
    "SurrogateProteinMPNN",
    "FoldingConfig",
    "FoldingResult",
    "SurrogateAlphaFold",
    "QualityMetrics",
    "is_improvement",
    "composite_score",
    "ScoringFunction",
    "EnergyBreakdown",
    "point_mutations",
    "crossover",
    "ALPHA_SYNUCLEIN_C10",
    "ALPHA_SYNUCLEIN_C4",
    "DesignTarget",
    "named_pdz_targets",
    "expanded_pdz_set",
]
