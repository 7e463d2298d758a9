"""Bit-identity of target construction against the original quadratic code.

``synthetic_backbone`` and ``_dock_peptide`` were rewritten for speed; every
coordinate they produce must stay byte-for-byte what the original code
produced, because the fold of every design target (and so every golden and
benchmark digest) derives from them.  The original implementations are kept
here verbatim as oracles.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.protein.datasets import _dock_peptide, expanded_pdz_set
from repro.protein.structure import CA_CA_DISTANCE, synthetic_backbone

#: sha256 over every target of ``expanded_pdz_set(70, seed=0)``, in order:
#: receptor coordinates, peptide coordinates, designable positions.
EXPANDED_SET_SHA256 = "6bac81637ad0eae0d807344e634894cb448cf1ee64d988c7c696f27723215dd6"

SHORT_LENGTHS = range(1, 41)
LONG_LENGTHS = range(80, 131)
SEEDS = range(20)
ORIGIN = (1.5, -2.25, 3.125)


def quadratic_backbone(length, seed, compactness=0.45, origin=(0.0, 0.0, 0.0)):
    """The original O(L^2) walk: a fresh centroid mean at every residue."""
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


def list_mean_dock_peptide(receptor_coords, peptide_length, rng, standoff=6.0):
    """The original peptide placement: one slice mean per stretch start."""
    length = receptor_coords.shape[0]
    centroid = receptor_coords.mean(axis=0)
    distances = np.linalg.norm(receptor_coords - centroid, axis=1)
    candidate_starts = np.arange(0, length - peptide_length)
    stretch_distance = np.array(
        [distances[start:start + peptide_length].mean() for start in candidate_starts]
    )
    threshold = np.quantile(stretch_distance, 0.75)
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


@pytest.mark.parametrize("compactness", [0.0, 0.45, 0.8])
@pytest.mark.parametrize(
    "lengths", [SHORT_LENGTHS, LONG_LENGTHS], ids=["short", "long"]
)
def test_backbone_is_bit_identical_to_the_quadratic_walk(lengths, compactness):
    for length in lengths:
        for seed in SEEDS:
            origin = ORIGIN if seed % 2 else (0.0, 0.0, 0.0)
            expected = quadratic_backbone(length, seed, compactness, origin)
            actual = synthetic_backbone(length, seed, compactness, origin)
            assert actual.shape == expected.shape
            assert actual.tobytes() == expected.tobytes(), (length, seed, compactness)


def test_dock_peptide_is_bit_identical_to_the_slice_means():
    cases = np.random.default_rng(2024)
    for case in range(300):
        length = int(cases.integers(2, 140))
        peptide_length = int(cases.integers(1, min(length, 20)))
        receptor = synthetic_backbone(length, seed=case)
        expected = list_mean_dock_peptide(
            receptor, peptide_length, np.random.default_rng(case)
        )
        actual = _dock_peptide(receptor, peptide_length, np.random.default_rng(case))
        assert actual.tobytes() == expected.tobytes(), (length, peptide_length)


def test_expanded_set_matches_the_golden_digest():
    digest = hashlib.sha256()
    for target in expanded_pdz_set(70, seed=0):
        structure = target.complex
        digest.update(structure.receptor.coordinates.tobytes())
        digest.update(structure.peptide.coordinates.tobytes())
        digest.update(repr(structure.designable_positions).encode())
    assert digest.hexdigest() == EXPANDED_SET_SHA256
