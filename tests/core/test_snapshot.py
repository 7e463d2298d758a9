"""Snapshot codecs: backbone coordinates travel by reference to the target.

A pipeline's complex keeps its target's CA coordinates, so the v2 encoding
writes ``"coordinates": null`` for a chain bit-identical to the target's and
fills it back from the target on decode; anything else is encoded in full,
and v1 checkpoints (coordinates always in full) still resume byte-identically.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.snapshot import decode_complex, encode_complex
from repro.exceptions import CampaignError
from repro.protein.datasets import named_pdz_targets
from repro.protein.structure import Chain
from repro.store.checkpoint import CheckpointStore

CONFIG = CampaignConfig(protocol="cont-v", seed=7, n_cycles=3, n_sequences=5)


@pytest.fixture(scope="module")
def target():
    return named_pdz_targets(seed=11)[0]


def _perturbed(chain):
    coordinates = chain.coordinates.copy()
    coordinates[0, 0] = np.nextafter(coordinates[0, 0], np.inf)
    return Chain(sequence=chain.sequence, coordinates=coordinates)


class TestBackboneByReference:
    def test_target_backbone_encodes_null(self, target):
        reference = target.complex
        sequence = reference.receptor.sequence
        residue = "W" if sequence.residues[0] != "W" else "A"
        designed = reference.with_receptor_sequence(
            sequence.with_substitution(0, residue)
        )
        assert designed.receptor.sequence != sequence
        payload = encode_complex(designed, reference)
        assert payload["receptor"]["coordinates"] is None
        assert payload["peptide"]["coordinates"] is None
        assert payload["receptor"]["residues"] == designed.receptor.sequence.residues
        decoded = decode_complex(json.loads(json.dumps(payload)), reference)
        assert decoded.receptor.coordinates.tobytes() == (
            reference.receptor.coordinates.tobytes()
        )
        assert decoded.receptor.sequence == designed.receptor.sequence

    def test_perturbed_backbone_encodes_in_full(self, target):
        reference = target.complex
        moved = _perturbed(reference.receptor)
        structure = type(reference)(
            name=reference.name,
            receptor=moved,
            peptide=reference.peptide,
            backbone_quality=reference.backbone_quality,
            designable_positions=reference.designable_positions,
            metadata=dict(reference.metadata),
        )
        payload = encode_complex(structure, reference)
        assert payload["receptor"]["coordinates"] == moved.coordinates.tolist()
        assert payload["peptide"]["coordinates"] is None
        decoded = decode_complex(json.loads(json.dumps(payload)), reference)
        assert decoded.receptor.coordinates.tobytes() == moved.coordinates.tobytes()

    def test_without_reference_everything_encodes_in_full(self, target):
        payload = encode_complex(target.complex)
        assert payload["receptor"]["coordinates"] is not None
        assert payload["peptide"]["coordinates"] is not None
        decoded = decode_complex(payload)
        assert decoded.peptide.coordinates.tobytes() == (
            target.complex.peptide.coordinates.tobytes()
        )

    def test_null_without_reference_raises(self, target):
        payload = encode_complex(target.complex, target.complex)
        with pytest.raises(CampaignError, match="no reference"):
            decode_complex(payload)


class TestVersion1Checkpoints:
    def test_v1_line_with_coordinates_resumes_byte_identically(self, tmp_path):
        targets = named_pdz_targets(seed=11)
        reference = json.dumps(
            DesignCampaign(targets, CONFIG).run().as_dict(), sort_keys=True
        )
        campaign = DesignCampaign(targets, CONFIG)
        state = campaign.init_state()
        for _ in range(5):
            state = campaign.step(state)
        by_name = {target.name: target for target in targets}
        # Rewrite the v2 snapshot as a v1 build wrote it: every backbone in full.
        line = state.as_dict()
        pipelines = line["payload"]["pipelines"]
        assert pipelines
        for name, pipeline in pipelines.items():
            for part in ("receptor", "peptide"):
                chain = pipeline["complex"][part]
                assert chain["coordinates"] is None
                chain["coordinates"] = getattr(
                    by_name[name].complex, part
                ).coordinates.tolist()
        store = CheckpointStore(tmp_path / "checkpoints")
        store.path("f" * 8).parent.mkdir(parents=True)
        store.path("f" * 8).write_text(
            json.dumps({
                "schema_version": 1, "fingerprint": "f" * 8, "run_id": "r",
                "worker": "w", "cycle": state.cycle,
                "cycles_total": state.cycles_total, "restorable": True,
                "state": line, "written_at": 0.0,
            }) + "\n"
        )
        revived = store.latest_restorable("f" * 8)
        resumed = DesignCampaign(targets, CONFIG).run_stepwise(resume_from=revived)
        assert json.dumps(resumed.as_dict(), sort_keys=True) == reference
